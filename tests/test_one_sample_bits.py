"""The one-sample path, pinned to the last bit.

Each case is a seeded gamma sample of ``n`` values at shape ``alpha``.
Sizes 599 and 600 sit on either side of ``indices._VECTOR_SUM_MIN``, where
``fsum`` moves from ``math.fsum`` to error-free extraction in numpy's loops.
The values are the ``float.hex`` of ``compute_indices`` over every kind, of
``debias`` of each at the true shape and of ``alpha_plug_in``, recorded
once, so a change to the path that moves any bit fails here.

numpy's gamma stream is not fixed across versions (NEP 19), so the draws
are rounded to float32, which hides a change in their last bits, and the
hash of the input tells a changed input apart from a changed index path.
Theil and Atkinson rest on numpy's log and expm1 loops; the values were
the same with its AVX-512 loops on and off.
"""

import hashlib

import numpy as np
import pytest

from gammadex.gamma_forms import GammaParams, alpha_plug_in, debias
from gammadex.indices import IndexKind, Sample, compute_index, compute_indices

KINDS = tuple(IndexKind)

# (n, alpha, seed): input sha256 prefix, indices, debiased indices, plug-in shape
PINNED = {
    (2, 0.5, 11): (
        "0743a9ec35009ce0",
        ("0x1.1d56a9fa3139dp-3", "0x1.3f138d98c8deep-7", "0x1.3f9912a5b6cfep-7", "0x1.86eee6f497d4bp-11"),
        ("0x1.1d56a9fa3139dp-3", "0x1.bae6fcdecf839p-2", "0x1.206d02a1de2d3p-1", "0x1.86eee6f497d4bp-10"),
        "0x1.9c2005876fb3dp+4",
    ),
    (5, 2.0, 12): (
        "8acc740a70135994",
        ("0x1.80fcd691ab7f4p-2", "0x1.35d1f2974c700p-3", "0x1.21082c4afe662p-3", "0x1.eb2a282c4c789p-1"),
        ("0x1.80fcd691ab7f4p-2", "0x1.9a83e03490bcap-3", "0x1.8ab2c403e07f0p-3", "0x1.0e23fc7ec3a8bp+0"),
        "0x1.3953720c52492p+1",
    ),
    (100, 1.0, 13): (
        "3c10471e87f13071",
        ("0x1.ee13f096cd927p-2", "0x1.8defff124b61fp-2", "0x1.a29ed71d0c6bdp-2", "0x1.d15d02256278ep-1"),
        ("0x1.ee13f096cd927p-2", "0x1.930c882811cbep-2", "0x1.a78e219988c7ap-2", "0x1.d60456a5c22d4p-1"),
        "0x1.136acae76bbbdp+0",
    ),
    (599, 0.5, 14): (
        "f7ea41e428be42ca",
        ("0x1.49a73958e38a5p-1", "0x1.84796ab6ef369p-1", "0x1.728f8ba5622a2p-1", "0x1.2d91ce32ec833p+0"),
        ("0x1.49a73958e38a5p-1", "0x1.85541cf52393bp-1", "0x1.73241b7ec9294p-1", "0x1.2e93930de974bp+0"),
        "0x1.c555c8de541bdp-2",
    ),
    (600, 5.0, 15): (
        "03414eee22b7054a",
        ("0x1.dd95c79299defp-3", "0x1.6082da28ff123p-4", "0x1.65b320b09ce0fp-4", "0x1.c79610ab0f181p-1"),
        ("0x1.dd95c79299defp-3", "0x1.61319aead3dd3p-4", "0x1.666398841ea30p-4", "0x1.c7bcf119b53e3p-1"),
        "0x1.6abdb7634b2dfp+2",
    ),
    (5000, 2.0, 16): (
        "c2d57aaeb6c6fa48",
        ("0x1.8223a8d91a8d8p-2", "0x1.dc656926a2106p-3", "0x1.e821fca2026f6p-3", "0x1.0253ffbaf5767p+0"),
        ("0x1.8223a8d91a8d8p-2", "0x1.dc7f9feceb18dp-3", "0x1.e83bbd24594bcp-3", "0x1.025a9cb5a08bep+0"),
        "0x1.f3b36efdbc3b2p+0",
    ),
}


@pytest.mark.parametrize(("n", "alpha", "seed"), PINNED, ids=[f"n={n}" for n, _, _ in PINNED])
def test_one_sample_values_are_pinned(n, alpha, seed):
    input_hash, indices, debiased, plug_in = PINNED[n, alpha, seed]
    y = np.random.default_rng(seed).gamma(alpha, 1.0, n).astype(np.float32).astype(float)
    assert hashlib.sha256(y.astype("<f8").tobytes()).hexdigest()[:16] == input_hash

    values = compute_indices(KINDS, Sample(y))
    assert [values[k].hex() for k in KINDS] == list(indices)
    params = GammaParams(alpha)
    assert [debias(k, params, n, values[k]).hex() for k in KINDS] == list(debiased)
    assert alpha_plug_in(Sample(y)).hex() == plug_in

    # one kind at a time on one sample, as a caller of compute_index does,
    # then the plug-in from the VMR that sample keeps
    s = Sample(y)
    assert [compute_index(k, s).hex() for k in KINDS] == list(indices)
    assert alpha_plug_in(s).hex() == plug_in
