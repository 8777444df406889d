"""Deterministic, splittable random streams on numpy's PCG64DXSM.

PCG64DXSM (O'Neill's permuted congruential family, with the DXSM output
function) is numpy's recommended bit generator: a 128-bit LCG state with a
64-bit output permutation, fast in C and statistically strong.  Each
``RngStream(seed, stream_id)`` owns one ``numpy.random.Generator`` on a
``PCG64DXSM`` keyed by ``SeedSequence(seed, spawn_key=(stream_id,))``, which
is numpy's own ``stream_id``-th child of ``SeedSequence(seed)``.  Spawning
children of one seed sequence is numpy's documented way to give parallel
workers independent streams: the seed sequence hashes the seed and the spawn
key into the generator's state, so distinct (seed, stream_id) pairs start
from unrelated states.

Doubles are ``(next_uint64 >> 11) * 2**-53``, made by one
``Generator.random(out=...)`` call per request: numpy's C fill loop, which
runs with the interpreter lock released.  NEP 19 keeps a BitGenerator's raw
stream stable across numpy versions but not the output of ``Generator``
methods, so the known-answer tests pin both the first doubles and their
equality with that formula over ``random_raw``, and a hash of a long request.
Each double takes one whole raw word, so split requests return exactly what
one whole request returns.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["RngStream"]

_U64_MAX = (1 << 64) - 1


def _require_u64(v: int, name: str) -> int:
    if not isinstance(v, int) or not 0 <= v <= _U64_MAX:
        raise DomainError(f"{name} must be an unsigned 64-bit integer, got {v!r}")
    return v


class RngStream:
    """One deterministic uniform stream identified by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self.seed = _require_u64(seed, "seed")
        self.stream_id = _require_u64(stream_id, "stream_id")
        keys = np.random.SeedSequence(seed, spawn_key=(stream_id,))
        self._gen = np.random.Generator(np.random.PCG64DXSM(keys))

    def spawn(self, offset: int) -> "RngStream":
        """Fresh stream with the same seed and stream_id shifted by offset."""
        return RngStream(self.seed, (self.stream_id + offset) & _U64_MAX)

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` doubles of the stream, in [0, 1)."""
        count = int(count)
        if count < 0:
            raise DomainError(f"count must be non-negative, got {count}")
        return self._gen.random(out=np.empty(count))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
