"""PCG64DXSM child streams: known answers, determinism, uniformity."""

import hashlib

import numpy as np
import pytest

from gammadex.errors import DomainError
from gammadex.rng import RngStream

# The first eight doubles of RngStream(987654321, 55), made with numpy 2.4:
# PCG64DXSM on SeedSequence(987654321, spawn_key=(55,)), doubles
# (raw >> 11) * 2**-53.
KNOWN_ANSWER = [
    0.7983151118777615,
    0.8522119411717777,
    0.5303578993174883,
    0.9865855009449144,
    0.4584324045244915,
    0.1480202162841916,
    0.7435550007845295,
    0.16102740297801021,
]

# sha256 of the little-endian bytes of uniforms(2**20), made with numpy 2.4.
KNOWN_HASHES = {
    (987654321, 55): "b478dbdf7a2d40b38903cde696ca9015865bd57249c0c7c16b767bef8c1c597f",
    (1729, 1 << 32): "e7f5de7d2ed6358c0d1871ffc465d49071071470f48bf3164fbc98b1f8d6529e",
    (0, 0): "2820cf2245bac3f584e85f51538cfb5af3a99dc42faedcb72909d0fce5de49fe",
    ((1 << 64) - 1, (1 << 64) - 1):
        "c181182a2a2574ad3b2efc4a7170cc3d4aaa90123d3c6b7e5a3e94d33e2da7cf",
}


def _raw_doubles(seed: int, stream_id: int, count: int) -> np.ndarray:
    """(raw >> 11) * 2**-53 of the stream's raw words, the formula NEP 19 keeps stable."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(stream_id,)))
    return (bits.random_raw(count) >> np.uint64(11)) * 2.0**-53


def test_known_answer():
    seed, stream = 987654321, 55
    u = RngStream(seed, stream).uniforms(8)
    assert u.tolist() == KNOWN_ANSWER
    assert np.array_equal(u, _raw_doubles(seed, stream, 8))


@pytest.mark.parametrize("seed, stream", list(KNOWN_HASHES))
def test_long_request_hash(seed, stream):
    u = RngStream(seed, stream).uniforms(2**20)
    assert hashlib.sha256(u.astype("<f8").tobytes()).hexdigest() == KNOWN_HASHES[seed, stream]
    assert np.array_equal(u, _raw_doubles(seed, stream, 2**20))


@pytest.mark.parametrize("seed, stream", [(987654321, 0), (987654321, 55), (7, 3)])
def test_stream_is_numpys_spawned_child(seed, stream):
    """RngStream(s, k) is the k-th child that SeedSequence(s).spawn hands out."""
    child = np.random.SeedSequence(seed).spawn(stream + 1)[stream]
    expected = np.random.Generator(np.random.PCG64DXSM(child)).random(64)
    assert np.array_equal(RngStream(seed, stream).uniforms(64), expected)


def test_streams_are_reproducible():
    a = RngStream(123, 9).uniforms(10_001)
    b = RngStream(123, 9).uniforms(10_001)
    assert np.array_equal(a, b)


def test_chunked_requests_replay_the_same_stream():
    whole = RngStream(5, 0).uniforms(4096)
    r = RngStream(5, 0)
    parts = np.concatenate([r.uniforms(1024) for _ in range(4)])
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("sizes", [(3, 998), (1, 1, 999), (70_000, 1, 160_000)])
def test_split_requests_equal_one_whole_request(sizes):
    whole = RngStream(5, 3).uniforms(sum(sizes))
    r = RngStream(5, 3)
    assert np.array_equal(np.concatenate([r.uniforms(k) for k in sizes]), whole)


def test_distinct_streams_differ():
    base = RngStream(123, 0).uniforms(1000)
    assert not np.array_equal(RngStream(123, 1).uniforms(1000), base)
    assert not np.array_equal(RngStream(124, 0).uniforms(1000), base)


def test_seed_and_stream_id_are_not_interchangeable():
    """seed is the entropy and stream_id the spawn key, so swapping them changes the stream."""
    assert not np.array_equal(RngStream(0, 1).uniforms(1000), RngStream(1, 0).uniforms(1000))


def test_spawn_offsets_stream_id():
    r = RngStream(42, 100)
    child = r.spawn(3)
    assert child.seed == 42 and child.stream_id == 103
    assert np.array_equal(child.uniforms(16), RngStream(42, 103).uniforms(16))


def test_uniform_range_and_moments():
    u = RngStream(2024, 0).uniforms(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    se = 1.0 / np.sqrt(12.0 * len(u))
    assert abs(u.mean() - 0.5) < 4.0 * se
    assert abs(u.var() - 1.0 / 12.0) < 4 * np.sqrt(1.0 / 180.0 / len(u))


def test_large_seed_and_stream_ids():
    big = (1 << 64) - 1
    u = RngStream(big, big).uniforms(100)
    assert np.all((0.0 <= u) & (u < 1.0))


@pytest.mark.parametrize("bad", [-1, 1 << 64, 1.5, "x"])
def test_rejects_bad_seed(bad):
    with pytest.raises(DomainError):
        RngStream(bad)
