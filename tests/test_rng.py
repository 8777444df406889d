"""Philox4x32-10 stream: known-answer vectors, determinism, uniformity."""

import numpy as np
import pytest

from gammadex import rng
from gammadex.errors import DomainError
from gammadex.rng import RngStream, philox4x32_10

# Published known-answer vectors for Philox4x32 with 10 rounds
# (counter words c0..c3, key words k0..k1 -> output words).
KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    (
        (0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
        (0xFFFFFFFF, 0xFFFFFFFF),
        (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
    ),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


@pytest.mark.parametrize(("counter", "key", "expected"), KAT)
def test_known_answer_vectors(counter, key, expected):
    assert philox4x32_10(counter, key) == expected


def test_vectorized_matches_scalar_reference():
    seed, stream = 987654321, 55
    u = RngStream(seed, stream).uniforms(8)
    expected = []
    for block in range(4):
        w = philox4x32_10((block, 0, stream, 0), (seed & 0xFFFFFFFF, seed >> 32))
        expected.append((((w[0] << 32) | w[1]) >> 11) * 2.0**-53)
        expected.append((((w[2] << 32) | w[3]) >> 11) * 2.0**-53)
    assert np.array_equal(u, np.array(expected))


def test_streams_are_reproducible():
    a = RngStream(123, 9).uniforms(10_001)
    b = RngStream(123, 9).uniforms(10_001)
    assert np.array_equal(a, b)


def test_chunked_requests_replay_the_same_stream():
    whole = RngStream(5, 0).uniforms(4096)
    r = RngStream(5, 0)
    parts = np.concatenate([r.uniforms(1024) for _ in range(4)])
    assert np.array_equal(whole, parts)


def _whole_and_split() -> tuple[np.ndarray, np.ndarray]:
    whole = RngStream(5, 3).uniforms(1001)
    r = RngStream(5, 3)
    return whole, np.concatenate([r.uniforms(3), r.uniforms(998)])


def test_chunk_size_changes_no_bits(monkeypatch):
    """1001 uniforms fit one default chunk and span 72 chunks of 7 blocks."""
    whole, split = _whole_and_split()
    monkeypatch.setattr(rng, "_CHUNK_BLOCKS", 7)
    chunked_whole, chunked_split = _whole_and_split()
    assert np.array_equal(chunked_whole, whole)
    assert np.array_equal(chunked_split, split)


def test_odd_request_leaves_the_rest_of_its_block():
    """A call takes whole blocks, so an odd count drops its last block's second double."""
    whole = RngStream(5, 3).uniforms(1002)
    r = RngStream(5, 3)
    assert np.array_equal(r.uniforms(3), whole[:3])
    assert np.array_equal(r.uniforms(998), whole[4:1002])


def test_distinct_streams_differ():
    base = RngStream(123, 0).uniforms(1000)
    assert not np.array_equal(RngStream(123, 1).uniforms(1000), base)
    assert not np.array_equal(RngStream(124, 0).uniforms(1000), base)


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

