"""Philox4x64-10 stream: known answers, determinism, uniformity."""

import numpy as np
import pytest

from gammadex.errors import DomainError
from gammadex.rng import RngStream

# The first eight doubles of RngStream(987654321, 55), made with numpy 2.4:
# key words (seed, stream_id), counter 0, doubles (raw >> 11) * 2**-53.
KNOWN_ANSWER = [
    0.8802380665063829,
    0.05669705776851197,
    0.48477077495381016,
    0.4670157648326425,
    0.4106401448444388,
    0.9749944397248134,
    0.6697329303025451,
    0.4191285226178869,
]


def test_known_answer():
    seed, stream = 987654321, 55
    u = RngStream(seed, stream).uniforms(8)
    assert u.tolist() == KNOWN_ANSWER
    bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    raw = bits.random_raw(8)
    assert u.tolist() == [(int(w) >> 11) * 2.0**-53 for w in raw]


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


def test_key_packs_seed_and_stream_id_apart():
    """seed and stream_id fill separate key words, so swapping them changes the stream."""
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
