"""Deterministic, splittable random streams built on Philox4x32-10.

Philox is a counter-based generator: output block ``i`` of a stream is a
pure function of ``(seed, stream_id, i)``, so sequences are reproducible
bit-for-bit across runs and platforms, and distinct ``stream_id`` values
give statistically independent streams that can be handed to parallel
workers without coordination.

Layout of the 128-bit counter / 64-bit key per 4x32 block:

* key      = (seed low 32, seed high 32)
* counter  = (block low 32, block high 32, stream low 32, stream high 32)

Each block yields four 32-bit words, packed into two doubles in [0, 1)
using the top 53 bits of each 64-bit half.  The scalar reference
implementation ``philox4x32_10`` reproduces the published test vectors
(see tests); the vectorized path is checked against it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["RngStream", "philox4x32_10"]

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
_INV53 = 2.0**-53
_ROUNDS = 10
_CHUNK_BLOCKS = 1 << 15  # keep the working set cache-sized

_U64_MAX = (1 << 64) - 1


def philox4x32_10(counter: tuple[int, int, int, int], key: tuple[int, int]) -> tuple[int, int, int, int]:
    """One Philox4x32 block with 10 rounds; scalar reference path."""
    c0, c1, c2, c3 = (int(c) & 0xFFFFFFFF for c in counter)
    k0, k1 = (int(k) & 0xFFFFFFFF for k in key)
    for _ in range(_ROUNDS):
        p0 = c0 * 0xD2511F53
        p1 = c2 * 0xCD9E8D57
        c0, c1, c2, c3 = (
            ((p1 >> 32) ^ c1 ^ k0) & 0xFFFFFFFF,
            p1 & 0xFFFFFFFF,
            ((p0 >> 32) ^ c3 ^ k1) & 0xFFFFFFFF,
            p0 & 0xFFFFFFFF,
        )
        k0 = (k0 + _W0) & 0xFFFFFFFF
        k1 = (k1 + _W1) & 0xFFFFFFFF
    return c0, c1, c2, c3


def _round_keys(key0: int, key1: int) -> list[tuple[np.uint64, np.uint64]]:
    return [
        (np.uint64((key0 + r * _W0) & 0xFFFFFFFF), np.uint64((key1 + r * _W1) & 0xFFFFFFFF))
        for r in range(_ROUNDS)
    ]


def _require_u64(v: int, name: str) -> int:
    if not isinstance(v, int) or not 0 <= v <= _U64_MAX:
        raise DomainError(f"{name} must be an unsigned 64-bit integer, got {v!r}")
    return v


class RngStream:
    """One deterministic uniform stream identified by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self.seed = _require_u64(seed, "seed")
        self.stream_id = _require_u64(stream_id, "stream_id")
        self._round_keys = _round_keys(seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF)
        self._block = 0

    def spawn(self, offset: int) -> "RngStream":
        """Fresh stream with the same seed and stream_id shifted by offset."""
        return RngStream(self.seed, (self.stream_id + offset) & _U64_MAX)

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` doubles in [0, 1) from the next ``(count + 1) // 2`` whole blocks.

        An odd ``count`` leaves its last block's second double unused, so
        ``uniforms(3)`` then ``uniforms(998)`` skip value 3 of ``uniforms(1002)``.
        """
        count = int(count)
        if count < 0:
            raise DomainError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.empty(0)
        n_blocks = (count + 1) // 2
        out = np.empty(2 * n_blocks)
        stream_lo = np.uint64(self.stream_id & 0xFFFFFFFF)
        stream_hi = np.uint64((self.stream_id >> 32) & 0xFFFFFFFF)
        start = self._block
        done = 0
        while done < n_blocks:
            m = min(_CHUNK_BLOCKS, n_blocks - done)
            i = np.arange(start + done, start + done + m, dtype=np.uint64)
            c0 = i & _MASK32
            c1 = i >> _SH32
            c2 = np.full(m, stream_lo, dtype=np.uint64)
            c3 = np.full(m, stream_hi, dtype=np.uint64)
            p0 = np.empty(m, dtype=np.uint64)
            p1 = np.empty(m, dtype=np.uint64)
            for k0, k1 in self._round_keys:
                np.multiply(c0, _M0, out=p0)
                np.multiply(c2, _M1, out=p1)
                np.right_shift(p1, _SH32, out=c0)
                c0 ^= c1
                c0 ^= k0
                np.bitwise_and(p1, _MASK32, out=c1)
                np.right_shift(p0, _SH32, out=c2)
                c2 ^= c3
                c2 ^= k1
                np.bitwise_and(p0, _MASK32, out=c3)
            np.left_shift(c0, _SH32, out=p0)
            p0 |= c1
            p0 >>= _SH11
            np.left_shift(c2, _SH32, out=p1)
            p1 |= c3
            p1 >>= _SH11
            seg = out[2 * done : 2 * (done + m)]
            seg[0::2] = p0 * _INV53
            seg[1::2] = p1 * _INV53
            done += m
        self._block += n_blocks
        return out[:count]

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, block={self._block})"
