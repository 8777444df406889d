"""Deterministic, splittable random streams on numpy's Philox4x64-10.

Philox is a counter-based generator (Salmon et al. 2011): its output is a
pure function of a 128-bit key and a counter, so sequences are
reproducible bit-for-bit across runs and platforms, and distinct keys give
statistically independent streams that can be handed to parallel workers
without coordination.  Each ``RngStream`` owns one ``numpy.random.Philox``
whose key is ``seed | stream_id << 64`` and whose counter starts at 0.

Doubles are ``(raw >> 11) * 2**-53`` of the bit generator's raw 64-bit
words, never ``Generator.random``: NEP 19 keeps a BitGenerator's raw
stream stable across numpy versions but not the output of ``Generator``
methods.  The bit generator buffers the unused words of its last block,
so split requests return exactly what one whole request returns.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["RngStream"]

_U64_MAX = (1 << 64) - 1
_INV53 = 2.0**-53
_PIECE = 1 << 16  # raw words converted at a time, so no request-sized uint64 copy lives


def _require_u64(v: int, name: str) -> int:
    if not isinstance(v, int) or not 0 <= v <= _U64_MAX:
        raise DomainError(f"{name} must be an unsigned 64-bit integer, got {v!r}")
    return v


class RngStream:
    """One deterministic uniform stream identified by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self.seed = _require_u64(seed, "seed")
        self.stream_id = _require_u64(stream_id, "stream_id")
        self._bits = np.random.Philox(key=seed | stream_id << 64)

    def spawn(self, offset: int) -> "RngStream":
        """Fresh stream with the same seed and stream_id shifted by offset."""
        return RngStream(self.seed, (self.stream_id + offset) & _U64_MAX)

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` doubles of the stream, in [0, 1)."""
        count = int(count)
        if count < 0:
            raise DomainError(f"count must be non-negative, got {count}")
        out = np.empty(count)
        for start in range(0, count, _PIECE):
            raw = self._bits.random_raw(min(_PIECE, count - start))
            raw >>= 11
            np.multiply(raw, _INV53, out=out[start : start + raw.size])
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
