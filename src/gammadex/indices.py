"""Sample inequality and dispersion indices.

Four ratio-type statistics over a vector of strictly positive
observations:

* Gini index (pairwise mean absolute difference over the mean),
* Theil T index (income-weighted log deviation),
* Atkinson index (one minus geometric over arithmetic mean),
* variance-to-mean ratio (unbiased sample variance over the mean).

Each index is defined once, as a function of the last axis of an array
and of a row-sum reducer.  The one-sample API passes ``fsum``, which is
``math.fsum`` over the array's values as a Python list, so sums that feed
ratios are correctly rounded and the O(n log n) Gini path and the
brute-force pairwise oracle agree to ~1e-15 even for large samples; Monte
Carlo blocks pass ``row_sums`` and get one value per row of a 2-D array
from the same formulas.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

import numpy as np

from .errors import DomainError, SizeError

__all__ = [
    "Sample",
    "IndexKind",
    "sample_mean",
    "gini",
    "gini_pairwise",
    "gini_sorted",
    "theil_t",
    "atkinson",
    "vmr",
    "compute_index",
    "index_values",
    "row_sums",
]


class IndexKind(enum.Enum):
    """Selector over the four supported indices.

    The value is the index's name; ``min_n`` is the smallest sample it is
    defined for, fixed once per member.
    """

    GINI = ("gini", 2)
    THEIL_T = ("theil", 1)
    ATKINSON = ("atkinson", 1)
    VMR = ("vmr", 2)

    def __new__(cls, label: str, min_n: int) -> "IndexKind":
        member = object.__new__(cls)
        member._value_ = label
        member.min_n = min_n
        return member

    @classmethod
    def parse(cls, label: str) -> "IndexKind":
        try:
            return cls(label.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise DomainError(f"unknown index kind {label!r} (expected one of {valid})") from None


@dataclass(frozen=True)
class Sample:
    """Immutable vector of finite, strictly positive observations."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise DomainError(f"sample must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise SizeError("sample must contain at least one observation")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample contains non-finite values")
        if np.any(arr <= 0.0):
            bad = float(arr[arr <= 0.0][0])
            raise DomainError(f"sample values must be strictly positive, got {bad!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def total(self) -> float:
        return fsum(self.values)

    @property
    def mean(self) -> float:
        return self.total / self.n


SampleLike = Union[Sample, np.ndarray, Iterable[float]]


def as_sample(values: SampleLike) -> Sample:
    return values if isinstance(values, Sample) else Sample(np.asarray(values, dtype=float))


def _require_n(s: Sample, minimum: int, what: str) -> None:
    if s.n < minimum:
        raise SizeError(f"{what} needs at least {minimum} observations, got {s.n}")


def _snap(value, lo: float | None = None, hi: float | None = None, slack: float = 1e-9):
    """Pull values that violate a mathematical bound by rounding noise back onto it."""
    if lo is not None:
        value = np.where((lo - slack <= value) & (value < lo), lo, value)
    if hi is not None:
        value = np.where((hi < value) & (value <= hi + slack), hi, value)
    return value


def sample_mean(values: SampleLike) -> float:
    """Arithmetic mean of the sample (compensated summation)."""
    return as_sample(values).mean


def gini_pairwise(values: SampleLike) -> float:
    """Sample Gini index by direct O(n^2) enumeration of all pairs.

    G_n = [1/(n-1)] * sum_{i<j} |y_i - y_j| / sum_i y_i.  Kept as the
    brute-force oracle for ``gini_sorted``; prefer ``gini`` in real use.
    """
    s = as_sample(values)
    _require_n(s, 2, "gini")
    y = s.values
    pair_sums = [float(np.abs(y[i] - y[i + 1 :]).sum()) for i in range(s.n - 1)]
    numerator = math.fsum(pair_sums)
    return float(_snap(numerator / ((s.n - 1) * s.total), lo=0.0, hi=1.0))


# ---------------------------------------------------------------------------
# One definition per index.  ``y`` holds samples along its last axis and
# ``reduce`` sums over that axis: ``fsum`` for one sample, ``row_sums`` for
# a block of samples (one per row).
# ---------------------------------------------------------------------------

Reducer = Callable[[np.ndarray], "float | np.ndarray"]


def fsum(x: np.ndarray) -> float:
    """Correctly rounded sum of a 1-D array, exactly ``math.fsum(x)``.

    ``tolist`` hands ``math.fsum`` the same doubles as Python floats, which
    it reads faster than numpy scalars boxed one element at a time.
    """
    return math.fsum(x.tolist())


def row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, kept as a length-1 axis so they broadcast."""
    return x.sum(axis=-1, keepdims=True)


def _gini(y: np.ndarray, reduce: Reducer):
    n = y.shape[-1]
    weights = 2.0 * np.arange(1, n + 1) - n - 1.0
    numerator = reduce(weights * np.sort(y, axis=-1))
    return _snap(numerator / ((n - 1) * reduce(y)), lo=0.0, hi=1.0)


def _theil_t(y: np.ndarray, reduce: Reducer):
    total = reduce(y)
    mu = total / y.shape[-1]
    return _snap(reduce(y * np.log(y / mu)) / total, lo=0.0)


def _atkinson(y: np.ndarray, reduce: Reducer):
    n = y.shape[-1]
    log_ratio = reduce(np.log(y)) / n - np.log(reduce(y) / n)
    return _snap(0.0 - np.expm1(log_ratio), lo=0.0)  # +0.0, not -0.0, for equal values


def _vmr(y: np.ndarray, reduce: Reducer):
    n = y.shape[-1]
    mu = reduce(y) / n
    return reduce(np.square(y - mu)) / (n - 1) / mu


_KERNELS = {
    IndexKind.GINI: _gini,
    IndexKind.THEIL_T: _theil_t,
    IndexKind.ATKINSON: _atkinson,
    IndexKind.VMR: _vmr,
}


def index_values(kind: IndexKind, y: np.ndarray, reduce: Reducer = row_sums):
    """The index of each sample along the last axis of ``y``.

    With the default ``row_sums`` a 2-D array of strictly positive values
    gives an ``(rows, 1)`` column; no input checks are made.
    """
    return _KERNELS[kind](y, reduce)


def compute_index(kind: IndexKind, values: SampleLike) -> float:
    """Evaluate one index selected by kind, with compensated sums."""
    s = as_sample(values)
    _require_n(s, kind.min_n, kind.value)
    return float(index_values(kind, s.values, fsum))


def gini_sorted(values: SampleLike) -> float:
    """Sample Gini index in O(n log n) via the order-statistics identity.

    With y_(1) <= ... <= y_(n), sum_{i<j} |y_i - y_j| equals
    sum_i (2i - n - 1) y_(i); ties need no special handling.
    """
    return compute_index(IndexKind.GINI, values)


def gini(values: SampleLike) -> float:
    """Sample Gini index (sorted evaluation)."""
    return gini_sorted(values)


def theil_t(values: SampleLike) -> float:
    """Sample Theil T index: sum_i y_i log(y_i / mean) / sum_i y_i.

    Zero for a single observation and for constant samples; bounded by
    log(n).
    """
    return compute_index(IndexKind.THEIL_T, values)


def atkinson(values: SampleLike) -> float:
    """Sample Atkinson index: 1 - geometric mean / arithmetic mean.

    The geometric mean is evaluated as exp(mean of logs); the ratio is
    formed in log space so a singleton gives exactly zero.
    """
    return compute_index(IndexKind.ATKINSON, values)


def vmr(values: SampleLike) -> float:
    """Sample variance-to-mean ratio with the unbiased (n-1) variance."""
    return compute_index(IndexKind.VMR, values)
