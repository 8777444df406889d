"""Sample inequality and dispersion indices.

Four ratio-type statistics over a vector of strictly positive
observations:

* Gini index (pairwise mean absolute difference over the mean),
* Theil T index (income-weighted log deviation),
* Atkinson index (one minus geometric over arithmetic mean),
* variance-to-mean ratio (unbiased sample variance over the mean).

Each index is defined once, as a function of axis 0 of an array, of a
reducer that sums over that axis, and of the array's total under it,
which every index of the same samples shares.  The one-sample API passes
``fsum``, the correctly rounded sum that ``math.fsum`` gives, so sums that
feed ratios are exact to the last bit and the O(n log n) Gini path and the
brute-force pairwise oracle agree to ~1e-15 even for large samples.  From
``_VECTOR_SUM_MIN`` values on ``fsum`` gets that sum from one error-free
extraction pass in numpy's loops (Rump, Ogita & Oishi 2008) when the pass
settles it, and from ``math.fsum`` otherwise.
Monte Carlo blocks are ``(n, samples)`` arrays, pass ``column_sums`` and
get one value per column from the same formulas, except that a short
block's Gini sums its pairs of rows as the definition does.

A ``Sample`` keeps each finite index value it has been asked for, so a
second ``compute_index`` of the same kind, such as the VMR that
``gamma_forms.alpha_plug_in`` reads, costs a dict lookup.  A value that is
not finite is computed again on each call.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import DomainError, NumericError, SizeError

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
    "compute_indices",
    "index_values",
    "column_sums",
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

    # Enum's own hash is a Python-level hash(self._name_), called on every
    # lookup of a kind in a dict; members are singletons, so identity will do
    __hash__ = object.__hash__

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
    """Immutable vector of finite, strictly positive observations.

    Two samples are equal when they hold the same doubles in the same
    order, and hash alike then.  Index values computed of a sample are
    kept in it and take no part in equality.
    """

    values: np.ndarray = field(repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise DomainError(f"sample must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise SizeError("sample must contain at least one observation")
        # the min of an array holding a NaN is NaN, so these two comparisons
        # pass exactly when every value is finite and positive; only a sample
        # that fails them pays for finding its first fault
        if not (arr.min() > 0.0 and arr.max() < math.inf):
            if not np.all(np.isfinite(arr)):
                raise DomainError("sample contains non-finite values")
            bad = float(arr[arr <= 0.0][0])
            raise DomainError(f"sample values must be strictly positive, got {bad!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return self.values.tobytes() == other.values.tobytes()

    def __hash__(self) -> int:
        return hash(self.values.tobytes())

    @property
    def n(self) -> int:
        return int(self.values.size)

    @cached_property
    def total(self) -> float:
        """fsum of the values, computed once per sample."""
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


_SNAP_SLACK = 1e-9  # how far past a bound ``_snap`` takes a value as rounding noise


def _snap(value, lo: float | None = None, hi: float | None = None):
    """Pull values that violate a mathematical bound by rounding noise back onto it."""
    if not isinstance(value, np.ndarray):  # one sample's value: no 0-d arrays to build
        if lo is not None and lo - _SNAP_SLACK <= value < lo:
            return lo
        if hi is not None and hi < value <= hi + _SNAP_SLACK:
            return hi
        return value
    if lo is not None:
        value = np.where((lo - _SNAP_SLACK <= value) & (value < lo), lo, value)
    if hi is not None:
        value = np.where((hi < value) & (value <= hi + _SNAP_SLACK), hi, value)
    return value


def sample_mean(values: SampleLike) -> float:
    """Arithmetic mean of the sample (compensated summation)."""
    return as_sample(values).mean


def gini_pairwise(values: SampleLike) -> float:
    """Sample Gini index by direct O(n^2) enumeration of all pairs.

    G_n = [1/(n-1)] * sum_{i<j} |y_i - y_j| / sum_i y_i.  Kept as the
    brute-force oracle for ``gini``; prefer ``gini`` in real use.
    """
    s = as_sample(values)
    _require_n(s, 2, "gini")
    y = s.values
    pair_sums = [float(np.abs(y[i] - y[i + 1 :]).sum()) for i in range(s.n - 1)]
    numerator = math.fsum(pair_sums)
    return float(_snap(numerator / ((s.n - 1) * s.total), lo=0.0, hi=1.0))


# ---------------------------------------------------------------------------
# One definition per index.  ``y`` holds samples along axis 0 and ``reduce``
# sums over that axis: ``fsum`` for one 1-D sample, ``column_sums`` for a
# block of samples, one per column.  ``total`` is ``reduce(y)``, computed once
# and shared by every index of the same samples.
# ---------------------------------------------------------------------------

Reducer = Callable[[np.ndarray], "float | np.ndarray"]


# From this many values on ``fsum`` makes its extraction pass.  On the
# gamma-derived arrays the kernels sum (2 shared vCPUs, numpy 2.4, medians
# of 15 alternated runs) ``math.fsum`` against the pass took 7.5 against 9.1
# us at 200 values, 9.5/8.8 at 250, 12.0/9.0 at 300 and 30/14 at 600.  The
# bound stays above that crossover, where the one-sample bit pins of 599 and
# 600 values straddle it; a sum in between pays a few microseconds.
_VECTOR_SUM_MIN = 600


def fsum(x: np.ndarray) -> float:
    """Correctly rounded sum of a 1-D array, exactly ``math.fsum(x)``.

    ExtractVector (Rump, Ogita & Oishi 2008, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1)): with 2^M > n + 2 and
    2^e > max|x|, sigma = 2^(M+e) splits each x into q = (x + sigma) - sigma
    and x - q, both exactly.  Every q is a multiple of one power of two and
    the q sum to less than sigma in magnitude, so numpy's pairwise sum of
    them, in whatever order, is exact.  From ``_VECTOR_SUM_MIN`` values on
    ``fsum`` makes that one pass and returns what ``_settled`` proves, as
    the paper's AccSum does, to be the rounded sum; that is almost always
    so.  Any other ``x`` is summed whole by ``math.fsum(x.tolist())``, so a
    NaN, an infinity, only zeros or a sigma beyond the double range give
    what ``math.fsum`` does; ``tolist`` hands it the same doubles as Python
    floats, which it reads faster than boxed numpy scalars.  A sum that
    overflows partway is a ``NumericError``, as ``math.fsum`` finds it; the
    pass, with sigma in range, cannot overflow.
    """
    if x.size >= _VECTOR_SUM_MIN:
        largest = max(x.max(), -x.min())
        exponent = (x.size + 2).bit_length() + math.frexp(largest)[1]
        if 0.0 < largest < math.inf and exponent < 1024:
            sigma = math.ldexp(1.0, exponent)
            q = x + sigma
            q -= sigma
            total = _settled(float(q.sum()), x - q, exponent)
            if total is not None:
                return total
    try:
        return math.fsum(x.tolist())
    except OverflowError:
        raise NumericError("a sum overflows the double range") from None


def _settled(p: float, r: np.ndarray, exponent: int) -> float | None:
    """The correctly rounded p + sum(r), if one float sum of r settles it; else None.

    Each residual of a pass at sigma = 2^e is at most 2^(e-53) in magnitude,
    so numpy's sum of the m residuals, in any order, is within
    err = 2·m²·2^(e-106) of their exact sum: the classic bound
    (m-1)·u/(1 - (m-1)·u)·sum|r|, u = 2^-53, is below m²·2^(e-106)/(1 - m·u),
    and the factor 2 covers that divisor and the rounding of err.
    Below the normal range every rounding error is a multiple of 2^-1074,
    so an err that rounds below it still bounds an error that must be 0.
    TwoSum splits p + sum(r) into s + t exactly, so the true sum lies
    within |t| + err of s, and when that is less than half the gap to
    either neighbour of s, s is its nearest double.  A tie fails the test,
    and so does a zero or subnormal s, whose half gap rounds to 0; they and
    an overflow are left to ``math.fsum``.
    """
    err = math.ldexp(2 * r.size**2, exponent - 106)
    rest = float(r.sum())
    s = p + rest
    if not math.isfinite(s):
        return None
    b = s - p
    t = (p - (s - b)) + (rest - b)
    gap = min(s - math.nextafter(s, -math.inf), math.nextafter(s, math.inf) - s)
    return s if abs(t) + err < 0.5 * gap else None


def column_sums(x: np.ndarray) -> np.ndarray:
    """Sums over axis 0: one per sample of an ``(n, samples)`` block."""
    return x.sum(axis=0)


# A 2-D block of up to this many rows sums |y_i - y_j| over its pairs of rows
# with whole-row ops; longer blocks and one sample sort.  On 25k columns (2
# shared vCPUs, numpy 2.4, medians of runs in shuffled order) the pairs took
# 0.15 ms against 1.6 ms for the sort at n = 2 and 0.33 against 2.0 at n = 5;
# at n = 13 both took 2.3-2.8 ms, and from n = 14 on the sort is faster.
_PAIRWISE_MAX_N = 13


def _gini(y: np.ndarray, total, reduce: Reducer):
    n = y.shape[0]
    if y.ndim == 2 and n <= _PAIRWISE_MAX_N:
        pairs = list(itertools.combinations(range(n), 2))
        numerator = np.abs(y[0] - y[1])  # the first pair starts the sum: no zeros to fill
        diff = np.empty_like(numerator)
        for i, j in pairs[1:]:
            numerator += np.abs(np.subtract(y[i], y[j], out=diff), out=diff)
    else:
        # with y_(1) <= ... <= y_(n), the pairs sum to sum_i (2i - n - 1) y_(i)
        weights = np.arange(1.0 - n, n, 2.0)
        weights = weights.reshape((n,) + (1,) * (y.ndim - 1))
        numerator = reduce(weights * np.sort(y, axis=0))
    return _snap(numerator / ((n - 1) * total), lo=0.0, hi=1.0)


def _theil_t(y: np.ndarray, total, reduce: Reducer):
    # y/mu underflows to 0 for a y tiny against the mean; clamped at the least
    # subnormal, its term y·log(y/mu) stays about 0 instead of taking log(0)
    r = y / (total / y.shape[0])
    np.maximum(r, 5e-324, out=r)
    np.log(r, out=r)
    r *= y
    return _snap(reduce(r) / total, lo=0.0)


def _atkinson(y: np.ndarray, total, reduce: Reducer):
    n = y.shape[0]
    log_ratio = reduce(np.log(y)) / n - np.log(total / n)
    return _snap(0.0 - np.expm1(log_ratio), lo=0.0)  # +0.0, not -0.0, for equal values


def _vmr(y: np.ndarray, total, reduce: Reducer):
    n = y.shape[0]
    mu = total / n
    return reduce(np.square(y - mu)) / (n - 1) / mu


_KERNELS = {
    IndexKind.GINI: _gini,
    IndexKind.THEIL_T: _theil_t,
    IndexKind.ATKINSON: _atkinson,
    IndexKind.VMR: _vmr,
}


def index_values(kinds: Sequence[IndexKind], y: np.ndarray, reduce: Reducer = column_sums) -> list:
    """Each index in ``kinds`` of each sample along axis 0 of ``y``.

    ``y`` is summed once for all kinds.  With the default ``column_sums`` an
    ``(n, samples)`` block of strictly positive values gives one
    length-``samples`` array per kind; no input checks are made.  One
    ``Sample`` goes through ``compute_index`` instead.
    """
    total = reduce(y)
    return [_KERNELS[kind](y, total, reduce) for kind in kinds]


def _kept_value(kind: IndexKind, s: Sample) -> float:
    """One index of one sample; the sample keeps the value if it is finite."""
    value = s._memo.get(kind)
    if value is None:
        _require_n(s, kind.min_n, kind.value)
        value = float(_KERNELS[kind](s.values, s.total, fsum))
        if math.isfinite(value):
            s._memo[kind] = value
    return value


def compute_index(kind: IndexKind, values: SampleLike) -> float:
    """Evaluate one index selected by kind, with compensated sums."""
    return _kept_value(kind, as_sample(values))


def compute_indices(kinds: Sequence[IndexKind], values: SampleLike) -> dict[IndexKind, float]:
    """``compute_index`` of one sample for each kind in ``kinds``."""
    s = as_sample(values)
    return {kind: _kept_value(kind, s) for kind in kinds}


def gini(values: SampleLike) -> float:
    """Sample Gini index in O(n log n) via the order-statistics identity.

    With y_(1) <= ... <= y_(n), sum_{i<j} |y_i - y_j| equals
    sum_i (2i - n - 1) y_(i); ties need no special handling.
    """
    return compute_index(IndexKind.GINI, values)


gini_sorted = gini


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
