"""Real-valued special functions: log-gamma, digamma, log-beta.

Everything here is self-contained (no scipy): the Stirling asymptotic
series is used for large arguments and the standard upward recurrences
push small arguments into its range.  Accuracy targets, checked by the
test suite:

* ``log_gamma``: relative error <= 1e-12 on [1e-3, 1e6]
* ``digamma``:   absolute error <= 1e-10 on [1e-3, 1e6]
* ``log_minus_digamma`` and ``log_minus_digamma_plus_one``: relative
  error <= 1e-12 for x > 0
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

__all__ = ["log_gamma", "digamma", "log_minus_digamma", "log_minus_digamma_plus_one", "log_beta",
           "duplication_residual"]

_HALF_LOG_TWO_PI = 0.9189385332046727  # ln(2*pi)/2
_HALF_LOG_PI = 0.5723649429247001  # ln(pi)/2
_LOG_TWO = 0.6931471805599453

# Arguments below this are lifted by the recurrence before the series is used.
_SERIES_START = 10.0

# Stirling series for ln Gamma: coefficients of x^-(2k-1), B_2k / (2k (2k-1)).
_LGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# Stirling series for psi: coefficients of x^-2k, B_2k / (2k).
_DIGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def _require_positive(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} must be a finite positive real, got {x!r}")
    return x


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Uses ln Gamma(x) = ln Gamma(x + m) - sum ln(x + j) to reach the
    asymptotic range, then the Stirling series.
    """
    x = _require_positive(x, "x")
    shift_logs = []
    while x < _SERIES_START:
        shift_logs.append(math.log(x))
        x += 1.0
    t = 1.0 / x
    t2 = t * t
    series = 0.0
    for c in reversed(_LGAMMA_COEF):
        series = series * t2 + c
    series *= t
    value = (x - 0.5) * math.log(x) - x + _HALF_LOG_TWO_PI + series
    if shift_logs:
        value -= math.fsum(shift_logs)
    return value


def _digamma_series(x: float) -> tuple[float, float, list[float]]:
    """(y, series, shift_terms) with psi(x) = log(y) - 1/(2y) - series - sum(shift_terms).

    y = x + m is x lifted into the asymptotic range by m recurrence steps,
    shift_terms are their 1/(x + j), and series is sum_k B_2k/(2k y^2k).
    """
    shift_terms = []
    while x < _SERIES_START:
        shift_terms.append(1.0 / x)
        x += 1.0
    t2 = (1.0 / x) ** 2
    series = 0.0
    for c in reversed(_DIGAMMA_COEF):
        series = series * t2 + c
    return x, series * t2, shift_terms


def digamma(x: float) -> float:
    """Digamma (psi) function for x > 0.

    Satisfies the recurrence psi(x + 1) = psi(x) + 1/x, which is also how
    small arguments are lifted into the asymptotic range.
    """
    y, series, shift_terms = _digamma_series(_require_positive(x, "x"))
    return math.log(y) - 0.5 / y - series - math.fsum(shift_terms)


def _log_minus_digamma(x: float, start: float) -> float:
    """log(x) - psi(start), summed from digamma's own terms at start, in which nothing cancels.

    The terms are 1/(2y) + series + sum(shift_terms) + log(x/y); where x/y
    would be subnormal, its log is taken as log(x) - log(y).
    """
    y, series, shift_terms = _digamma_series(start)
    ratio = x / y
    log_part = math.log(ratio) if ratio >= sys.float_info.min else math.log(x) - math.log(y)
    return math.fsum([0.5 / y, series, *shift_terms, log_part])


def log_minus_digamma(x: float) -> float:
    """log(x) - psi(x) for x > 0, to full relative accuracy at every x.

    The two terms agree to about log10(x) digits, so their difference loses
    that many; it is summed instead from digamma's own terms.
    """
    x = _require_positive(x, "x")
    return _log_minus_digamma(x, x)


def log_minus_digamma_plus_one(x: float) -> float:
    """log(x) - psi(x + 1) for x > 0, to full relative accuracy at every x.

    Below the series range it is summed from digamma's terms at x + 1, which
    are those at x less the shift term 1/x: no 1/x is formed, and nothing of
    that size cancels at tiny x.
    """
    x = _require_positive(x, "x")
    if x >= _SERIES_START:
        return log_minus_digamma(x) - 1.0 / x  # psi(x + 1) = psi(x) + 1/x
    return _log_minus_digamma(x, x + 1.0)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b)."""
    a = _require_positive(a, "a")
    b = _require_positive(b, "b")
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def duplication_residual(alpha: float) -> float:
    """Residual of the Legendre duplication identity at alpha.

    Returns ln Gamma(a) + ln Gamma(a + 1/2) - [(1 - 2a) ln 2 + ln(pi)/2
    + ln Gamma(2a)], which is exactly zero for every a > 0; the returned
    value is therefore a direct measure of the kernel's internal
    consistency.
    """
    alpha = _require_positive(alpha, "alpha")
    lhs = log_gamma(alpha) + log_gamma(alpha + 0.5)
    rhs = (1.0 - 2.0 * alpha) * _LOG_TWO + _HALF_LOG_PI + log_gamma(2.0 * alpha)
    return lhs - rhs
