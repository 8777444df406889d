"""Real-valued special functions: log-gamma, digamma, log-beta, and
cancellation-free combinations of them.

``log_gamma`` is ``math.lgamma``.  The rest is self-contained (no scipy):
the Stirling asymptotic series is used for large arguments and the
standard upward recurrences push small arguments into its range.
Accuracy targets, checked by the test suite against mpmath:

* ``log_gamma``: relative error <= 1e-14 on [1e-3, 0.5] and [2.5, 1e6],
  absolute error <= 2e-15 between, around its zeros at 1 and 2
* ``digamma``:   absolute error <= 1e-10 on [1e-3, 1e6]
* ``log_minus_digamma`` and ``log_minus_digamma_plus_one``: relative
  error <= 1e-12 for x > 0
* ``log_power_mean_ratio``, ``log_power_geometric_ratio`` and
  ``log_n_digamma_gap``: relative error <= 1e-14 for x >= 0.0493 and
  1 <= n <= 1e12
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

__all__ = ["log_gamma", "digamma", "log_minus_digamma", "log_minus_digamma_plus_one",
           "log_power_mean_ratio", "log_power_geometric_ratio", "log_n_digamma_gap",
           "log_beta", "duplication_residual"]

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


def _atanh_tail(s2: float) -> float:
    """s^2/3 + s^4/5 + ... + s^16/17 at s2 = s^2.

    log1p(t) = 2 atanh(s) = 2s (1 + tail) with s = t/(2 + t).  The first
    omitted term is below 1e-17 of s for s <= 1/9, that is t <= 1/4.
    """
    return s2 * (1 / 3 + s2 * (1 / 5 + s2 * (1 / 7 + s2 * (1 / 9 + s2 * (
        1 / 11 + s2 * (1 / 13 + s2 * (1 / 15 + s2 * (1 / 17))))))))


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0, from ``math.lgamma``.

    +inf where ln Gamma(x) overflows, above about x = 2.6e305.
    """
    x = _require_positive(x, "x")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


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


def log_power_mean_ratio(x: float, n: int) -> float:
    """q(x, n) = n (ln Gamma(x + 1/n) - ln Gamma(x)) - log x for x > 0 and whole n >= 1.

    For Y ~ Gamma(x, 1) this is log(E[Y^(1/n)]^n / E[Y]), the log of the
    power mean of order 1/n over the mean, and it is 0 at n = 1.  It is
    summed with ``math.fsum`` from terms in which nothing large cancels, with
    h = 1/n only inside t = h/y and n h = 1 used exactly:

    * x is lifted to y = x + m >= 10 as ``digamma`` lifts it, each shift
      giving -n log1p(h/(x + j));
    * Stirling's form at y gives n y log1pmx(t) - n log1p(t)/2 + log((y + h)/x),
      with log1pmx(t) = log1p(t) - t from the atanh series in s = t/(2 + t);
    * its series gives n c_k y^-(2k-1) expm1(-(2k-1) log1p(t)), k = 1..8.
    """
    x = _require_positive(x, "x")
    if n == 1:
        return 0.0  # Gamma(x + 1) = x Gamma(x)
    h = 1.0 / n
    terms = []
    y = x
    while y < _SERIES_START:
        r = h / y
        # where h/y overflows, log1p(h/y) is log(h) - log(y) to within 1e-308
        terms.append(-n * (math.log1p(r) if r < math.inf else math.log(h) - math.log(y)))
        y += 1.0
    t = h / y
    s = t / (2.0 + t)
    tail = _atanh_tail(s * s)
    log1p_over_t = (1.0 - s) * (1.0 + tail)
    log1p_t = t * log1p_over_t
    terms.append((1.0 - s) * tail - s)  # n y log1pmx(t) = log1pmx(t)/t, as n y t = 1
    terms.append(-0.5 * log1p_over_t / y)  # -n log1p(t)/2, as n t = 1/y
    if y == x:
        terms.append(log1p_t)  # log((y + h)/x)
    else:
        ratio = (y + h) / x
        terms.append(math.log(ratio) if ratio < math.inf else math.log(y + h) - math.log(x))
    # e = (1 + t)^-(2k-1) - 1 by e <- e (1 + d) + d with d = (1 + t)^-2 - 1: the
    # terms have one sign, so nothing cancels
    e = math.expm1(-log1p_t)
    d = math.expm1(-2.0 * log1p_t)
    power = 1.0 / y
    step = power * power
    series = 0.0
    for c in _LGAMMA_COEF:
        series += c * power * e
        e += d * (1.0 + e)
        power *= step
    terms.append(n * series)
    return math.fsum(terms)


def log_power_geometric_ratio(x: float, n: int) -> float:
    """g(x, n) = q(x, n) + log x - psi(x) = n (ln Gamma(x + 1/n) - ln Gamma(x)) - psi(x).

    For x > 0 and whole n >= 1.  For Y ~ Gamma(x, 1) this is
    log(E[Y^(1/n)]^n / exp(E[log Y])), the log of the power mean of order
    1/n over the geometric mean: log x - psi(x) at n = 1, falling to 0 as n
    grows.  Each piece of ln Gamma's difference is paired with the piece of
    psi it would cancel, so the terms summed by ``math.fsum`` are all
    positive, or tiny, and g keeps its relative accuracy where it is far
    below 1/x and 1:

    * x is lifted to y = x + m >= 10, each shift pairing -n log1p(r) with
      psi's 1/(x + j) as -n log1pmx(r), r = h/(x + j) and h = 1/n;
    * at y, with t = h/y and s = t/(2 + t), Stirling's form and
      log y - 1/(2y) give (1 + t) log1p(t)/t - 1 and -(n/2) log1pmx(t);
    * ln Gamma's series term c_k y^-(2k-1) pairs with psi's (2k - 1) c_k y^-2k
      as n c_k y^-(2k-1) ((1 + t)^-(2k-1) - 1 + (2k - 1) t), k = 1..8.
    """
    x = _require_positive(x, "x")
    h = 1.0 / n
    terms = []
    y = x
    while y < _SERIES_START:
        r = h / y
        if r > 0.25:  # r - log1p(r) loses at most 9.3x its rounding here
            # where h/y overflows, so does 1/y, which outgrows n log1p(h/y)
            terms.append(1.0 / y - n * math.log1p(r) if r < math.inf else math.inf)
        else:  # -n log1pmx(r) = -log1pmx(r)/(r y), from the atanh series in s
            s = r / (2.0 + r)
            terms.append((s - (1.0 - s) * _atanh_tail(s * s)) / y)
        y += 1.0
    t = h / y
    s = t / (2.0 + t)
    tail = _atanh_tail(s * s)
    terms.append(s + tail * (1.0 + s))  # (1 + t) log1p(t)/t - 1, as 1 + t = (1 + s)/(1 - s)
    terms.append((s - (1.0 - s) * tail) / (2.0 * y))  # -(n/2) log1pmx(t), as n t = 1/y
    # f_m = (1 + t)^-m - 1 + m t from f_1 = t^2/(1 + t) and the two-step
    # f_(m+2) = f_m + f_2 + e_m d, with e_m = (1 + t)^-m - 1 and d = e_2: the
    # terms have one sign, so nothing cancels
    e = -t / (1.0 + t)
    d = e * (2.0 + e)
    f = t * t / (1.0 + t)
    f2 = t * t * (3.0 + 2.0 * t) / ((1.0 + t) * (1.0 + t))
    power = 1.0 / y
    step = power * power
    series = 0.0
    for c in _LGAMMA_COEF:
        series += c * power * f
        f += f2 + e * d
        e += d * (1.0 + e)
        power *= step
    terms.append(n * series)
    return math.fsum(terms)


def log_n_digamma_gap(x: float, n: int) -> float:
    """log(n) + psi(x + 1) - psi(nx + 1) for x > 0 and whole n >= 1; 0 at n = 1.

    Summed from digamma's own terms at x + 1 and at nx + 1, lifted to
    y1 = x + 1 + m1 and y2 = nx + 1 + m2: log(n y1/y2) is log1p(k/y2)
    with the whole number k = n (1 + m1) - (1 + m2), in which nx cancels
    exactly, so neither log(1/x) at tiny x nor log(nx) at large nx is formed.
    """
    x = _require_positive(x, "x")
    y1, series1, shifts1 = _digamma_series(x + 1.0)
    y2, series2, shifts2 = _digamma_series(_require_positive(n * x, "n*x") + 1.0)
    k = n * (len(shifts1) + 1) - (len(shifts2) + 1)
    return math.fsum([math.log1p(k / y2), 0.5 / y2, -0.5 / y1, series2, -series1,
                      *shifts2, *(-v for v in shifts1)])


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b)."""
    a = _require_positive(a, "a")
    b = _require_positive(b, "b")
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def duplication_residual(alpha: float) -> float:
    """Residual of the Legendre duplication identity at alpha.

    Returns ln Gamma(a) + ln Gamma(a + 1/2) - [(1 - 2a) ln 2 + ln(pi)/2
    + ln Gamma(2a)], which is exactly zero for every a > 0; the returned
    value is therefore a direct measure of ``log_gamma``'s internal
    consistency.
    """
    alpha = _require_positive(alpha, "alpha")
    lhs = log_gamma(alpha) + log_gamma(alpha + 0.5)
    rhs = (1.0 - 2.0 * alpha) * _LOG_TWO + _HALF_LOG_PI + log_gamma(2.0 * alpha)
    return lhs - rhs
