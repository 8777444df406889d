"""Population indices and exact finite-sample expectations under the gamma law.

For observations drawn i.i.d. from a gamma density with shape ``alpha``
and rate ``rate``, every index here has a closed-form population value,
and each sample estimator has a closed-form finite-sample expectation:

==========  =============================  ==========================================
index       population value               E[estimator] at sample size n
==========  =============================  ==========================================
Gini        Gamma(a+1/2)/(sqrt(pi)         identical (the estimator is unbiased)
            * Gamma(a+1))
Theil T     psi(a) + 1/a - log(a)          psi(a) + 1/a + log(n) - psi(na) - 1/(na)
Atkinson    1 - exp(psi(a))/a              1 - Gamma^n(a + 1/n) / (a Gamma^n(a))
VMR         1/rate                         na / ((na + 1) rate)
==========  =============================  ==========================================

The Atkinson and Gini forms rest on one term,
q(a, n) = n (ln Gamma(a + 1/n) - ln Gamma(a)) - log a
(``special.log_power_mean_ratio``): E[A_n] = 1 - exp(q(a, n)) and
Gini = sqrt(exp(q(a, 2)) / (pi a)).  It is summed from terms in which
nothing large cancels, so powers like Gamma^n never overflow and E[A_n]
keeps its relative accuracy where it is about (n - 1)/(2na).  Atkinson's
bias and ``debias`` factor rest on g(a, n) = q(a, n) + log a - psi(a)
(``special.log_power_geometric_ratio``), summed with each lnGamma term
paired with the psi term it would cancel: the bias is exp(q) expm1(-g) and
the factor exp(-g), accurate where g is far below 1/a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericError, SizeError
from .indices import IndexKind, SampleLike, as_sample, compute_index
from .special import (_require_positive, log_minus_digamma, log_minus_digamma_plus_one,
                      log_n_digamma_gap, log_power_geometric_ratio, log_power_mean_ratio)

__all__ = [
    "GammaParams",
    "ExpectationResult",
    "pop_gini",
    "pop_theil",
    "pop_atkinson",
    "pop_vmr",
    "population_value",
    "expect_gini",
    "expect_theil",
    "expect_atkinson",
    "expect_vmr",
    "expectation",
    "debias",
    "alpha_plug_in",
]


@dataclass(frozen=True)
class GammaParams:
    """Shape ``alpha`` and rate ``rate`` of a gamma distribution."""

    alpha: float
    rate: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "rate"):
            object.__setattr__(self, name, _require_positive(getattr(self, name), name))


@dataclass(frozen=True)
class ExpectationResult:
    """Exact E[estimator] next to the population value it estimates.

    ``bias`` is ``expectation - population`` from its own closed form, the
    correction ``debias`` undoes: 0 for Gini, log(na) - psi(na + 1) for
    Theil, exp(q) expm1(-g) for Atkinson and -1/((na + 1) rate) for VMR.  It
    keeps its relative accuracy where it is far below both fields, which
    their literal difference does not.
    """

    kind: IndexKind
    n: int
    expectation: float
    population: float
    bias: float


# Taylor coefficients of log G(a) = ln Gamma(a + 1/2) - ln Gamma(a + 1) - log(pi)/2
# at a = 0, the differences of the polygamma values at 1/2 and at 1:
# c_1 = -2 log 2 and c_k = (-1)^k (2^k - 2) zeta(k)/k.  Through c_9 they sum
# log G to within 2e-18 for a <= _GINI_SERIES_MAX.
_GINI_SERIES_MAX = 1e-2
_GINI_LOG_SERIES = (
    -1.3862943611198906,
    1.6449340668482264,
    -2.4041138063191885,
    3.7881313179889835,
    -6.22156653086022,
    10.512544973839308,
    -18.150286992874612,
    31.87945605928473,
    -56.780475593477995,
)


def pop_gini(params: GammaParams) -> float:
    """Population Gini index; depends on the shape only."""
    a = params.alpha
    if a <= _GINI_SERIES_MAX:
        # q is about log(pi a) here, and exp(q)/(pi a) keeps only eps |log a|
        log_g = 0.0
        for c in reversed(_GINI_LOG_SERIES):
            log_g = (log_g + c) * a
        return math.exp(log_g)
    # Gamma(a + 1/2)/(sqrt(pi) Gamma(a + 1)), with no difference of two a log a
    return math.sqrt(math.exp(log_power_mean_ratio(a, 2)) / (math.pi * a))


def pop_theil(params: GammaParams) -> float:
    """Population Theil T index; depends on the shape only."""
    # psi(a) + 1/a - log(a) = psi(a + 1) - log(a): no 1/a to cancel at tiny a
    return -log_minus_digamma_plus_one(params.alpha)


def pop_atkinson(params: GammaParams) -> float:
    """Population Atkinson index; depends on the shape only."""
    # 1 - exp(psi(a) - log(a)), with log(a) - psi(a) taken without cancellation.
    return -math.expm1(-log_minus_digamma(params.alpha))


def pop_vmr(params: GammaParams) -> float:
    """Population variance-to-mean ratio: 1/rate, independent of the shape."""
    return 1.0 / params.rate


_POP_DISPATCH = {
    IndexKind.GINI: pop_gini,
    IndexKind.THEIL_T: pop_theil,
    IndexKind.ATKINSON: pop_atkinson,
    IndexKind.VMR: pop_vmr,
}


def population_value(kind: IndexKind, params: GammaParams) -> float:
    return _POP_DISPATCH[kind](params)


def _require_whole(value: int, rule: str) -> int:
    """``value`` as an int; anything but a whole number is a ``DomainError`` stating ``rule``."""
    number = not isinstance(value, (str, bytes, bool))  # though int() and float() take them
    if not (number and (isinstance(value, int) or float(value).is_integer())):
        raise DomainError(f"{rule}, got {value!r}")
    return int(value)


def _require_n(n: int, minimum: int, what: str) -> int:
    """Sample size ``n`` as an int; it must be a whole number and at least ``minimum``."""
    n = _require_whole(n, f"{what} needs a whole number n")
    if n < minimum:
        raise SizeError(f"{what} needs n >= {minimum}, got {n}")
    return n


def expect_gini(params: GammaParams, n: int) -> ExpectationResult:
    """E[G_n] for n >= 2; equals the population value (unbiased)."""
    n = _require_n(n, IndexKind.GINI.min_n, "gini expectation")
    g = pop_gini(params)
    return ExpectationResult(IndexKind.GINI, n, g, g, 0.0)


def expect_theil(params: GammaParams, n: int) -> ExpectationResult:
    """E[T_n] for n >= 1; exactly zero at n = 1 (the formula telescopes)."""
    n = _require_n(n, IndexKind.THEIL_T.min_n, "theil expectation")
    # log n + psi(a + 1) - psi(na + 1): no two terms of size log(1/a) at tiny a
    e = log_n_digamma_gap(params.alpha, n)
    bias = log_minus_digamma_plus_one(n * params.alpha)
    return ExpectationResult(IndexKind.THEIL_T, n, e, pop_theil(params), bias)


def expect_atkinson(params: GammaParams, n: int) -> ExpectationResult:
    """E[A_n] for n >= 1; exactly zero at n = 1 (Gamma(a+1) = a Gamma(a))."""
    n = _require_n(n, IndexKind.ATKINSON.min_n, "atkinson expectation")
    a = params.alpha
    q = log_power_mean_ratio(a, n)
    e = -math.expm1(q)  # exactly 0 at n = 1, where q = 0
    # exp(-L) - exp(q) = exp(q) expm1(-g) with g = q + L >= 0 and q <= 0: no
    # cancellation, and no 0 * inf where L and g overflow at tiny a
    bias = math.exp(q) * math.expm1(-log_power_geometric_ratio(a, n))
    return ExpectationResult(IndexKind.ATKINSON, n, e, pop_atkinson(params), bias)


def expect_vmr(params: GammaParams, n: int) -> ExpectationResult:
    """E[VMR_n] for n >= 2; always below 1/rate (downward bias)."""
    n = _require_n(n, IndexKind.VMR.min_n, "vmr expectation")
    na = n * params.alpha
    e = na / ((na + 1.0) * params.rate)
    bias = -1.0 / ((na + 1.0) * params.rate)
    return ExpectationResult(IndexKind.VMR, n, e, pop_vmr(params), bias)


_EXPECT_DISPATCH = {
    IndexKind.GINI: expect_gini,
    IndexKind.THEIL_T: expect_theil,
    IndexKind.ATKINSON: expect_atkinson,
    IndexKind.VMR: expect_vmr,
}


def expectation(kind: IndexKind, params: GammaParams, n: int) -> ExpectationResult:
    return _EXPECT_DISPATCH[kind](params, n)


def debias(kind: IndexKind, params: GammaParams, n: int, raw: float) -> float:
    """Correct a raw index value so its expectation is the population value.

    Gini is returned unchanged (already unbiased).  Theil subtracts the
    additive bias log(na) - psi(na) - 1/(na).  Atkinson rescales 1 - raw
    by exp(psi(a)) Gamma^n(a) / Gamma^n(a + 1/n), that is exp(-g(a, n)).
    VMR is multiplied by (na + 1)/(na).  Each is one formula at every n: at
    n = 1, where T_1 = A_1 = 0, a raw 0 maps to the population Theil exactly and to the
    population Atkinson up to rounding.  The rate cancels out of every
    correction, but each is exact only at the true shape: at an estimated
    one, such as ``alpha_plug_in``'s, the result is still biased.
    """
    n = _require_n(n, kind.min_n, "debias")
    a = params.alpha
    raw = float(raw)
    if kind is IndexKind.GINI:
        return raw
    if kind is IndexKind.THEIL_T:
        return raw - log_minus_digamma_plus_one(n * a)
    if kind is IndexKind.ATKINSON:
        return 1.0 - (1.0 - raw) * math.exp(-log_power_geometric_ratio(a, n))
    na = n * a  # VMR
    return raw * (na + 1.0) / na


def alpha_plug_in(values: SampleLike) -> float:
    """Method-of-moments shape estimate alpha_hat = mean^2 / variance = mean / VMR.

    The VMR is the one ``compute_index`` keeps in the ``Sample``, so it is
    computed here only if no index call has computed it yet.  The mean comes
    from the sample's total, which ``Sample`` computes once.
    ``debias`` at this estimate is not unbiased.  Over 20k gamma samples the
    mean debiased Theil and Atkinson fell short of the population values by
    0.052 and 0.069 (7 % and 10 %) at alpha = 0.5, n = 5, by 0.007 and 0.009
    at alpha = 2, n = 5, and by about 0.0005 at alpha = 2, n = 20.
    ``compute --debias`` marks such values ``alpha_source: plug_in``.
    """
    s = as_sample(values)
    if s.n < 2:
        raise SizeError(f"plug-in shape estimate needs at least 2 observations, got {s.n}")
    ratio = compute_index(IndexKind.VMR, s)
    if not math.isfinite(ratio):
        raise NumericError(f"the sample's variance-to-mean ratio is not finite: {ratio}")
    if ratio == 0.0:
        raise DomainError("cannot estimate the shape from a constant sample")
    return s.mean / ratio
