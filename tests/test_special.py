"""Special-function kernel: known values, recurrences, and oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gammadex.errors import DomainError
from gammadex.special import (
    digamma, duplication_residual, log_beta, log_gamma, log_minus_digamma,
    log_minus_digamma_plus_one, log_n_digamma_gap, log_power_geometric_ratio,
    log_power_mean_ratio,
)

# High-precision reference values (40-digit evaluation, rounded to double).
LN_SQRT_PI = 0.5723649429247001
EULER_GAMMA = 0.5772156649015329
PSI_HALF = -1.9635100260214235


@pytest.mark.parametrize(
    ("x", "expected"),
    [
        (1.0, 0.0),
        (2.0, 0.0),
        (0.5, LN_SQRT_PI),
        (3.0, math.log(2.0)),
        (5.0, math.log(24.0)),
        (11.0, math.log(3628800.0)),
    ],
)
def test_log_gamma_known_values(x, expected):
    assert log_gamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


# Within 1e-3 of the zeros of ln Gamma at 1 and 2, where it is a difference
# of terms of size 1
NEAR_LOG_GAMMA_ZEROS = [
    z + s * d for z in (1.0, 2.0) for s in (-1.0, 1.0) for d in (1e-3, 1e-4, 1e-6, 1e-9, 1e-12)
]


@pytest.mark.parametrize("x", [*np.logspace(-3, 6, 60).tolist(), *NEAR_LOG_GAMMA_ZEROS])
def test_log_gamma_matches_mpmath(x):
    # relative error away from the zeros, absolute error around them, where
    # ln Gamma falls to 0 and a relative bound would demand more than its
    # rounding gives
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = float(mpmath.loggamma(x))
    if 0.5 < x < 2.5:
        assert abs(log_gamma(x) - exact) <= 2e-15
    else:
        assert log_gamma(x) == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_log_gamma_overflows_to_inf():
    # ln Gamma(x) is about x log x, which passes the double range near x = 2.6e305
    assert math.isfinite(log_gamma(2.5e305))
    assert log_gamma(1e308) == math.inf


@pytest.mark.parametrize(
    ("x", "expected"),
    [
        (1.0, -EULER_GAMMA),
        (2.0, 1.0 - EULER_GAMMA),
        (0.5, PSI_HALF),
        (10.0, 2.251752589066721),  # H_9 - gamma
    ],
)
def test_digamma_known_values(x, expected):
    assert digamma(x) == pytest.approx(expected, abs=1e-12)


# log(x) - psi(x) from mpmath at 50 digits, rounded to double:
#   mpmath.mp.dps = 50; float(mpmath.log(x) - mpmath.digamma(x))
@pytest.mark.parametrize(
    ("x", "expected"),
    [
        (1e-3, 993.6678166528282),
        (0.5, 1.2703628454614782),
        (9.99, 0.05088421982926105),
        (10.0, 0.05083250392732458),
        (5e9, 1.0000000000333333e-10),
    ],
)
def test_log_minus_digamma_known_values(x, expected):
    assert log_minus_digamma(x) == pytest.approx(expected, rel=1e-12, abs=0.0)


# log(x) - psi(x + 1) from mpmath, rounded to double:
#   mpmath.mp.dps = 40 + 2 * abs(math.log10(x))
#   float(mpmath.log(x) - mpmath.digamma(x + 1))
LOG_MINUS_DIGAMMA_PLUS_ONE = [
    (5e-324, -743.8628562564797),
    (1e-300, -690.1983122333122),
    (1e-15, -33.961560730009154),
    (0.5, -0.7296371545385218),
    (9.99, -0.04921588027083905),
    (10.0, -0.049167496072675426),
    (5e9, -9.999999999666667e-11),
]


@pytest.mark.parametrize(("x", "expected"), LOG_MINUS_DIGAMMA_PLUS_ONE)
def test_log_minus_digamma_plus_one_known_values(x, expected):
    assert log_minus_digamma_plus_one(x) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(("x", "expected"), LOG_MINUS_DIGAMMA_PLUS_ONE)
def test_log_minus_digamma_plus_one_literals_match_mpmath(x, expected):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + 2 * abs(math.log10(x))):
        m = mpmath.mpf(x)
        assert float(mpmath.log(m) - mpmath.digamma(m + 1)) == expected


def test_log_minus_digamma_where_x_over_its_lift_underflows():
    # x/(x + 10) rounds to 0 at the least subnormal; log(x) - psi(x), about
    # 1/x, overflows, and just above the subnormals it is still finite
    assert log_minus_digamma(5e-324) == math.inf
    assert log_minus_digamma(1e-307) == pytest.approx(1e307, rel=1e-15)


def test_digamma_recurrence_grid():
    for x in np.linspace(0.01, 100.0, 100):
        assert digamma(x + 1.0) - digamma(x) - 1.0 / x == pytest.approx(0.0, abs=1e-10)


def test_digamma_matches_log_gamma_derivative():
    h = 1e-5
    for x in np.linspace(0.05, 100.0, 100):
        fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
        assert digamma(x) == pytest.approx(fd, abs=1e-6)


def test_log_gamma_recurrence_grid():
    for x in np.linspace(0.01, 100.0, 100):
        assert log_gamma(x + 1.0) - log_gamma(x) - math.log(x) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    ("a", "b", "expected"),
    [
        (1.0, 1.0, 0.0),
        (0.5, 0.5, math.log(math.pi)),
        (2.0, 3.0, math.log(1.0 / 12.0)),
    ],
)
def test_log_beta_known_values(a, b, expected):
    assert log_beta(a, b) == pytest.approx(expected, abs=1e-13)


def test_log_beta_symmetry():
    assert log_beta(2.5, 7.0) == pytest.approx(log_beta(7.0, 2.5), abs=1e-13)


@pytest.mark.parametrize(("alpha", "tol"), [(1.0, 1e-12), (0.5, 1e-12), (7.25, 1e-11)])
def test_duplication_residual_spot(alpha, tol):
    assert abs(duplication_residual(alpha)) <= tol


def test_duplication_residual_log_grid():
    for alpha in np.logspace(-2, 3, 100):
        assert abs(duplication_residual(alpha)) <= 1e-11


@pytest.mark.parametrize("fn", [log_gamma, digamma, log_minus_digamma, log_minus_digamma_plus_one])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_domain_errors(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)


@pytest.mark.parametrize("fn", [log_power_mean_ratio, log_n_digamma_gap, log_power_geometric_ratio])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_two_argument_domain_errors(fn, bad):
    with pytest.raises(DomainError):
        fn(bad, 2)


def test_digamma_gap_needs_a_finite_nx():
    with pytest.raises(DomainError):
        log_n_digamma_gap(1e300, 10**12)


@pytest.mark.parametrize("x", [5e-324, 1e-300, 0.3, 9.99, 10.0, 1e300])
def test_two_argument_forms_are_zero_at_n_1(x):
    # Gamma(x + 1) = x Gamma(x), and log 1 + psi(x + 1) - psi(x + 1) = 0
    assert log_power_mean_ratio(x, 1) == 0.0
    assert log_n_digamma_gap(x, 1) == 0.0


@pytest.mark.parametrize("n", [2, 3, 10**12])
def test_power_mean_ratio_where_h_over_x_overflows(n):
    # h/x overflows at the least subnormal x; q is about (n - 1) log(x), finite
    q = log_power_mean_ratio(5e-324, n)
    assert math.isfinite(q)
    assert q == pytest.approx((n - 1) * math.log(5e-324), rel=0.05)


# g(x, n) = n (ln Gamma(x + 1/n) - ln Gamma(x)) - psi(x) from mpmath, rounded to double:
#   mpmath.mp.dps = 60 + 2 * abs(math.log10(x)) + math.log10(n); a = mpmath.mpf(x)
#   float(n * (mpmath.loggamma(a + mpmath.mpf(1) / n) - mpmath.loggamma(a)) - mpmath.digamma(a))
POWER_GEOMETRIC_MPMATH = [
    (0.0493, 2, 15.77873394757629),
    (0.05, 10**12, 2.0076617866839052e-10),
    (0.5, 10**12, 2.467401100269535e-12),
    (1.0, 2, 0.3356511896310424),
    (3.7, 7, 0.021827988059123428),
    (1e3, 10**3, 5.002499164999834e-07),
    (1e6, 2, 2.5000008333334375e-07),
]


@pytest.mark.parametrize(("x", "n", "expected"), POWER_GEOMETRIC_MPMATH)
def test_power_geometric_ratio_literals(x, n, expected):
    # about psi'(x)/(2n) at large n, far below the 1/x and 1 that pairing keeps
    # from cancelling
    assert log_power_geometric_ratio(x, n) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("x", [1e-300, 0.0493, 0.3, 1.0, 9.99, 10.0, 1e6, 1e300])
def test_power_geometric_ratio_at_n_1_is_log_minus_digamma(x):
    # Gamma(x + 1) = x Gamma(x), so g(x, 1) = log x - psi(x)
    assert log_power_geometric_ratio(x, 1) == pytest.approx(log_minus_digamma(x), rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 10**12])
def test_power_geometric_ratio_where_h_over_x_overflows(n):
    # g is about 1/x, which overflows: +inf, not the nan of inf - inf
    assert log_power_geometric_ratio(5e-324, n) == math.inf


def test_power_mean_ratio_at_the_exponential_is_the_mean_root():
    # For Y ~ Exp(1), E[Y^(1/2)]^2 = Gamma(3/2)^2 = pi/4
    assert log_power_mean_ratio(1.0, 2) == pytest.approx(math.log(math.pi / 4.0), rel=1e-15)


@pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
def test_log_beta_domain_errors(bad):
    with pytest.raises(DomainError):
        log_beta(bad, 1.0)
    with pytest.raises(DomainError):
        log_beta(1.0, bad)


@given(st.floats(min_value=1e-3, max_value=1e5))
def test_digamma_recurrence_property(x):
    assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-9, abs=1e-10)


@given(st.floats(min_value=1e-3, max_value=1e5))
def test_log_gamma_recurrence_property(x):
    assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(math.log(x), rel=1e-10, abs=1e-11)
