"""Special-function kernel: known values, recurrences, and oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gammadex.errors import DomainError
from gammadex.special import (
    digamma, duplication_residual, log_beta, log_gamma, log_minus_digamma,
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


@pytest.mark.parametrize("x", np.logspace(-3, 6, 60).tolist())
def test_log_gamma_matches_stdlib(x):
    # math.lgamma is an independent implementation of the same function.
    assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)


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


@pytest.mark.parametrize("fn", [log_gamma, digamma, log_minus_digamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_domain_errors(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)


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
