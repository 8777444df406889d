"""Adaptive Gauss-Kronrod integration."""

import math

import numpy as np
import pytest

from gammadex import quadrature
from gammadex.errors import DomainError, NumericError
from gammadex.quadrature import integrate
from gammadex.special import log_beta


def test_polynomial_is_exact():
    r = integrate(lambda x: 3.0 * x**2, 0.0, 2.0)
    assert r.value == pytest.approx(8.0, rel=1e-14)


def test_u_log_u():
    r = integrate(lambda u: u * np.log(u), 0.0, 1.0)
    assert r.value == pytest.approx(-0.25, abs=1e-10)


def test_endpoint_singularity_left():
    r = integrate(lambda u: u**-0.5, 0.0, 1.0)
    assert r.value == pytest.approx(2.0, abs=1e-8)


def test_endpoint_singularity_both():
    # arcsine density normalization: integral of the Beta(1/2, 1/2) density is 1
    lb = log_beta(0.5, 0.5)
    r = integrate(lambda u: np.exp(-lb) * u**-0.5 * (1.0 - u) ** -0.5, 0.0, 1.0)
    assert r.value == pytest.approx(1.0, abs=1e-8)


def test_kink():
    r = integrate(lambda x: np.abs(2.0 * x - 1.0), 0.0, 1.0)
    assert r.value == pytest.approx(0.5, rel=1e-12)


def test_oscillatory():
    r = integrate(np.sin, 0.0, 20.0)
    assert r.value == pytest.approx(1.0 - math.cos(20.0), rel=1e-10)


def test_interval_count_reported():
    r = integrate(lambda x: x, 0.0, 1.0)
    assert r.intervals >= 1
    assert r.error_bound >= 0.0


def test_nonconvergence_raises(monkeypatch):
    """u**-0.5 needs 52 intervals at the default tolerance."""
    monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 20)
    with pytest.raises(NumericError):
        integrate(lambda u: u**-0.5, 0.0, 1.0)


def test_invalid_interval():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(lambda x: x, 0.0, math.inf)


def test_non_finite_integrand_raises():
    with pytest.raises(NumericError):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
