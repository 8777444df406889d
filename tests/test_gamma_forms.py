"""Closed-form population values, finite-sample expectations, debiasing."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gammadex import indices
from gammadex.errors import DomainError, NumericError, SizeError
from gammadex.gamma_forms import (
    GammaParams,
    alpha_plug_in,
    debias,
    expect_atkinson,
    expect_gini,
    expect_theil,
    expect_vmr,
    expectation,
    pop_atkinson,
    pop_gini,
    pop_theil,
    pop_vmr,
)
from gammadex.indices import IndexKind
from gammadex.sampling import MIN_SHAPE
from gammadex.special import digamma, log_gamma

# High-precision reference evaluations (40-digit arithmetic, rounded).
POP_THEIL_2 = 0.22963715453852183
POP_THEIL_100 = 0.004991666749996032
POP_ATKINSON_HALF = 0.7192702582165574
POP_ATKINSON_1 = 0.43854051643311483
POP_ATKINSON_2 = 0.23689744420206806
EXPECT_THEIL_1_2 = 0.19314718055994531  # log 2 - 1/2
EXPECT_THEIL_2_5 = 0.18046965846584641
EXPECT_ATKINSON_1_2 = 0.21460183660255169  # 1 - pi/4
EXPECT_ATKINSON_2_3 = 0.15606169755409849  # confirmed by brute-force MC oracle
EULER_GAMMA = 0.5772156649015329

# The Theil bias term log(na) - psi(na) - 1/(na) at (alpha, n), from
#   mpmath.mp.dps = 50; x = mpmath.mpf(alpha) * n
#   float(mpmath.log(x) - mpmath.digamma(x) - 1 / x)
THEIL_BIAS_MPMATH = [
    (5.0, 10**9, -9.999999999666667e-11),
    (0.5, 10**6, -9.999996666666666e-07),
    (2.0, 5, -0.049167496072675426),
]

# pop_theil at alpha and expect_theil at (alpha, n), from
#   mpmath.mp.dps = 50; a = mpmath.mpf(alpha); na = a * n
#   float(mpmath.digamma(a) + 1 / a - mpmath.log(a))
#   float(mpmath.digamma(a) + 1 / a + mpmath.log(n) - mpmath.digamma(na) - 1 / na)
POP_THEIL_MPMATH = [
    (5.0, 0.0966797559977001),
    (1e4, 4.99991666666675e-05),
    (1e6, 4.999999166666667e-07),
]
EXPECT_THEIL_MPMATH = [
    (1e4, 10, 4.499917500000083e-05),
    (5.0, 10**6, 0.09667965599770344),
]

# pop_theil at tiny alpha and expect_theil at (1e-10, 2), from the same
# formulas as POP_THEIL_MPMATH and EXPECT_THEIL_MPMATH at
#   mpmath.mp.dps = 40 + 2 * abs(math.log10(alpha))
# since psi(a) and 1/a cancel to about |log10(a)| digits.
POP_THEIL_TINY_MPMATH = [
    (5e-324, 743.8628562564797),
    (1e-30, 68.50033712491984),
    (1e-15, 33.961560730009154),
]
EXPECT_THEIL_TINY_MPMATH = [
    (1e-10, 2, 0.6931471803954519),
    (1e-300, 2, 0.6931471805599453),
    (1e-300, 3, 1.0986122886681098),
]

# pop_atkinson at alpha, from
#   mpmath.mp.dps = 50; a = mpmath.mpf(alpha)
#   float(1 - mpmath.exp(mpmath.digamma(a)) / a)
POP_ATKINSON_MPMATH = [
    (1.0, 0.4385405164331148),
    (5.0, 0.09816188101662501),
    (1e4, 4.99995833124996e-05),
    (1e6, 4.999999583333125e-07),
    (1e9, 4.999999999583333e-10),
]

# pop_gini at alpha, E[A_n] at (alpha, n) and the Atkinson debias factor
# exp(psi(a)) Gamma^n(a) / Gamma^n(a + 1/n) at (alpha, n), from
#   mpmath.mp.dps = _dps(alpha, n); a = mpmath.mpf(alpha)
#   float(mpmath.exp(mpmath.loggamma(a + 0.5) - mpmath.loggamma(a + 1)) / mpmath.sqrt(mpmath.pi))
#   q = n * (mpmath.loggamma(a + mpmath.mpf(1) / n) - mpmath.loggamma(a)) - mpmath.log(a)
#   float(-mpmath.expm1(q))
#   float(mpmath.exp(mpmath.digamma(a) - mpmath.log(a) - q))
POP_GINI_MPMATH = [
    (1e3, 0.01783901114585432),
    (1e6, 0.0005641895130240628),
    (1e12, 5.641895835476857e-07),
    (1e16, 5.641895835477563e-09),
    (1e300, 5.641895835477563e-151),
]
EXPECT_ATKINSON_MPMATH = [
    (5.0, 10**9, 0.09816188091682627),
    (0.5, 10**9, 0.7192702575238845),
    (0.5, 10**12, 0.7192702582158648),
    (1e3, 10**3, 0.000499458312558553),
    (1e4, 10, 4.49995874814373e-05),
    (1e6, 2, 2.4999996874999217e-07),
    (1e300, 3, 3.333333333333333e-301),
]
ATKINSON_FACTOR_MPMATH = [
    (5.0, 10**9, 0.9999999998893385),
    (0.5, 10**12, 0.9999999999975326),
    (1e3, 10**3, 0.9999994997502086),
    (1e6, 2, 0.9999997499999479),
]

# Biases far below the fields they separate, from mpmath at 80 digits, rounded
# to double: log(na) - psi(na + 1), -1/((na + 1) rate), and
#   exp(psi(a) - log(a)) - exp(q), q as above.
# The literal differences of the fields are 2.2e-9, 9.2e-16 and 6.8e-6 off.
BIAS_MPMATH = [
    (IndexKind.THEIL_T, 5.0, 1.0, 10**9, -9.999999999666667e-11),
    (IndexKind.VMR, 2.0, 3.0, 5, -0.030303030303030304),
    (IndexKind.ATKINSON, 0.5, 1.0, 10**12, -6.926728737557032e-13),
]

ALPHAS = (0.5, 1.0, 2.0, 3.7, 5.0, 100.0)


def _dps(alpha, n=1):
    """mpmath digits for a form at (alpha, n).

    n (ln Gamma(a + 1/n) - ln Gamma(a)) - log(a) is about -(n - 1)/(2na) from
    terms of about n a log(a), and psi(a) + 1/a cancels to about |log10(a)|
    digits at tiny a.
    """
    return 40 + 2 * abs(math.log10(alpha)) + math.log10(n)


class TestGammaParams:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_shape(self, bad):
        with pytest.raises(DomainError):
            GammaParams(bad, 1.0)
        with pytest.raises(DomainError):
            GammaParams(1.0, bad)

    def test_defaults_unit_rate(self):
        assert GammaParams(2.0).rate == 1.0


class TestPopulationValues:
    @pytest.mark.parametrize(
        ("alpha", "expected"),
        [(1.0, 0.5), (0.5, 2.0 / math.pi), (2.0, 0.375), (5.0, 63.0 / 256.0)],
    )
    def test_gini(self, alpha, expected):
        assert pop_gini(GammaParams(alpha)) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        ("alpha", "expected"),
        [(1.0, 1.0 - EULER_GAMMA), (2.0, POP_THEIL_2), (100.0, POP_THEIL_100)],
    )
    def test_theil(self, alpha, expected):
        assert pop_theil(GammaParams(alpha)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        ("alpha", "expected"),
        [(0.5, POP_ATKINSON_HALF), (1.0, POP_ATKINSON_1), (2.0, POP_ATKINSON_2)],
    )
    def test_atkinson(self, alpha, expected):
        assert pop_atkinson(GammaParams(alpha)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(("rate", "expected"), [(1.0, 1.0), (4.0, 0.25), (0.5, 2.0)])
    def test_vmr(self, rate, expected):
        assert pop_vmr(GammaParams(1.0, rate)) == expected

    @pytest.mark.parametrize(("alpha", "expected"), POP_THEIL_MPMATH)
    def test_theil_at_large_alpha(self, alpha, expected):
        # psi(a) + 1/a - log(a) is about 1/(2a): at a = 1e6 a difference of
        # psi(a) and log(a) keeps only about 7 digits of it.
        assert pop_theil(GammaParams(alpha)) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(("alpha", "expected"), POP_ATKINSON_MPMATH)
    def test_atkinson_at_large_alpha(self, alpha, expected):
        # 1 - exp(psi(a))/a is about 1/(2a): psi(a) - log(a) as a difference
        # keeps only about 9 digits of it at a = 1e6.
        assert pop_atkinson(GammaParams(alpha)) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(("alpha", "expected"), POP_ATKINSON_MPMATH)
    def test_atkinson_literals_match_mpmath(self, alpha, expected):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            assert float(1 - mpmath.exp(mpmath.digamma(a)) / a) == expected

    @pytest.mark.parametrize(("alpha", "expected"), POP_THEIL_TINY_MPMATH)
    def test_theil_at_tiny_alpha(self, alpha, expected):
        # psi(a) + 1/a - log(a) is psi(a + 1) - log(a): no 1/a is formed, and
        # at a = 5e-324 a/(a + 10) underflows, so its log is taken as a difference
        assert pop_theil(GammaParams(alpha)) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(("alpha", "expected"), POP_GINI_MPMATH)
    def test_gini_at_large_alpha(self, alpha, expected):
        # Gamma(a + 1/2)/Gamma(a + 1) is about a^(-1/2): a difference of two
        # ln Gamma of about a log(a) keeps none of its digits at a = 1e16
        assert pop_gini(GammaParams(alpha)) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(("alpha", "expected"), POP_GINI_MPMATH)
    def test_gini_literals_match_mpmath(self, alpha, expected):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(_dps(alpha)):
            a = mpmath.mpf(alpha)
            value = mpmath.exp(mpmath.loggamma(a + 0.5) - mpmath.loggamma(a + 1))
            assert float(value / mpmath.sqrt(mpmath.pi)) == expected

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(-310.0, 0.0).map(lambda e: max(10.0**e, 5e-324)))
    @example(alpha=5e-324)
    @example(alpha=1e-310)
    @example(alpha=1e-300)
    @example(alpha=1e-12)
    @example(alpha=0.01)
    @example(alpha=math.nextafter(0.01, 1.0))
    def test_gini_at_small_alpha(self, alpha):
        # Gamma(a + 1/2)/(sqrt(pi) Gamma(a + 1)) is about 1 - 2 log(2) a, while
        # exp(q)/(pi a) with q about log(pi a) would keep only eps |log a|
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(_dps(alpha)):
            a = mpmath.mpf(alpha)
            value = mpmath.exp(mpmath.loggamma(a + 0.5) - mpmath.loggamma(a + 1))
            want = float(value / mpmath.sqrt(mpmath.pi))
        tol = 4e-15 if alpha <= 1e-12 else 1e-15
        assert pop_gini(GammaParams(alpha)) == pytest.approx(want, rel=tol, abs=0.0)

    def test_atkinson_at_the_least_subnormal_alpha(self):
        # 1 - exp(psi(a))/a with psi(a) about -1/a: exp underflows to 0
        assert pop_atkinson(GammaParams(5e-324)) == 1.0

    def test_theil_large_alpha_asymptotics(self):
        # T(alpha) ~ 1/(2 alpha) - 1/(12 alpha^2) for large shape
        alpha = 1e4
        approx = 1.0 / (2.0 * alpha) - 1.0 / (12.0 * alpha**2)
        assert pop_theil(GammaParams(alpha)) == pytest.approx(approx, rel=1e-6)


class TestRateIndependence:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    def test_population_and_expectation(self, alpha):
        base = GammaParams(alpha, 1.0)
        for rate in (0.25, 1.0, 3.0, 17.0):
            p = GammaParams(alpha, rate)
            assert pop_gini(p) == pytest.approx(pop_gini(base), abs=1e-14)
            assert pop_theil(p) == pytest.approx(pop_theil(base), abs=1e-14)
            assert pop_atkinson(p) == pytest.approx(pop_atkinson(base), abs=1e-14)
            for n in (2, 7):
                assert expect_gini(p, n).expectation == pytest.approx(
                    expect_gini(base, n).expectation, abs=1e-14
                )
                assert expect_theil(p, n).expectation == pytest.approx(
                    expect_theil(base, n).expectation, abs=1e-14
                )
                assert expect_atkinson(p, n).expectation == pytest.approx(
                    expect_atkinson(base, n).expectation, abs=1e-14
                )


class TestExpectations:
    @pytest.mark.parametrize(("alpha", "n"), [(2.0, 5), (1.0, 2), (0.5, 100)])
    def test_gini_unbiased(self, alpha, n):
        r = expect_gini(GammaParams(alpha), n)
        assert r.expectation == r.population
        assert r.bias == 0.0

    def test_gini_spot_values(self):
        assert expect_gini(GammaParams(2.0), 5).expectation == pytest.approx(0.375, rel=1e-13)
        assert expect_gini(GammaParams(1.0), 2).expectation == pytest.approx(0.5, rel=1e-13)
        assert expect_gini(GammaParams(0.5), 100).expectation == pytest.approx(
            2.0 / math.pi, rel=1e-13
        )

    @pytest.mark.parametrize(
        ("alpha", "n", "expected"),
        [(1.0, 2, EXPECT_THEIL_1_2), (2.0, 5, EXPECT_THEIL_2_5)],
    )
    def test_theil_spot_values(self, alpha, n, expected):
        assert expect_theil(GammaParams(alpha), n).expectation == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize(("alpha", "n", "expected"), EXPECT_THEIL_MPMATH)
    def test_theil_at_large_alpha_and_n(self, alpha, n, expected):
        assert expect_theil(GammaParams(alpha), n).expectation == pytest.approx(
            expected, rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize(
        ("alpha", "n", "expected"),
        [(alpha, None, value) for alpha, value in POP_THEIL_MPMATH] + EXPECT_THEIL_MPMATH,
    )
    def test_theil_literals_match_mpmath(self, alpha, n, expected):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            if n is None:
                value = mpmath.digamma(a) + 1 / a - mpmath.log(a)
            else:
                na = a * n
                value = mpmath.digamma(a) + 1 / a + mpmath.log(n) - mpmath.digamma(na) - 1 / na
            assert float(value) == expected

    @pytest.mark.parametrize(("alpha", "n", "expected"), EXPECT_THEIL_TINY_MPMATH)
    def test_theil_at_tiny_alpha(self, alpha, n, expected):
        # E is about log n: summed as log n + psi(a + 1) - psi(na + 1), no two
        # terms of about log(1/a) cancel
        assert expect_theil(GammaParams(alpha), n).expectation == pytest.approx(
            expected, rel=1e-15, abs=0.0
        )

    @pytest.mark.parametrize(
        ("alpha", "n", "expected"),
        [(alpha, None, value) for alpha, value in POP_THEIL_TINY_MPMATH]
        + EXPECT_THEIL_TINY_MPMATH,
    )
    def test_tiny_alpha_theil_literals_match_mpmath(self, alpha, n, expected):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40 + 2 * abs(math.log10(alpha))):
            a = mpmath.mpf(alpha)
            if n is None:
                value = mpmath.digamma(a) + 1 / a - mpmath.log(a)
            else:
                na = a * n
                value = mpmath.digamma(a) + 1 / a + mpmath.log(n) - mpmath.digamma(na) - 1 / na
            assert float(value) == expected

    @pytest.mark.parametrize(
        ("alpha", "n", "expected"),
        [(1.0, 2, EXPECT_ATKINSON_1_2), (2.0, 3, EXPECT_ATKINSON_2_3)],
    )
    def test_atkinson_spot_values(self, alpha, n, expected):
        assert expect_atkinson(GammaParams(alpha), n).expectation == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize(("alpha", "n", "expected"), EXPECT_ATKINSON_MPMATH)
    def test_atkinson_at_large_alpha_and_n(self, alpha, n, expected):
        # E is about (n - 1)/(2na): n (ln Gamma(a + 1/n) - ln Gamma(a)) as a
        # difference is 1.8e-5 off at a = 5, n = 1e9 and reads 1 at a = 1e300
        assert expect_atkinson(GammaParams(alpha), n).expectation == pytest.approx(
            expected, rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize(("alpha", "n", "expected"), EXPECT_ATKINSON_MPMATH)
    def test_atkinson_literals_match_mpmath(self, alpha, n, expected):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(_dps(alpha, n)):
            a = mpmath.mpf(alpha)
            q = n * (mpmath.loggamma(a + mpmath.mpf(1) / n) - mpmath.loggamma(a)) - mpmath.log(a)
            assert float(-mpmath.expm1(q)) == expected

    @pytest.mark.parametrize(
        ("alpha", "rate", "n", "expectation", "bias"),
        [
            (1.0, 1.0, 2, 2.0 / 3.0, -1.0 / 3.0),
            (2.0, 1.0, 5, 10.0 / 11.0, -1.0 / 11.0),
            (1.0, 2.0, 10, 10.0 / 22.0, -1.0 / 22.0),
        ],
    )
    def test_vmr_spot_values(self, alpha, rate, n, expectation, bias):
        r = expect_vmr(GammaParams(alpha, rate), n)
        assert r.expectation == pytest.approx(expectation, rel=1e-14)
        assert r.bias == pytest.approx(bias, rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_n1_is_exactly_zero(self, alpha):
        assert expect_theil(GammaParams(alpha), 1).expectation == 0.0
        assert expect_atkinson(GammaParams(alpha), 1).expectation == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    def test_error_shrinks_monotonically(self, alpha):
        p = GammaParams(alpha)
        ns = [2**k for k in range(1, 11)]
        theil_err = [abs(expect_theil(p, n).bias) for n in ns]
        atk_err = [abs(expect_atkinson(p, n).bias) for n in ns]
        vmr_err = [abs(expect_vmr(p, n).bias) for n in ns]
        for errs in (theil_err, atk_err, vmr_err):
            assert all(a > b for a, b in zip(errs, errs[1:]))
            assert errs[-1] < errs[0] / 100.0

    def test_vmr_bias_is_negative(self):
        for alpha in ALPHAS:
            for rate in (1.0, 3.0):
                for n in (2, 5, 20):
                    r = expect_vmr(GammaParams(alpha, rate), n)
                    assert r.bias < 0.0
                    assert r.bias == pytest.approx(
                        -1.0 / ((n * alpha + 1.0) * rate), rel=1e-12
                    )

    def test_size_errors(self):
        p = GammaParams(1.0)
        with pytest.raises(SizeError):
            expect_gini(p, 1)
        with pytest.raises(SizeError):
            expect_vmr(p, 1)
        with pytest.raises(SizeError):
            expect_theil(p, 0)


class TestTheilBiasSimplification:
    """The additive Theil bias equals log(na) - psi(na) - 1/(na) exactly."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", [2, 3, 5, 20, 100])
    def test_matches_unsimplified_difference(self, alpha, n):
        p = GammaParams(alpha)
        na = n * alpha
        simplified = math.log(na) - digamma(na) - 1.0 / na
        unsimplified = expect_theil(p, n).bias
        assert simplified == pytest.approx(unsimplified, rel=1e-10, abs=1e-13)


class TestDebias:
    def test_gini_identity(self):
        assert debias(IndexKind.GINI, GammaParams(3.0), 7, 0.42) == 0.42

    def test_vmr_spot(self):
        assert debias(IndexKind.VMR, GammaParams(1.0, 1.0), 2, 2.0 / 3.0) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_theil_spot(self):
        debiased = debias(IndexKind.THEIL_T, GammaParams(1.0), 2, EXPECT_THEIL_1_2)
        assert debiased == pytest.approx(1.0 - EULER_GAMMA, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    def test_n1_maps_zero_to_population(self, alpha):
        # T_1 = A_1 = 0 for every sample, so E[debias] = population needs
        # debias(0) = population at n = 1, from the same formula as every n.
        p = GammaParams(alpha, 1.7)
        assert debias(IndexKind.THEIL_T, p, 1, 0.0) == pop_theil(p)
        assert debias(IndexKind.ATKINSON, p, 1, 0.0) == pytest.approx(pop_atkinson(p), abs=1e-15)

    @pytest.mark.parametrize(("alpha", "n", "bias"), THEIL_BIAS_MPMATH)
    def test_theil_bias_term_at_large_na(self, alpha, n, bias):
        # debias subtracts log(na) - psi(na) - 1/(na), which at na = 5e9 is
        # 1e-10 against log(na) ~ 22: it must not be a difference of the two.
        assert -debias(IndexKind.THEIL_T, GammaParams(alpha), n, 0.0) == pytest.approx(
            bias, rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize(("alpha", "n", "bias"), THEIL_BIAS_MPMATH)
    def test_theil_bias_literals_match_mpmath(self, alpha, n, bias):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            x = mpmath.mpf(alpha) * n
            assert float(mpmath.log(x) - mpmath.digamma(x) - 1 / x) == bias

    @pytest.mark.parametrize(("alpha", "n", "factor"), ATKINSON_FACTOR_MPMATH)
    def test_atkinson_factor_at_large_alpha_and_n(self, alpha, n, factor):
        # debias(0) = 1 - factor
        raw_zero = debias(IndexKind.ATKINSON, GammaParams(alpha), n, 0.0)
        assert 1.0 - raw_zero == pytest.approx(factor, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(("alpha", "n", "factor"), ATKINSON_FACTOR_MPMATH)
    def test_atkinson_factor_literals_match_mpmath(self, alpha, n, factor):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(_dps(alpha, n)):
            a = mpmath.mpf(alpha)
            q = n * (mpmath.loggamma(a + mpmath.mpf(1) / n) - mpmath.loggamma(a)) - mpmath.log(a)
            assert float(mpmath.exp(mpmath.digamma(a) - mpmath.log(a) - q)) == factor

    @pytest.mark.parametrize("kind", [IndexKind.THEIL_T, IndexKind.ATKINSON, IndexKind.VMR])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_debiasing_expectation_recovers_population(self, kind, alpha, n):
        # Debias is affine, so applying it to E[estimator] must give the
        # population value for every cell.
        from gammadex.gamma_forms import population_value

        p = GammaParams(alpha, 1.7)
        r = expectation(kind, p, n)
        assert debias(kind, p, n, r.expectation) == pytest.approx(
            population_value(kind, p), rel=1e-10, abs=1e-13
        )


# Shapes log-uniform on [MIN_SHAPE, 1e6] and sizes log-uniform on [1, 1e12].
_SWEEP_ALPHA = st.floats(math.log10(MIN_SHAPE), 6.0).map(lambda e: min(max(10.0**e, MIN_SHAPE), 1e6))
_SWEEP_N = st.floats(0.0, 12.0).map(lambda e: round(10.0**e))


class TestMpmathSweep:
    """Every closed form and every debias factor against mpmath, at rel 1e-14.

    Each oracle is the textbook formula, evaluated at ``_dps`` digits.
    """

    @settings(max_examples=150, deadline=None)
    @given(alpha=_SWEEP_ALPHA)
    def test_population_values(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        p = GammaParams(alpha)
        with mpmath.workdps(_dps(alpha)):
            a = mpmath.mpf(alpha)
            gini = mpmath.exp(mpmath.loggamma(a + 0.5) - mpmath.loggamma(a + 1)) / mpmath.sqrt(mpmath.pi)
            theil = mpmath.digamma(a) + 1 / a - mpmath.log(a)
            atkinson = 1 - mpmath.exp(mpmath.digamma(a)) / a
            want = [float(gini), float(theil), float(atkinson)]
        assert [pop_gini(p), pop_theil(p), pop_atkinson(p)] == pytest.approx(want, rel=1e-14, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(alpha=_SWEEP_ALPHA, n=_SWEEP_N)
    def test_expectations(self, alpha, n):
        mpmath = pytest.importorskip("mpmath")
        p = GammaParams(alpha)
        if n == 1:
            assert expect_theil(p, 1).expectation == expect_atkinson(p, 1).expectation == 0.0
            return
        with mpmath.workdps(_dps(alpha, n)):
            a = mpmath.mpf(alpha)
            na = a * n
            theil = mpmath.digamma(a) + 1 / a + mpmath.log(n) - mpmath.digamma(na) - 1 / na
            q = n * (mpmath.loggamma(a + mpmath.mpf(1) / n) - mpmath.loggamma(a)) - mpmath.log(a)
            vmr = na / (na + 1)
            want = [float(theil), float(-mpmath.expm1(q)), float(vmr)]
        got = [expect_theil(p, n).expectation, expect_atkinson(p, n).expectation,
               expect_vmr(p, n).expectation]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        assert expect_gini(p, n).expectation == pop_gini(p)

    @settings(max_examples=150, deadline=None)
    @given(alpha=_SWEEP_ALPHA, n=_SWEEP_N)
    def test_debias(self, alpha, n):
        mpmath = pytest.importorskip("mpmath")
        p = GammaParams(alpha)
        with mpmath.workdps(_dps(alpha, n)):
            a = mpmath.mpf(alpha)
            na = a * n
            theil_shift = mpmath.log(na) - mpmath.digamma(na) - 1 / na
            q = n * (mpmath.loggamma(a + mpmath.mpf(1) / n) - mpmath.loggamma(a)) - mpmath.log(a)
            factor = mpmath.exp(mpmath.digamma(a) - mpmath.log(a) - q)
            want_theil, want_factor = float(-theil_shift), float(factor)
            want_vmr = float((na + 1) / na)
        assert debias(IndexKind.THEIL_T, p, n, 0.0) == pytest.approx(want_theil, rel=1e-14, abs=0.0)
        # debias(0) = 1 - factor is a double: 1 - it holds the factor to its half
        # ulp.  The factor's exponent g = q + log(a) - psi(a) pairs its terms of
        # about 1/a, so it holds the factor to 1e-14 near MIN_SHAPE too.
        assert 1.0 - debias(IndexKind.ATKINSON, p, n, 0.0) == pytest.approx(
            want_factor, rel=1e-14, abs=2.0**-53
        )
        if n >= 2:
            assert debias(IndexKind.VMR, p, n, 1.0) == pytest.approx(want_vmr, rel=1e-14, abs=0.0)
            assert debias(IndexKind.GINI, p, n, 0.37) == 0.37

    @settings(max_examples=150, deadline=None)
    @given(alpha=_SWEEP_ALPHA, n=_SWEEP_N)
    def test_biases(self, alpha, n):
        mpmath = pytest.importorskip("mpmath")
        p = GammaParams(alpha, 3.0)
        with mpmath.workdps(_dps(alpha, n)):
            a = mpmath.mpf(alpha)
            na = a * n
            theil = mpmath.log(na) - mpmath.digamma(na + 1)
            q = n * (mpmath.loggamma(a + mpmath.mpf(1) / n) - mpmath.loggamma(a)) - mpmath.log(a)
            atkinson = mpmath.exp(mpmath.digamma(a) - mpmath.log(a)) - mpmath.exp(q)
            want = [float(theil), float(atkinson)]
            want_vmr = float(-1 / ((na + 1) * 3))
        got = [expect_theil(p, n).bias, expect_atkinson(p, n).bias]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        if n >= 2:
            assert expect_vmr(p, n).bias == pytest.approx(want_vmr, rel=1e-14, abs=0.0)
            assert expect_gini(p, n).bias == 0.0


class TestExpectationResult:
    @pytest.mark.parametrize("kind", list(IndexKind))
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_bias_matches_literal_difference_at_moderate_n(self, kind, alpha, n):
        # the bias is its own closed form; where it is not far below the two
        # fields, their difference holds it to about eps/|bias|
        r = expectation(kind, GammaParams(alpha, 3.0), n)
        assert r.bias == pytest.approx(r.expectation - r.population, rel=1e-12, abs=1e-16)

    @pytest.mark.parametrize(("kind", "alpha", "rate", "n", "expected"), BIAS_MPMATH)
    def test_bias_far_below_the_fields_matches_mpmath(self, kind, alpha, rate, n, expected):
        r = expectation(kind, GammaParams(alpha, rate), n)
        assert r.bias == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_gini_bias_zero_invariant(self):
        for alpha in ALPHAS:
            for n in (2, 5, 20):
                assert abs(expect_gini(GammaParams(alpha), n).bias) <= 1e-14


class TestAlphaPlugIn:
    def test_recovers_shape_in_large_samples(self):
        rng = np.random.default_rng(77)
        y = rng.gamma(2.5, 2.0, size=200_000)
        assert alpha_plug_in(y) == pytest.approx(2.5, rel=0.05)

    def test_rejects_constant_sample(self):
        with pytest.raises(DomainError):
            alpha_plug_in([3.0, 3.0, 3.0])

    def test_rejects_singleton(self):
        with pytest.raises(SizeError):
            alpha_plug_in([3.0])

    @pytest.mark.parametrize("vmr", [math.inf, math.nan])
    def test_non_finite_vmr_is_a_numeric_error(self, monkeypatch, vmr):
        if math.isinf(vmr):  # the squared deviations overflow
            values = [1e200, 2e200]
        else:  # no positive sample gives a NaN ratio, so the kernel is replaced
            monkeypatch.setitem(indices._KERNELS, IndexKind.VMR, lambda *args: vmr)
            values = [1.0, 2.0]
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=f"not finite: {vmr}"):
            alpha_plug_in(values)


def test_log_space_gamma_ratio_no_overflow():
    # Gamma^n(alpha + 1/n) / (alpha Gamma^n(alpha)) stays finite even when
    # the individual gamma values overflow any float.
    r = expect_atkinson(GammaParams(5.0), 5000)
    assert 0.0 < r.expectation < 1.0
    assert math.isfinite(log_gamma(1e6))
