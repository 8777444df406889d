"""Distributional checks of the gamma/beta/Dirichlet samplers."""

import math

import numpy as np
import pytest

from gammadex import verify
from gammadex.errors import DomainError, NumericError, SizeError
from gammadex.gamma_forms import GammaParams
from gammadex.rng import RngStream
from gammadex.sampling import (
    _CHUNK,
    MIN_SHAPE,
    _box_muller,
    beta_variate,
    beta_variates,
    dirichlet_variate,
    dirichlet_variates,
    gamma_variate,
    gamma_variates,
    standard_normals,
)
from gammadex.special import digamma

# Two-sided 0.001-level asymptotic Kolmogorov-Smirnov critical constant.
KS_CRIT_0001 = 1.9494746035204052


# Reference sampler: halved squares of Box-Muller normals (cosine and sine
# from the tangent of the half angle) at alpha = 1/2, every cosine half then
# every sine half; the exponential and its two-uniform sum by inversion at
# alpha = 1 and 2; else Marsaglia-Tsang over whole arrays, one pass per
# rejection round, with the uniforms taken in two requests.  The library's
# in-place forms and sliced round must reproduce it bit for bit.
def _ref_normals(rng, size):
    pairs = (size + 1) // 2
    u = rng.uniforms(2 * pairs)
    r = np.sqrt(-2.0 * np.log1p(-u[:pairs]))
    t = np.tan(np.pi * u[pairs:])  # of half the angle 2 pi u
    r_h = r / (1.0 + t * t)
    out = np.empty(2 * pairs)
    out[0::2] = (1.0 - t) * r_h * (1.0 + t)
    out[1::2] = r_h * (2.0 * t)
    return out[:size]


def _ref_unit_rate(rng, alpha, size):
    d = alpha - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(size)
    filled = 0
    while filled < size:
        m = size - filled
        z = _ref_normals(rng, m)
        w = 1.0 - rng.uniforms(m)
        v = 1.0 + c * z
        v *= v * v
        pos = v > 0.0
        z2 = z * z
        accept = pos & (w < 1.0 - 0.0331 * z2 * z2)
        slow = pos & ~accept
        if slow.any():
            vs = v[slow]
            accept[slow] = np.log(w[slow]) < 0.5 * z2[slow] + d * (1.0 - vs + np.log(vs))
        vals = d * v[accept]
        out[filled : filled + vals.size] = vals
        filled += vals.size
    return out


def _ref_gamma_variates(rng, alpha, rate, size):
    if alpha == 0.5:
        pairs = (size + 1) // 2
        z = _ref_normals(rng, 2 * pairs)
        out = 0.5 * np.concatenate((z[0::2] * z[0::2], z[1::2] * z[1::2]))[:size]
    elif alpha == 1.0:
        out = -np.log(1.0 - rng.uniforms(size))
    elif alpha == 2.0:
        u = rng.uniforms(2 * size)
        out = -np.log((1.0 - u[:size]) * (1.0 - u[size:]))
    elif alpha > 1.0:
        out = _ref_unit_rate(rng, alpha, size)
    else:
        out = _ref_unit_rate(rng, alpha + 1.0, size)
        out *= (1.0 - rng.uniforms(size)) ** (1.0 / alpha)
    return out / rate


def _band(values, target, k=4.0):
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - target) < k * se, (values.mean(), target, se)


def _ks_statistic(cdf):
    """Kolmogorov-Smirnov distance of the sorted CDF values ``cdf`` from uniform."""
    i = np.arange(1, len(cdf) + 1)
    return max(np.max(i / len(cdf) - cdf), np.max(cdf - (i - 1) / len(cdf)))


class _ZeroAt(RngStream):
    """A stream whose first request has 0 at the positions ``at``."""

    def __init__(self, at, *args):
        super().__init__(*args)
        self.at = list(at)

    def uniforms(self, count):
        u = super().uniforms(count)
        u[self.at] = 0.0
        self.at = []
        return u


class _Counting(RngStream):
    """A stream that records the size of each request."""

    def __init__(self, *args):
        super().__init__(*args)
        self.requests = []

    def uniforms(self, count):
        self.requests.append(count)
        return super().uniforms(count)


class TestGamma:
    def test_mean_and_variance(self):
        g = gamma_variates(RngStream(42, 0), GammaParams(2.0, 1.0), 10**6)
        _band(g, 2.0)
        sq = (g - 2.0) ** 2
        _band(sq, 2.0)

    def test_small_shape_mean_and_variance(self):
        g = gamma_variates(RngStream(42, 1), GammaParams(0.5, 2.0), 10**6)
        _band(g, 0.25)
        _band((g - 0.25) ** 2, 0.125)

    def test_exponential_ks(self):
        g = np.sort(gamma_variates(RngStream(7, 0), GammaParams(1.0, 1.0), 10**5))
        assert _ks_statistic(-np.expm1(-g)) < KS_CRIT_0001 / math.sqrt(len(g))

    @pytest.mark.parametrize(
        ("alpha", "rate"),
        [
            pytest.param(MIN_SHAPE, 1.0, id="MIN_SHAPE-1.0"),
            (0.1, 2.5), (0.5, 1.0), (1.0, 0.3), (2.0, 1.0), (5.0, 1.0), (1e3, 4.0),
        ],
    )
    def test_probability_integral_transform_is_uniform(self, alpha, rate):
        """P(alpha, G * rate) of exact gamma draws is uniform on (0, 1).

        200k draws per shape detect a boost drawn at alpha + 1.1 or a
        squeeze test off by 0.3 in log u.
        """
        special = pytest.importorskip("scipy.special")
        g = gamma_variates(RngStream(5021, 0), GammaParams(alpha, rate), 200_000)
        u = np.sort(special.gammainc(alpha, g * rate))
        assert _ks_statistic(u) < KS_CRIT_0001 / math.sqrt(len(u))

    def test_shape_below_min_shape_draws_nothing(self):
        rng = RngStream(8, 1)
        with pytest.raises(DomainError, match="alpha >= "):
            gamma_variates(rng, GammaParams(math.nextafter(MIN_SHAPE, 0.0)), 10)
        assert rng.uniforms(5).tobytes() == RngStream(8, 1).uniforms(5).tobytes()

    def test_a_variate_that_rounds_to_zero_is_an_error(self):
        # At this rate about 7% of the draws round to 0.
        with pytest.raises(NumericError, match="rounded to 0"):
            gamma_variates(RngStream(8, 2), GammaParams(MIN_SHAPE, 1e300), 1_000)

    def test_an_exponential_from_a_zero_uniform_is_an_error(self):
        # At alpha = 1 only u = 0 gives -log(1 - u) = 0, probability 2^-53 a variate
        class ZeroFirst(RngStream):
            def uniforms(self, count):
                u = super().uniforms(count)
                u[0] = 0.0
                return u

        with pytest.raises(NumericError, match="rounded to 0"):
            gamma_variates(ZeroFirst(8, 3), GammaParams(1.0), 10)

    @pytest.mark.parametrize(
        ("alpha", "at"), [(0.5, [0]), (0.5, [5]), (2.0, [0, 10])], ids=["radius", "angle", "both"]
    )
    def test_a_draw_from_zero_uniforms_is_an_error(self, alpha, at):
        # Z^2/2 is 0 where the radius uniform is 0 (both halves) or the angle
        # uniform is 0 (the sine half), and -log((1 - u1)(1 - u2)) only where
        # both uniforms are 0; each has probability 2^-53 a pair
        size = 10
        with pytest.raises(NumericError, match="rounded to 0"):
            gamma_variates(_ZeroAt(at, 8, 3), GammaParams(alpha), size)

    def test_one_zero_uniform_of_an_erlang_pair_is_no_error(self):
        g = gamma_variates(_ZeroAt([0], 8, 3), GammaParams(2.0), 10)
        assert np.all(g > 0.0)

    @pytest.mark.parametrize(
        ("alpha", "requests"),
        [
            (0.5, lambda size: [2 * ((size + 1) // 2)]),
            (1.0, lambda size: [size]),
            (2.0, lambda size: [2 * size]),
        ],
        ids=["0.5", "1.0", "2.0"],
    )
    @pytest.mark.parametrize("size", [1, 2, 3, _CHUNK + 1])
    def test_uniforms_taken_without_rejection(self, alpha, requests, size):
        rng = _Counting(404, 9)
        gamma_variates(rng, GammaParams(alpha), size)
        assert rng.requests == requests(size)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0, 3.7])
    def test_strictly_positive(self, alpha):
        g = gamma_variates(RngStream(3, 2), GammaParams(alpha, 1.0), 50_000)
        assert np.all(g > 0.0)

    def test_reproducible(self):
        p = GammaParams(2.5, 0.5)
        a = gamma_variates(RngStream(9, 4), p, 10_000)
        b = gamma_variates(RngStream(9, 4), p, 10_000)
        assert np.array_equal(a, b)

    def test_additivity_moment_match(self):
        # gamma(a) + gamma(b) at a common rate must match gamma(a+b) moments.
        r = RngStream(15, 0)
        x = gamma_variates(r, GammaParams(1.3, 2.0), 400_000)
        y = gamma_variates(r, GammaParams(2.2, 2.0), 400_000)
        s = x + y
        _band(s, 3.5 / 2.0)
        _band((s - 3.5 / 2.0) ** 2, 3.5 / 4.0)

    @pytest.mark.parametrize(
        ("alpha", "rate"),
        [
            (0.003, 1.0),
            (0.01, 1.0),
            pytest.param(MIN_SHAPE, 1.0, id="MIN_SHAPE-1.0"),
            (0.05, 2.0),
            (0.5, 1.0),
            (1.0, 3.0),
            (2.0, 3.0),
            (5.0, 0.5),
        ],
    )
    def test_mean_log_is_digamma_minus_log_rate(self, alpha, rate):
        """E[log G] = psi(alpha) - log(rate) at every shape the sampler draws.

        Below ``MIN_SHAPE`` it refuses the shape rather than draw G given G > 0.
        """
        if alpha < MIN_SHAPE:
            with pytest.raises(DomainError):
                gamma_variates(RngStream(2718, 0), GammaParams(alpha, rate), 200_000)
            return
        g = gamma_variates(RngStream(2718, 0), GammaParams(alpha, rate), 200_000)
        _band(np.log(g), digamma(alpha) - math.log(rate))

    @pytest.mark.parametrize(
        "alpha",
        [
            pytest.param(MIN_SHAPE, id="MIN_SHAPE"), 0.5, 1.0,
            # the least shape above 1: Marsaglia-Tsang, next to the exponential branch
            pytest.param(math.nextafter(1.0, 2.0), id="1.0+ulp"), 2.0, 3.7, 5.0,
        ],
    )
    @pytest.mark.parametrize("size", [1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 500_001])
    def test_bit_identical_to_whole_round_reference(self, alpha, size):
        got = gamma_variates(RngStream(404, 9), GammaParams(alpha, 1.5), size)
        want = _ref_gamma_variates(RngStream(404, 9), alpha, 1.5, size)
        assert got.tobytes() == want.tobytes()

    def test_scalar_wrapper(self):
        v = gamma_variate(RngStream(1, 0), GammaParams(2.0))
        assert isinstance(v, float) and v > 0.0

    def test_rejects_negative_size(self):
        with pytest.raises(SizeError):
            gamma_variates(RngStream(1, 0), GammaParams(1.0), -1)


class TestGammaBetaHalves:
    """Gamma(1/2) draws as Lukacs' pair E cos^2(theta), E sin^2(theta).

    With a and b the cosine and sine halves of the same Box-Muller pairs,
    S = a + b is the pair's E ~ Gamma(1) and R = a/S is cos^2(theta) ~
    Beta(1/2, 1/2), independent of S.
    """

    PAIRS = 200_000

    @pytest.fixture(scope="class")
    def halves(self):
        g = gamma_variates(RngStream(6007, 0), GammaParams(0.5), 2 * self.PAIRS)
        a, b = g[: self.PAIRS], g[self.PAIRS :]
        s = a + b
        return a / s, s

    def test_sum_is_exponential(self, halves):
        _, s = halves
        assert _ks_statistic(np.sort(-np.expm1(-s))) < KS_CRIT_0001 / math.sqrt(self.PAIRS)

    def test_proportion_is_arcsine(self, halves):
        r, _ = halves
        cdf = np.sort(2.0 / np.pi * np.arcsin(np.sqrt(r)))
        assert _ks_statistic(cdf) < KS_CRIT_0001 / math.sqrt(self.PAIRS)

    def test_proportion_is_uncorrelated_with_sum(self, halves):
        r, s = halves
        assert abs(np.corrcoef(r, s)[0, 1]) <= 4.0 / math.sqrt(self.PAIRS)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_no_verify_column_holds_both_halves_of_a_pair(self, n):
        # verify's block of n-draw samples, one sample a column
        seen = []
        job = verify._Job(GammaParams(0.5), n, verify._BLOCK_SIZE, RngStream(1729, 3),
                          lambda y: seen.append(y) or [y[0]], lambda mean, cov: None)
        verify._one_block(job, 0)
        [y] = seen
        draws = y.T.ravel()  # in draw order: column i holds draws i n to i n + n - 1
        pairs = (draws.size + 1) // 2
        u = job.rng.spawn(0).uniforms(2 * pairs)
        z = _box_muller(u[:pairs], u[pairs:], np.empty(2 * pairs))
        halves = 0.5 * np.concatenate((z[0::2] * z[0::2], z[1::2] * z[1::2]))
        assert draws.tobytes() == halves[: draws.size].tobytes()
        sine = np.arange(pairs, draws.size)  # pair j's sine half is draw pairs + j
        assert np.all(sine // n != (sine - pairs) // n)


class TestNormals:
    def test_moments(self):
        z = standard_normals(RngStream(11, 0), 10**6)
        _band(z, 0.0)
        _band(z * z, 1.0)

    def test_odd_count(self):
        assert standard_normals(RngStream(11, 1), 7).shape == (7,)

    @pytest.mark.parametrize("size", [1, 2, 7, 10_001])
    def test_bit_identical_to_reference(self, size):
        got = standard_normals(RngStream(12, 3), size)
        assert got.tobytes() == _ref_normals(RngStream(12, 3), size).tobytes()


def _square(a):
    """a*a as an unevaluated sum hi + lo, exactly (Veltkamp split, Dekker's product)."""
    c = 134217729.0 * a  # 2^27 + 1
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hi = a * a
    return hi, ((a_hi * a_hi - hi) + 2.0 * a_hi * a_lo) + a_lo * a_lo


# Angle uniforms where the half angle meets 0, pi/4, the pole pi/2 and pi, each
# with every radius from r = 0 to the largest, r = sqrt(106 log 2).
_EDGE_ANGLES = np.array([0.0, 2.0**-53, 0.25, 0.5 - 2.0**-53, 0.5, 0.75, 1.0 - 2.0**-53])
_EDGE_RADII = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])


def _angle_grid(name):
    """(radius uniforms, angle uniforms): 1M pairs from a stream, or the edge pairs."""
    if name == "stream":
        u = RngStream(31, 4).uniforms(2 * 10**6)
        return u[: 10**6], u[10**6 :]
    radius_u, angle_u = np.meshgrid(_EDGE_RADII, _EDGE_ANGLES)
    return radius_u.ravel(), angle_u.ravel()


class TestBoxMullerHalfAngle:
    """The pair from t = tan(pi u) against r cos(2 pi u) and r sin(2 pi u)."""

    @pytest.mark.parametrize("grid", ["stream", "edges"])
    def test_matches_cos_and_sin_of_the_angle(self, grid):
        radius_u, angle_u = _angle_grid(grid)
        with np.errstate(all="raise"):
            z = _box_muller(radius_u, angle_u, np.empty(2 * radius_u.size))
        assert np.isfinite(z).all()
        r = np.sqrt(-2.0 * np.log1p(-radius_u))
        theta = 2.0 * np.pi * angle_u
        assert np.abs(z[0::2] - r * np.cos(theta)).max() <= 1e-14
        assert np.abs(z[1::2] - r * np.sin(theta)).max() <= 1e-14

    @pytest.mark.parametrize("grid", ["stream", "edges"])
    def test_pair_lies_on_the_circle(self, grid):
        # c^2 + s^2 = 1 holds for any t, so only the formula's roundings show:
        # relative errors of at most u = eps/2 from t*t, + 1, r/, 1 - t, 1 + t
        # and two products in the cosine, doubled by the square, give 7 eps.
        # (Over 1M uniforms the largest seen is about 4 eps.)
        radius_u, angle_u = _angle_grid(grid)
        z = _box_muller(radius_u, angle_u, np.empty(2 * radius_u.size))
        r = np.sqrt(-2.0 * np.log1p(-radius_u))  # the library's radius, bit for bit
        keep = r > 0.0
        (c_hi, c_lo), (s_hi, s_lo), (r_hi, r_lo) = (
            _square(v[keep]) for v in (z[0::2], z[1::2], r)
        )
        # (c^2 + s^2) - r^2 to far better than eps r^2: the sum of the high parts
        # by TwoSum, whose difference from r_hi is exact (Sterbenz)
        total = c_hi + s_hi
        back = total - c_hi
        err = (c_hi - (total - back)) + (s_hi - back)
        gap = (total - r_hi) + (err + c_lo + s_lo - r_lo)
        assert np.abs(gap / r_hi).max() <= 7 * np.finfo(float).eps


class TestBeta:
    def test_mean(self):
        b = beta_variates(RngStream(21, 0), 2.0, 6.0, 10**6)
        _band(b, 0.25)
        assert np.all((b > 0.0) & (b < 1.0))

    def test_uniform_case(self):
        b = beta_variates(RngStream(22, 0), 1.0, 1.0, 10**6)
        _band(b, 0.5)

    def test_abs_2r_minus_1_uniform(self):
        # E|2R - 1| for uniform R is 1/2, matching the population Gini at shape 1.
        b = beta_variates(RngStream(23, 0), 1.0, 1.0, 10**6)
        _band(np.abs(2.0 * b - 1.0), 0.5)

    def test_scalar_wrapper(self):
        v = beta_variate(RngStream(2, 0), 0.5, 0.5)
        assert 0.0 < v < 1.0


class TestDirichlet:
    def test_rows_sum_to_one(self):
        z = dirichlet_variates(RngStream(31, 0), 1.0, 3, 100_000)
        assert np.abs(z.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all((z > 0.0) & (z < 1.0))

    def test_component_mean(self):
        z = dirichlet_variates(RngStream(32, 0), 1.0, 3, 10**6)
        _band(z[:, 0], 1.0 / 3.0)

    def test_product_moment(self):
        # E[sqrt(Z1 Z2)] = pi/8 for the flat Dirichlet on the 1-simplex.
        z = dirichlet_variates(RngStream(33, 0), 1.0, 2, 10**6)
        _band(np.sqrt(z[:, 0] * z[:, 1]), math.pi / 8.0)

    def test_single_draw(self):
        z = dirichlet_variate(RngStream(34, 0), 2.0, 5)
        assert z.shape == (5,)
        assert z.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_dimension(self):
        with pytest.raises(SizeError):
            dirichlet_variate(RngStream(1, 0), 1.0, 1)
