"""Sample index implementations against hand-derived values and each other."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gammadex import indices
from gammadex.errors import DomainError, NumericError, SizeError
from gammadex.gamma_forms import alpha_plug_in
from gammadex.indices import (
    IndexKind,
    Sample,
    atkinson,
    compute_index,
    compute_indices,
    fsum,
    gini,
    gini_pairwise,
    gini_sorted,
    index_values,
    sample_mean,
    theil_t,
    vmr,
)
from gammadex.indices import _PAIRWISE_MAX_N, _VECTOR_SUM_MIN, column_sums

# Direct evaluations of the defining formulas on tiny samples.
THEIL_1_3 = 0.13081203594113696  # (1 ln(1/2) + 3 ln(3/2)) / 4
ATKINSON_1_3 = 0.1339745962155614  # 1 - sqrt(3)/2

positive_samples = st.lists(
    st.floats(min_value=1e-3, max_value=1e6), min_size=2, max_size=60
)


class TestSample:
    def test_rejects_empty(self):
        with pytest.raises(SizeError):
            Sample(np.array([]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(DomainError):
            Sample(np.array([1.0, bad, 2.0]))

    def test_rejects_matrix(self):
        with pytest.raises(DomainError):
            Sample(np.ones((2, 2)))

    def test_values_are_immutable(self):
        s = Sample(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    @pytest.mark.parametrize(
        ("values", "message"),
        [
            ([1.0, math.nan, -1.0], "sample contains non-finite values"),
            ([-1.0, 2.0, math.nan], "sample contains non-finite values"),
            ([1.0, math.inf], "sample contains non-finite values"),
            ([-math.inf, 1.0], "sample contains non-finite values"),
            ([1.0, 0.0], "sample values must be strictly positive, got 0.0"),
            ([1.0, -0.0], "sample values must be strictly positive, got -0.0"),
            ([2.0, -3.0, -1.0], "sample values must be strictly positive, got -3.0"),
        ],
    )
    def test_invalid_value_messages(self, values, message):
        # a non-finite value is reported before a non-positive one
        with pytest.raises(DomainError) as info:
            Sample(np.array(values))
        assert str(info.value) == message

    def test_accepts_the_least_subnormal(self):
        assert Sample(np.array([5e-324, 1.0])).values[0] == 5e-324

    def test_equality_and_hash_follow_the_values(self):
        a, b = Sample([1.0, 2.0]), Sample(np.array([1.0, 2.0]))
        compute_indices(tuple(IndexKind), a)  # the kept index values take no part
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Sample([2.0, 1.0])
        assert a != Sample([1.0, 2.0, 2.0])
        assert a != [1.0, 2.0]
        assert repr(a) == repr(b) == "Sample()"

    def test_vmr_is_computed_once_for_the_plug_in(self, monkeypatch):
        calls = []

        def counting_vmr(*args):
            calls.append(args)
            return kernel(*args)

        kernel = indices._KERNELS[IndexKind.VMR]
        monkeypatch.setitem(indices._KERNELS, IndexKind.VMR, counting_vmr)
        s = Sample([1.0, 2.0, 4.0])
        vmr_value = compute_index(IndexKind.VMR, s)
        assert alpha_plug_in(s) == s.mean / vmr_value
        assert compute_indices(tuple(IndexKind), s)[IndexKind.VMR] == vmr_value
        assert len(calls) == 1

    def test_keeps_only_finite_values(self):
        s = Sample([1e200, 2e200])
        with np.errstate(over="ignore"):
            assert compute_index(IndexKind.VMR, s) == math.inf
        # the inf was not kept, so this call computes again and raises
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
            compute_index(IndexKind.VMR, s)

    def test_too_short_for_an_index_is_a_size_error(self):
        with pytest.raises(SizeError) as info:
            compute_indices(tuple(IndexKind), [1.0])
        assert str(info.value) == "gini needs at least 2 observations, got 1"


@pytest.mark.parametrize(
    ("values", "expected"),
    [([1.0, 3.0], 2.0), ([5.0], 5.0), ([1.0, 2.0, 3.0, 4.0], 2.5)],
)
def test_sample_mean(values, expected):
    assert sample_mean(values) == expected


class TestGini:
    @pytest.mark.parametrize(
        ("values", "expected"),
        [
            ([1.0, 3.0], 0.5),
            ([1.0, 2.0, 3.0], 1.0 / 3.0),
            ([2.0, 2.0, 2.0, 2.0], 0.0),
            ([7.0, 7.0], 0.0),
        ],
    )
    def test_known_values(self, values, expected):
        assert gini_pairwise(values) == pytest.approx(expected, abs=1e-15)
        assert gini(values) == pytest.approx(expected, abs=1e-15)
        assert gini_sorted is gini

    def test_needs_two_observations(self):
        for fn in (gini, gini_pairwise, gini_sorted):
            with pytest.raises(SizeError):
                fn([4.0])

    def test_sorted_equals_pairwise_oracle(self):
        rng = np.random.default_rng(20240811)
        for _ in range(1000):
            n = int(rng.integers(2, 201))
            y = rng.gamma(rng.uniform(0.3, 5.0), 1.0, size=n) + 1e-9
            a, b = gini_sorted(y), gini_pairwise(y)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-14)

    def test_does_not_mutate_input(self):
        y = np.array([3.0, 1.0, 2.0])
        gini_sorted(y)
        assert y.tolist() == [3.0, 1.0, 2.0]


class TestTheil:
    @pytest.mark.parametrize(
        ("values", "expected"),
        [([5.0], 0.0), ([3.0, 3.0, 3.0], 0.0), ([1.0, 3.0], THEIL_1_3)],
    )
    def test_known_values(self, values, expected):
        assert theil_t(values) == pytest.approx(expected, abs=1e-14)

    def test_singleton_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        for y in rng.uniform(1e-6, 1e6, size=100):
            assert theil_t([float(y)]) == 0.0

    def test_value_tiny_against_the_mean(self):
        """5e-324 / mean underflows to 0; its term is about -4e-321, not 0·log(0)."""
        expected = (0.75 * math.log(0.75) + 2.25 * math.log(2.25)) / 3
        y = np.array([5e-324, 1e10, 3e10])
        with np.errstate(all="raise", under="ignore"):
            assert theil_t(y) == pytest.approx(expected, rel=1e-14)
            (block,) = index_values((IndexKind.THEIL_T,), np.column_stack([y, y[::-1]]))
        assert block.tolist() == pytest.approx([expected, expected], rel=1e-14)


class TestAtkinson:
    @pytest.mark.parametrize(
        ("values", "expected"),
        [([7.0], 0.0), ([4.0, 4.0], 0.0), ([1.0, 3.0], ATKINSON_1_3)],
    )
    def test_known_values(self, values, expected):
        assert atkinson(values) == pytest.approx(expected, abs=1e-14)

    def test_singleton_is_exactly_zero(self):
        rng = np.random.default_rng(8)
        for y in rng.uniform(1e-6, 1e6, size=100):
            assert atkinson([float(y)]) == 0.0
            assert math.copysign(1.0, atkinson([float(y)])) == 1.0
        assert math.copysign(1.0, atkinson([4.0, 4.0])) == 1.0  # +0.0, not -0.0


class TestVmr:
    @pytest.mark.parametrize(
        ("values", "expected"),
        [
            ([1.0, 3.0], 1.0),
            ([6.0, 6.0, 6.0], 0.0),
            # sum of squared deviations 5, /(n-1) = 5/3, / mean 2.5
            ([1.0, 2.0, 3.0, 4.0], 2.0 / 3.0),
        ],
    )
    def test_known_values(self, values, expected):
        assert vmr(values) == pytest.approx(expected, abs=1e-14)

    def test_needs_two_observations(self):
        with pytest.raises(SizeError):
            vmr([4.0])


@settings(max_examples=150)
@given(positive_samples, st.floats(min_value=1e-3, max_value=1e3))
def test_scale_invariance(values, c):
    y = np.array(values)
    assert gini(c * y) == pytest.approx(gini(y), rel=1e-12, abs=1e-12)
    assert theil_t(c * y) == pytest.approx(theil_t(y), rel=1e-9, abs=1e-12)
    assert atkinson(c * y) == pytest.approx(atkinson(y), rel=1e-9, abs=1e-12)
    assert vmr(c * y) == pytest.approx(c * vmr(y), rel=1e-12, abs=1e-12)


@settings(max_examples=150)
@given(positive_samples, st.randoms(use_true_random=False))
def test_permutation_invariance(values, rand):
    y = list(values)
    shuffled = list(y)
    rand.shuffle(shuffled)
    for fn in (gini, theil_t, atkinson, vmr):
        assert fn(shuffled) == pytest.approx(fn(y), rel=1e-12, abs=1e-12)


@settings(max_examples=200)
@given(positive_samples)
def test_ranges(values):
    y = np.array(values)
    assert 0.0 <= gini(y) <= 1.0
    assert 0.0 <= theil_t(y) <= math.log(len(values)) + 1e-12
    assert 0.0 <= atkinson(y) < 1.0
    assert vmr(y) >= 0.0


@given(st.floats(min_value=1e-3, max_value=1e6), st.integers(min_value=2, max_value=50))
def test_degenerate_sample_is_zero(c, n):
    y = [c] * n
    for fn in (gini, theil_t, atkinson, vmr):
        assert abs(fn(y)) <= 1e-14


def test_compute_index_dispatch():
    y = [1.0, 2.0, 3.0]
    assert compute_index(IndexKind.GINI, y) == gini(y)
    assert compute_index(IndexKind.THEIL_T, y) == theil_t(y)
    assert compute_index(IndexKind.ATKINSON, y) == atkinson(y)
    assert compute_index(IndexKind.VMR, y) == vmr(y)


def test_kind_parse():
    assert IndexKind.parse("gini") is IndexKind.GINI
    assert IndexKind.parse("Theil") is IndexKind.THEIL_T
    with pytest.raises(DomainError):
        IndexKind.parse("median")


def test_kind_min_n_is_fixed_per_member():
    assert {k: k.min_n for k in IndexKind} == {
        IndexKind.GINI: 2, IndexKind.THEIL_T: 1, IndexKind.ATKINSON: 1, IndexKind.VMR: 2,
    }
    assert all(vars(k)["min_n"] == k.min_n for k in IndexKind)  # stored, not computed
    assert [k.value for k in IndexKind] == ["gini", "theil", "atkinson", "vmr"]
    assert IndexKind("vmr") is IndexKind.VMR


# Magnitudes from subnormal to 1e150 of either sign, and signed zeros.
wide_floats = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@settings(max_examples=300)
@given(
    st.lists(wide_floats, min_size=1, max_size=200),
    st.integers(0, 4 * _VECTOR_SUM_MIN),
    st.randoms(use_true_random=False),
)
def test_one_sample_reducer_is_exactly_fsum(values, size, rand):
    # Rescaled copies of the drawn values take the arrays from below to well
    # above the size at which fsum sums by extraction.
    rng = np.random.default_rng(rand.getrandbits(64))
    k = max(size - len(values), 0)
    copies = rng.choice(values, k) * rng.choice([-1.0, 1.0], k) * np.exp2(rng.integers(-40, 41, k))
    x = np.concatenate([values, copies])
    y = np.abs(x) + 1e-300
    n = y.size
    weights = 2.0 * np.arange(1, n + 1) - n - 1.0
    mirrored = rng.permutation(np.concatenate([x, -x]))  # cancels to exactly zero
    theil_terms = y * (np.log(y) - np.log(y.mean()))
    for arr in (x, weights * np.sort(y), theil_terms, mirrored, mirrored + x[0]):
        got, want = fsum(arr), math.fsum(arr)
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("n", [_VECTOR_SUM_MIN - 1, _VECTOR_SUM_MIN, 3000, 50_000])
@pytest.mark.parametrize("seed", range(5))
def test_extracted_sum_over_the_whole_double_range(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    mirrored = rng.permutation(np.concatenate([x, -x]))
    # all just above -1: the extracted parts are fine multiples and sum to near their bound
    crowded = rng.random(n) * 2.0**-20 - 1.0
    for arr in (x, mirrored, mirrored + x[0], np.concatenate([mirrored, [5e-324]]), crowded):
        got, want = fsum(arr), math.fsum(arr)
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
def test_extracted_sum_of_large_gamma_kernel_terms(alpha):
    y = np.random.default_rng(int(alpha * 10)).gamma(alpha, 1.0, 200_000)
    n = y.size
    weights = 2.0 * np.arange(1, n + 1) - n - 1.0
    mu = math.fsum(y) / n
    terms = (y, weights * np.sort(y), y * np.log(y / mu), np.log(y), np.square(y - mu))
    for arr in terms:
        assert fsum(arr) == math.fsum(arr)


def test_extracted_sum_of_special_values_is_fsum():
    def ones(*head):
        x = np.ones(3 * _VECTOR_SUM_MIN)
        x[: len(head)] = head
        return x

    assert fsum(ones(np.inf)) == math.inf
    assert fsum(ones(1.0, -np.inf)) == -math.inf
    assert math.isnan(fsum(ones(np.nan)))
    with pytest.raises(ValueError):  # as math.fsum: -inf + inf
        fsum(ones(np.inf, -np.inf))
    assert fsum(ones(1.7e308, -1.7e308)) == math.fsum(ones(1.7e308, -1.7e308))
    with pytest.raises(NumericError):  # an intermediate overflow, as in math.fsum
        fsum(ones(1e308, 1e308, -1e308))
    zeros = -np.zeros(3 * _VECTOR_SUM_MIN)
    assert math.copysign(1.0, fsum(zeros)) == math.copysign(1.0, math.fsum(zeros))


def test_overflowing_sum_is_a_numeric_error():
    with pytest.raises(NumericError):
        fsum(np.array([1e308, 1e308]))
    with pytest.raises(NumericError):
        compute_index(IndexKind.GINI, [1e308, 1e308])


@settings(max_examples=150)
@given(positive_samples)
def test_compute_index_sums_like_fsum_over_the_array(values):
    y = np.array(values)
    for kind in IndexKind:
        [value] = index_values((kind,), y, math.fsum)
        assert compute_index(kind, y) == float(value)
    assert compute_indices(tuple(IndexKind), y) == {k: compute_index(k, y) for k in IndexKind}


# Few distinct values, so columns have ties, next to arbitrary positive ones.
block_values = st.one_of(
    st.sampled_from([5e-324, 0.5, 1.0, 3.0, 1e300]),
    st.floats(min_value=5e-324, max_value=1e300),
)


@pytest.mark.parametrize("n", range(2, _PAIRWISE_MAX_N + 2))
@settings(max_examples=30)
@given(data=st.data())
def test_block_gini_is_the_pairwise_definition(n, data):
    y = data.draw(hnp.arrays(np.float64, (n, data.draw(st.integers(1, 40))), elements=block_values))
    y = np.concatenate([y, np.full((n, 1), y[0, 0])], axis=1)  # and a constant column
    [block] = index_values((IndexKind.GINI,), y)
    for j in range(y.shape[1]):
        assert block[j] == pytest.approx(gini_pairwise(y[:, j]), rel=1e-13, abs=1e-15)
    if n <= _PAIRWISE_MAX_N:  # the sorted formula's weighted sum need not cancel to 0
        assert block[-1] == 0.0
    if n == 2:  # max - min either way, so the sorted formula's bits
        sorted_formula = column_sums(np.array([[-1.0], [1.0]]) * np.sort(y, axis=0)) / column_sums(y)
        assert block.view(np.uint64).tolist() == sorted_formula.view(np.uint64).tolist()
