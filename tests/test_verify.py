"""Verification harness: batch estimators, block engine, identity checks, MC reports."""

import dataclasses
import json
import math
import threading
import time

import numpy as np
import pytest

from gammadex import verify
from gammadex.cli import _emit
from gammadex.errors import DomainError, NumericError, SizeError
from gammadex.gamma_forms import GammaParams, debias, expectation, pop_theil, population_value
from gammadex.indices import (
    _PAIRWISE_MAX_N, IndexKind, atkinson, compute_index, gini, index_values, theil_t, vmr,
)
from gammadex.rng import RngStream
from gammadex.sampling import dirichlet_variates, gamma_variates
from gammadex.special import digamma
from gammadex.verify import (
    MAX_REPS,
    MAX_WORKERS,
    McReport,
    VerifyConfig,
    _STREAM_STRIDE,
    _Job,
    _debias_affine,
    _run_jobs,
    abs_2r_minus_1_check,
    beta_ulogu_check,
    dirichlet_product_moment_check,
    lukacs_independence_check,
    mc_expectation,
    run_verification,
    two_point_remark_check,
)

SCALAR = {
    IndexKind.GINI: gini,
    IndexKind.THEIL_T: theil_t,
    IndexKind.ATKINSON: atkinson,
    IndexKind.VMR: vmr,
}


class TestBatchEstimators:
    """The shared kernels on (n, samples) blocks must match the fsum API."""

    @pytest.mark.parametrize("kind", list(IndexKind))
    @pytest.mark.parametrize("n", [2, 3, 10, _PAIRWISE_MAX_N, _PAIRWISE_MAX_N + 1, 57])
    def test_matches_scalar_definitions(self, kind, n):
        rng = np.random.default_rng(1234 + n)
        y = rng.gamma(1.5, 2.0, size=(n, 200)) + 1e-12
        [batch] = index_values((kind,), y)
        assert batch.shape == (200,)
        for i in range(0, 200, 17):
            assert batch[i] == pytest.approx(SCALAR[kind](y[:, i]), rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("kind", [IndexKind.THEIL_T, IndexKind.ATKINSON])
    def test_n1_rows_are_zero(self, kind):
        y = np.random.default_rng(5).gamma(2.0, 1.0, size=(1, 50))
        assert np.all(index_values((kind,), y)[0] == 0.0)

    @pytest.mark.parametrize("n", [2, 5, _PAIRWISE_MAX_N, _PAIRWISE_MAX_N + 1, 20])
    def test_block_columns_match_compute_index(self, n):
        y = np.random.default_rng(99 + n).gamma(0.7, 3.0, size=(n, 300))
        kinds = tuple(IndexKind)
        values = index_values(kinds, y)
        for kind, row in zip(kinds, values):
            assert row.shape == (300,)
            for j in range(300):
                assert row[j] == pytest.approx(compute_index(kind, y[:, j]), rel=1e-11, abs=1e-12)


def _block_moments(params, n, reps, rng, stat, workers):
    """Mean vector and sample covariance matrix of ``stat`` over one job's blocks."""
    [moments] = _run_jobs([_Job(params, n, reps, rng, stat, lambda *m: m)], workers)
    return moments


class TestBlockEngine:
    def test_merged_moments_match_concatenated_column(self):
        columns = []

        def stat(y):
            [col] = index_values((IndexKind.THEIL_T,), y)
            columns.append(col)
            return [col]

        mean, cov = _block_moments(GammaParams(1.5, 2.0), 4, 103_457, RngStream(3, 0), stat, 1)
        assert [c.size for c in columns] == [25_000] * 4 + [3_457]
        column = np.concatenate(columns)
        assert mean[0] == pytest.approx(np.mean(column), rel=1e-12)
        assert cov[0, 0] == pytest.approx(np.var(column, ddof=1), rel=1e-12)

    def test_block_samples_hold_consecutive_draws(self):
        blocks = []

        def stat(y):
            blocks.append(y)
            return [y[0]]

        _block_moments(GammaParams(1.5), 3, 10_000, RngStream(8, 0), stat, 1)
        [y] = blocks
        draws = gamma_variates(RngStream(8, 0).spawn(0), GammaParams(1.5), 30_000)
        assert y.flags.c_contiguous
        assert np.array_equal(y, draws.reshape(10_000, 3).T)  # column i: draws 3i .. 3i + 2

    @pytest.mark.parametrize("reps", [2**14, 10**6])
    def test_block_variate_limit(self, reps):
        """min(reps, 25k) * n may reach 2**25 variates and not pass it; nothing is drawn."""
        limit = verify._MAX_BLOCK_VARIATES
        assert limit == 2**25
        block = min(reps, verify._BLOCK_SIZE)
        n = limit // block
        _Job(GammaParams(1.0), n, reps, RngStream(1), None, None)
        with pytest.raises(SizeError, match=f"n = {n + 1} .* {block * (n + 1)} variates"):
            _Job(GammaParams(1.0), n + 1, reps, RngStream(1), None, None)


class TestDebiasAffine:
    @pytest.mark.parametrize("kind", list(IndexKind))
    def test_matches_scalar_debias(self, kind):
        p = GammaParams(1.7, 2.0)
        n = 6
        intercept, slope = _debias_affine(kind, p, n)
        for raw in (0.0, 0.1, 0.42, 0.9):
            assert intercept + slope * raw == pytest.approx(
                debias(kind, p, n, raw), rel=1e-12, abs=1e-14
            )


class TestMcExpectation:
    @pytest.mark.parametrize(
        ("kind", "alpha", "rate", "n"),
        [
            (IndexKind.GINI, 2.0, 1.0, 5),
            (IndexKind.THEIL_T, 1.0, 3.0, 2),
            (IndexKind.ATKINSON, 1.0, 1.0, 2),
            (IndexKind.VMR, 1.0, 1.0, 2),
        ],
    )
    def test_small_runs_pass(self, kind, alpha, rate, n):
        r = mc_expectation(
            kind, GammaParams(alpha, rate), n, 20_000, RngStream(42, 1 << 40)
        )
        assert r.passed, r
        assert r.reps == 20_000 and r.n == n
        assert r.mc_stderr > 0.0
        assert r.z_score == pytest.approx((r.mc_mean - r.target) / r.mc_stderr)

    def test_debiased_targets_population(self):
        p = GammaParams(1.0, 1.0)
        r = mc_expectation(
            IndexKind.VMR, p, 2, 20_000, RngStream(42, 2 << 40), debias_values=True
        )
        assert r.target == pytest.approx(1.0)
        assert r.passed

    def test_worker_count_does_not_change_results(self):
        """Every Monte Carlo check on the block engine, not only this one."""
        p = GammaParams(2.0, 1.0)
        checks = [
            lambda w: mc_expectation(IndexKind.GINI, p, 5, 30_000, RngStream(7, 0), workers=w),
            lambda w: lukacs_independence_check(
                GammaParams(0.5), 3, 30_000, RngStream(7, 0), workers=w
            ),
            lambda w: dirichlet_product_moment_check(2.0, 3, 30_000, RngStream(7, 0), workers=w),
        ]
        for check in checks:
            runs = [check(w) for w in (1, 2, 4)]
            assert runs[0] == runs[1] == runs[2]

    def test_rejects_low_reps(self):
        with pytest.raises(SizeError):
            mc_expectation(IndexKind.GINI, GammaParams(1.0), 5, 100, RngStream(1))

    def test_rejects_non_whole_reps(self):
        with pytest.raises(DomainError, match="reps must be a whole number"):
            mc_expectation(IndexKind.GINI, GammaParams(1.0), 5, 10_000.9, RngStream(1))

    def test_rejects_small_n(self):
        with pytest.raises(SizeError):
            mc_expectation(IndexKind.GINI, GammaParams(1.0), 1, 20_000, RngStream(1))


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf], ids=str)
@pytest.mark.parametrize(
    "call",
    [
        lambda n: expectation(IndexKind.THEIL_T, GammaParams(1.0), n),
        lambda n: debias(IndexKind.VMR, GammaParams(1.0), n, 0.5),
        lambda n: mc_expectation(IndexKind.GINI, GammaParams(1.0), n, 10_000, RngStream(1)),
        lambda n: lukacs_independence_check(GammaParams(1.0), n, 10_000, RngStream(1)),
        lambda n: dirichlet_product_moment_check(1.0, n, 10_000, RngStream(1)),
        lambda n: dirichlet_variates(RngStream(1), 1.0, n, 10),
    ],
    ids=[
        "expectation", "debias", "mc_expectation", "lukacs", "dirichlet_check",
        "dirichlet_variates",
    ],
)
def test_non_whole_n_is_a_domain_error(call, n):
    with pytest.raises(DomainError, match="whole number n"):
        call(n)


class TestLukacs:
    def test_gamma_data_is_uncorrelated(self):
        r = lukacs_independence_check(
            GammaParams(1.0), 2, 20_000, RngStream(42, 3 << 40)
        )
        assert r.passed
        assert r.target == 0.0
        assert r.mc_stderr == pytest.approx(1.0 / math.sqrt(20_000))

    def test_rejects_n1(self):
        with pytest.raises(SizeError):
            lukacs_independence_check(GammaParams(1.0), 1, 20_000, RngStream(1))


class TestDirichletProductMoment:
    def test_flat_simplex_case(self):
        r = dirichlet_product_moment_check(1.0, 2, 50_000, RngStream(42, 4 << 40))
        assert r.target == pytest.approx(math.pi / 8.0, rel=1e-12)
        assert r.passed

    def test_alpha2_n3_case(self):
        r = dirichlet_product_moment_check(2.0, 3, 50_000, RngStream(42, 5 << 40))
        assert r.target == pytest.approx(0.2813127674819672, rel=1e-12)
        assert r.passed

    def test_rejects_n1(self):
        with pytest.raises(SizeError):
            dirichlet_product_moment_check(1.0, 1, 20_000, RngStream(1))


class TestQuadratureIdentities:
    def test_ulogu_uniform_case_is_quarter(self):
        closed, quad = beta_ulogu_check(1.0, 1.0)
        assert closed == pytest.approx(-0.25, abs=1e-13)
        assert quad == pytest.approx(-0.25, abs=1e-8)

    def test_ulogu_symmetric_case(self):
        closed, quad = beta_ulogu_check(2.0, 2.0)
        assert closed == pytest.approx(-7.0 / 24.0, abs=1e-13)
        assert abs(closed - quad) < 1e-8

    @pytest.mark.parametrize(("a", "b"), [(0.5, 4.5), (4.5, 0.5), (0.5, 0.5)])
    def test_ulogu_singular_shapes(self, a, b):
        closed, quad = beta_ulogu_check(a, b)
        assert abs(closed - quad) < 1e-8

    @pytest.mark.parametrize(
        ("alpha", "expected"), [(1.0, 0.5), (2.0, 0.375), (0.5, 2.0 / math.pi)]
    )
    def test_abs_2r_minus_1(self, alpha, expected):
        closed, quad = abs_2r_minus_1_check(alpha)
        assert closed == pytest.approx(expected, rel=1e-12)
        assert abs(closed - quad) < 1e-8

    @pytest.mark.parametrize("alpha", sorted({*verify.ABS2R_ALPHAS, 0.1, 0.25, 0.75}))
    def test_abs_2r_minus_1_matches_mpmath(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            exact = mpmath.gamma(a + 0.5) / (mpmath.gamma(a + 1) * mpmath.sqrt(mpmath.pi))
        _, quad = abs_2r_minus_1_check(alpha)
        assert abs(quad - float(exact)) <= 1e-13

    @pytest.mark.parametrize("b", sorted({*verify.ULOGU_SHAPES, 0.1, 0.75}))
    @pytest.mark.parametrize("a", sorted({*verify.ULOGU_SHAPES, 0.1, 0.75}))
    def test_ulogu_matches_mpmath(self, a, b):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
            exact = a_ / (a_ + b_) * (mpmath.digamma(a_ + 1) - mpmath.digamma(a_ + b_ + 1))
        _, quad = beta_ulogu_check(a, b)
        assert abs(quad - float(exact)) <= 1e-13

    @pytest.mark.parametrize("d", [0.1, 0.5, 1.0, 4.5])
    @pytest.mark.parametrize("c", [0.05, 0.1, 0.5, 0.75, 1.0, 4.5])
    def test_half_integral_error_bound_is_a_bound(self, c, d):
        """The reported error bound covers the error at a u^(c-1) or log u endpoint."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            beta = mpmath.beta(c, d)
            lb = float(mpmath.log(beta))
            # the mass below 1/2, and E[U log U; U < 1/2] as its derivative in the shape
            exact = {
                "mass": mpmath.betainc(c, d, 0, 0.5) / beta,
                "ulogu": mpmath.diff(lambda s: mpmath.betainc(s, d, 0, 0.5), c + 1) / beta,
            }
        for name, g in (("mass", lambda u, x: np.ones_like(u)), ("ulogu", lambda u, x: -x * u)):
            result = verify._half_beta_integral(g, c, d, lb)
            assert abs(result.value - float(exact[name])) <= result.error_bound, name

    def test_bad_shapes(self):
        with pytest.raises(DomainError):
            beta_ulogu_check(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_ulogu_check(-1.0, 1.0)
        with pytest.raises(DomainError):
            abs_2r_minus_1_check(-1.0)


class TestTwoPointRemark:
    @pytest.mark.parametrize(
        ("a", "b", "expected"), [(1.0, 3.0, 0.25), (2.0, 8.0, 0.3)]
    )
    def test_enumeration_is_exactly_unbiased(self, a, b, expected):
        enumerated, population = two_point_remark_check(a, b)
        assert enumerated == population
        assert enumerated == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(("a", "b"), [(1.0, 1.0), (3.0, 1.0), (0.0, 1.0)])
    def test_rejects_bad_support(self, a, b):
        with pytest.raises(DomainError):
            two_point_remark_check(a, b)


class TestReports:
    def test_json_schema_keys(self):
        r = McReport("gini[alpha=1,lambda=1]", 5, 10, 0.5, 0.1, 0.5, 0.0, True, "mc:gini")
        d = r.to_dict()
        assert list(d.keys()) == [
            "kind", "n", "reps", "mc_mean", "mc_stderr", "target", "z_score", "pass",
        ]
        assert d["pass"] is True
        json.dumps(d)  # must be serializable as-is

    def test_table_alignment(self, capsys):
        reports = [
            McReport("gini[alpha=1,lambda=1]", 5, 10_000, 0.5, 0.01, 0.5, 0.0, True),
            McReport("two_point_remark[a=1,b=3]", 2, 0, 0.25, 0.0, 0.25, 0.0, True),
        ]
        rows = [r.to_dict() for r in reports]
        _emit(rows, rows, "table")
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("kind")
        assert len(lines) == 4
        assert len({len(line) for line in lines[2:]}) == 1  # rows equally padded


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was constructed")


class TestRunVerification:
    def test_tiny_grid_passes_and_orders_deterministically(self):
        cfg = VerifyConfig(alphas=(1.0,), ns=(2,), reps=10_000, seed=11)
        out1 = run_verification(cfg)
        out2 = run_verification(cfg)
        assert out1.passed
        assert [r.to_dict() for r in out1.reports] == [r.to_dict() for r in out2.reports]
        kinds = [r.kind for r in out1.reports]
        # raw cells and debiased companions for the three biased estimators
        assert "gini[alpha=1,lambda=1]" in kinds
        assert "theil_debiased[alpha=1,lambda=3]" in kinds
        assert "lambda_sweep:atkinson[alpha=1,lambda=1vs3]" in kinds
        assert "lukacs[alpha=1,lambda=1]" in kinds
        assert "two_point_remark[a=1,b=3]" in kinds

    def test_impossible_z_max_fails_suite(self, monkeypatch):
        monkeypatch.setattr(verify, "Z_MAX", 0.01)
        cfg = VerifyConfig(alphas=(1.0,), lambdas=(1.0,), ns=(2,), reps=10_000, seed=11)
        out = run_verification(cfg)
        assert not out.passed
        assert out.failed_families  # at least one family over its allowance

    def test_filters_narrow_every_family(self):
        cfg = VerifyConfig(alphas=(1.0, 3.7), lambdas=(3.0,), ns=(2.0, 3), reps=10_000)
        reports = run_verification(cfg).reports
        cell = "alpha=1,lambda=3"
        assert [(r.kind, r.n, r.reps) for r in reports if r.reps] == [
            (f"gini[{cell}]", 2, 10_000),
            (f"theil[{cell}]", 2, 10_000),
            (f"theil_debiased[{cell}]", 2, 10_000),
            (f"atkinson[{cell}]", 2, 10_000),
            (f"atkinson_debiased[{cell}]", 2, 10_000),
            (f"vmr[{cell}]", 2, 10_000),
            (f"vmr_debiased[{cell}]", 2, 10_000),
            ("lukacs[alpha=1,lambda=1]", 2, 10_000),
            ("lukacs[alpha=3.7,lambda=1]", 2, 10_000),
            ("dirichlet_product_moment[alpha=1]", 2, 10_000),
            ("dirichlet_product_moment[alpha=1]", 3, 10_000),
        ]
        # the quadrature and two-point families have no alpha, lambda or n grid
        assert sum(r.reps == 0 for r in reports) == 16 + 4 + 2

    def test_cell_shares_one_stream_across_kinds(self):
        cfg = VerifyConfig(alphas=(1.0,), ns=(2, 5), reps=10_000)
        reports = {r.kind + f"@{r.n}": r for r in run_verification(cfg).reports}
        cells = [(1.0, lam, n) for lam in (1.0, 3.0) for n in (2, 5)]
        for k, (alpha, lam, n) in enumerate(cells):
            for kind in IndexKind:
                alone = mc_expectation(
                    kind, GammaParams(alpha, lam), n, 10_000,
                    RngStream(cfg.seed, k * _STREAM_STRIDE),
                )
                shared = reports[f"{kind.value}[alpha=1,lambda={lam:g}]@{n}"]
                assert shared.mc_mean == pytest.approx(alone.mc_mean, rel=1e-12)
        # the independence checks take the slots after the Monte Carlo cells
        lukacs = reports["lukacs[alpha=1,lambda=1]@2"]
        alone = lukacs_independence_check(
            GammaParams(1.0), 2, 10_000, RngStream(cfg.seed, len(cells) * _STREAM_STRIDE)
        )
        assert lukacs == alone

    @pytest.mark.parametrize(
        "setting",
        [{"alphas": (7.0,)}, {"lambdas": (2.0,)}, {"ns": (2.5,)}],
    )
    def test_rejects_values_outside_the_grid(self, setting):
        with pytest.raises(DomainError):
            VerifyConfig(**setting)

    def test_rejects_too_few_reps(self):
        """The same SizeError as the Monte Carlo checks raise."""
        with pytest.raises(SizeError, match="reps >= 10000"):
            VerifyConfig(reps=9_999)

    def test_rejects_too_many_reps(self):
        """Every run setting check refuses reps above MAX_REPS before any block is queued."""
        assert VerifyConfig(reps=MAX_REPS).reps == MAX_REPS
        too_many = MAX_REPS + 1
        runs = [
            lambda: VerifyConfig(reps=too_many),
            lambda: mc_expectation(IndexKind.GINI, GammaParams(1.0), 2, too_many, RngStream(1)),
            lambda: lukacs_independence_check(GammaParams(1.0), 2, too_many, RngStream(1)),
            lambda: dirichlet_product_moment_check(1.0, 2, too_many, RngStream(1)),
        ]
        for run in runs:
            with pytest.raises(SizeError, match=f"at most reps = {MAX_REPS}, got {too_many}"):
                run()

    def test_rejects_too_many_workers(self, monkeypatch):
        """The library checks refuse workers above MAX_WORKERS before any pool exists."""
        monkeypatch.setattr(verify, "ThreadPoolExecutor", _no_pool)
        assert VerifyConfig(workers=MAX_WORKERS).workers == MAX_WORKERS
        too_many = MAX_WORKERS + 1
        runs = [
            lambda: mc_expectation(
                IndexKind.GINI, GammaParams(1.0), 2, 10_000, RngStream(1), workers=too_many
            ),
            lambda: lukacs_independence_check(
                GammaParams(1.0), 2, 10_000, RngStream(1), workers=too_many
            ),
            lambda: dirichlet_product_moment_check(1.0, 2, 10_000, RngStream(1), workers=too_many),
        ]
        for run in runs:
            with pytest.raises(DomainError, match=f"1 to {MAX_WORKERS}, got {too_many}"):
                run()

    @pytest.mark.parametrize(
        "setting",
        [{"workers": 0}, {"seed": -1}, {"reps": 10_000.9}, {"workers": 1.5},
         {"workers": MAX_WORKERS + 1}],
        ids=["workers=0", "seed=-1", "reps=10000.9", "workers=1.5", "workers=MAX_WORKERS+1"],
    )
    def test_rejects_bad_run_settings(self, monkeypatch, setting):
        monkeypatch.setattr(verify, "ThreadPoolExecutor", _no_pool)
        with pytest.raises(DomainError):
            VerifyConfig(**setting)

    def test_quadrature_lines_agree_to_rounding(self):
        """Each beta-integral line's quadrature is within 2e-15 of its closed form."""
        cfg = VerifyConfig(alphas=(1.0,), lambdas=(1.0,), ns=(2,), reps=10_000)
        lines = [
            r for r in run_verification(cfg).reports
            if r.kind.startswith(("beta_ulogu[", "abs_2r_minus_1["))
        ]
        assert len(lines) == len(verify.ULOGU_SHAPES) ** 2 + len(verify.ABS2R_ALPHAS) == 20
        assert max(abs(r.mc_mean - r.target) for r in lines) <= 2e-15

    def test_whole_float_reps_is_the_int(self):
        def dicts(reps):
            cfg = VerifyConfig(alphas=(1.0,), lambdas=(1.0,), ns=(2,), reps=reps)
            assert type(cfg.reps) is int
            return [r.to_dict() for r in run_verification(cfg).reports]

        assert dicts(20_000.0) == dicts(20_000)


class TestMultiplicityAllowance:
    """A 24-cell Monte Carlo family tolerates one cell beyond Z_MAX, not two."""

    @staticmethod
    def _moved(monkeypatch, cells, **narrow):
        """Outcome of a reps=10k run with the Theil target of each cell in ``cells`` far off."""
        exact = verify.expectation

        def moved(kind, params, n):
            r = exact(kind, params, n)
            if kind is IndexKind.THEIL_T and (params.alpha, params.rate, n) in cells:
                return dataclasses.replace(r, expectation=r.expectation + 1.0)
            return r

        monkeypatch.setattr(verify, "expectation", moved)
        return run_verification(VerifyConfig(reps=10_000, **narrow))

    def test_one_moved_cell_is_allowed(self, monkeypatch):
        outcome = self._moved(monkeypatch, {(2.0, 3.0, 5)})
        assert [r.kind for r in outcome.reports if not r.passed] == [
            "theil[alpha=2,lambda=3]"
        ]
        assert outcome.passed and outcome.failed_families == []

    def test_two_moved_cells_fail_the_family(self, monkeypatch):
        outcome = self._moved(monkeypatch, {(2.0, 3.0, 5), (0.5, 1.0, 20)})
        assert outcome.n_failed == 2
        assert not outcome.passed and outcome.failed_families == ["mc:theil"]

    def test_narrowed_family_allows_none(self, monkeypatch):
        outcome = self._moved(monkeypatch, {(2.0, 3.0, 5)}, alphas=(2.0,))
        assert sum(r.family == "mc:theil" for r in outcome.reports) == 6
        assert outcome.n_failed == 1
        assert outcome.failed_families == ["mc:theil"]


def _atkinson_second_order(alpha, n):
    """1 - exp(psi(alpha) + psi'(alpha)/(2n))/alpha, a second-order near-miss."""
    mpmath = pytest.importorskip("mpmath")
    return 1.0 - math.exp(digamma(alpha) + float(mpmath.psi(1, alpha)) / (2 * n)) / alpha


class TestNearMissPower:
    """The default draws reject textbook near-misses of the exact targets.

    One run of the default seed and reps on the 12 lambda = 1 cells of each
    estimator is compared, with no new draws, against a wrong target per
    family: each must put more of its family's cells beyond Z_MAX than the
    family's allowance.
    """

    @pytest.fixture(scope="class")
    def reports(self):
        outcome = run_verification(VerifyConfig(lambdas=(1.0,), workers=2))
        return {(r.kind, r.n): r for r in outcome.reports}

    @pytest.mark.parametrize(
        ("kind", "wrong"),
        [
            (IndexKind.THEIL_T, lambda a, n: pop_theil(GammaParams(a)) - 1.0 / (2 * n * a)),
            (IndexKind.ATKINSON, _atkinson_second_order),
            (IndexKind.VMR, lambda a, n: 1.0 - 1.0 / (n * a)),
            (IndexKind.VMR, lambda a, n: n * a / (n * a + 1.0) * (n - 1) / n),
        ],
        ids=["theil_first_order", "atkinson_second_order", "vmr_first_order", "vmr_n_for_n-1"],
    )
    def test_wrong_target_fails_its_family(self, reports, kind, wrong):
        cells = [
            (alpha, n, reports[(f"{kind.value}[alpha={alpha:g},lambda=1]", n)])
            for alpha in verify.MC_ALPHAS for n in verify.MC_NS
        ]
        beyond = sum(
            abs((r.mc_mean - wrong(alpha, n)) / r.mc_stderr) > verify.Z_MAX
            for alpha, n, r in cells
        )
        assert len(cells) == 12
        assert beyond > verify._family_allowance(f"mc:{kind.value}", len(cells))


class TestSharedPool:
    """Every block of a run goes through one pool, in a fixed merge order."""

    def test_one_pool_per_run(self, monkeypatch):
        pools = []

        class CountedPool(verify.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(verify, "ThreadPoolExecutor", CountedPool)
        run_verification(VerifyConfig(alphas=(1.0,), ns=(2,), reps=20_000, workers=2))
        assert len(pools) == 1
        run_verification(VerifyConfig(alphas=(1.0,), ns=(2,), reps=20_000, workers=1))
        assert len(pools) == 2  # one worker runs the blocks on a pool too

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_block_stops_the_run(self, monkeypatch, workers):
        lock = threading.Lock()
        calls, running = [0], [0]
        draw = verify.gamma_variates

        def third_call_fails(*args):
            with lock:
                calls[0] += 1
                running[0] += 1
                call = calls[0]
            try:
                if call == 3:
                    raise NumericError("third block fails")
                return draw(*args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(verify, "gamma_variates", third_call_fails)
        threads = threading.active_count()
        with pytest.raises(NumericError, match="third block fails"):
            run_verification(VerifyConfig(reps=10_000, workers=workers))
        assert threading.active_count() == threads  # the pool's threads are gone
        assert running[0] == 0  # no block is still drawing
        stopped_at = calls[0]
        assert stopped_at < 39  # the blocks not yet started were cancelled
        time.sleep(0.05)
        assert calls[0] == stopped_at

    def test_narrowed_run_is_identical_across_worker_counts(self):
        def dicts(workers):
            cfg = VerifyConfig(alphas=(0.5, 1.0), ns=(2, 5), reps=50_000, workers=workers)
            return [r.to_dict() for r in run_verification(cfg).reports]

        one = dicts(1)
        assert sum(r["reps"] > 0 for r in one) == 56 + 12 + 4 + 4  # index, sweep, lukacs, dirichlet
        assert dicts(2) == one
        assert dicts(3) == one
