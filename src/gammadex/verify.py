"""Monte Carlo and quadrature checks of every closed form in the package.

Each check produces an ``McReport``.  Every Monte Carlo check is a job of
one block engine: it draws gamma samples in fixed-size replicate blocks,
one child stream per block (``stream_id = anchor + block index``), maps
each block to a few statistics, and merges each block's count, mean
vector and centered co-moment matrix (Chan, Golub & LeVeque 1979) in
block order.  A block of size-n samples is an ``(n, samples)`` array, one
sample of consecutive draws per column, so the statistics reduce over the
short axis 0 with operations on whole rows.  One pool of worker threads
runs every block of every job in a call, so the pool does not idle
between checks.  A block's partials depend only on its stream, and each
job's merge order is fixed, so results are bit-identical regardless of
how many workers execute the blocks.  A block holds
``min(reps, 25_000) * n`` variates, at most ``2**25``: a larger sample size,
like reps outside ``[MIN_REPS, MAX_REPS]``, is a ``SizeError`` before
anything is drawn, and workers outside ``[1, MAX_WORKERS]`` a ``DomainError``.
Quadrature and enumeration checks reuse the same report shape with
``reps = 0``; quadrature lines carry their agreement tolerance as a pseudo
standard error so the pass rule ``|z_score| <= Z_MAX`` applies uniformly.
The rule is the constant ``Z_MAX``: no argument or setting changes it.

``run_verification`` executes the fixed grid below: raw estimator means
against their exact expectations, debiased means against population
values, rate-sweep invariance for the scale-free indices, the
proportion-sum independence correlations, the Dirichlet product moment,
the two beta-integral identities, and the two-point discrete example.
``VerifyConfig`` can only narrow the Monte Carlo grids to some of their
alpha, lambda and n values.  Each (alpha, lambda, n) cell of the index
grid has one anchor stream, and the four estimators are four statistic
columns of the same blocks: they share every draw of the cell.  Cells at
different rates never share a stream, or the scale-free indices would
agree exactly across rates and the rate sweep would test nothing.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, SizeError
from .gamma_forms import (
    GammaParams,
    _require_n,
    _require_whole,
    debias,
    expectation,
    pop_gini,
    population_value,
)
from .indices import IndexKind, column_sums, gini, index_values
from .quadrature import QuadResult, integrate
from .rng import RngStream, _require_u64
from .sampling import gamma_variates
from .special import digamma, log_beta, log_power_mean_ratio

__all__ = [
    "McReport",
    "VerifyConfig",
    "VerificationOutcome",
    "mc_expectation",
    "lukacs_independence_check",
    "dirichlet_product_moment_check",
    "beta_ulogu_check",
    "abs_2r_minus_1_check",
    "two_point_remark_check",
    "run_verification",
]

DEFAULT_SEED = 1729
MIN_REPS = 10_000
# Most replicates one run may ask for: 50 times the default, 400 blocks a
# cell.  Every block of a run is queued before any is drawn, at about 1.6 kB
# a block, so without a bound a mistyped reps could ask for gigabytes.
MAX_REPS = 10**7
# Most worker threads one run may ask for.  The pool starts a thread on each
# submit while every thread is busy, and each holds a block of up to about
# 0.8 GB in flight, so without a bound a mistyped workers could ask for
# thousands of threads and their blocks.
MAX_WORKERS = 64
# The pass rule of every line with a standard error, |z_score| <= Z_MAX.
# No argument, flag or setting changes it.
Z_MAX = 4.0

# Stream-id spacing between independent checks; blocks within a check use
# consecutive ids above its anchor.
_STREAM_STRIDE = 1 << 32
_BLOCK_SIZE = 25_000
# Most variates one block may hold, min(reps, _BLOCK_SIZE) * n: a block in
# flight takes about 25 bytes a variate, so about 0.8 GB at the limit.
_MAX_BLOCK_VARIATES = 1 << 25

# The verification grid of every check family.
MC_KINDS = (IndexKind.GINI, IndexKind.THEIL_T, IndexKind.ATKINSON, IndexKind.VMR)
MC_ALPHAS = (0.5, 1.0, 2.0, 5.0)
MC_LAMBDAS = (1.0, 3.0)
MC_NS = (2, 5, 20)
LUKACS_ALPHAS = (0.5, 1.0, 3.7)
LUKACS_NS = (2, 5)
LUKACS_MAX_REPS = 100_000
DIRICHLET_ALPHAS = (0.5, 1.0, 2.0)
DIRICHLET_NS = (2, 3, 5)
ULOGU_SHAPES = (0.5, 1.0, 2.0, 4.5)
ABS2R_ALPHAS = (0.5, 1.0, 2.0, 5.0)
TWO_POINT_CASES = ((1.0, 3.0), (2.0, 8.0))
QUAD_TOLERANCE = 1e-8


@dataclass(frozen=True)
class McReport:
    """One verification line: estimate, target, and a z-score verdict."""

    kind: str
    n: int
    reps: int
    mc_mean: float
    mc_stderr: float
    target: float
    z_score: float
    passed: bool
    family: str = ""  # internal grouping for the multiplicity policy

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "reps": self.reps,
            "mc_mean": float(self.mc_mean),
            "mc_stderr": float(self.mc_stderr),
            "target": float(self.target),
            "z_score": float(self.z_score),
            "pass": bool(self.passed),
        }


def _require_run(reps: int, workers: int) -> tuple[int, int]:
    """``(reps, workers)`` as ints, once every Monte Carlo run setting is checked."""
    reps = _require_whole(reps, "reps must be a whole number")
    if reps < MIN_REPS:
        raise SizeError(f"Monte Carlo checks need reps >= {MIN_REPS}, got {reps}")
    if reps > MAX_REPS:
        raise SizeError(f"Monte Carlo checks take at most reps = {MAX_REPS}, got {reps}")
    workers = _require_whole(workers, "workers must be a whole number")
    if not 1 <= workers <= MAX_WORKERS:
        raise DomainError(f"workers must be 1 to {MAX_WORKERS}, got {workers}")
    return reps, workers


def _report(kind, n, reps, mean, stderr, target, family="") -> McReport:
    mean, stderr, target = float(mean), float(stderr), float(target)
    if stderr > 0.0:
        z = (mean - target) / stderr
        ok = abs(z) <= Z_MAX
    else:
        z = 0.0
        ok = abs(mean - target) <= 1e-12
    return McReport(kind, int(n), int(reps), mean, stderr, target, z, ok, family)


def _fmt(v: float) -> str:
    return f"{float(v):g}"


def _debias_affine(kind: IndexKind, params: GammaParams, n: int) -> tuple[float, float]:
    """(intercept, slope) of the exactly affine debias map for this cell."""
    d0 = debias(kind, params, n, 0.0)
    d1 = debias(kind, params, n, 1.0)
    return d0, d1 - d0


@dataclass(frozen=True)
class _Job:
    """One Monte Carlo check: its draws, its statistic columns and its report.

    ``reps`` samples of size n are drawn in blocks from child streams of
    ``rng``; ``stat`` maps a block to k statistic columns, and ``finish``
    turns the merged mean vector and sample covariance matrix into the
    check's result.
    """

    params: GammaParams
    n: int
    reps: int
    rng: RngStream
    stat: Callable[[np.ndarray], Sequence[np.ndarray]]
    finish: Callable[[np.ndarray, np.ndarray], object]

    def __post_init__(self) -> None:
        variates = min(self.reps, _BLOCK_SIZE) * self.n
        if variates > _MAX_BLOCK_VARIATES:
            raise SizeError(
                f"n = {self.n} makes a Monte Carlo block of min(reps, {_BLOCK_SIZE}) * n = "
                f"{variates} variates, above the limit of {_MAX_BLOCK_VARIATES}"
            )

    def blocks(self) -> range:
        return range(0, self.reps, _BLOCK_SIZE)


def _one_block(job: _Job, start: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(size, mean vector, centered co-moment matrix) of the block at ``start``.

    The block holds the next 25k samples of size n (fewer in the last
    block), drawn from child stream ``start // 25k`` of the job's stream.  It
    is an ``(n, size)`` array with one sample per column, so the statistics
    reduce over axis 0; column i holds draws i*n to i*n + n - 1 of the
    block's stream.
    """
    size = min(_BLOCK_SIZE, job.reps - start)
    rng = job.rng.spawn(start // _BLOCK_SIZE)
    y = gamma_variates(rng, job.params, size * job.n).reshape(size, job.n).T.copy()
    x = np.stack(job.stat(y))  # (k, size): one statistic per row
    mean = x.mean(axis=1)
    dev = x - mean[:, None]
    # einsum, not BLAS: a BLAS dot may split its sum over a thread count.
    return size, mean, np.einsum("ji,ki->jk", dev, dev)


def _merge(jobs: Sequence[_Job], partials: Iterator[tuple]) -> list:
    """``job.finish(mean, cov)`` of each job from its block partials, in block order."""
    results = []
    for job in jobs:
        count, mean, comoment = 0, 0.0, 0.0
        for _ in job.blocks():
            size, block_mean, block_comoment = next(partials)
            total = count + size
            delta = block_mean - mean
            mean = mean + delta * (size / total)
            comoment = comoment + block_comoment + np.outer(delta, delta) * (count * size / total)
            count = total
        results.append(job.finish(mean, comoment / (count - 1)))
    return results


def _run_jobs(jobs: Sequence[_Job], workers: int) -> list:
    """``job.finish(mean, cov)`` of each job, every block on one pool.

    Every block of every job is submitted at once, in job order and block
    order, to one pool of ``workers`` threads, whatever their number, so no
    worker waits at the boundary between two checks.  Each job's block
    partials are merged in block order (Chan, Golub & LeVeque 1979),
    whichever worker produced them, so results do not depend on
    ``workers``.  If anything raises, the blocks not yet started are
    cancelled and the running ones finish before the error propagates.
    """
    tasks = [(job, start) for job in jobs for start in job.blocks()]
    with ThreadPoolExecutor(max_workers=min(workers, len(tasks)) or 1) as pool:
        futures = [pool.submit(_one_block, job, start) for job, start in tasks]
        try:
            return _merge(jobs, (future.result() for future in futures))
        finally:
            for future in futures:
                future.cancel()


def _index_job(
    kinds: tuple[IndexKind, ...],
    params: GammaParams,
    n: int,
    reps: int,
    rng: RngStream,
) -> _Job:
    """Job whose result is the (raw, debiased) reports of each estimator in ``kinds``.

    Every estimator is one statistic column of the same blocks.  The debias
    map is affine in the raw value, so the debiased mean and standard error
    follow from the raw ones.
    """

    def reports(means: np.ndarray, cov: np.ndarray) -> list[tuple[McReport, McReport]]:
        cell = f"alpha={_fmt(params.alpha)},lambda={_fmt(params.rate)}"
        pairs = []
        for j, kind in enumerate(kinds):
            mean, se = float(means[j]), math.sqrt(cov[j, j] / reps)
            intercept, slope = _debias_affine(kind, params, n)
            raw = _report(f"{kind.value}[{cell}]", n, reps, mean, se,
                          expectation(kind, params, n).expectation,
                          family=f"mc:{kind.value}")
            debiased = _report(f"{kind.value}_debiased[{cell}]", n, reps,
                               intercept + slope * mean, abs(slope) * se,
                               population_value(kind, params),
                               family=f"debiased:{kind.value}")
            pairs.append((raw, debiased))
        return pairs

    return _Job(params, n, reps, rng, partial(index_values, kinds), reports)


def mc_expectation(
    kind: IndexKind,
    params: GammaParams,
    n: int,
    reps: int,
    rng: RngStream,
    *,
    debias_values: bool = False,
    workers: int = 1,
) -> McReport:
    """Mean of the estimator over ``reps`` samples of size n vs its exact target.

    With ``debias_values`` the correction is applied to every replicate and
    the mean is compared against the population value instead of the
    finite-sample expectation.  Samples are drawn in blocks of
    ``min(reps, 25_000)`` samples, so ``min(reps, 25_000) * n`` may be at most
    ``2**25`` variates; a larger n is a ``SizeError`` before anything is drawn.
    """
    reps, workers = _require_run(reps, workers)
    n = _require_n(n, kind.min_n, kind.value)
    [[(raw, debiased)]] = _run_jobs([_index_job((kind,), params, n, reps, rng)], workers)
    return debiased if debias_values else raw


def _lukacs_columns(y: np.ndarray) -> list[np.ndarray]:
    s = column_sums(y)
    r = y[0] / s
    return [r, np.abs(2.0 * r - 1.0), s]


def _lukacs_job(params: GammaParams, n: int, reps: int, rng: RngStream) -> _Job:
    def report(_, cov: np.ndarray) -> McReport:
        corr_rs, corr_as = cov[:2, 2] / np.sqrt(np.diag(cov)[:2] * cov[2, 2])
        worst = corr_rs if abs(corr_rs) >= abs(corr_as) else corr_as
        return _report(
            f"lukacs[alpha={_fmt(params.alpha)},lambda={_fmt(params.rate)}]",
            n, reps, worst, 1.0 / math.sqrt(reps), 0.0, family="lukacs",
        )

    return _Job(params, n, reps, rng, _lukacs_columns, report)


def lukacs_independence_check(
    params: GammaParams,
    n: int,
    reps: int,
    rng: RngStream,
    *,
    workers: int = 1,
) -> McReport:
    """Correlation between the proportion and the sum of a gamma sample.

    Draws ``reps`` samples of size n, forms S = sum(Y) and R = Y_1/S, and
    computes the Pearson correlations corr(R, S) and corr(|2R-1|, S).
    Both are zero in truth (the proportion is independent of the sum for
    gamma data); the report carries whichever correlation is larger in
    normalized magnitude and passes only if both are within
    ``Z_MAX / sqrt(reps)``.
    """
    reps, workers = _require_run(reps, workers)
    n = _require_n(n, 2, "independence check")
    [report] = _run_jobs([_lukacs_job(params, n, reps, rng)], workers)
    return report


def _dirichlet_product(y: np.ndarray) -> list[np.ndarray]:
    return [np.exp(np.log(y / column_sums(y)).mean(axis=0))]


def _dirichlet_job(alpha: float, n: int, reps: int, rng: RngStream) -> _Job:
    def report(mean: np.ndarray, cov: np.ndarray) -> McReport:
        target = math.exp(log_power_mean_ratio(alpha, n)) / n
        return _report(
            f"dirichlet_product_moment[alpha={_fmt(alpha)}]",
            n, reps, mean[0], math.sqrt(cov[0, 0] / reps), target, family="dirichlet",
        )

    return _Job(GammaParams(alpha), n, reps, rng, _dirichlet_product, report)


def dirichlet_product_moment_check(
    alpha: float,
    n: int,
    reps: int,
    rng: RngStream,
    *,
    workers: int = 1,
) -> McReport:
    """MC mean of prod(Z_i^(1/n)) over symmetric Dirichlet draws vs closed form.

    The target Gamma^n(alpha + 1/n) / (n alpha Gamma^n(alpha)) is the
    product moment of the Dirichlet vector obtained by normalizing n
    i.i.d. gamma variates.
    """
    reps, workers = _require_run(reps, workers)
    n = _require_n(n, 2, "product moment check")
    [report] = _run_jobs([_dirichlet_job(alpha, n, reps, rng)], workers)
    return report


def _half_beta_integral(g: Callable, c: float, d: float, lb: float) -> QuadResult:
    """Integral of g(u, -log u) u^(c-1) (1 - u)^(d-1) / B over 0 < u < 1/2, lb = log B.

    Quadrature runs in x = -log u, where u^(c-1) du is exp(-c x) dx: the
    integrand on [log 2, X] is smooth at every shape, with no u^(c-1)
    singularity (c < 1) or log u left at an endpoint, where Gauss-Kronrod
    converges slowly and its error estimate undershoots.  A map u = t^(1/c)
    is smooth only when 1/c is a whole number.  With |g| <= max(1, x), the
    tail past X = log 2 + (75 - lb)/c is below 2 e^-75 (X + 1/c)/c.
    """
    upper = math.log(2.0) + (75.0 - lb) / c

    def integrand(x: np.ndarray) -> np.ndarray:
        u = np.exp(-x)
        return g(u, x) * np.exp((d - 1.0) * np.log1p(-u) - c * x - lb)

    return integrate(integrand, math.log(2.0), upper)


def beta_ulogu_check(a: float, b: float) -> tuple[float, float]:
    """(closed form, quadrature) for E[U log U], U ~ Beta(a, b).

    Closed form a/(a+b) * (psi(a+1) - psi(a+b+1)); quadrature integrates
    u log(u) against the beta density with adaptive Gauss-Kronrod, over
    u < 1/2 and, as 1 - u ~ Beta(b, a), over 1 - u < 1/2, each in -log of
    its variable (``_half_beta_integral``).
    """
    lb = log_beta(a, b)
    closed = a / (a + b) * (digamma(a + 1.0) - digamma(a + b + 1.0))
    near_0 = _half_beta_integral(lambda u, x: -x * u, a, b, lb)
    near_1 = _half_beta_integral(lambda v, x: (1.0 - v) * np.log1p(-v), b, a, lb)
    return closed, near_0.value + near_1.value


def abs_2r_minus_1_check(alpha: float) -> tuple[float, float]:
    """(closed form, quadrature) for E|2R - 1|, R ~ Beta(alpha, alpha).

    The closed form is the population Gini index under a gamma law with
    this shape; the quadrature integrates |2r - 1| against the symmetric
    beta density, as twice the integral of 1 - 2r over r < 1/2, in -log r
    (``_half_beta_integral``).
    """
    closed = pop_gini(GammaParams(alpha))
    half = _half_beta_integral(lambda r, x: 1.0 - 2.0 * r, alpha, alpha, log_beta(alpha, alpha))
    return closed, 2.0 * half.value


def two_point_remark_check(a: float, b: float) -> tuple[float, float]:
    """(E[G_2], population Gini) for the two-point law P(a) = P(b) = 1/2.

    Both sides are exhaustive enumerations over the four equally likely
    ordered pairs, the left using the sample Gini estimator, the right
    the definition |Y1 - Y2| / (2 mu).  They must agree exactly: this is
    the discrete example showing n = 2 unbiasedness is not special to
    the gamma law.
    """
    a, b = float(a), float(b)
    if not (0.0 < a < b) or not math.isfinite(b):
        raise DomainError(f"need 0 < a < b, got ({a}, {b})")
    pairs = [(a, a), (a, b), (b, a), (b, b)]
    enumerated = math.fsum(gini(np.array(pair)) for pair in pairs) / 4.0
    mean_abs_diff = math.fsum(abs(y1 - y2) for y1, y2 in pairs) / 4.0
    mu = (a + b) / 2.0
    population = mean_abs_diff / (2.0 * mu)
    return enumerated, population


# ---------------------------------------------------------------------------
# Default verification suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    """Settings of ``run_verification``, every one checked at construction.

    A bad ``reps``, ``seed`` or ``workers`` fails here, before
    anything is drawn, whatever the grid.  ``alphas``, ``lambdas`` and ``ns``
    narrow the fixed grid: ``None`` keeps it whole, a tuple keeps only the
    listed values in every Monte Carlo family.  A value found in no family's
    grid is a ``DomainError``.
    """

    alphas: tuple[float, ...] | None = None
    lambdas: tuple[float, ...] | None = None
    ns: tuple[int, ...] | None = None
    reps: int = 200_000
    seed: int = DEFAULT_SEED
    workers: int = 1

    def __post_init__(self) -> None:
        reps, workers = _require_run(self.reps, self.workers)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "workers", workers)
        _require_u64(self.seed, "seed")
        for name, grid in (
            ("alphas", MC_ALPHAS + LUKACS_ALPHAS + DIRICHLET_ALPHAS),
            ("lambdas", MC_LAMBDAS),
            ("ns", MC_NS + LUKACS_NS + DIRICHLET_NS),
        ):
            for v in getattr(self, name) or ():
                if v not in grid:
                    valid = ", ".join(_fmt(g) for g in sorted(set(grid)))
                    raise DomainError(f"{name}: {v!r} is in no verification grid ({valid})")


def _keep(grid: tuple, chosen: tuple | None) -> tuple:
    return grid if chosen is None else tuple(v for v in grid if v in chosen)


@dataclass(frozen=True)
class VerificationOutcome:
    reports: list[McReport]
    passed: bool
    failed_families: list[str] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return sum(not r.passed for r in self.reports)


# Families where a single cell beyond Z_MAX is tolerated (multiple-testing
# allowance over the ~24-cell Monte Carlo grids); small subset grids and all
# identity/independence checks are strict.
_ALLOWANCE_PREFIXES = ("mc:", "debiased:", "lambda_sweep")
_ALLOWANCE_MIN_CELLS = 12


def _family_allowance(family: str, size: int) -> int:
    if family.startswith(_ALLOWANCE_PREFIXES) and size >= _ALLOWANCE_MIN_CELLS:
        return 1
    return 0


def run_verification(config: VerifyConfig = VerifyConfig()) -> VerificationOutcome:
    """Run the grid, narrowed by ``config``, and apply the multiplicity policy.

    Monte Carlo cells use ``config.reps`` replicates, the independence
    checks at most ``LUKACS_MAX_REPS``.  The suite passes when every
    family of checks passes; a Monte Carlo family (one estimator's grid)
    tolerates at most one cell beyond ``Z_MAX``, while identity,
    independence, and enumeration checks must all pass individually.
    """
    cfg = config
    alphas = _keep(MC_ALPHAS, cfg.alphas)
    lambdas = _keep(MC_LAMBDAS, cfg.lambdas)
    ns = _keep(MC_NS, cfg.ns)
    anchors = (RngStream(cfg.seed, slot * _STREAM_STRIDE) for slot in itertools.count())

    # One anchor per (alpha, lambda, n) cell, shared by the four estimators,
    # then one per independence and product-moment check.  Every block of
    # every check runs on one pool.
    cells = [(alpha, lam, n) for alpha in alphas for lam in lambdas for n in ns]
    jobs = [_index_job(MC_KINDS, GammaParams(alpha, lam), n, cfg.reps, next(anchors))
            for alpha, lam, n in cells]
    lukacs_reps = min(cfg.reps, LUKACS_MAX_REPS)
    jobs += [_lukacs_job(GammaParams(alpha), n, lukacs_reps, next(anchors))
             for alpha in _keep(LUKACS_ALPHAS, cfg.alphas) for n in _keep(LUKACS_NS, cfg.ns)]
    jobs += [_dirichlet_job(alpha, n, cfg.reps, next(anchors))
             for alpha in _keep(DIRICHLET_ALPHAS, cfg.alphas) for n in _keep(DIRICHLET_NS, cfg.ns)]
    results = _run_jobs(jobs, cfg.workers)
    # cell -> the (raw, debiased) report pair of each estimator, in MC_KINDS order
    by_cell = dict(zip(cells, results))

    # Index lines are emitted estimator by estimator.
    reports: list[McReport] = []
    for j, kind in enumerate(MC_KINDS):
        for cell in cells:
            raw, debiased = by_cell[cell][j]
            reports.append(raw)
            if kind is not IndexKind.GINI:
                reports.append(debiased)

    # Rate-sweep invariance of the scale-free indices: means at different
    # rates are independent runs and must agree within combined error.
    if len(lambdas) >= 2:
        base, *others = lambdas
        for kind in (IndexKind.GINI, IndexKind.THEIL_T, IndexKind.ATKINSON):
            j = MC_KINDS.index(kind)
            for alpha in alphas:
                for lam in others:
                    for n in ns:
                        r1 = by_cell[(alpha, base, n)][j][0]
                        r2 = by_cell[(alpha, lam, n)][j][0]
                        se = math.hypot(r1.mc_stderr, r2.mc_stderr)
                        reports.append(_report(
                            f"lambda_sweep:{kind.value}[alpha={_fmt(alpha)},"
                            f"lambda={_fmt(base)}vs{_fmt(lam)}]",
                            n, r1.reps + r2.reps, r2.mc_mean - r1.mc_mean, se,
                            0.0, family="lambda_sweep",
                        ))

    reports += results[len(cells):]  # the independence and product-moment lines

    # Identity checks carry the agreement tolerance as a pseudo standard
    # error (tol / Z_MAX), so "pass iff |z| <= Z_MAX" holds for every line.
    quad_se = QUAD_TOLERANCE / Z_MAX
    for a in ULOGU_SHAPES:
        for b in ULOGU_SHAPES:
            closed, quad = beta_ulogu_check(a, b)
            reports.append(_report(
                f"beta_ulogu[a={_fmt(a)},b={_fmt(b)}]", 0, 0, quad, quad_se,
                closed, family="quad_identity",
            ))

    for alpha in ABS2R_ALPHAS:
        closed, quad = abs_2r_minus_1_check(alpha)
        reports.append(_report(
            f"abs_2r_minus_1[alpha={_fmt(alpha)}]", 0, 0, quad, quad_se,
            closed, family="quad_identity",
        ))

    for a, b in TWO_POINT_CASES:
        enumerated, population = two_point_remark_check(a, b)
        reports.append(McReport(
            f"two_point_remark[a={_fmt(a)},b={_fmt(b)}]", 2, 0, enumerated, 0.0,
            population, 0.0, enumerated == population, family="two_point",
        ))

    sizes = Counter(r.family for r in reports)
    failures = Counter(r.family for r in reports if not r.passed)
    failed_families = sorted(
        fam for fam, count in failures.items() if count > _family_allowance(fam, sizes[fam])
    )
    return VerificationOutcome(reports, not failed_families, failed_families)
