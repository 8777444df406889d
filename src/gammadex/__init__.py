"""Inequality and dispersion indices under the gamma distribution.

Computes the sample Gini, Theil T, Atkinson, and variance-to-mean ratio
indices, their closed-form population values and exact finite-sample
expectations when the data are gamma distributed, the bias corrections
those expectations imply, and a seeded Monte Carlo / quadrature harness
that verifies all of it.

The top level holds the API that takes an ``IndexKind``; the per-kind
functions (``indices.gini``, ``gamma_forms.expect_theil``, ...) live in
their modules.
"""

from .errors import DataError, DomainError, GammadexError, NumericError, SizeError
from .gamma_forms import (
    ExpectationResult,
    GammaParams,
    alpha_plug_in,
    debias,
    expectation,
    population_value,
)
from .indices import IndexKind, Sample, compute_index, compute_indices, gini_pairwise, sample_mean
from .rng import RngStream
from .sampling import gamma_variates
from .verify import McReport, VerifyConfig, mc_expectation, run_verification

__version__ = "0.1.0"

__all__ = [
    "GammadexError", "DomainError", "SizeError", "DataError", "NumericError",
    "Sample", "IndexKind", "compute_index", "compute_indices",
    "GammaParams", "ExpectationResult", "population_value", "expectation", "debias",
    "alpha_plug_in",
    "RngStream", "gamma_variates", "McReport", "VerifyConfig", "mc_expectation",
    "run_verification",
    "gini_pairwise", "sample_mean", "__version__",
]
