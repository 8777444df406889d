"""The package's top-level API: the functions that take an IndexKind."""

import gammadex

TOP_LEVEL = {
    "GammadexError", "DomainError", "SizeError", "DataError", "NumericError",
    "Sample", "IndexKind", "compute_index", "compute_indices",
    "GammaParams", "ExpectationResult", "population_value", "expectation", "debias",
    "alpha_plug_in",
    "RngStream", "gamma_variates", "McReport", "VerifyConfig", "mc_expectation",
    "run_verification",
    "gini_pairwise", "sample_mean", "__version__",
}

# what the benchmark in perfbench/ calls through the package
BENCHMARK_NAMES = {
    "IndexKind", "Sample", "GammaParams", "compute_index", "debias", "alpha_plug_in",
    "gini_pairwise", "sample_mean", "__version__",
}


def test_all_is_the_kind_dispatched_api():
    assert len(gammadex.__all__) == len(TOP_LEVEL) == 24
    assert set(gammadex.__all__) == TOP_LEVEL


def test_every_exported_name_resolves():
    for name in gammadex.__all__:
        assert getattr(gammadex, name) is not None, name


def test_benchmark_names_are_exported():
    assert BENCHMARK_NAMES <= set(gammadex.__all__)
