"""The public API, pinned: adding or removing a public name edits this list."""

import affwalk

PUBLIC = [
    "AffineMap", "AffwalkError", "BoundaryDigits", "BoundarySample", "BudgetError",
    "ConfigError", "ConvolutionTable", "DegenerateMeasureError", "DivergenceReport",
    "DriftProfile", "INFINITE_PLACE", "MeasureReport", "PadicExpansion", "SplitMix64",
    "StabilizationError", "StepDistribution", "Trajectory", "__version__",
    "adelic_length", "boundary_digits", "compose", "contracting_set",
    "divergence_statistic", "drift", "drift_profile", "embed", "entropy",
    "extract_boundary", "gauge_count_bound", "gauge_enumerate", "h_compose", "height",
    "height_plus", "increment_valuation_rate", "inverse", "log_norm", "log_norm_plus",
    "mix64", "parse_measure_config", "power", "reflect", "sample_path", "valuation",
]


def test_all_is_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(affwalk.__all__) == PUBLIC
    assert len(set(affwalk.__all__)) == len(affwalk.__all__)


def test_every_name_imports():
    namespace: dict = {}
    exec("from affwalk import *", namespace)
    assert all(name in namespace for name in PUBLIC)
