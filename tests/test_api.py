"""The public API, pinned: adding or removing a public name edits this list."""

import affwalk

PUBLIC = [
    "AffineMap", "AffwalkError", "BOUNDARY_TOL", "BoundaryDigits", "BoundarySample",
    "BudgetError", "ConfigError", "ConvolutionTable", "DEFAULT_CELL_BUDGET",
    "DegenerateMeasureError", "DivergenceReport", "DriftProfile", "IDENTITY",
    "INFINITE_PLACE", "MeasureReport", "PadicExpansion",
    "SplitMix64", "StabilizationError", "StepDistribution", "Trajectory",
    "__version__", "adelic_length", "ball_key_exact", "boundary_digits",
    "compose", "contracting_set", "convolve", "divergence_statistic", "drift",
    "drift_profile", "embed", "entropy", "expand", "extract_boundary", "format_affine",
    "format_place", "format_rational", "gauge_count_bound", "gauge_enumerate",
    "h_compose", "height", "height_plus", "increment_valuation_rate", "inverse",
    "log_norm", "log_norm_plus", "measure_config", "mix64",
    "parse_measure_config", "parse_place", "parse_rational", "power", "prime_factors",
    "q_approximant", "reflect", "replica_seed", "sample_path", "support_primes",
    "validate", "valuation",
]


def test_all_is_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(affwalk.__all__) == PUBLIC
    assert len(set(affwalk.__all__)) == len(affwalk.__all__)


def test_every_name_imports():
    namespace: dict = {}
    exec("from affwalk import *", namespace)
    assert all(name in namespace for name in PUBLIC)
