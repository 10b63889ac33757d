import types

import agp

# The public API of the package, sorted.  A change to the API shows up here
# as a one-line diff.
PUBLIC_API = [
    "Ball", "Box", "CNcConfig", "ConfigError", "ConstraintSet",
    "InfeasibleConfigError", "InvalidTraceError", "MinimaxProblem",
    "MonitorReport", "NcCConfig", "NcScConfig", "NumericFailureError",
    "Product", "Regime", "RegimeConfig", "RunSpec", "ScNcConfig", "Simplex",
    "SmoothnessData", "SolverTrace",
    "SummaryRecord", "TheoryConstants", "UnsupportedRegimeError",
    "WholeSpace", "auto_configure", "compute_bound",
    "finite_diff_check", "lemma_monitor", "make_bilinear", "make_nc_sc_sine",
    "make_quadratic", "make_robust_svm_toy", "make_sc_nc_sine",
    "parse_config", "parse_set",
    "random_quadratic", "rate_experiment", "rate_slope",
    "run", "run_gda", "run_suite",
    "theory_constants", "validate", "write_trace_csv",
]


def test_public_api_is_pinned():
    names = sorted(n for n in dir(agp) if not n.startswith("_")
                   and not isinstance(getattr(agp, n), types.ModuleType))
    assert names == PUBLIC_API
