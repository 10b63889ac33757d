"""Single-loop alternating gradient projection for minimax problems.

The solver handles four curvature regimes of min_x max_y f(x, y) --
nonconvex/strongly-concave, nonconvex/concave, strongly-convex/nonconcave
and convex/nonconcave -- with one update per block per iteration, and ships
runtime monitors for the descent/ascent inequalities its convergence
analysis relies on, plus calculators for the corresponding
O(eps^-2) / O(eps^-4) iteration bounds.
"""

from .geometry import (Ball, Box, ConstraintSet, Product, Simplex, WholeSpace,
                       parse_set)
from .objective import (MinimaxProblem, Regime, SmoothnessData, make_bilinear,
                        make_nc_sc_sine, make_quadratic, make_robust_svm_toy,
                        make_sc_nc_sine, random_quadratic)
from .schedules import (CNcConfig, InfeasibleConfigError, NcCConfig, NcScConfig,
                        RegimeConfig, ScNcConfig, UnsupportedRegimeError,
                        auto_configure, validate)
from .solver import NumericFailureError, SolverTrace, run, run_gda
from .verify import (InvalidTraceError, MonitorReport, TheoryConstants,
                     compute_bound, finite_diff_check, lemma_monitor,
                     rate_slope, theory_constants)
from .bench import (ConfigError, RunSpec, SummaryRecord, parse_config,
                    rate_experiment, run_suite, write_trace_csv)

__version__ = "0.1.0"
