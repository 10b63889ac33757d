"""Workload definitions: plain ``agp`` config text generated from a seed.

Every workload is config text that ``agp solve`` / ``agp rate`` accepts
unchanged; the library only ever sees that text.  The benchmark seed shifts
each seeded instance's own seed by ``seed - DEFAULT_SEED``, so the default
seed reproduces the instances below and any other seed draws fresh ones of
the same shape, regime and feasible sets.

How long a converging run takes depends on the drawn instance, so the
seed-dependent runs are capped with a per-block ``max_iter`` and the rate
grids end in ``1e-300``, which a gap reaches only when it is exactly 0 (a
floating-point fixed point of the iteration; a fast seed can get there
before ``max_iter``): every seed then does nearly the same amount of work,
and timings compare across seeds.
"""

from __future__ import annotations

import re

DEFAULT_SEED = 0  # seed 1 is the one a claimed gain is confirmed on

# caps on the fitted log T / log(1/eps) slope, by regime
SLOPE_CAPS = {"nc_sc": 2.5, "sc_nc": 2.5, "nc_c": 4.5, "c_nc": 4.5}

UNREACHED_EPS = "1e-300"
BILINEAR_START = "x0 = [1]\ny0 = [1]\n"
NC_C_EXPLICIT = "regime = nc_c(rho_bar=1, eta_bar=0.5, tau=3)\n"
C_NC_EXPLICIT = "regime = c_nc(zeta_bar=1, nu_bar=0.5, tau=3)\n"


def _rate_block(problem, first_exp, last_exp, max_iter, extra=""):
    grid = ", ".join([f"1e-{e}" for e in range(first_exp, last_exp + 1)] + [UNREACHED_EPS])
    return f"problem = {problem}\n{extra}max_iter = {max_iter}\neps_grid = [{grid}]\n\n"


def suite_bounds(s: int) -> str:
    """Full ``agp solve`` path: solve, monitors, grid-scanned bounds, CSV."""
    return (
        "eps = 1e-3\n"
        "max_iter = 5000\n\n"
        f"problem = quadratic(seed={11 + s}, nx=2, ny=2, regime=nc_c)\n\n"
        f"problem = quadratic(seed={13 + s}, nx=2, ny=2, regime=c_nc)\n\n"
        f"problem = quadratic(seed={7 + s}, nx=2, ny=2, regime=nc_sc)\nmax_iter = 1500\n\n"
        f"problem = quadratic(seed={3 + s}, nx=2, ny=2, regime=sc_nc)\nmax_iter = 1500\n\n"
        f"problem = svm(seed={1 + s}, m=2, n=6)\n\n"
        "problem = bilinear(dim=1)\n" + NC_C_EXPLICIT + BILINEAR_START
    )


def rate_sweep(s: int) -> str:
    """``agp rate``: the solver loop alone, all four regimes, dims 1 to 64.

    No 2x2 instance: small boxed quadratics often stop at an exactly zero
    gap in a corner of the box, which would make the pass length seed-bound.
    """
    return (
        _rate_block(f"quadratic(seed={8 + s}, nx=32, ny=32, regime=sc_nc)", 2, 8, 30000)
        + _rate_block(f"quadratic(seed={9 + s}, nx=64, ny=64, regime=nc_sc)", 2, 6, 50000)
        + _rate_block("bilinear(dim=1)", 1, 3, 5000, NC_C_EXPLICIT + BILINEAR_START)
        + _rate_block("bilinear(dim=1)", 1, 3, 5000, C_NC_EXPLICIT + BILINEAR_START)
    )


def monitor_long(s: int) -> str:
    """Serial ``agp solve`` on long, low-dimensional runs plus a GDA baseline."""
    return (
        "eps = 1e-10\n"
        "max_iter = 20000\n\n"
        f"problem = quadratic(seed={5 + s}, nx=1, ny=2, regime=nc_sc)\nmax_iter = 1000\n\n"
        f"problem = quadratic(seed={3 + s}, nx=2, ny=1, regime=sc_nc)\nmax_iter = 1000\n\n"
        f"problem = quadratic(seed={1 + s}, nx=1, ny=2, regime=nc_c)\n\n"
        f"problem = quadratic(seed={2 + s}, nx=2, ny=1, regime=c_nc)\n\n"
        "problem = bilinear(dim=1)\nsolver = gda\nstep_x = 0.1\nstep_y = 0.1\n"
        + BILINEAR_START
    )


# name -> (config generator, kind, parallelism); kind "suite" runs run_suite
# with an output directory, kind "rate" runs rate_experiment per spec
WORKLOADS = {
    "suite_bounds": (suite_bounds, "suite", 2),
    "rate_sweep": (rate_sweep, "rate", 1),
    "monitor_long": (monitor_long, "suite", 1),
}

SHORT_FACTOR = 20  # a short pass runs max_iter / SHORT_FACTOR iterations per run


def config_text(workload: str, seed: int, short: bool = False) -> str:
    text = WORKLOADS[workload][0]((seed - DEFAULT_SEED) % 1_000_000)
    if short:
        text = re.sub(r"max_iter = (\d+)",
                      lambda m: f"max_iter = {int(m.group(1)) // SHORT_FACTOR}", text)
    return text
