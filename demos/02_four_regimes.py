"""Solve one instance per curvature regime and watch the monitors.

Each regime gets an auto-configured (or, for the degenerate bilinear case,
hand-picked) step schedule.  After the run, every inequality the
convergence analysis asserts along the iterates is re-checked on the
recorded trace.
"""

import numpy as np

from agp import (Box, NcCConfig, Regime, auto_configure, lemma_monitor,
                 make_bilinear, random_quadratic, run, validate)

one = lambda d: np.ones(d)

print("=== nonconvex / strongly concave ===")
p = random_quadratic(7, 2, 2, Regime.NC_SC)
cfg = auto_configure(p.constants, Regime.NC_SC)
print(validate(cfg, p.constants))
tr = run(p, cfg, eps=1e-6, max_iter=200_000)
print(f"\nstopped: {tr.reason}, T(1e-6) = {tr.T_eps}, f = {tr.f[-1]:.6f}")
print(lemma_monitor(tr))

print("\n=== strongly convex / nonconcave ===")
p = random_quadratic(11, 2, 2, Regime.SC_NC)
cfg = auto_configure(p.constants, Regime.SC_NC)
tr = run(p, cfg, eps=1e-6, max_iter=200_000)
print(f"stopped: {tr.reason}, T(1e-6) = {tr.T_eps}")
print(lemma_monitor(tr))

print("\n=== nonconvex / concave (singular curvature) ===")
p = random_quadratic(13, 2, 2, Regime.NC_C)
cfg = auto_configure(p.constants, Regime.NC_C)
rep = validate(cfg, p.constants)
print(f"decay condition first holds at k0 = {rep.k0}; monitors gate there")
tr = run(p, cfg, eps=1e-5, max_iter=100_000,
         init=(one(2) * 0.8, one(2) * 0.8))
print(f"stopped: {tr.reason}, T(1e-5) = {tr.T_eps}")
print(lemma_monitor(tr))

print("\n=== convex / nonconcave: the bilinear game, boxed ===")
p = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)  # L_y = 0: pick by hand
tr = run(p, cfg, eps=1e-3, max_iter=100_000, init=(one(1), one(1)))
print(f"stopped: {tr.reason}, T(1e-3) = {tr.T_eps}, "
      f"endpoint = ({tr.x[0]:.2e}, {tr.y[0]:.2e})")
print(lemma_monitor(tr))
