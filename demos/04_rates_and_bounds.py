"""Empirical iteration counts against the theoretical worst case.

One long trajectory yields the whole T(eps) table (first-hit times of a
deterministic sequence).  The fitted log-log slope should sit at or below
the worst-case exponent: 2 for the strongly-curved regimes, 4 for the
general ones.  The closed-form bounds are then evaluated and compared with
the observed counts; they are upper bounds and typically loose by many
orders of magnitude.
"""

import numpy as np

from agp import (Box, NcCConfig, Regime, auto_configure, compute_bound,
                 make_bilinear, make_quadratic, rate_experiment, run,
                 theory_constants)

print("== weakly coupled nonconvex / strongly concave quadratic ==")
p = make_quadratic([[-0.1]], [[1.0]], [[1.0]], a=[0.3], c_lin=[0.2],
                   X=Box([-1], [1]), Y=Box([-1], [1]))
cfg = auto_configure(p.constants, Regime.NC_SC)
res = rate_experiment(p, cfg, [1e-1, 1e-2, 1e-3, 1e-4], max_iter=2_000_000)
for eps, T in res.table:
    print(f"  T({eps:g}) = {T}")
print(f"  slope = {res.slope:.3f}   (worst case exponent: 2)")

trace = run(p, cfg, eps=1e-4, max_iter=2_000_000)
tc = theory_constants(p, cfg, trace)
for eps, T in res.table:
    print(f"  bound({eps:g}) = {compute_bound(tc, eps):.2e}  vs observed {T}")

print("\n== boxed bilinear game, nonconvex/concave schedule ==")
p = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
one = (np.array([1.0]), np.array([1.0]))
res = rate_experiment(p, cfg, [1e-1, 1e-2, 1e-3], max_iter=2_000_000, init=one)
for eps, T in res.table:
    print(f"  T({eps:g}) = {T}")
print(f"  slope = {res.slope:.3f}   (worst case exponent: 4)")
trace = run(p, cfg, eps=1e-3, max_iter=2_000_000, init=one)
tc = theory_constants(p, cfg, trace)
print(f"  bound(1e-3) = {compute_bound(tc, 1e-3):.2e}  vs observed {res.table[-1][1]}")
