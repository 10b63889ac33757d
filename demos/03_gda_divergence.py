"""Why the y-step should see the fresh x.

On the bilinear game f(x, y) = x*y, simultaneous gradient
descent/ascent rotates outward: every step multiplies the distance to the
saddle by sqrt(1 + step^2).  The alternating update with a slowly
strengthened pull toward the origin walks in instead.
"""

import numpy as np

from agp import Box, NcCConfig, make_bilinear, run, run_gda

x0, y0 = np.array([1.0]), np.array([0.0])

free = make_bilinear([[1.0]])
tr = run_gda(free, 0.1, 0.1, eps=1e-15, max_iter=201, init=(x0, y0))
norms = np.sqrt(tr.xn2 + tr.yn2)  # ||(x_k, y_k)||, row by row
print("simultaneous steps, unconstrained bilinear:")
for k in (1, 50, 100, 200):
    print(f"  k = {k:3d}   ||(x, y)|| = {norms[k - 1]:.4f}")
print(f"  predicted growth per step: sqrt(1.01) = {np.sqrt(1.01):.6f}")
print(f"  observed ratio at k=200:   {(norms[200] / norms[0]) ** (1 / 200):.6f}")

boxed = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
tr = run(boxed, cfg, eps=1e-3, max_iter=100_000,
         init=(np.array([1.0]), np.array([1.0])))
print(f"\nalternating update, boxed bilinear: gap <= 1e-3 at T = {tr.T_eps}")
print(f"  endpoint ({tr.x[0]:.2e}, {tr.y[0]:.2e}), saddle is (0, 0)")
