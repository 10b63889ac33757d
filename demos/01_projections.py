"""Feasible sets and exact projections.

Walk through the four basic set variants, project a few points, and verify
the textbook projection properties numerically.
"""

import numpy as np

from agp import Ball, Box, Simplex, WholeSpace

rng = np.random.default_rng(0)

print("== box [0,1]^2 ==")
box = Box([0, 0], [1, 1])
v = np.array([-0.5, 2.0])
print(f"project({v}) = {box.project(v)}")
print(f"diameter = {box.diameter():.4f}, max_norm = {box.max_norm():.4f}")

print("\n== unit ball ==")
ball = Ball([0.0, 0.0], 1.0)
v = np.array([3.0, 4.0])
print(f"project({v}) = {ball.project(v)}   (radial shrink onto the sphere)")

print("\n== probability simplex, dim 3 ==")
simplex = Simplex(3, scale=1.0)
v = np.array([2.0, 0.5, 0.5])
print(f"project({v}) = {simplex.project(v)}   (sort-and-threshold)")

print("\n== whole space is the identity ==")
free = WholeSpace(2)
v = rng.standard_normal(2)
print(f"project({v}) = {free.project(v)}")

print("\n== projection properties on random pairs ==")
worst_exp, worst_idem = 0.0, 0.0
for _ in range(2000):
    v = 3 * rng.standard_normal(3)
    w = 3 * rng.standard_normal(3)
    s = Simplex(3, scale=1.0)
    pv, pw = s.project(v), s.project(w)
    worst_exp = max(worst_exp,
                    np.linalg.norm(pv - pw) - np.linalg.norm(v - w))
    worst_idem = max(worst_idem, np.linalg.norm(s.project(pv) - pv))
print(f"worst expansion excess:  {worst_exp:.2e}  (nonexpansive iff <= 0)")
print(f"worst idempotence drift: {worst_idem:.2e}")
