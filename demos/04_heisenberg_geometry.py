"""Heisenberg groups, boundary parameterization and the Cayley transform.

Run:  python demos/04_heisenberg_geometry.py
"""

from fractions import Fraction

import numpy as np

from qszego import (
    GroupElement,
    Hypercomplex,
    SiegelPoint,
    boundary_param,
    boundary_unparam,
    cayley,
    dilate_element,
    group_mul,
    rho_length,
    translate,
)
from qszego.geometry import cayley_columns
from qszego.hypercomplex import sum_squares

e = lambda dim, i: Hypercomplex.basis(dim, i)

print("the twisted product picks up a vertical component:")
a = GroupElement((e(4, 1),), (0, 0, 0))
b = GroupElement((e(4, 2),), (0, 0, 0))
ab = group_mul(a, b)
ba = group_mul(b, a)
print(f"  [e1,0] [e2,0] = [{ab.omega[0].to_text()}, {ab.t}]")
print(f"  [e2,0] [e1,0] = [{ba.omega[0].to_text()}, {ba.t}]   (noncommutative)")

print("\ntranslation preserves the height r = Re q_2 - |q_1|^2:")
p = SiegelPoint((Hypercomplex.zero(4),), Hypercomplex.from_real(4, 1))
moved = translate(a, p)
print(f"  (0, 1) -> ({moved.horizontal[0].to_text()}, {moved.vertical.to_text()}),"
      f" height {p.height()} -> {moved.height()}")

print("\nboundary points are exactly the group orbit of the origin:")
h = GroupElement((e(4, 1),), (1, 0, 0))
bp = boundary_param(h)
print(f"  [e1,(1,0,0)] <-> ({bp.horizontal[0].to_text()}, {bp.vertical.to_text()}),"
      f" height {bp.height()}")
print(f"  roundtrip recovers the element: {boundary_unparam(bp) == h}")

print("\nthe homogeneous length scales linearly under group dilation:")
g = GroupElement(
    (Hypercomplex((Fraction(3, 10), Fraction(-6, 5), Fraction(1, 2), Fraction(9, 10))),),
    (2, Fraction(-1, 2), Fraction(1, 4)),
)
print(f"  rho(h) = {rho_length(g):.6f},  rho(3 o h) = {rho_length(dilate_element(3, g)):.6f}")

print("\nthe octonionic Cayley transform maps the half space into the ball:")
# float points go through the transform's formula as columns, one row per
# point: tau1, the height above the boundary, then Im tau2
low, high = [-1] * 8 + [0.1] + [-1] * 7, [1] * 8 + [2] + [1] * 7
draws = np.random.default_rng(7).uniform(low, high, (2000, 16))
tau1 = tuple(draws[:, :8].T)
tau2 = (sum_squares(tau1) + draws[:, 8],) + tuple(draws[:, 9:].T)
sigma1, sigma2 = cayley_columns(tau1, tau2)
assert np.all(sum_squares(sigma1) + sum_squares(sigma2) < 1)
_, back2 = cayley_columns(sigma1, sigma2, inverse=True)
worst = np.max(np.abs(np.array(back2) - np.array(tau2)))
print(f"  2000 random interior points: all inside, roundtrip deviation <= {worst:.2e}")

boundary = SiegelPoint((Hypercomplex.zero(8),), e(8, 1))
print(f"  boundary point (0, e1) maps to sigma2 = {cayley(boundary).sigma2.to_text()},"
      f" |sigma|^2 = {cayley(boundary).norm_sq_sum()}")
