"""Exact Gamma arithmetic against adaptive spherical quadrature.

Run:  python demos/05_moment_integrals.py
"""

import math

import numpy as np

from qszego.quadrature import (
    ExpDecay,
    exponential_moment_closed_form,
    gamma_half,
    integrate_r3,
    parseval_identity_check,
)

print("Gamma at half integers is exact (rational times sqrt(pi)):")
for twice in (1, 3, 5, 8):
    print(f"  Gamma({twice}/2) = {gamma_half(twice)}")

print("\nthe Legendre duplication identity holds exactly in this arithmetic:")
from fractions import Fraction

from qszego.quadrature import SqrtPiRational

for twice in (1, 5, 9):
    lhs = gamma_half(twice) * gamma_half(twice + 1)
    rhs = gamma_half(1) * gamma_half(2 * twice) * SqrtPiRational(Fraction(2) ** (1 - twice))
    print(f"  2x = {twice}: {lhs} == {rhs}: {lhs == rhs}")

print("\nexponential moments over R^3, closed form vs quadrature:")
for a, powers in ((1.0, (0, 0, 0, 0)), (2.0, (0, 0, 0, 0)), (1.0, (1, 2, 0, 2))):
    exact = exponential_moment_closed_form(a, *powers)

    def f(x1, x2, x3):
        # coordinate columns that broadcast: x1**k is taken once per axis value;
        # the rule evaluates f at x1 >= 0 only and mirrors it with parity (-1)^k
        r = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
        return r ** powers[0] * x1 ** powers[1] * x2 ** powers[2] * x3 ** powers[3] * np.exp(-a * r)

    res = integrate_r3(f, ExpDecay(a), (-1) ** powers[1], tol=1e-9, abs_tol=1e-12)
    print(f"  a={a}, powers={powers}: closed {exact.to_float():.10f}"
          f"  numeric {res.value:.10f}  ({res.n_evals} evaluations, converged {res.converged})")

print("\nodd powers vanish by symmetry, exactly in the closed form:")
print(f"  powers (0,1,0,0): {exponential_moment_closed_form(1, 0, 1, 0, 0)}")

print("\nParseval ties derivative products to exponential moments:")
for p, q, x0 in (((1, 0, 0, 0), (1, 0, 0, 0), 1.0), ((2, 0, 0, 0), (0, 0, 0, 2), 0.5)):
    rep = parseval_identity_check(p, q, x0)
    print(f"  p={p}, q={q}, x0={x0}: lhs {rep.lhs:.8f}  rhs {rep.rhs:.8f}"
          f"  rel dev {rep.rel_deviation:.1e}")
