"""Octonionic analyticity, Stein-Weiss systems and subharmonicity.

A left-analytic octonionic function need not stay analytic after the
variable is multiplied by a constant; that happens exactly when the
conjugate components form a Stein-Weiss conjugate harmonic system.

Run:  python demos/06_octonionic_analysis.py
"""

from qszego.polyfrac import HyperFrac, RatPoly
from qszego.verify import (
    composed_analyticity_check,
    cr_corpus,
    stein_weiss_check,
    subharmonicity_check,
)

x = lambda i: RatPoly.variable(8, i)
zero = RatPoly.zero(8)

fueter = HyperFrac.from_polys((x(1), -x(0), zero, zero, zero, zero, zero, zero))
twisted = HyperFrac.from_polys(
    (zero, -x(2), x(1), RatPoly.const(8, -2) * x(0), zero, zero, zero, zero)
)

for name, f in (("x1 - x0 e1", fueter), ("x1 e2 - x2 e1 - 2 x0 e3", twisted)):
    rep = composed_analyticity_check(f)
    sw, violations = stein_weiss_check(f)
    print(f"{name}:")
    print(f"  D f = 0:                         {f.dirac('left').is_zero()}")
    print(f"  f(a x) analytic for every a:     {rep.inputs['universal_alpha']}"
          + (f"  (witness a = {rep.inputs['alpha_witness']})"
             if rep.inputs["alpha_witness"] else ""))
    print(f"  Cauchy-Riemann system:           {rep.inputs['cr_system']}")
    print(f"  Stein-Weiss for conj components: {sw}"
          + (f"  violations: {violations[:2]}" if violations else ""))
    print()

print("verdict agreement over the full corpus:")
agree = 0
corpus = cr_corpus()
for name, f in corpus:
    if composed_analyticity_check(f).passed:
        agree += 1
print(f"  {agree}/{len(corpus)} functions: universal-alpha test matches the CR system\n")

print("|f|^p is subharmonic for analytic f once p >= 6/7:")
for p in (6.0 / 7.0, 1.0, 2.0):
    rep = subharmonicity_check(twisted, p, n_points=800)
    print(f"  p = {p:.4f}: exact Laplacian nonnegative at every sampled point: {rep.passed}"
          f" (min R = {rep.lhs:.3f}, skipped {rep.inputs['skipped_zeros']} zeros)")
