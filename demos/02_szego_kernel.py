"""Build the Cauchy-Szego density in closed form and inspect its structure.

The density s is a rational multiple of a power of pi times an exact
rational function P(x)/|x|^(2k); everything below the floating evaluation
step is exact arithmetic.

Run:  python demos/02_szego_kernel.py
"""

import json
import math

from qszego import (
    Hypercomplex,
    KernelOrder,
    SiegelPoint,
    cauchy_kernel,
    complex_szego_closed_form,
    szego_density,
    szego_eval,
)

print("the Cauchy kernel E(nu) = conj(nu) / (2 pi^2 |nu|^4):")
E = cauchy_kernel(4)
print(f"  coeff = {E.coeff}, pi power = {E.pi_pow}")
print(f"  E(1) = {E.eval((1, 0, 0, 0)).comps}   (= 1/(2 pi^2) = {1/(2*math.pi**2):.6f})")
print(f"  Dirac derivative of the body vanishes: {E.body.dirac('left').is_zero()}")

for n in (1, 2, 3):
    s = szego_density(KernelOrder(n))
    terms = sum(len(c.num.terms) for c in s.body.comps)
    print(f"\nSzego density, n = {n}:")
    print(f"  coeff = {s.coeff}, pi power = {s.pi_pow}, numerator terms = {terms}")
    print(f"  D s = 0 exactly: {s.body.dirac('left').is_zero()}")
    degs = {c.num.homogeneous_degree() - 2 * c.k for c in s.body.comps if not c.is_zero()}
    print(f"  homogeneity degree: {degs} (expected -(2n+3) = {-(2*n+3)})")

s1 = szego_density(KernelOrder(1))
print(f"\n  s(1)  = {s1.eval((1,0,0,0)).comps[0]:.9f}   (= 24/pi^4 = {24/math.pi**4:.9f})")
print(f"  s(2)  = {s1.eval((2,0,0,0)).comps[0]:.9f}   (= s(1)/2^5, degree -5 homogeneity)")

print("\nfull kernel S(q, w) between two interior points:")
p = SiegelPoint((Hypercomplex.zero(4),), Hypercomplex.from_real(4, 1))
print(f"  S((0,1),(0,1)) = {szego_eval(1, p, p).comps}")

print("\nthe m = 2 density reproduces the classical complex kernel:")
s_c = szego_density(KernelOrder(1, m=2))
nu = complex(0.7, -0.4)
v = s_c.eval((nu.real, nu.imag))
print(f"  symbolic route: {complex(float(v.comps[0]), float(v.comps[1])):.10f}")
print(f"  closed form:    {complex_szego_closed_form(1, nu):.10f}")

print("\nJSON interchange form (cross-language verification):")
blob = json.dumps(s1.to_json())
print(f"  {blob[:100]}... ({len(blob)} bytes)")
