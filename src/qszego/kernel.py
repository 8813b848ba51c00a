"""Closed-form construction of the Cauchy and Cauchy-Szego kernels.

The Newton potential ``1/|x|^2`` in four variables generates everything: the
Cauchy kernel is a constant times its conjugate Dirac derivative, and the
Szego density for n horizontal variables is a power of ``-2/pi`` times the
(mn/2)-th vertical derivative of the Cauchy kernel.  All symbolic content is
exact; powers of pi are kept as a separate integer exponent so that identity
tests never touch floating point.  Every float value comes from the one
float evaluator, ``polyfrac.float_plan`` (which ``eval_fractions`` runs), and
a float fault raises ``FloatingPointError``: here through ``eval_array``,
which applies one plan per kernel object, built on first use, and of which a
one-point evaluation is a one-row call returned as a :class:`KernelValue`
(many points, such as a table of the group kernel, are one
``szego_density(order).eval_array`` call), while ``verify.reproducing_check``
(one plan per fraction set) and ``verify._kernel_abs`` evaluate the
density's components directly.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .geometry import nu_columns
from .hypercomplex import Hypercomplex, conj, sum_squares
from .polyfrac import HyperFrac, RadialFraction, RatPoly, float_plan


@dataclass(frozen=True)
class KernelOrder:
    """Number of horizontal variables n and algebra dimension m (2 or 4)."""

    n: int
    m: int = 4

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.m == 8:
            raise ValueError("octonionic Szego density unsupported: existence unknown")
        if self.m not in (2, 4):
            raise ValueError(f"algebra dimension {self.m} not supported")

    @property
    def deriv_order(self):
        return self.m * self.n // 2


@dataclass(frozen=True)
class KernelValue:
    """A float kernel value at one point: the components of one ``eval_array`` row."""

    comps: tuple

    def __abs__(self):
        """sqrt(c0*c0 + c1*c1 + ...).  Only when that sum of squares overflows
        or falls below the normal floats are the components first scaled by
        an exact power of two, so a value in the ordinary range keeps the bits
        of the plain formula; a modulus beyond the float range raises
        ``OverflowError``."""
        total = sum_squares(self.comps)
        if sys.float_info.min <= total < math.inf:
            return math.sqrt(total)
        e = math.frexp(max(abs(c) for c in self.comps))[1]
        return math.ldexp(math.sqrt(sum_squares([math.ldexp(c, -e) for c in self.comps])), e)


@dataclass(frozen=True)
class PiScaledKernel:
    """Value = coeff * pi**pi_pow * body(x), with exact coeff and body."""

    coeff: Fraction
    pi_pow: int
    body: HyperFrac

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    @property
    def alg_dim(self):
        return self.body.alg_dim

    def prefactor(self):
        return float(self.coeff) * math.pi**self.pi_pow

    def eval(self, point):
        """The :class:`KernelValue` at one point, a one-row call of :meth:`eval_array`."""
        if len(point) != self.body.dim:
            raise ValueError("point dimension mismatch")
        return KernelValue(tuple(self.eval_array([point])[0].tolist()))

    @cached_property
    def _plan(self):
        """The float plan of the body's components, built on first use."""
        return float_plan(self.body.comps)

    def eval_array(self, x):
        """Float values at points x of shape (..., dim), by the kernel's one
        float plan (``HyperFrac.eval_array`` bit for bit); float faults raise."""
        return self._plan(np.moveaxis(x, -1, 0)) * self.prefactor()

    def scaled_equal(self, other):
        """True when both describe the same function (coeff folded into body)."""
        if self.pi_pow != other.pi_pow or self.alg_dim != other.alg_dim:
            return False
        a = self.body.scale(self.coeff)
        b = other.body.scale(other.coeff)
        return a == b

    def to_json(self):
        return {
            "coeff": f"{self.coeff.numerator}/{self.coeff.denominator}",
            "pi_pow": self.pi_pow,
            "body": self.body.to_json(),
        }

    @classmethod
    def from_json(cls, data):
        return cls(Fraction(data["coeff"]), int(data["pi_pow"]), HyperFrac.from_json(data["body"]))


def newton_potential():
    """1 / |x|^2 in four variables."""
    return RadialFraction(RatPoly.const(4, 1), 1)


@lru_cache(maxsize=None)
def newton_derivative(orders):
    """Mixed partial of the Newton potential for an exponent 4-tuple."""
    orders = tuple(int(o) for o in orders)
    if len(orders) != 4 or any(o < 0 for o in orders):
        raise ValueError(f"bad derivative orders {orders}")
    if not any(orders):
        return newton_potential()
    i = max(j for j, o in enumerate(orders) if o)
    lower = orders[:i] + (orders[i] - 1,) + orders[i + 1 :]
    return newton_derivative(lower).deriv(i)


def cauchy_kernel(m=4):
    """conj(x)/|x|^m normalized by the surface measure constant; the body is
    ``hypercomplex.conj`` of the components x_i/|x|^m."""
    if m not in (2, 4):
        raise ValueError(f"unsupported algebra dimension m={m}")
    body = HyperFrac(conj([RadialFraction(RatPoly.variable(m, i), m // 2) for i in range(m)]))
    return PiScaledKernel(Fraction(1, 2), -(m // 2), body)


_DENSITY_CACHE: dict[tuple[int, int], PiScaledKernel] = {}
_DENSITY_LOCK = threading.Lock()


def szego_density(order):
    """The Szego density s for the given order, built once and cached.

    s = (-2/pi)^(mn/2) * d^(mn/2)/dx0^(mn/2) of the Cauchy kernel; for m=4
    the exponent is even so the sign is (2/pi)^(2n).  Only x0/|x|^m and
    1/|x|^m are differentiated: x_i (i >= 1) does not depend on x0, so
    component i is -x_i times the derivative of 1/|x|^m.
    """
    if isinstance(order, int):
        order = KernelOrder(order)
    key = (order.m, order.n)
    with _DENSITY_LOCK:
        cached = _DENSITY_CACHE.get(key)
        if cached is not None:
            return cached
        e = cauchy_kernel(order.m)
        d = order.deriv_order
        head, radial = e.body.comps[0], RadialFraction(RatPoly.const(order.m, 1), order.m // 2)
        for _ in range(d):
            head, radial = head.deriv(0), radial.deriv(0)
        comps = (head,) + tuple(RadialFraction(c.num * radial.num, radial.k) for c in e.body.comps[1:])
        density = PiScaledKernel(
            e.coeff * Fraction(-2) ** d, e.pi_pow - d, HyperFrac(comps)
        )
        _DENSITY_CACHE[key] = density
        return density


def szego_nu(q, omega):
    """Exact kernel argument q_{n+1} + conj(omega_{n+1}) - 2 conj(omega') . q' (``nu_columns``)."""
    if q.n != omega.n or q.alg_dim != omega.alg_dim:
        raise ValueError("points must share shape")
    q1, w1 = (tuple(h.comps for h in p.horizontal) for p in (q, omega))
    return Hypercomplex(nu_columns(q1, q.vertical.comps, w1, omega.vertical.comps))


def szego_eval(order, q, omega):
    """Full kernel S(q, omega) as a :class:`KernelValue`; nu is exact and rounded once."""
    nu = szego_nu(q, omega)
    if nu.is_zero():
        raise ZeroDivisionError("singular point: coincident boundary arguments")
    return szego_density(order).eval([float(c) for c in nu.comps])


def complex_szego_closed_form(n, nu):
    """2^(n-1) n! pi^-(n+1) nu^-(n+1) for complex nu != 0."""
    nu = complex(nu)
    if nu == 0:
        raise ZeroDivisionError("singular point nu = 0")
    return 2 ** (n - 1) * math.factorial(n) * math.pi ** (-(n + 1)) * nu ** (-(n + 1))


def group_kernel(order, h, eps=0.0):
    """Projection kernel K_eps(h) = S(h(0) + eps e0, 0) = s(|w'|^2 + e.t + eps)."""
    if isinstance(order, int):
        order = KernelOrder(order)
    if order.m != 4:
        raise ValueError("group kernel is defined for the quaternionic case")
    if h.kind != "quaternionic":
        raise ValueError("expected a quaternionic group element")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    w2 = sum(wi.norm_sq() for wi in h.omega)
    if not w2 and not eps and not any(h.t):  # exact: a nonzero h may round to 0.0
        raise ZeroDivisionError("singular point: identity element with eps = 0")
    return szego_density(order).eval([float(w2) + eps, *(float(ti) for ti in h.t)])

