"""Closed-form construction of the Cauchy and Cauchy-Szego kernels.

The Newton potential ``1/|x|^2`` in four variables generates everything: the
Cauchy kernel is a constant times its conjugate Dirac derivative, and the
Szego density for n horizontal variables is a power of ``-2/pi`` times the
(mn/2)-th vertical derivative of the Cauchy kernel; the x0-derivatives of
every order of one algebra dimension come from one shared chain, so a higher
order costs only the steps it adds to the furthest one taken.  All symbolic
content is exact; powers of pi are kept as a separate integer exponent so
that identity tests never touch floating point.  The m = 4 density's float
values come from its Gegenbauer closed form, ``density_values``: O(n)
operations per point where its expanded body has O(n^3) terms whose sum
cancels more as n grows, and every value the floats can hold, through an
exact power-of-two scaling; ``density_closed_form`` is that closed form as
exact fractions, equal to the derivative.  Every other float value comes
from the one plan evaluator, ``polyfrac.float_plan`` (which
``eval_fractions`` runs).  A float fault raises ``FloatingPointError`` in
either: here through ``eval_array``, which runs ``eval_columns`` on the
points' columns, by the closed form for a :class:`QuaternionicDensity` and
otherwise by one plan per kernel object, built on first use; a one-point
evaluation is a one-row call returned as a :class:`KernelValue` (many
points, such as a table of the group kernel, are one
``szego_density(order).eval_array`` call), while
``verify.reproducing_check`` and ``verify._kernel_abs`` call the density's
``eval_columns`` on their own columns.
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
from .polyfrac import _ROWS, HyperFrac, RadialFraction, RatPoly, float_plan, radius_sq


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


@dataclass(frozen=True, eq=False)
class PiScaledKernel:
    """Value = coeff * pi**pi_pow * body(x), with exact coeff and body."""

    coeff: Fraction
    pi_pow: int
    body: HyperFrac

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    def __eq__(self, other):
        """Equal coefficient, power of pi and body, whichever float evaluator each uses."""
        if not isinstance(other, PiScaledKernel):
            return NotImplemented
        return (self.coeff, self.pi_pow, self.body) == (other.coeff, other.pi_pow, other.body)

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
        """Float values at points x of shape (..., dim): :meth:`eval_columns` of x's columns."""
        return self.eval_columns(np.moveaxis(x, -1, 0))

    def eval_columns(self, cols):
        """Float values at the points of coordinate columns that broadcast, shape
        S + (alg_dim,), by the kernel's one float plan (``HyperFrac.eval_array``
        bit for bit, times the prefactor); float faults raise."""
        return self._plan(cols) * self.prefactor()

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


def gegenbauer_coefficients(lam, k):
    """The a_j of |x|^k C_k^(lam)(x0/|x|) = sum_j a_j x0^(k-2j) |x|^(2j), j = 0..k//2,
    as exact Fractions: a_j = (-1)^j (lam)_(k-j) 2^(k-2j) / (j! (k-2j)!)."""
    return [
        Fraction((-1) ** j * math.prod(range(lam, lam + k - j)) * 2 ** (k - 2 * j), math.factorial(j) * math.factorial(k - 2 * j))
        for j in range(k // 2 + 1)
    ]


def _homogeneous_gegenbauer(lam, k):
    """|x|^k C_k^(lam)(x0/|x|) as a polynomial in four variables."""
    x0, r2 = RatPoly.variable(4, 0), radius_sq(4)
    x0_pows, r2_pows = [RatPoly.const(4, 1)], [RatPoly.const(4, 1)]
    while len(x0_pows) <= k:
        x0_pows.append(x0_pows[-1] * x0)
    while len(r2_pows) <= k // 2:
        r2_pows.append(r2_pows[-1] * r2)
    total = RatPoly.zero(4)
    for j, a in enumerate(gegenbauer_coefficients(lam, k)):
        total = total + (x0_pows[k - 2 * j] * r2_pows[j]).scale(a)
    return total


def density_closed_form(n):
    """The body of the m = 4 Szego density of order n from its closed form, exact.

    ((2n+1)!/2) U_{2n+1}(c) / |x|^(2n+3) and -(2n)! C^(2)_{2n}(c) x_i /
    |x|^(2n+4) (``density_values``), each numerator written as a polynomial
    through |x|^k C_k^(lam)(x0/|x|), over |x|^(4n+4).  It equals
    ``szego_density(n).body``, the derivative the paper defines.
    """
    head = _homogeneous_gegenbauer(1, 2 * n + 1).scale(Fraction(math.factorial(2 * n + 1), 2))
    radial = _homogeneous_gegenbauer(2, 2 * n).scale(-math.factorial(2 * n))
    return HyperFrac(
        (RadialFraction(head, 2 * n + 2),)
        + tuple(RadialFraction(RatPoly.variable(4, i) * radial, 2 * n + 2) for i in (1, 2, 3))
    )


def _power(x, e):
    """x**e as x**(e // 2) * x**(e - e // 2): products only, so scaling x by
    2^j scales the power by 2^(je) exactly while nothing over- or underflows."""
    return x if e == 1 else _power(x, e // 2) * _power(x, e - e // 2)


def density_values(n, cols, scale=1.0):
    """``scale`` times the body of the m = 4 Szego density of order n, in floats.

    In R^4, d0^k |x|^-2 = (-1)^k k! U_k(c) / |x|^(k+2) and d0^k |x|^-4 =
    k! C^(2)_k(c) / |x|^(k+4), with c = x0/|x| (Gegenbauer, lambda = 1 and
    2), so the body is ((2n+1)!/2) U_{2n+1}(c) / |x|^(2n+3) and, for i = 1,
    2, 3, -(2n)! C^(2)_{2n}(c) x_i / |x|^(2n+4): two polynomials in the one
    variable c, run by their three-term recurrences (C^(2)_{k-1} = U_k'/2),
    in O(n) operations per point where the expanded body has O(n^3) terms
    that cancel more as n grows (``density_closed_form`` is the exact form).
    ``cols`` are four coordinate columns that broadcast to the shape S of the
    point set, as ``polyfrac.float_plan`` takes them; the result has shape
    S + (4,), taken in blocks of at most ``_ROWS`` points along S's leading
    axis.  In a block with a point outside 2^-L <= |x| <= 2^L, L = 512 //
    (2n+4), where powers of |x| could leave the float range, each point is
    divided by the power of two 2^e of its largest coordinate, exactly, and
    its value multiplied back by 2^(-(2n+3)e), so every value the floats can
    hold is reached.  Within that range the scaling would change no bit
    (power-of-two factors commute with rounding in the normal range), so
    the value of a point does not depend on its block.  A value that overflows raises
    ``FloatingPointError``, as does the singular point 0 and a point whose
    every component rounds to 0 (the density vanishes nowhere else); a zero
    component is +0.0, and one that falls below the normal floats beside a
    larger one is rounded, as any float result is.
    """
    cols = [np.asarray(c, dtype=float) for c in cols]
    if len(cols) != 4:
        raise ValueError(f"need 4 coordinate columns, got {len(cols)}")
    true_shape = np.broadcast_shapes(*(c.shape for c in cols))
    shape = true_shape or (1,)
    cols = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in cols]
    out = np.empty((4,) + shape)
    size = max(1, _ROWS // max(1, math.prod(shape[1:])))
    p = 2 * n + 3
    head = scale * (math.factorial(2 * n + 1) / 2)
    radial = -scale * math.factorial(2 * n)
    # |x|^(p+1) within 2^+-512: no value of such a block leaves the float range
    lo, hi = 2.0 ** (-2 * (512 // (p + 1))), 2.0 ** (2 * (512 // (p + 1)))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for start in range(0, shape[0], size):
            x = [c if len(c) == 1 else c[start : start + size] for c in cols]
            block = out[:, start : start + size]
            with np.errstate(all="ignore"):
                s = (x[1] * x[1] + x[2] * x[2]) + x[3] * x[3]
                r2 = x[0] * x[0] + s
            e = None
            if r2.size and not (lo <= r2.min() and r2.max() <= hi):
                x = np.stack(np.broadcast_arrays(*x))
                e = np.frexp(np.max(np.abs(x), axis=0))[1]
                x = np.ldexp(x, -e)
                s = (x[1] * x[1] + x[2] * x[2]) + x[3] * x[3]
                r2 = x[0] * x[0] + s
            r = np.sqrt(r2)
            # Reinsch's form of the recurrences at a = |x0|/|x| (U_k(-a) =
            # (-1)^k U_k(a)), on g = 2 - 2a, which has no cancellation, so a
            # point near the x0 axis loses no bits to 1 - a; from k = 1,
            # u, du = U_k(a), U_k(a) - U_(k-1)(a) and w, dw the same of U_k'/2
            g = (s + s) / (r * (np.abs(x[0]) + r))
            u, du, w, dw = 2.0 - g, 1.0 - g, 1.0, 1.0
            for _ in range(2 * n):
                dw = (u - g * w) + dw
                du = du - g * u
                u = u + du
                w = w + dw
            d = _power(r2, n + 1)  # |x|^(2n+2), from |x|^2 with fewer roundings than powers of |x|
            np.divide((head * np.sign(x[0])) * u, d * r, out=block[0])
            q = radial * w / (d * r2)
            for i in (1, 2, 3):
                np.multiply(q, x[i], out=block[i])
            if e is not None:
                np.ldexp(block, -p * e, out=block)
                if not np.all(np.any(block, axis=0)):
                    raise FloatingPointError("underflow: every component of a value rounds to 0")
            block += 0.0  # -0.0 to +0.0
    # the S + (4,) view of the component-leading buffer, as float_plan returns it
    return out.transpose((*range(1, out.ndim), 0)).reshape(true_shape + (4,))


@dataclass(frozen=True, eq=False)
class QuaternionicDensity(PiScaledKernel):
    """The m = 4 Szego density of order n: the exact body is the derivative
    the paper defines, and its floats come from the closed form."""

    n: int

    def eval_columns(self, cols):
        """:func:`density_values` times the prefactor, folded in before the
        power of two that restores the range; float faults raise."""
        return density_values(self.n, cols, self.prefactor())


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
# m -> (d, d0^d (x0/|x|^m), d0^d (1/|x|^m)) for the largest d taken so far
_DENSITY_CHAIN_ENDS: dict[int, tuple[int, RadialFraction, RadialFraction]] = {}
_DENSITY_LOCK = threading.Lock()


def szego_density(order):
    """The Szego density s for the given order, built once and cached.

    s = (-2/pi)^(mn/2) * d^(mn/2)/dx0^(mn/2) of the Cauchy kernel; for m=4
    the exponent is even so the sign is (2/pi)^(2n).  Only x0/|x|^m and
    1/|x|^m are differentiated: x_i (i >= 1) does not depend on x0, so
    component i is -x_i times the derivative of 1/|x|^m.  Both derivative
    chains are shared by every order of one algebra dimension m: the end of
    each, its furthest step, is kept per m under the lock, and a higher
    order continues from it one step at a time, so orders built upwards
    take every step once (a loop, where a recursive cache would reach the
    recursion limit).  A lower order not yet cached starts again from the
    Cauchy kernel.  Only the end is kept: every step would retain as much
    exact data again as the cached densities themselves.
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
        start = (0, e.body.comps[0], RadialFraction(RatPoly.const(order.m, 1), order.m // 2))
        end = _DENSITY_CHAIN_ENDS.get(order.m, start)
        step, head, radial = end if end[0] <= d else start
        for _ in range(d - step):
            head, radial = head.deriv(0), radial.deriv(0)
        if d > end[0]:
            _DENSITY_CHAIN_ENDS[order.m] = (d, head, radial)
        comps = (head,) + tuple(RadialFraction(c.num * radial.num, radial.k) for c in e.body.comps[1:])
        coeff, pi_pow, body = e.coeff * Fraction(-2) ** d, e.pi_pow - d, HyperFrac(comps)
        if order.m == 4:
            density = QuaternionicDensity(coeff, pi_pow, body, order.n)
        else:
            density = PiScaledKernel(coeff, pi_pow, body)
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

