"""Numerical integration engines and exact half-integer Gamma arithmetic.

Two integration paths cover the verification needs: an adaptive product
rule in spherical coordinates for integrals over R^3, and a tensor rule over
the Siegel boundary for integrands that are rotation invariant in the
horizontal variables and homogeneous of a declared degree: the horizontal
factor reduces to one radial dimension, and the integrand is evaluated once
per level.  The boundary budget counts rule points, ``n_evals`` the points
evaluated.  Both place their Gauss nodes through the same coordinate maps,
:meth:`ExpDecay.map` and :meth:`PowerDecay.map`, refine through the same
loop, and pass their integrands coordinate columns that broadcast (the
spherical rule x1, x2, x3 of a group of radial nodes, the boundary rule
the t grid's three axes), so a power of a coordinate is taken once per axis
value; an integrand returns one value or C values per point, leading for
the spherical rule, trailing for the boundary rule.  The spherical rule is
folded on the three coordinate planes: it evaluates its integrand in the
octant x1, x2, x3 > 0 only, one eighth of its points, and multiplies the
octant's sum by (1 + s1)(1 + s2)(1 + s3), 8 or 0, from the parities in x1,
x2 and x3 the caller declares (:func:`_sphere_level`).  Both return a
:class:`QuadratureResult` whether or not refinement converged, and every
check that integrates puts its ``converged`` flag into its verdict.  A
level whose value is not finite raises :class:`FloatingPointError`.

Gamma values at positive half integers are exact: they are rational
multiples of sqrt(pi)^k, carried by :class:`SqrtPiRational` so that moment
identities and coefficient systems can be checked with no floating point.
Every Gamma closed form is built on one of them, :func:`sphere_moment`, the
exact moment of a monomial over the unit sphere in R^d, which also decides
the parity rule: the moment is 0 when some exponent is odd.  The Parseval
check takes its right side, and with it the rule that decides when both
sides vanish, from :func:`exponential_moment_closed_form`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .kernel import newton_derivative
from .polyfrac import _ROWS, float_plan
from .report import CheckReport, UsageError


# ----------------------------------------------------------------------
# exact Gamma arithmetic


@dataclass(frozen=True)
class SqrtPiRational:
    """Exact value coef * pi^(pi_half / 2); the ledger for Gamma identities."""

    coef: Fraction
    pi_half: int = 0

    def __post_init__(self):
        c = Fraction(self.coef)
        object.__setattr__(self, "coef", c)
        if not c:
            object.__setattr__(self, "pi_half", 0)

    @classmethod
    def zero(cls):
        return cls(Fraction(0), 0)

    def is_zero(self):
        return not self.coef

    def __mul__(self, other):
        if isinstance(other, SqrtPiRational):
            return SqrtPiRational(self.coef * other.coef, self.pi_half + other.pi_half)
        return SqrtPiRational(self.coef * Fraction(other), self.pi_half)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SqrtPiRational):
            if not other.coef:
                raise ZeroDivisionError("division by zero SqrtPiRational")
            return SqrtPiRational(self.coef / other.coef, self.pi_half - other.pi_half)
        return SqrtPiRational(self.coef / Fraction(other), self.pi_half)

    def __add__(self, other):
        if not isinstance(other, SqrtPiRational):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.pi_half != other.pi_half:
            raise ValueError("cannot add values with different powers of sqrt(pi)")
        return SqrtPiRational(self.coef + other.coef, self.pi_half)

    def __eq__(self, other):
        if not isinstance(other, SqrtPiRational):
            return NotImplemented
        return self.coef == other.coef and self.pi_half == other.pi_half

    def to_float(self):
        return float(self.coef) * math.pi ** (self.pi_half / 2.0)

    def __repr__(self):
        if self.pi_half == 0:
            return f"SqrtPiRational({self.coef})"
        return f"SqrtPiRational({self.coef} * pi^({self.pi_half}/2))"


def gamma_half(twice_x):
    """Exact Gamma(twice_x / 2) for a positive integer argument.

    Gamma(k+1) = k! carries no pi; Gamma(k+1/2) = (2k)!/(4^k k!) sqrt(pi).
    """
    twice_x = int(twice_x)
    if twice_x < 1:
        raise ValueError("argument must be a positive half integer")
    if twice_x % 2 == 0:
        m = twice_x // 2
        return SqrtPiRational(Fraction(math.factorial(m - 1)), 0)
    k = (twice_x - 1) // 2
    coef = Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
    return SqrtPiRational(coef, 1)


def sphere_moment(a):
    """Exact moment int_{S^(d-1)} xi^a dsigma of the unit sphere in R^d, d = len(a).

    Equals 2 Gamma((a_1+1)/2) ... Gamma((a_d+1)/2) / Gamma((|a|+d)/2), and 0
    when some a_i is odd: the one place the parity rule of the moment
    identities is decided.  The exponents must be nonnegative integers.
    """
    if not a or min(a) < 0:
        raise ValueError("sphere moment needs at least one exponent, all nonnegative")
    if any(ai % 2 for ai in a):
        return SqrtPiRational.zero()
    return 2 * math.prod(gamma_half(ai + 1) for ai in a) / gamma_half(sum(a) + len(a))


def exponential_moment_closed_form(a, l0, l1, l2, l3):
    """Closed form of int (x1^2+x2^2+x3^2)^(l0/2) x1^l1 x2^l2 x3^l3 e^(-a rho) dx.

    In polar coordinates the integral is Gamma(l+3) a^(-l-3) times the
    sphere moment of (l1, l2, l3), l = l0+l1+l2+l3; so it vanishes unless
    l1, l2, l3 are all even (:func:`sphere_moment`).  ``l0`` may be as small
    as -2 (the radial factor stays integrable); ``a`` must be positive and
    exactly representable (int, Fraction, or float).
    """
    if a <= 0:
        raise ValueError("decay rate a must be positive")
    if min(l1, l2, l3) < 0:
        raise ValueError("axis exponents must be nonnegative")
    if l0 < -2:
        raise ValueError("radial exponent below -2 is not integrable")
    l = l0 + l1 + l2 + l3
    return gamma_half(2 * (l + 3)) * sphere_moment((l1, l2, l3)) * Fraction(a) ** (-(l + 3))


# ----------------------------------------------------------------------
# quadrature engines


@dataclass
class QuadratureResult:
    """The last level's value and error estimate, and the evaluations of all levels.

    ``converged`` is false when the levels ran out before two successive ones
    agreed; ``value`` is then the best value obtained and ``error_estimate``
    the last difference between levels (inf after one level).
    """

    value: object
    error_estimate: float
    n_evals: int
    converged: bool = True


@dataclass(frozen=True)
class ExpDecay:
    """Radial integrand decays like exp(-rate * r).

    The half line is cut at 80 / rate, where the exponential tail falls below
    1e-30 even against polynomial growth; the integrand is entire there, so
    the Gauss rule converges geometrically.
    """

    rate: float = 1.0

    def map(self, u):
        """Gauss nodes ``u`` to r = cut * u; returns (r, dr/du)."""
        cut = 80.0 / self.rate
        return cut * u, np.full_like(u, cut)


@dataclass(frozen=True)
class PowerDecay:
    """Radial integrand decays like a negative power; scale sets the knee."""

    scale: float = 1.0

    def map(self, u):
        """Gauss nodes ``u`` to r = scale * tan(pi u / 2); returns (r, dr/du).

        Rational integrands become trigonometric rational functions of u,
        which the Gauss rule resolves geometrically.
        """
        theta = u * (math.pi / 2.0)
        return self.scale * np.tan(theta), self.scale * (math.pi / 2.0) / np.cos(theta) ** 2


@lru_cache(maxsize=64)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _gauss01(n):
    x, w = _leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _finite(value, evals):
    """A level's (value, evals); a non-finite value raises FloatingPointError."""
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"quadrature level of {evals} points produced a non-finite value")
    return value, evals


def _signs(parity):
    """The declared parities as a (C, 3) array of +-1, one row per value."""
    try:
        sign = np.asarray(parity, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"parity must be one triple of signs per value, got {parity!r}") from None
    if sign.ndim not in (1, 2) or sign.shape[-1] != 3:
        raise ValueError(f"parity must be one triple of signs (x1, x2, x3) per value, got {parity!r}")
    if not np.all(np.abs(sign) == 1.0):
        raise ValueError(f"parity signs must be +1 or -1, got {parity!r}")
    return sign.reshape(-1, 3)


def _azimuth(nphi):
    """cos and sin of the nphi / 4 first-quadrant midpoints (k + 1/2) 2 pi / nphi."""
    phi = (np.arange(nphi // 4) + 0.5) * (2.0 * math.pi / nphi)
    return np.cos(phi), np.sin(phi)


def _sphere_level(f, decay, nr, nc, nphi, parity):
    """One tensor level of the spherical product rule; returns (value, evals).

    The level is folded on the three coordinate planes: ``f(x1, x2, x3)`` is
    called only at the nc / 2 polar nodes with cos theta > 0 and the
    q = nphi / 4 azimuthal nodes with 0 < phi < pi / 2, on the coordinate
    columns of a group of whole radial nodes, of shapes (g, nc / 2, 1),
    (g, nc / 2, q) and (g, nc / 2, q), so a power of x1 is taken once per
    (r, cos theta) value; it returns shape (g, nc / 2, q), or
    (C, g, nc / 2, q) for C values per point (the component-leading rows of
    ``eval_fractions``), which is only reshaped.

    ``parity`` is one triple of signs (s1, s2, s3), each +1 or -1, per
    value, with f(..., -x_i, ...) = s_i * f for i = 1, 2, 3.  The polar
    nodes and weights are symmetric about cos theta = 0 and the azimuthal
    midpoints about both phi = pi / 2 and phi = pi, so the rule's points
    are the octant's and their mirrors across x1 = 0, x2 = 0 and x3 = 0,
    with equal weights; each node total of all nc * nphi points, which
    ``evals`` counts, is then (1 + s1)(1 + s2)(1 + s3) times the octant's,
    in exact arithmetic: 8 times it for (1, 1, 1) and exactly 0.0 for any
    triple with a -1, where a nan or inf still makes the level raise.  A
    parity that is not one triple of +-1 per value, an odd ``nc`` (the
    octant needs no node on x1 = 0) or an ``nphi`` that is not a multiple
    of 4 raises ``ValueError``.

    The value is a float for one value per point and an array of C entries
    otherwise.  A group holds as many nodes as fit in one evaluator block of
    ``_ROWS`` evaluated points (at least one).  One sum over the last two
    axes of the weighted octant takes every node's angular sum, each on its
    own contiguous (nc / 2, q) slice, and the nodes are added to the totals
    one by one in node order, as Python floats, so the value does not depend
    on the grouping.
    """
    if nc % 2 or nphi % 4:
        raise ValueError(f"the spherical rule needs an even nc and nphi a multiple of 4, got {nc} and {nphi}")
    q = nphi // 4
    cphi, sphi = _azimuth(nphi)
    sign = _signs(parity)
    fold = np.prod(1.0 + sign, axis=1)[:, None]
    u, wu = _gauss01(nr)
    r, jac = decay.map(u)
    c, wc = _leggauss(nc)
    wphi = 2.0 * math.pi / nphi

    h = nc // 2
    c, wc = c[h:, None], wc[h:, None]
    s = np.sqrt(1.0 - c**2)
    weight = wu * jac * r * r

    group = max(1, _ROWS // (h * q))
    totals = None
    for start in range(0, nr, group):
        rg = r[start : start + group, None, None]
        rs = rg * s
        vals = np.reshape(f(rg * c, rs * cphi, rs * sphi), (-1, len(rg), h, q))
        if len(vals) != len(sign):
            raise ValueError(f"parity declares {len(sign)} values, the integrand returns {len(vals)}")
        # a nan or inf times a fold of 0 is nan, which _finite refuses
        with np.errstate(invalid="ignore"):
            nodes = np.sum(vals * wc, axis=(-2, -1)) * fold * wphi * weight[start : start + group]
        totals = totals or [0.0] * len(nodes)
        for i, row in enumerate(nodes.tolist()):
            for node in row:
                totals[i] += node
    return _finite(totals[0] if len(totals) == 1 else np.array(totals), nr * nc * nphi)


def _refine(level, sizes, tol, abs_tol):
    """Run ``level(*size)`` over ``sizes`` until two successive values agree.

    Values agree when max|value - prev| <= max(tol * max|value|, abs_tol).
    Returns the last level's :class:`QuadratureResult`, converged or not,
    and the number of levels run.
    """
    prev, err, n_evals, levels = None, math.inf, 0, 0
    value = math.nan
    for size in sizes:
        value, used = level(*size)
        n_evals += used
        levels += 1
        if prev is not None:
            err = float(np.max(np.abs(value - prev)))
            if err <= max(tol * float(np.max(np.abs(value))), abs_tol):
                return QuadratureResult(value, err, n_evals), levels
        prev = value
    return QuadratureResult(value, err, n_evals, converged=False), levels


def integrate_r3(f, decay_hint, parity, tol=1e-8, abs_tol=0.0):
    """Adaptive spherical product rule over R^3.

    ``f(x1, x2, x3)`` takes coordinate columns that broadcast, in the octant
    x1, x2, x3 > 0 of the rule's nodes only, and returns one value per
    point, or C values per point on a leading axis; ``parity`` declares one
    triple of signs (s1, s2, s3) per value, with f(..., -x_i, ...) = s_i * f,
    and each level is the octant's sum times (1 + s1)(1 + s2)(1 + s3), as
    :func:`_sphere_level` says; f must be absolutely integrable with the
    declared radial decay.  Starting from 16 x 12 x 12 nodes, refinement
    doubles the radial rule and grows the angular rules (nc even, nphi a
    multiple of 4), for at most five levels, until successive levels agree
    to the requested tolerance.  When the levels run out first, the result
    carries ``converged=False`` and the last level's value.  A parity that
    is not one triple of +-1 per value raises ``ValueError``.
    """
    sizes = [(16 * 2**k, min(12 * 2**k, 48), min(12 * 2**k, 48)) for k in range(5)]
    level = lambda *size: _sphere_level(f, decay_hint, *size, parity)
    return _refine(level, sizes, tol, abs_tol)[0]


# ----------------------------------------------------------------------
# verification of the derivative-product / exponential-moment identity


def parseval_identity_check(p_orders, q_orders, x0):
    """Check the Parseval identity between two Newton-derivative products.

    The left side integrates the product of two mixed partials of the Newton
    potential over R^3 at fixed x0 > 0 by quadrature; the right side is the
    exact exponential-moment value the Fourier transform produces, matched to
    relative 1e-6.  When the exact right side vanishes (a paired axis order
    is odd) the left side is tested against 1e-10 times the integral of the
    absolute product, both taken from one evaluation of the product.  An
    adaptive rule that does not converge fails the check with its best value.
    Both integrals run on the folded rule, which evaluates the product in
    the octant x1, x2, x3 > 0 only and multiplies the octant's sum by
    (1 + s1)(1 + s2)(1 + s3): d^p N has parity (-1)^(p_i) in x_i, so the
    product has s_i = (-1)^(p_i + q_i), for i = 1, 2, 3, and its modulus
    s_i = +1.  An odd pair's signed integral, on the zero path, is then
    exactly 0.0, the rule's exact value.
    """
    tol, zero_tol = 1e-6, 1e-10
    p_orders = tuple(int(v) for v in p_orders)
    q_orders = tuple(int(v) for v in q_orders)
    if len(p_orders) != 4 or len(q_orders) != 4:
        raise ValueError("need two exponent 4-tuples")
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    alpha, gamma = sum(p_orders), sum(q_orders)
    l = [p_orders[i] + q_orders[i] for i in range(4)]

    # exact right side: 2^(a+g) pi^(a+g+2) (-1)^(p0+g) i^(a+g-p0-q0) times the
    # moment at rate 4 pi x0, which is the moment at rate 4 x0 times
    # pi^-(a+g+1), so the ledger keeps pi^1; the moment vanishes exactly when
    # a paired axis order is odd
    sign = (-1) ** (p_orders[0] + gamma + (l[1] + l[2] + l[3]) // 2)
    ledger = SqrtPiRational(sign * Fraction(2) ** (alpha + gamma), 2)
    rhs_exact = ledger * exponential_moment_closed_form(4 * Fraction(x0), l[0] - 2, l[1], l[2], l[3])
    rhs = rhs_exact.to_float()

    # one plan of both factors, built once for every group of every level,
    # shares |x|^2 and the powers of x_i; each factor is a contiguous row
    evaluate = float_plan((newton_derivative(p_orders), newton_derivative(q_orders)))

    def product(x1, x2, x3):
        vals = evaluate((float(x0), x1, x2, x3))
        return vals[..., 0] * vals[..., 1]

    def signed_and_absolute(x1, x2, x3):
        vals = evaluate((float(x0), x1, x2, x3))
        both = np.empty((2,) + vals.shape[:-1])
        np.multiply(vals[..., 0], vals[..., 1], out=both[0])
        np.abs(both[0], out=both[1])
        return both

    parity = tuple((-1) ** l[i] for i in (1, 2, 3))
    decay = PowerDecay(scale=max(1.0, 2.0 * float(x0)))
    if rhs_exact.is_zero():
        (lhs, scale), n_evals = _sphere_level(signed_and_absolute, decay, 64, 24, 24, (parity, (1, 1, 1)))
        ref, tolerance, converged = max(scale, 1e-300), zero_tol, True
    else:
        res = integrate_r3(product, decay, parity, tol=tol * 0.2, abs_tol=abs(rhs) * tol * 0.2)
        lhs, n_evals, ref, tolerance, converged = res.value, res.n_evals, abs(rhs), tol, res.converged
    inputs = {"p": list(p_orders), "q": list(q_orders), "x0": float(x0)}
    return CheckReport.within(
        "parseval-identity", inputs, abs(lhs - rhs), tolerance, ref, converged, lhs, rhs, n_evals
    )


# ----------------------------------------------------------------------
# boundary integration


def sphere_surface(dim):
    """Surface measure of the unit sphere in R^dim."""
    return 2 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass
class BoundaryIntegrand:
    """A rotation-invariant integrand over the Siegel boundary, homogeneous of a declared degree.

    The boundary is parameterized by (w', t) in R^(4n) x R^3.  The integrand
    depends on w' only through 1 + |w'|^2 and is homogeneous of exactly
    ``degree`` jointly in (1 + |w'|^2, t), so the rule evaluates it at
    w' = 0 only: ``fn(t1, t2, t3)`` receives the vertical grid's axis
    columns, of shapes (n_t, 1, 1), (1, n_t, 1) and (1, 1, n_t), so a power
    of a coordinate is taken once per axis value; it returns shape
    (n_t, n_t, n_t), or (n_t, n_t, n_t, c) for a hypercomplex integrand.
    The integrand decays like (1 + |w'|^2 + |t|)^degree, and the engine
    refuses a degree at which that cannot be absolutely integrable.  Every
    axis uses the rational compactification of :meth:`PowerDecay.map`.
    """

    n: int
    fn: object
    degree: int

    def check_integrable(self):
        if -2 * self.degree <= 4 * self.n + 6:
            raise ValueError(
                "degree {} cannot be absolutely integrable over the boundary "
                "(needs < {})".format(self.degree, -(2 * self.n + 3))
            )


def _axis_rule(n, half_line=False):
    """Gauss nodes and weights on the half line or the line for one axis."""
    x, w = _gauss01(n) if half_line else _leggauss(n)
    r, jac = PowerDecay(1.0).map(x)
    return r, w * jac


def _t_grid(n_t):
    """The vertical tensor grid on R^3: axis nodes (n_t,) and point weights (n_t^3,) in C order."""
    t1, wt1 = _axis_rule(n_t)
    wt = wt1[:, None, None] * wt1[None, :, None] * wt1[None, None, :]
    return t1, wt.reshape(-1)


def _boundary_level_radial(integrand, n_r, n_t):
    """One level of n_r * n_t^3 rule points, the horizontal factor reduced to the radius.

    The vertical window grows like 1 + r^2, so ``fn`` runs once, at w' = 0,
    and each radial node weighs in by (1 + r^2)^(degree + 3): the degree from
    homogeneity, 3 from the grown window.  Returns (value, points evaluated).
    """
    n = integrand.n
    r, wr = _axis_rule(n_r, half_line=True)
    t1, wt = _t_grid(n_t)

    area = sphere_surface(4 * n)
    vals = integrand.fn(t1[:, None, None], t1[None, :, None], t1[None, None, :])
    vals = np.reshape(vals, (len(wt), -1))
    radial = np.sum(area * wr * r ** (4 * n - 1) * (1.0 + r * r) ** (integrand.degree + 3))
    return _finite(radial * (wt @ vals), len(wt))


def integrate_boundary(integrand, tol=1e-6, budget=2.0e7):
    """Radially reduced tensor-product integration over the Siegel boundary.

    The boundary is identified with R^(4n) x R^3 carrying Lebesgue measure;
    the integrand's rotational symmetry in w' collapses the horizontal factor
    to one radial dimension, and ``fn`` is evaluated at w' = 0 on the
    vertical grid's axis columns (:class:`BoundaryIntegrand`).  Starting from
    12 radial and 8^3 vertical nodes, refinement grows every axis by half
    while the cumulative count of rule points, n_r * n_t^3 per level, fits
    the budget; the result is deterministic for a fixed budget.  ``n_evals``
    counts the points evaluated, n_t^3 per level.  The value is the array of
    the integrand's components, one entry for a scalar integrand.  When the
    budget runs out before two levels agree, the result carries
    ``converged=False`` and the last level's value.  Raises
    :class:`~qszego.report.UsageError` when the budget cannot pay for two levels.
    """
    integrand.check_integrable()

    def sizes():
        a, b, spent = 12, 8, 0
        while spent + a * b**3 <= budget:
            yield a, b
            spent += a * b**3
            a, b = max(a + 1, int(a * 1.5)), max(b + 1, int(b * 1.5))

    result, levels = _refine(lambda a, b: _boundary_level_radial(integrand, a, b), sizes(), tol, 1e-300)
    if levels < 2:
        raise UsageError(f"budget {budget:g} too small for two refinement levels")
    return result
