"""Numerical integration engines and exact half-integer Gamma arithmetic.

Two integration paths cover the verification needs: an adaptive product
rule in spherical coordinates for integrals over R^3, and a tensor rule over
the Siegel boundary, reduced to one radial horizontal dimension for
integrands that are rotation invariant in the horizontal variables.  Both
place their Gauss nodes through the same coordinate maps,
:meth:`ExpDecay.map` and :meth:`PowerDecay.map`, refine through the same
loop, and take integrands that return one value or one row of values per
point.  A level whose value is not finite raises :class:`FloatingPointError`.

The Parseval check takes its right side, and with it the parity rule that
decides when both sides vanish, from :func:`exponential_moment_closed_form`.

Gamma values at positive half integers are exact: they are rational
multiples of sqrt(pi)^k, carried by :class:`SqrtPiRational` so that moment
identities and coefficient systems can be checked with no floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .kernel import newton_derivative
from .polyfrac import eval_fractions
from .report import CheckReport


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

    def __neg__(self):
        return SqrtPiRational(-self.coef, self.pi_half)

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

    def __sub__(self, other):
        return self + (-other)

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


def exponential_moment_closed_form(a, l0, l1, l2, l3):
    """Closed form of int (x1^2+x2^2+x3^2)^(l0/2) x1^l1 x2^l2 x3^l3 e^(-a rho) dx.

    Vanishes unless l1, l2, l3 are all even; otherwise equals
    2 a^(-l-3) Gamma(l+3) Gamma(k1+1/2) Gamma(k2+1/2) Gamma(k3+1/2)
    / Gamma(k1+k2+k3+3/2) with l = l0+l1+l2+l3 and li = 2 ki.  ``l0`` may be
    as small as -2 (the radial factor stays integrable); ``a`` must be
    positive and exactly representable (int, Fraction, or float).
    """
    if a <= 0:
        raise ValueError("decay rate a must be positive")
    if min(l1, l2, l3) < 0:
        raise ValueError("axis exponents must be nonnegative")
    if l0 < -2:
        raise ValueError("radial exponent below -2 is not integrable")
    if (l1 % 2) or (l2 % 2) or (l3 % 2):
        return SqrtPiRational.zero()
    l = l0 + l1 + l2 + l3
    k1, k2, k3 = l1 // 2, l2 // 2, l3 // 2
    num = gamma_half(2 * (l + 3)) * gamma_half(2 * k1 + 1) * gamma_half(2 * k2 + 1) * gamma_half(2 * k3 + 1)
    return (num / gamma_half(2 * (k1 + k2 + k3) + 3)) * 2 * (Fraction(a) ** (-(l + 3)))


def fourier_newton(x0, rho):
    """Radial Fourier profile (pi / rho) exp(-2 pi x0 rho) of the Newton slice."""
    if x0 <= 0 or rho <= 0:
        raise ValueError("x0 and rho must be positive")
    return math.pi / rho * math.exp(-2.0 * math.pi * x0 * rho)


# ----------------------------------------------------------------------
# quadrature engines


@dataclass
class QuadratureResult:
    value: object
    error_estimate: float
    n_evals: int
    converged: bool = True


class QuadratureConvergenceError(RuntimeError):
    """Raised when refinement stalls; carries the best result obtained."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


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


def _columns(vals):
    """Integrand output as a (points, components) float array."""
    vals = np.asarray(vals, dtype=float)
    return vals[:, None] if vals.ndim == 1 else vals


def _finite(value, evals):
    """A level's (value, evals); a non-finite value raises FloatingPointError."""
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"quadrature level of {evals} points produced a non-finite value")
    return value, evals


def _sphere_level(f, decay, nr, nc, nphi):
    """One tensor level of the spherical product rule; returns (value, evals).

    ``f`` returns one value per point, or one row of values per point; the
    value is a float for one column and an array of one entry per column
    otherwise.
    """
    u, wu = _gauss01(nr)
    r, jac = decay.map(u)
    c, wc = _leggauss(nc)
    phi = (np.arange(nphi) + 0.5) * (2.0 * math.pi / nphi)
    wphi = 2.0 * math.pi / nphi

    s = np.sqrt(1.0 - c**2)
    cphi, sphi = np.cos(phi), np.sin(phi)

    total = 0.0
    for i in range(nr):
        ri = r[i]
        x1 = np.broadcast_to((ri * c)[:, None], (nc, nphi))
        x2 = ri * s[:, None] * cphi[None, :]
        x3 = ri * s[:, None] * sphi[None, :]
        pts = np.stack([x1, x2, x3], axis=-1).reshape(-1, 3)
        vals = np.ascontiguousarray(_columns(f(pts)).T).reshape(-1, nc, nphi)
        angular = np.array([np.sum(v * wc[:, None]) * wphi for v in vals])
        total = total + wu[i] * jac[i] * ri * ri * angular
    return _finite(float(total[0]) if len(total) == 1 else total, nr * nc * nphi)


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


def integrate_r3(f, decay_hint, tol=1e-8, abs_tol=0.0, max_refinements=4):
    """Adaptive spherical product rule over R^3.

    ``f`` is vectorized over points of shape (N, 3) and must be absolutely
    integrable with the declared radial decay.  Starting from 16 x 12 x 12
    nodes, refinement doubles the radial rule and grows the angular rules
    until successive levels agree to the requested tolerance.  Raises
    :class:`QuadratureConvergenceError` (carrying the best value) when the
    budget of refinements is exhausted.
    """
    sizes = [(16 * 2**k, min(12 * 2**k, 48), min(12 * 2**k, 48)) for k in range(max_refinements + 1)]
    result, _ = _refine(lambda *size: _sphere_level(f, decay_hint, *size), sizes, tol, abs_tol)
    if result.converged:
        return result
    raise QuadratureConvergenceError(
        f"spherical rule did not reach tol={tol:g} (best error {result.error_estimate:g})", result
    )


# ----------------------------------------------------------------------
# verification of the derivative-product / exponential-moment identity


def parseval_identity_check(p_orders, q_orders, x0):
    """Check the Parseval identity between two Newton-derivative products.

    The left side integrates the product of two mixed partials of the Newton
    potential over R^3 at fixed x0 > 0 by quadrature; the right side is the
    exact exponential-moment value the Fourier transform produces, matched to
    relative 1e-6.  When the exact right side vanishes (a paired axis order
    is odd) the left side is tested against 1e-10 times the integral of the
    absolute product, both taken from one evaluation of the product.
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
    # moment at rate 4 pi x0, whose pi^(-l-3) joins the ledger symbolically;
    # the moment vanishes exactly when a paired axis order is odd
    total_l = sum(l) - 2
    sign = (-1) ** (p_orders[0] + gamma + (l[1] + l[2] + l[3]) // 2)
    ledger = SqrtPiRational(sign * Fraction(2) ** (alpha + gamma), 2 * (alpha + gamma + 2) - 2 * (total_l + 3))
    rhs_exact = ledger * exponential_moment_closed_form(4 * Fraction(x0), l[0] - 2, l[1], l[2], l[3])
    rhs = rhs_exact.to_float()

    # one evaluation of both factors shares |x|^2 and the powers of x_i
    factors = (newton_derivative(p_orders), newton_derivative(q_orders))

    def product(pts3):
        pts4 = np.concatenate([np.full((len(pts3), 1), float(x0)), pts3], axis=1)
        vals = eval_fractions(factors, pts4)
        return vals[:, 0] * vals[:, 1]

    def signed_and_absolute(pts3):
        vals = product(pts3)
        return np.stack([vals, np.abs(vals)], axis=1)

    decay = PowerDecay(scale=max(1.0, 2.0 * float(x0)))
    if rhs_exact.is_zero():
        (lhs, scale), n_evals = _sphere_level(signed_and_absolute, decay, 64, 24, 24)
        ref, tolerance = max(scale, 1e-300), zero_tol
    else:
        res = integrate_r3(product, decay, tol=tol * 0.2, abs_tol=abs(rhs) * tol * 0.2)
        lhs, n_evals, ref, tolerance = res.value, res.n_evals, abs(rhs), tol
    deviation = abs(lhs - rhs)
    return CheckReport(
        name="parseval-identity",
        inputs={"p": list(p_orders), "q": list(q_orders), "x0": float(x0)},
        lhs=lhs,
        rhs=rhs,
        abs_deviation=deviation,
        rel_deviation=deviation / ref,
        tolerance=tolerance,
        passed=deviation <= tolerance * ref,
        n_evals=n_evals,
    )


# ----------------------------------------------------------------------
# boundary integration


def sphere_surface(dim):
    """Surface measure of the unit sphere in R^dim."""
    return 2 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass
class BoundaryIntegrand:
    """A rotation-invariant integrand over the Siegel boundary.

    The boundary is parameterized by (w', t) in R^(4n) x R^3.  ``fn(r, t)``
    receives the horizontal radius r = |w'| and returns one value per point,
    or one row of components per point for a hypercomplex integrand.
    ``decay_power`` declares |F| <= C (1 + |w'|^2 + |t|)^(-decay_power); the
    engine refuses integrands whose declared decay cannot be absolutely
    integrable.  Every axis uses the rational compactification of
    :meth:`PowerDecay.map`; with ``t_scale_with_r`` the vertical window grows
    like 1 + r^2, matching the parabolic geometry of kernel integrands.
    """

    n: int
    fn: object
    decay_power: float = 0.0
    t_scale_with_r: bool = False

    def check_integrable(self):
        if 2.0 * self.decay_power <= 4 * self.n + 6:
            raise ValueError(
                "declared decay power {:g} cannot be absolutely integrable over "
                "the boundary (needs > {:g})".format(self.decay_power, 2 * self.n + 3)
            )


class BudgetTooSmallError(ValueError):
    """The evaluation budget cannot pay for the two levels a convergence test needs."""


def _axis_rule(n, half_line=False):
    """Gauss nodes and weights on the half line or the line for one axis."""
    x, w = _gauss01(n) if half_line else _leggauss(n)
    r, jac = PowerDecay(1.0).map(x)
    return r, w * jac


def _t_grid(n_t):
    """The vertical tensor grid on R^3: points (n_t^3, 3) and weights."""
    t1, wt1 = _axis_rule(n_t)
    tt = np.stack(np.meshgrid(t1, t1, t1, indexing="ij"), axis=-1).reshape(-1, 3)
    wt = wt1[:, None, None] * wt1[None, :, None] * wt1[None, None, :]
    return tt, wt.reshape(-1)


def _boundary_level_radial(integrand, n_r, n_t):
    """One tensor level with the horizontal factor reduced to the radius."""
    n = integrand.n
    r, wr = _axis_rule(n_r, half_line=True)
    tt, wt = _t_grid(n_t)

    area = sphere_surface(4 * n)
    out = 0.0
    for i in range(n_r):
        if integrand.t_scale_with_r:
            grow = 1.0 + r[i] ** 2
            tti = tt * grow
            wti = wt * grow**3
        else:
            tti, wti = tt, wt
        vals = _columns(integrand.fn(np.full(len(tt), r[i]), tti))
        weight = area * wr[i] * r[i] ** (4 * n - 1)
        out = out + weight * (wti @ vals)
    return _finite(out, n_r * len(tt))


def _boundary_level_full(integrand, n_w, n_t):
    """One full tensor level over R^(4n) x R^3, with ``fn(w, t)``.

    The reference the radial reduction is checked against: ``fn`` receives
    the whole horizontal vector w' instead of its length.
    """
    chunk = 4096
    dim = 4 * integrand.n
    w1, ww1 = _axis_rule(n_w)
    tt, wt = _t_grid(n_t)

    w_grid = np.stack(np.meshgrid(*[w1] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    w_weights = np.stack(np.meshgrid(*[ww1] * dim, indexing="ij"), axis=-1).reshape(-1, dim).prod(axis=1)

    out = 0.0
    evals = 0
    for s in range(0, len(w_grid), chunk):
        wg = w_grid[s : s + chunk]
        wwg = w_weights[s : s + chunk]
        big_w = np.repeat(wg, len(tt), axis=0)
        big_t = np.tile(tt, (len(wg), 1))
        vals = _columns(integrand.fn(big_w, big_t))
        vals = vals.reshape(len(wg), len(tt), vals.shape[-1])
        out = out + np.einsum("i,j,ijk->k", wwg, wt, vals)
        evals += len(wg) * len(tt)
    return _finite(out, evals)


def integrate_boundary(integrand, tol=1e-6, budget=2.0e7):
    """Radially reduced tensor-product integration over the Siegel boundary.

    The boundary is identified with R^(4n) x R^3 carrying Lebesgue measure;
    the integrand's rotational symmetry in w' collapses the horizontal factor
    to one radial dimension.  Starting from 12 radial and 8^3 vertical nodes,
    refinement grows every axis by half while the cumulative evaluation count
    fits the budget; the result is deterministic for a fixed budget.  A
    scalar integrand yields a float, a hypercomplex one its component array.
    Raises :class:`BudgetTooSmallError` when the budget cannot pay for two
    levels.
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
        raise BudgetTooSmallError(f"budget {budget:g} too small for two refinement levels")
    if len(result.value) == 1:
        result.value = float(result.value[0])
    if result.converged:
        return result
    raise QuadratureConvergenceError(
        f"budget {budget:g} exhausted before reaching tol={tol:g} (error {result.error_estimate:g})", result
    )
