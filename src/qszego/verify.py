"""End-to-end verification of the kernel identities.

Contains the Hardy-space test-function family (four mixed partials of the
Newton potential combined along the imaginary units), its exact Gamma closed
form, the reproducing-property check, the coefficient linear system with its
solved coefficients, the Stein-Weiss / composed-analyticity equivalences,
subharmonicity of |f|^p, and the projection-kernel decay estimates.  The
last two differentiate exactly, through the symbolic partials of f and of
the Szego density.  Each check returns a :class:`CheckReport`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import group_mul_columns, homogeneous_dim, translate_columns
from .hypercomplex import _PRODUCTS, Hypercomplex, conj, left_mult_matrix, mul_arrays
from .kernel import KernelOrder, newton_derivative, szego_density
from .polyfrac import HyperFrac, RadialFraction, RatPoly, dirac_from_partials, eval_fractions
from .quadrature import (
    BoundaryIntegrand,
    SqrtPiRational,
    gamma_half,
    integrate_boundary,
    sphere_moment,
)
from .report import CheckReport, UsageError


# ----------------------------------------------------------------------
# seeded draws: every random exact input of the checks and suites is drawn
# here, on the stream of ``random.Random.randint``


def _randint(rng, low, high):
    """One integer drawn as ``rng.randint(low, high)`` draws it, at a
    fraction of its cost: rejection sampling on ``getrandbits``.  An empty
    range (``high < low``) raises ``ValueError`` before any draw, as
    ``randint`` does."""
    n = high - low + 1
    if n < 1:
        raise ValueError(f"empty range for _randint({low}, {high})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return low + r


def _randints(rng, low, high, count):
    """``count`` integers as an int64 array, drawn as ``count`` calls of
    :func:`_randint` draw them, and leaving ``rng`` in the same state.

    For k <= 32, ``getrandbits(k)`` is one 32-bit Mersenne word shifted right
    by 32 - k, and ``getrandbits(32 * m)`` is m such words, the first the
    least significant.  So m words, shifted, give the candidates of the
    scalar loop in order; the ones below the range size are its draws.  Each
    draw takes at least one word, so taking one word per missing draw never
    takes a word past the last draw.  An empty range raises ``ValueError``
    before any draw."""
    n = high - low + 1
    if n < 1:
        raise ValueError(f"empty range for _randints({low}, {high})")
    k = n.bit_length()
    if k > 32:
        raise ValueError(f"range of _randints({low}, {high}) wider than 2**32 values")
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        need = count - done
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), "<u4")
        kept = words >> (32 - k)
        kept = kept[kept < n]
        out[done : done + len(kept)] = kept
        done += len(kept)
    return out + low


def _rand_exact(rng, dim, span=9):
    """Components drawn as ``rng.randint(-span, span)`` draws them."""
    return Hypercomplex([_randint(rng, -span, span) for _ in range(dim)])


def _rand_fraction(rng, span, den):
    """A rational with numerator in [-span, span] and denominator in [1, den],
    the numerator drawn first."""
    return Fraction(_randint(rng, -span, span), _randint(rng, 1, den))


def _rand_dilated(rng, span, den, scale):
    """``scale`` times the rational that ``_rand_fraction(rng, span, den)``
    draws, as an int: ``scale`` is a multiple of every denominator up to ``den``."""
    return _randint(rng, -span, span) * (scale // _randint(rng, 1, den))


# ----------------------------------------------------------------------
# samples as integer columns, one row per sample


def _element_columns(draws, n, dim):
    """The horizontal part and t (or vertical) columns of the elements (or
    points) whose draws are the rows of ``draws``: n * dim components, then the rest."""
    omega = tuple(tuple(draws[:, i : i + dim].T) for i in range(0, n * dim, dim))
    return omega, tuple(draws[:, n * dim :].T)


def _differ(lhs, rhs):
    """Per row: whether any component of ``lhs`` differs from that of ``rhs``;
    components broadcast, so a scalar stands for a constant column."""
    return np.any(np.broadcast_arrays(*(a != b for a, b in zip(lhs, rhs))), axis=0)


def _elements_differ(x, y):
    """Per row: whether the group elements (or points) ``x`` and ``y`` differ in any component."""
    return _differ(*([c for w in omega for c in w] + list(t) for omega, t in (x, y)))


# ----------------------------------------------------------------------
# the test-function family


def _multi_indices(max_total):
    """Every 4-tuple of nonnegative integers with sum <= ``max_total``, in lexicographic order."""
    return [t for t in itertools.product(range(max_total + 1), repeat=4) if sum(t) <= max_total]


@dataclass(frozen=True)
class TestFunctionSpec:
    """Derivative orders (t0, t1, t2, t3) of a Hardy-space test function."""

    __test__ = False  # not a pytest class

    n: int
    t: tuple

    def __post_init__(self):
        t = tuple(int(v) for v in self.t)
        if len(t) != 4 or any(v < 0 for v in t):
            raise ValueError("t must be four nonnegative integers")
        object.__setattr__(self, "t", t)
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def order(self):
        """Total derivative order (the lambda of the family)."""
        return sum(self.t)

    def in_hardy_range(self):
        """Membership condition order > (2n - 3) / 2."""
        return 2 * self.order > 2 * self.n - 3

    def closed_form_parity(self):
        """True when t = (t0, even, even, odd), the solvable pattern."""
        return self.t[1] % 2 == 0 and self.t[2] % 2 == 0 and self.t[3] % 2 == 1


@lru_cache(maxsize=None)
def hardy_test_function_components(t):
    """F_t = conj grad(d^t N), N = 1/|x|^2, as a quaternionic HyperFrac: the
    conjugate of the four Newton derivatives d^(t + e_i) N."""
    return HyperFrac(conj([newton_derivative(t[:i] + (t[i] + 1,) + t[i + 1 :]) for i in range(4)]))


# nu = 1 + q_{n+1} at the base point (0, 1), where the checks read the test function
_BASE_NU = (2, 0, 0, 0)


def hardy_test_function(spec, point):
    """Evaluate the test function at a Siegel point; depends only on q_{n+1}.

    The value is the exact component vector of the derivative combination
    taken at nu = 1 + q_{n+1}; the point must be exact.
    """
    if point.alg_dim != 4:
        raise ValueError("test functions are quaternionic")
    nu = Hypercomplex.from_real(4, 1) + point.vertical
    if nu.is_zero():
        raise ZeroDivisionError("singular point: nu = 1 + q_{n+1} vanished")
    return hardy_test_function_components(spec.t).eval(nu.comps)


def hardy_test_function_closed_form(spec):
    """Exact Gamma-product value of the test function at (0, 1).

    Requires the parity pattern t = (t0, 2 q1, 2 q2, 2 q3 + 1).  The value is
    purely along e3: (-1)^(t0+q1+q2+q3) 2^(-lambda-5) pi^(-1) Gamma(lambda+3)
    times the sphere moment of (t1, t2, t3 + 1), lambda = |t|, and the powers
    of pi cancel, leaving a rational number.
    """
    if not spec.closed_form_parity():
        raise ValueError("closed form needs t = (t0, even, even, odd)")
    t0, t1, t2, t3 = spec.t
    lam = spec.order
    sign = (-1) ** (t0 + (t1 + t2 + t3) // 2)
    value = (
        SqrtPiRational(Fraction(sign, 2 ** (lam + 5)), -2)
        * gamma_half(2 * (lam + 3))
        * sphere_moment((t1, t2, t3 + 1))
    )
    if value.pi_half != 0:
        raise AssertionError("pi powers failed to cancel in the closed form")
    return Hypercomplex((0, 0, 0, value.coef))


def closed_form_agreement_check():
    """Exact equality of the derivative route and the Gamma closed form.

    Runs every parity-valid spec with total order <= 6, comparing exact
    rationals at the base point (0, 1).
    """
    max_order = 6
    checked = 0
    worst = None
    for t in _multi_indices(max_order):
        spec = TestFunctionSpec(1, t)
        if not spec.closed_form_parity():
            continue
        direct = hardy_test_function_components(t).eval(_BASE_NU)
        closed = hardy_test_function_closed_form(spec)
        checked += 1
        if direct != closed:
            worst = {"t": t, "direct": direct.to_text(), "closed": closed.to_text()}
    return CheckReport.from_flag(
        name="test-function-closed-form",
        inputs={"max_order": max_order, "specs_checked": checked},
        passed=worst is None and checked > 0,
        lhs="derivative route",
        rhs="Gamma closed form" if worst is None else worst,
        n_evals=checked,
    )


# ----------------------------------------------------------------------
# the reproducing property


def reproducing_check(spec, tol=1e-3, budget=2.0e7):
    """Compare the test function at (0,1) with its boundary reproduction.

    The boundary integral of S((0,1), w) F(w) is taken over the Heisenberg
    parameterization with the quaternion product in exactly that order; the
    integrand is rotation invariant in w', so the horizontal factor reduces
    to a radial one.  The integrand is homogeneous in (1 + |w'|^2, t) of
    degree D = deg S + deg F, both read off the exact fractions by
    ``HyperFrac.degree``, so the boundary rule evaluates it once per level,
    at w' = 0.
    A boundary rule that runs out of budget before it converges yields a
    failing report carrying its best value.  A spec outside the Hardy
    membership range raises ``UsageError``.  A test function that vanishes
    at (0,1) raises ``ValueError`` before any integration, since the
    relative deviation and the relative refinement both need a nonzero
    value; so does a fraction without one degree.
    """
    if not spec.in_hardy_range():
        raise UsageError("spec outside the Hardy membership range")
    n = spec.n
    test_function = hardy_test_function_components(spec.t)
    direct = test_function.eval(_BASE_NU)
    if direct.is_zero():
        raise ValueError("test function vanishes at (0,1): no relative deviation to test")
    direct_f = np.array([float(c) for c in direct.comps])
    density = szego_density(KernelOrder(n))

    def fn(t1, t2, t3):
        # the t axes broadcast to the grid, so each power is taken once per
        # axis value; 1.0 is 1 + |w'|^2 at w' = 0 (see BoundaryIntegrand)
        s_vals = eval_fractions(density.body.comps, (1.0, -t1, -t2, -t3)) * density.prefactor()
        f_vals = eval_fractions(test_function.comps, (1.0, t1, t2, t3))
        return mul_arrays(s_vals, f_vals, 4)

    degrees = (density.body.degree(), test_function.degree())
    if None in degrees:
        raise ValueError(f"fractions are not homogeneous of one degree: {degrees}")
    integrand = BoundaryIntegrand(n=n, fn=fn, degree=sum(degrees))
    res = integrate_boundary(integrand, tol=tol / 3.0, budget=budget)
    integral = np.asarray(res.value)
    deviation = float(np.max(np.abs(integral - direct_f)))
    scale = float(np.max(np.abs(direct_f)))
    inputs = {"n": n, "t": list(spec.t), "budget": budget}
    return CheckReport.within(
        "reproducing-property", inputs, deviation, tol, scale, res.converged,
        integral.tolist(), direct_f.tolist(), res.n_evals,
    )


# ----------------------------------------------------------------------
# the coefficient linear system


def _solved_coefficient(n, s0, s1, s2):
    """The solved coefficient vector: only the (2n,0,0) slot is nonzero."""
    zero = SqrtPiRational.zero()
    if (s0, s1, s2) == (2 * n, 0, 0):
        c0 = SqrtPiRational(Fraction(-(2 ** (2 * n - 2))), -2 * (2 * n + 2))
        return (c0, zero, zero, zero)
    return (zero, zero, zero, zero)


def coefficient_system_check(n):
    """Substitute the solved coefficients into the five equation families.

    Every family is evaluated with exact Gamma arithmetic over the grid
    (q1, q2, q3) in {0, 1, 2}^3: the even-index family must reproduce the
    Gamma ratio on the right-hand side and all other families must vanish
    identically.  A family is a shape x0^(2 p0 + e0) x1^(2 p1 + e1)
    x2^(2 p2 + e2) of total degree 2n; its term at p carries the sphere
    moment of (2 (p1 + q1 + e1), 2 (p2 + q2 + e2), 2 q3 + 2), and the right
    side the moment of (2 q1, 2 q2, 2 q3 + 2).  Both sides are so multiplied
    by the common factor 2 Gamma(q3 + 3/2), which leaves every equality as it
    was.
    """
    q_range = 3
    if not 1 <= n <= 6:
        raise ValueError("grid check supported for 1 <= n <= 6")
    # the even family and the three odd families by their exponent offsets
    # (e0, e1, e2), so p0 + p1 + p2 = n - (e0 + e1 + e2) / 2; every term is
    # signed (-1)^p0, and the even family's c0 equation, whose terms carry
    # (-1)^(n+p0+1), is multiplied through by (-1)^(n+1)
    families = (
        ("even", (0, 0, 0)),
        ("odd-x0x1", (1, 1, 0)),
        ("odd-x0x2", (1, 0, 1)),
        ("odd-x1x2", (0, 1, 1)),
    )
    c0_scale = SqrtPiRational(Fraction((-1) ** (n + 1) * 2 ** (2 * n - 2)), -2 * (2 * n + 2))
    zero = SqrtPiRational.zero()
    failures = []
    for q1, q2, q3 in itertools.product(range(q_range), repeat=3):
        rhs = c0_scale * sphere_moment((2 * q1, 2 * q2, 2 * q3 + 2))
        for name, (e0, e1, e2) in families:
            total = n - (e0 + e1 + e2) // 2
            sums = [zero] * 4
            for p0 in range(total + 1):
                for p1 in range(total - p0 + 1):
                    p2 = total - p0 - p1
                    kern = sphere_moment((2 * (p1 + q1 + e1), 2 * (p2 + q2 + e2), 2 * q3 + 2)) * (-1) ** p0
                    c = _solved_coefficient(n, 2 * p0 + e0, 2 * p1 + e1, 2 * p2 + e2)
                    sums = [s + kern * ci for s, ci in zip(sums, c)]
            wants = [rhs if name == "even" else zero, zero, zero, zero]
            for i in range(4):
                if sums[i] != wants[i]:
                    failures.append({"family": f"{name}-c{i}", "q": (q1, q2, q3)})
    return CheckReport.from_flag(
        name="coefficient-system",
        inputs={"n": n, "grid": f"{q_range}^3", "equations_checked": q_range**3 * 5},
        passed=not failures,
        lhs="exact family sums",
        rhs=failures if failures else "exact match",
        n_evals=q_range**3,
    )


# ----------------------------------------------------------------------
# Stein-Weiss systems and composed analyticity


def stein_weiss_check(f):
    """Divergence-free plus symmetric-Jacobian conditions for conj(f).

    Returns (ok, violations); violations name the failing condition.
    """
    if not f.is_polynomial():
        raise ValueError("Stein-Weiss check needs polynomial components")
    d = f.dim
    if f.alg_dim != d:
        raise ValueError("component count must match variable count")
    mu = conj(f.comps)
    violations = []
    div = RadialFraction.zero(d)
    for i in range(d):
        div = div + mu[i].deriv(i)
    if not div.is_zero():
        violations.append("divergence")
    for j in range(d):
        for k in range(j + 1, d):
            if mu[j].deriv(k) != mu[k].deriv(j):
                violations.append(f"symmetry({j},{k})")
    return (not violations, violations)


def _random_rational_hypercomplex(rng, dim):
    return Hypercomplex([_rand_fraction(rng, 3, 3) for _ in range(dim)])


def composed_analyticity_check(f, n_random=20, seed=0):
    """Universal left analyticity of x -> f(a x) versus the CR system.

    The first verdict substitutes every basis element and ``n_random``
    random rational octonions for a and tests Dirac annihilation exactly;
    the second verdict checks the generalized Cauchy-Riemann system, which
    is the Stein-Weiss system of conj(f) (:func:`stein_weiss_check`).  The
    two must agree.
    """
    if not f.is_polynomial():
        raise ValueError("check needs polynomial components")
    if f.alg_dim != 8 or f.dim != 8:
        raise ValueError("octonionic functions of eight variables expected")
    rng = random.Random(seed)
    alphas = [Hypercomplex.basis(8, i) for i in range(8)]
    alphas += [_random_rational_hypercomplex(rng, 8) for _ in range(n_random)]
    witness = None
    universal = True
    for a in alphas:
        if a.is_zero():
            continue
        g = f.substitute_linear(left_mult_matrix(a))
        if not g.dirac("left").is_zero():
            universal = False
            witness = a.to_text()
            break

    cr, violations = stein_weiss_check(f)
    return CheckReport.from_flag(
        name="composed-analyticity",
        inputs={
            "n_alphas": len(alphas),
            "universal_alpha": universal,
            "cr_system": cr,
            "alpha_witness": witness,
            "cr_witness": violations,
        },
        passed=universal == cr,
        lhs=universal,
        rhs=cr,
        n_evals=len(alphas),
    )


def slice_regularity_check(big_f, alpha):
    """Left regularity of q -> F(q, alpha q) for a bi-variable regular F.

    ``big_f`` is a quaternion-valued polynomial in eight real variables
    (the first four are q1, the last four q2) that must be left regular in
    each variable; raises when the precondition fails.
    """
    if not big_f.is_polynomial():
        raise ValueError("polynomial input required")
    if big_f.alg_dim != 4 or big_f.dim != 8:
        raise ValueError("expected 4 components over 8 variables")
    if alpha.dim != 4:
        raise ValueError("alpha must be a quaternion")
    if not big_f.dirac("left", var_indices=(0, 1, 2, 3)).is_zero():
        raise ValueError("input is not left regular in the first variable")
    if not big_f.dirac("left", var_indices=(4, 5, 6, 7)).is_zero():
        raise ValueError("input is not left regular in the second variable")
    lmat = left_mult_matrix(alpha)
    rows = []
    for i in range(4):
        rows.append(tuple(Fraction(int(i == j)) for j in range(4)))
    for i in range(4):
        rows.append(tuple(lmat[i]))
    g = big_f.substitute_linear(rows)
    return g.dirac("left").is_zero()


# ----------------------------------------------------------------------
# subharmonicity of |f|^p


def subharmonicity_check(f, p, n_points=1000, seed=0):
    """Subharmonicity of |f|^p from the exact partials of f.

    Df = 0 and conj(D) D = Laplacian make every component of f harmonic, so
    Lap |f|^p = p |f|^(p-2) sum_i |d_i f|^2 R with
    R = 1 + (p - 2) sum_i <f, d_i f>^2 / (|f|^2 sum_i |d_i f|^2).
    R is taken at ``n_points`` centres drawn uniformly from [-1.5, 1.5]^d and
    must be at least -1e-4.  Centres where f or its gradient vanishes leave
    R undefined; they are skipped and counted.
    """
    box, tol = 1.5, 1e-4
    if p < 6.0 / 7.0:
        raise ValueError("exponent below the subharmonicity threshold")
    if not f.is_polynomial():
        raise ValueError("polynomial input required")
    d = f.dim
    partials = [f.deriv(i) for i in range(d)]
    if d != f.alg_dim or not dirac_from_partials(partials).is_zero():
        raise ValueError("input is not left analytic")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-box, box, size=(n_points, d))

    fracs = f.comps + tuple(c for g in partials for c in g.comps)
    # point-major, as einsum and the sums of 8 or more entries below round by memory layout
    out = np.ascontiguousarray(eval_fractions(fracs, centers.T)).reshape(n_points, d + 1, f.alg_dim)
    vals, grads = out[:, 0], out[:, 1:]  # (N, alg) and (N, d, alg)
    mod_sq = np.sum(vals * vals, axis=1)
    grad_sq = np.sum(grads * grads, axis=(1, 2))
    inner_sq = np.sum(np.einsum("na,nia->ni", vals, grads) ** 2, axis=1)
    defined = (mod_sq > 0) & (grad_sq > 0)
    r = 1 + (p - 2) * inner_sq[defined] / (mod_sq[defined] * grad_sq[defined])
    # with random centres, none is defined only when f is constant; |f|^p is then harmonic
    worst = float(np.min(r)) if r.size else 0.0
    # not ``within``: max(0.0, -nan) is 0.0, which would pass a NaN minimum
    return CheckReport(
        name="subharmonicity",
        inputs={"p": p, "n_points": n_points, "skipped_zeros": int(np.sum(~defined))},
        lhs=worst,
        rhs=0.0,
        abs_deviation=max(0.0, -worst),
        rel_deviation=max(0.0, -worst),
        tolerance=tol,
        passed=worst >= -tol,
        n_evals=int(n_points * (d + 1)),
    )


# ----------------------------------------------------------------------
# projection-kernel size estimates


def _sample_shell(rng, n, rho_lo, rho_hi, samples):
    """Elements with homogeneous length log-uniform in [rho_lo, rho_hi]."""
    y = rng.standard_normal((samples, 4 * n))
    tau = rng.standard_normal((samples, 3))
    rho0 = np.maximum(
        np.linalg.norm(y, axis=1), np.sqrt(np.max(np.abs(tau), axis=1))
    )
    target = np.exp(rng.uniform(math.log(rho_lo), math.log(rho_hi), samples))
    scale = target / rho0
    return y * scale[:, None], tau * scale[:, None] ** 2, target


def _kernel_abs(fracs, scale, y, tau):
    """|scale * f(|y|^2, tau)| for each f; f = the density body gives |K(y, tau)|."""
    vals = eval_fractions([c for f in fracs for c in f.comps], (np.sum(y * y, axis=1), *tau.T))
    vals = vals.reshape(len(y), len(fracs), -1) * scale
    return np.sqrt(np.sum(vals * vals, axis=-1)).T


def kernel_decay_check(n=1, samples=100_000, seed=0):
    """Scale invariance and empirical size estimates of the group kernel.

    Checks |K(delta o h)| = delta^-d |K(h)| to 1e-12, then compares the
    suprema of |K| rho^d, |dK/dy| rho^(d+1) and |dK/dt| rho^(d+2) over the
    sample shells 1 <= rho <= 10 and 10 <= rho <= 100; stability (ratio < 2)
    is the verdict.  The derivatives are exact: K(y, t) = s(|y|^2, t), so
    dK/dy_i = 2 y_i d_0 s and dK/dt_j = d_(j+1) s, with the partials of the
    density body s taken symbolically once.  The report's inputs are what
    the check is given (n, samples, the shells); ``lhs`` holds what it
    measures (the suprema, their ratios, the dilation deviation) and
    ``rhs`` the bounds the verdict compares them with.
    """
    order = KernelOrder(n)
    d = homogeneous_dim(n)
    rng = np.random.default_rng(seed)
    density = szego_density(order)
    body, scale = density.body, density.prefactor()
    fracs = [body] + [body.deriv(i) for i in range(4)]

    # exact dilation invariance on a modest sample
    y, tau, rho = _sample_shell(rng, n, 0.5, 5.0, 200)
    inv_ok = True
    worst_inv = 0.0
    for delta in (2.0, 3.0):
        lhs = _kernel_abs([body], scale, y * delta, tau * delta**2)[0]
        rhs = _kernel_abs([body], scale, y, tau)[0] * delta ** (-d)
        dev = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
        worst_inv = max(worst_inv, dev)
        inv_ok = inv_ok and dev <= 1e-12

    shells = [[1.0, 10.0], [10.0, 100.0]]
    sups = []
    for rho_lo, rho_hi in shells:
        y, tau, rho = _sample_shell(rng, n, rho_lo, rho_hi, samples)
        k, ds0, *ds_t = _kernel_abs(fracs, scale, y, tau)
        k_sup = float(np.max(k * rho**d))
        dy_sup = float(np.max(2 * np.max(np.abs(y), axis=1) * ds0 * rho ** (d + 1)))
        dt_sup = float(np.max(np.max(ds_t, axis=0) * rho ** (d + 2)))
        sups.append({"shell": [rho_lo, rho_hi], "K": k_sup, "dK_dy": dy_sup, "dK_dt": dt_sup})

    ratios = {
        key: max(sups[0][key], sups[1][key]) / min(sups[0][key], sups[1][key])
        for key in ("K", "dK_dy", "dK_dt")
    }
    stable = all(r < 2.0 for r in ratios.values())
    # not ``within``: the verdict is the strict ratio < 2 on every shell pair
    return CheckReport(
        name="kernel-decay",
        inputs={"n": n, "samples": samples, "shells": shells},
        lhs={"suprema": sups, "ratios": ratios, "dilation_dev": worst_inv},
        rhs={"ratios": 2.0, "dilation_dev": 1e-12},
        abs_deviation=max(ratios.values()) - 1.0,
        rel_deviation=max(ratios.values()) - 1.0,
        tolerance=1.0,
        passed=bool(stable and inv_ok),
        n_evals=2 * samples * len(fracs),
    )


# ----------------------------------------------------------------------
# geometry compatibility


def action_compatibility_check(seed=0):
    """Does each printed multiplication law make translation an action?

    Both sign conventions are applied to both groups on 40 random rational
    triples each; every verdict is reported.  (The two formulas are conjugate
    expressions of the same element, so all four verdicts agree.)

    It runs on int64 columns of the triples dilated by 6.  The dilation
    [delta omega, delta^2 t], (delta q', delta^2 v) is an automorphism of
    either law that commutes with translation (every t and vertical term has
    degree 2), so a triple composes exactly when its image does; the drawn
    denominators (at most 3) clear, and no intermediate exceeds about 3e4.
    """
    trials = 40
    rng = random.Random(seed)
    verdicts = {}
    for kind, dim, tn in (("quaternionic", 4, 3), ("octonionic", 8, 7)):
        # the largest denominator and the scale of each draw of one triple
        # dilated by 6: a and b as (6 omega, 36 t), then the point as (6 q', 36 v)
        slots = ([(3, 6)] * dim + [(2, 36)] * tn) * 2 + [(3, 6)] * dim + [(3, 36)] * dim
        ends = (0, dim + tn, 2 * (dim + tn), len(slots))

        def rand_draws():
            return [_rand_dilated(rng, 3, den, scale) for den, scale in slots]

        for convention in ("minus_conj_beta_alpha", "plus_conj_alpha_beta"):
            state = rng.getstate()
            draws = np.array([rand_draws() for _ in range(trials)], dtype=np.int64)
            a, b, point = (_element_columns(draws[:, i:j], 1, dim) for i, j in zip(ends, ends[1:]))
            composed = translate_columns(*a, *translate_columns(*b, *point))
            direct = translate_columns(*group_mul_columns(*a, *b, convention), *point)
            failing = _elements_differ(composed, direct)
            if np.any(failing):
                # the draws stop at the first failing triple
                rng.setstate(state)
                [rand_draws() for _ in range(int(np.argmax(failing)) + 1)]
            verdicts[f"{kind}:{convention}"] = not np.any(failing)
    printed = (
        verdicts["quaternionic:minus_conj_beta_alpha"]
        and verdicts["octonionic:plus_conj_alpha_beta"]
    )
    return CheckReport.from_flag(
        name="action-compatibility",
        inputs={"verdicts": verdicts, "trials": trials},
        passed=printed,
        lhs=verdicts,
        rhs="translation composes through the group product",
        n_evals=trials * 4,
    )


# ----------------------------------------------------------------------
# corpora


def _conjugate_gradient_system(h_poly):
    """conj of the gradient of a harmonic polynomial: f = d0 H - sum di H e_i."""
    return HyperFrac.from_polys(conj([h_poly.deriv(i) for i in range(h_poly.dim)]))


def _x(i):
    return RatPoly.variable(8, i)


def _dirac_null_asymmetric():
    """Dirac null but with an asymmetric Jacobian: fails the CR system."""
    x0, x1, x2 = _x(0), _x(1), _x(2)
    zero = RatPoly.zero(8)
    return HyperFrac.from_polys((zero, -x2, x1, RatPoly.const(8, -2) * x0) + (zero,) * 4)


def cr_corpus(seed=11):
    """Named octonionic polynomial functions with both verdict classes."""
    x = [_x(i) for i in range(8)]
    harmonics = [
        x[0] * x[1],
        x[0] * x[5],
        x[2] * x[3],
        x[1] * x[6],
        x[0] * x[0] - x[7] * x[7],
        x[0] * x[0] * x[0] - x[0] * x[1] * x[1] * 3,
        x[1] * x[2] * x[3],
        x[0] * (x[1] * x[1] - x[2] * x[2]),
        x[4] * x[5] * x[6],
        x[0] * x[3] * x[7],
    ]
    corpus = []
    for i, h in enumerate(harmonics):
        corpus.append((f"conj-gradient-{i}", _conjugate_gradient_system(h)))
    zero = RatPoly.zero(8)
    one = RatPoly.const(8, 1)
    corpus.append(("constant-1", HyperFrac.from_polys((one,) + (zero,) * 7)))
    corpus.append(("constant-e5", HyperFrac.from_polys((zero,) * 5 + (one,) + (zero,) * 2)))
    corpus.append(("dirac-null-asymmetric", _dirac_null_asymmetric()))
    corpus.append(
        (
            "identity-map",
            HyperFrac.from_polys(tuple(x[i] for i in range(8))),
        )
    )
    corpus.append(
        ("shifted-pair", HyperFrac.from_polys((x[1], x[0], zero, zero, zero, zero, zero, zero)))
    )
    rng = random.Random(seed)
    for j in range(8):
        polys = []
        for _ in range(8):
            terms = {}
            for _ in range(3):
                key = [0] * 8
                for _ in range(_randint(rng, 0, 3)):
                    key[_randint(rng, 0, 7)] += 1
                terms[tuple(key)] = terms.get(tuple(key), 0) + _randint(rng, -3, 3)
            polys.append(RatPoly(8, terms))
        corpus.append((f"random-{j}", HyperFrac.from_polys(tuple(polys))))
    return corpus


def o_analytic_corpus():
    """Left-analytic octonionic polynomials for the subharmonicity check."""
    x = [_x(i) for i in range(8)]
    zero = RatPoly.zero(8)
    funcs = [
        ("fueter-1", HyperFrac.from_polys((x[1], -x[0], zero, zero, zero, zero, zero, zero))),
        ("fueter-5", HyperFrac.from_polys((x[5], zero, zero, zero, zero, -x[0], zero, zero))),
        ("dirac-null-asymmetric", _dirac_null_asymmetric()),
        (
            "cubic-gradient",
            _conjugate_gradient_system(x[0] * x[0] * x[0] - x[0] * x[1] * x[1] * 3),
        ),
        ("quadratic-gradient", _conjugate_gradient_system(x[0] * x[1] + x[2] * x[5])),
    ]
    return funcs


def _fueter_variable(d, offset, i):
    """z_i = x_i - x_0 e_i for a quaternion block starting at ``offset``."""
    zero = RatPoly.zero(d)
    comps = [zero] * 4
    comps[0] = RatPoly.variable(d, offset + i)
    comps[i] = -RatPoly.variable(d, offset + 0)
    return HyperFrac.from_polys(tuple(comps))


def slice_regularity_corpus():
    """Bi-variable regular functions paired with substitution constants."""
    zero = RatPoly.zero(8)
    one = RatPoly.const(8, 1)
    const = HyperFrac.from_polys((one, zero, zero, zero))
    fueter_q2 = _fueter_variable(8, 4, 1)
    fueter_q1 = _fueter_variable(8, 0, 2)
    z2 = _fueter_variable(8, 4, 2)
    product = _PRODUCTS[4]
    sym = HyperFrac(product(fueter_q2.comps, z2.comps)) + HyperFrac(product(z2.comps, fueter_q2.comps))
    sym = sym.scale(Fraction(1, 2))
    mixed = fueter_q1 + fueter_q2.scale(3)
    cases = []
    for name, func in (
        ("constant", const),
        ("fueter-in-q2", fueter_q2),
        ("fueter-in-q1", fueter_q1),
        ("symmetrized-pair-q2", sym),
        ("mixed-linear", mixed),
    ):
        for alpha in (
            Hypercomplex.basis(4, 0),
            Hypercomplex.basis(4, 2),
            Hypercomplex((1, -2, Fraction(1, 2), 3)),
            Hypercomplex.zero(4),
        ):
            cases.append((name, func, alpha))
    return cases
