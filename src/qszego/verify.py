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

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import (
    GroupElement,
    SiegelPoint,
    group_mul_with_convention,
    homogeneous_dim,
    translate,
)
from .hypercomplex import Hypercomplex, left_mult_matrix, mul_arrays
from .kernel import KernelOrder, newton_derivative, szego_density
from .polyfrac import HyperFrac, RadialFraction, RatPoly, eval_fractions
from .quadrature import (
    BoundaryIntegrand,
    QuadratureConvergenceError,
    SqrtPiRational,
    gamma_half,
    integrate_boundary,
)
from .report import CheckReport


# ----------------------------------------------------------------------
# the test-function family


class OutsideHardyRangeError(ValueError):
    """The test function's order is outside the Hardy membership range for its n."""


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
    """The four Newton-derivative components as a quaternionic HyperFrac."""
    t0, t1, t2, t3 = t
    return HyperFrac(
        (
            newton_derivative((t0 + 1, t1, t2, t3)),
            -newton_derivative((t0, t1 + 1, t2, t3)),
            -newton_derivative((t0, t1, t2 + 1, t3)),
            -newton_derivative((t0, t1, t2, t3 + 1)),
        )
    )


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

    Requires the parity pattern t = (t0, 2 q1, 2 q2, 2 q3 + 1); the value is
    purely along e3 and the powers of pi cancel, leaving a rational number.
    """
    if not spec.closed_form_parity():
        raise ValueError("closed form needs t = (t0, even, even, odd)")
    t0 = spec.t[0]
    q1, q2, q3 = spec.t[1] // 2, spec.t[2] // 2, spec.t[3] // 2
    lam = spec.order
    sign = (-1) ** (t0 + q1 + q2 + q3)
    value = (
        SqrtPiRational(Fraction(sign, 2 ** (lam + 4)), -2)
        * gamma_half(2 * (lam + 3))
        * gamma_half(2 * q1 + 1)
        * gamma_half(2 * q2 + 1)
        * gamma_half(2 * q3 + 3)
        / gamma_half(2 * (q1 + q2 + q3) + 5)
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
    origin = SiegelPoint(
        (Hypercomplex.zero(4),), Hypercomplex.from_real(4, 1)
    )
    checked = 0
    worst = None
    for t0 in range(0, max_order):
        for q1 in range(0, (max_order - t0) // 2 + 1):
            for q2 in range(0, (max_order - t0 - 2 * q1) // 2 + 1):
                for q3 in range(0, (max_order - t0 - 2 * q1 - 2 * q2 - 1) // 2 + 1):
                    t = (t0, 2 * q1, 2 * q2, 2 * q3 + 1)
                    if sum(t) > max_order:
                        continue
                    spec = TestFunctionSpec(1, t)
                    direct = hardy_test_function(spec, origin)
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
    to a radial one.  A boundary rule that runs out of budget before it
    converges yields a failing report carrying its best value.  A test
    function that vanishes at (0,1) raises ``ValueError`` before any
    integration: the relative deviation and the relative refinement both
    need a nonzero value.
    """
    if not spec.in_hardy_range():
        raise OutsideHardyRangeError("spec outside the Hardy membership range")
    n = spec.n
    direct = hardy_test_function(
        spec, SiegelPoint(tuple(Hypercomplex.zero(4) for _ in range(n)), Hypercomplex.from_real(4, 1))
    )
    if direct.is_zero():
        raise ValueError("test function vanishes at (0,1): no relative deviation to test")
    direct_f = np.array([float(c) for c in direct.comps])
    density = szego_density(KernelOrder(n))
    comps = hardy_test_function_components(spec.t)

    def fn(r, t):
        base = 1.0 + r * r
        nu_s = np.stack([base, -t[:, 0], -t[:, 1], -t[:, 2]], axis=-1)
        nu_f = np.stack([base, t[:, 0], t[:, 1], t[:, 2]], axis=-1)
        s_vals = density.eval_array(nu_s)
        f_vals = comps.eval_array(nu_f)
        return mul_arrays(s_vals, f_vals, 4)

    decay = (2 * n + 3) + (spec.order + 3)
    integrand = BoundaryIntegrand(n=n, fn=fn, decay_power=decay, t_scale_with_r=True)
    try:
        res = integrate_boundary(integrand, tol=tol / 3.0, budget=budget)
    except QuadratureConvergenceError as exc:
        res = exc.result
    integral = np.asarray(res.value)
    deviation = float(np.max(np.abs(integral - direct_f)))
    scale = float(np.max(np.abs(direct_f)))
    return CheckReport(
        name="reproducing-property",
        inputs={"n": n, "t": list(spec.t), "budget": budget},
        lhs=integral.tolist(),
        rhs=direct_f.tolist(),
        abs_deviation=deviation,
        rel_deviation=deviation / scale,
        tolerance=tol,
        passed=res.converged and deviation <= tol * scale,
        n_evals=res.n_evals,
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
    identically.
    """
    q_range = 3
    if not 1 <= n <= 6:
        raise ValueError("grid check supported for 1 <= n <= 6")
    failures = []
    checked = 0
    for q1 in range(q_range):
        for q2 in range(q_range):
            for q3 in range(q_range):
                qsum = q1 + q2 + q3
                # family over even indices (2p0, 2p1, 2p2)
                sums = [SqrtPiRational.zero() for _ in range(4)]
                for p0 in range(n + 1):
                    for p1 in range(n - p0 + 1):
                        p2 = n - p0 - p1
                        kern = (
                            gamma_half(2 * (p1 + q1) + 1)
                            * gamma_half(2 * (p2 + q2) + 1)
                            / gamma_half(2 * (qsum + n - p0) + 5)
                        )
                        c = _solved_coefficient(n, 2 * p0, 2 * p1, 2 * p2)
                        sums[0] = sums[0] + kern * c[0] * ((-1) ** (n + p0 + 1))
                        for i in (1, 2, 3):
                            sums[i] = sums[i] + kern * c[i] * ((-1) ** p0)
                rhs = (
                    SqrtPiRational(Fraction(2 ** (2 * n - 2)), -2 * (2 * n + 2))
                    * gamma_half(2 * q1 + 1)
                    * gamma_half(2 * q2 + 1)
                    / gamma_half(2 * qsum + 5)
                )
                checked += 1
                if sums[0] != rhs:
                    failures.append({"family": "even-c0", "q": (q1, q2, q3)})
                for i in (1, 2, 3):
                    if not sums[i].is_zero():
                        failures.append({"family": f"even-c{i}", "q": (q1, q2, q3)})
                # the three odd-pattern families, all with vanishing coefficients
                patterns = (
                    ("odd-x0x1", lambda p0, p1, p2: (2 * p0 + 1, 2 * p1 + 1, 2 * p2), 1, 0, 5),
                    ("odd-x0x2", lambda p0, p1, p2: (2 * p0 + 1, 2 * p1, 2 * p2 + 1), 0, 1, 5),
                    ("odd-x1x2", lambda p0, p1, p2: (2 * p0, 2 * p1 + 1, 2 * p2 + 1), 1, 1, 7),
                )
                for name, slot, sh1, sh2, tail in patterns:
                    sums = [SqrtPiRational.zero() for _ in range(4)]
                    for p0 in range(n):
                        for p1 in range(n - 1 - p0 + 1):
                            p2 = n - 1 - p0 - p1
                            kern = (
                                gamma_half(2 * (p1 + q1) + 1 + 2 * sh1)
                                * gamma_half(2 * (p2 + q2) + 1 + 2 * sh2)
                                / gamma_half(2 * (qsum + n - p0) + tail)
                            )
                            c = _solved_coefficient(n, *slot(p0, p1, p2))
                            for i in range(4):
                                sums[i] = sums[i] + kern * c[i] * ((-1) ** p0)
                    for i in range(4):
                        if not sums[i].is_zero():
                            failures.append({"family": f"{name}-c{i}", "q": (q1, q2, q3)})
    return CheckReport.from_flag(
        name="coefficient-system",
        inputs={"n": n, "grid": f"{q_range}^3", "equations_checked": checked * 5},
        passed=not failures,
        lhs="exact family sums",
        rhs=failures if failures else "exact match",
        n_evals=checked,
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
    mu = [f.comps[0]] + [-c for c in f.comps[1:]]
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
    comps = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
    return Hypercomplex(comps)


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
    if alpha.dim != 4 or not alpha.exact:
        raise ValueError("alpha must be an exact quaternion")
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
    if not f.dirac("left").is_zero():
        raise ValueError("input is not left analytic")
    rng = np.random.default_rng(seed)
    d = f.dim
    centers = rng.uniform(-box, box, size=(n_points, d))

    fracs = f.comps + tuple(c for i in range(d) for c in f.deriv(i).comps)
    out = eval_fractions(fracs, centers).reshape(n_points, d + 1, f.alg_dim)
    vals, grads = out[:, 0], out[:, 1:]  # (N, alg) and (N, d, alg)
    mod_sq = np.sum(vals * vals, axis=1)
    grad_sq = np.sum(grads * grads, axis=(1, 2))
    inner_sq = np.sum(np.einsum("na,nia->ni", vals, grads) ** 2, axis=1)
    defined = (mod_sq > 0) & (grad_sq > 0)
    r = 1 + (p - 2) * inner_sq[defined] / (mod_sq[defined] * grad_sq[defined])
    # with random centres, none is defined only when f is constant; |f|^p is then harmonic
    worst = float(np.min(r)) if r.size else 0.0
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
    pts = np.concatenate([np.sum(y * y, axis=1)[:, None], tau], axis=1)
    vals = eval_fractions([c for f in fracs for c in f.comps], pts)
    vals = vals.reshape(len(pts), len(fracs), -1) * scale
    return np.sqrt(np.sum(vals * vals, axis=-1)).T


def kernel_decay_check(n=1, samples=100_000, seed=0):
    """Scale invariance and empirical size estimates of the group kernel.

    Checks |K(delta o h)| = delta^-d |K(h)| to 1e-12, then compares the
    suprema of |K| rho^d, |dK/dy| rho^(d+1) and |dK/dt| rho^(d+2) over the
    sample shells 1 <= rho <= 10 and 10 <= rho <= 100; stability (ratio < 2)
    is the verdict.  The derivatives are exact: K(y, t) = s(|y|^2, t), so
    dK/dy_i = 2 y_i d_0 s and dK/dt_j = d_(j+1) s, with the partials of the
    density body s taken symbolically once.
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

    sups = []
    for rho_lo, rho_hi in ((1.0, 10.0), (10.0, 100.0)):
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
    return CheckReport(
        name="kernel-decay",
        inputs={"n": n, "samples": samples, "suprema": sups, "ratios": ratios, "dilation_dev": worst_inv},
        lhs=sups[0],
        rhs=sups[1],
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

    Both sign conventions are applied to both groups on 40 random exact
    triples each; every verdict is reported.  (The two formulas are conjugate
    expressions of the same element, so all four verdicts agree.)
    """
    trials = 40
    rng = random.Random(seed)
    verdicts = {}
    for kind, dim, tn in (("quaternionic", 4, 3), ("octonionic", 8, 7)):
        for convention in ("minus_conj_beta_alpha", "plus_conj_alpha_beta"):
            ok = True
            for _ in range(trials):
                a = GroupElement(
                    (_random_rational_hypercomplex(rng, dim),),
                    tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(tn)),
                )
                b = GroupElement(
                    (_random_rational_hypercomplex(rng, dim),),
                    tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(tn)),
                )
                point = SiegelPoint(
                    (_random_rational_hypercomplex(rng, dim),),
                    _random_rational_hypercomplex(rng, dim),
                )
                composed = translate(a, translate(b, point))
                direct = translate(group_mul_with_convention(a, b, convention), point)
                if composed != direct:
                    ok = False
                    break
            verdicts[f"{kind}:{convention}"] = ok
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
    d = h_poly.dim
    comps = [RadialFraction.from_poly(h_poly.deriv(0))]
    comps += [RadialFraction.from_poly(-h_poly.deriv(i)) for i in range(1, d)]
    return HyperFrac(tuple(comps))


def _x(i):
    return RatPoly.variable(8, i)


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
    # Dirac null but asymmetric Jacobian: fails the CR system
    corpus.append(
        (
            "dirac-null-asymmetric",
            HyperFrac.from_polys(
                (zero, -x[2], x[1], RatPoly.const(8, -2) * x[0], zero, zero, zero, zero)
            ),
        )
    )
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
                for _ in range(rng.randint(0, 3)):
                    key[rng.randrange(8)] += 1
                terms[tuple(key)] = terms.get(tuple(key), 0) + rng.randint(-3, 3)
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
        (
            "dirac-null-asymmetric",
            HyperFrac.from_polys(
                (zero, -x[2], x[1], RatPoly.const(8, -2) * x[0], zero, zero, zero, zero)
            ),
        ),
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


def _quat_product(f, g):
    """Product of two quaternion-valued polynomial HyperFracs."""
    from .hypercomplex import mult_table

    table = mult_table(4)
    d = f.dim
    out = [RadialFraction.zero(d) for _ in range(4)]
    for i in range(4):
        for j in range(4):
            k, s = table[i][j]
            out[k] = out[k] + (f.comps[i] * g.comps[j]).scale(s)
    return HyperFrac(tuple(out))


def slice_regularity_corpus():
    """Bi-variable regular functions paired with substitution constants."""
    zero = RatPoly.zero(8)
    one = RatPoly.const(8, 1)
    const = HyperFrac.from_polys((one, zero, zero, zero))
    fueter_q2 = _fueter_variable(8, 4, 1)
    fueter_q1 = _fueter_variable(8, 0, 2)
    z1 = _fueter_variable(8, 4, 1)
    z2 = _fueter_variable(8, 4, 2)
    sym = (_quat_product(z1, z2) + _quat_product(z2, z1)).scale(Fraction(1, 2))
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
