"""The test-function family, reproducing property, and the section-4 checks."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qszego.geometry import SiegelPoint
from qszego.hypercomplex import Hypercomplex, left_mult_matrix
from qszego.kernel import KernelOrder, cauchy_kernel, newton_derivative, szego_density
from qszego.polyfrac import HyperFrac, RadialFraction, RatPoly
from qszego import kernel as kernel_module, polyfrac, verify
from qszego.quadrature import QuadratureResult, SqrtPiRational, gamma_half, sphere_moment
from qszego.report import CheckReport, UsageError
from qszego.verify import (
    TestFunctionSpec,
    _multi_indices,
    _sample_shell,
    action_compatibility_check,
    coefficient_system_check,
    composed_analyticity_check,
    cr_corpus,
    hardy_test_function,
    hardy_test_function_closed_form,
    hardy_test_function_components,
    kernel_decay_check,
    o_analytic_corpus,
    reproducing_check,
    slice_regularity_check,
    slice_regularity_corpus,
    stein_weiss_check,
    subharmonicity_check,
    closed_form_agreement_check,
)


def x(i, d=8):
    return RatPoly.variable(d, i)


def origin(n=1, eps=0):
    return SiegelPoint(
        tuple(Hypercomplex.zero(4) for _ in range(n)),
        Hypercomplex.from_real(4, 1 + eps),
    )


def test_spec_validation():
    spec = TestFunctionSpec(1, (2, 0, 0, 1))
    assert spec.order == 3
    assert spec.in_hardy_range()
    assert spec.closed_form_parity()
    with pytest.raises(ValueError):
        TestFunctionSpec(1, (1, 2, 3))


def test_value_at_base_point():
    # e3 component is -d^4 N / dx0^2 dx3^2 at (2,0,0,0) = -(-5/8); others vanish
    spec = TestFunctionSpec(1, (2, 0, 0, 1))
    v = hardy_test_function(spec, origin())
    assert v == Hypercomplex((0, 0, 0, Fraction(5, 8)))


def test_odd_components_vanish():
    spec = TestFunctionSpec(1, (2, 1, 0, 1))
    v = hardy_test_function(spec, origin())
    assert v.comps[0] == 0 and v.comps[2] == 0 and v.comps[3] == 0


def test_vertical_translate_is_shift():
    spec = TestFunctionSpec(1, (2, 0, 0, 1))
    eps = Fraction(1, 3)
    direct = hardy_test_function(spec, origin(eps=eps))
    from qszego.verify import hardy_test_function_components

    shifted = hardy_test_function_components(spec.t).eval((2 + eps, 0, 0, 0))
    assert direct == shifted


def test_closed_form_values():
    assert hardy_test_function_closed_form(
        TestFunctionSpec(1, (2, 0, 0, 1))
    ) == Hypercomplex((0, 0, 0, Fraction(5, 8)))
    assert hardy_test_function_closed_form(
        TestFunctionSpec(1, (0, 0, 0, 1))
    ) == Hypercomplex((0, 0, 0, Fraction(1, 8)))
    a = hardy_test_function_closed_form(TestFunctionSpec(1, (1, 0, 0, 1)))
    b = hardy_test_function_closed_form(TestFunctionSpec(1, (2, 0, 0, 1)))
    assert a.comps[3] < 0 < b.comps[3]
    with pytest.raises(ValueError):
        hardy_test_function_closed_form(TestFunctionSpec(1, (0, 1, 0, 1)))


def _closed_form_product(t):
    """The test function's e3 value at (0, 1) as its Gamma product."""
    t0, q1, q2, q3 = t[0], t[1] // 2, t[2] // 2, t[3] // 2
    lam = sum(t)
    return (
        SqrtPiRational(Fraction((-1) ** (t0 + q1 + q2 + q3), 2 ** (lam + 4)), -2)
        * gamma_half(2 * (lam + 3))
        * gamma_half(2 * q1 + 1)
        * gamma_half(2 * q2 + 1)
        * gamma_half(2 * q3 + 3)
        / gamma_half(2 * (q1 + q2 + q3) + 5)
    )


def test_closed_form_is_its_gamma_product():
    # all 252 parity-valid specs of order <= 12
    specs = [
        TestFunctionSpec(1, t)
        for t in itertools.product(range(13), repeat=4)
        if sum(t) <= 12 and TestFunctionSpec(1, t).closed_form_parity()
    ]
    assert len(specs) == 252
    for spec in specs:
        want = _closed_form_product(spec.t)
        assert want.pi_half == 0
        assert hardy_test_function_closed_form(spec) == Hypercomplex((0, 0, 0, want.coef))


def test_agreement_all_valid_specs():
    rep = closed_form_agreement_check()
    assert rep.passed
    assert rep.inputs["specs_checked"] >= 25


def test_reproducing_property_quick():
    spec = TestFunctionSpec(1, (2, 0, 0, 1))
    rep = reproducing_check(spec, tol=1e-2, budget=3e6)
    assert rep.passed
    assert rep.rel_deviation <= 1e-2


def test_reproducing_builds_one_float_plan_per_fraction_set(monkeypatch):
    # the test function's one plan serves every boundary level; the density
    # builds none, its floats come from the closed form at every level
    build = polyfrac.float_plan
    applied = []

    def counted(fracs):
        evaluate, i = build(fracs), len(applied)
        applied.append(0)

        def apply(cols):
            applied[i] += 1
            return evaluate(cols)

        return apply

    closed_form = kernel_module.density_values
    densities = []
    monkeypatch.setattr(polyfrac, "float_plan", counted)
    monkeypatch.setattr(verify, "float_plan", counted)
    monkeypatch.setattr(kernel_module, "density_values", lambda *a: densities.append(1) or closed_form(*a))
    rep = reproducing_check(TestFunctionSpec(1, (2, 0, 0, 1)), tol=1e-2, budget=3e6)
    assert rep.passed and rep.n_evals > 8**3
    assert len(applied) == 1 and applied[0] > 1 and len(densities) == applied[0]


def test_reproducing_rejects_out_of_range():
    with pytest.raises(UsageError, match="Hardy"):
        reproducing_check(TestFunctionSpec(4, (0, 0, 0, 1)), tol=1e-2)


@pytest.mark.parametrize("t", [(0, 1, 1, 1), (1, 1, 1, 0)])
def test_reproducing_rejects_zero_direct_value_before_integrating(t, monkeypatch):
    # both specs are in the Hardy range, but the test function vanishes at
    # (0, 1), so no relative deviation exists; the integral is never taken
    from qszego import polyfrac, verify

    calls = []
    monkeypatch.setattr(verify, "integrate_boundary", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="vanishes"):
        reproducing_check(TestFunctionSpec(1, t))
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reproducing_degree_read_off_the_fractions(n, monkeypatch):
    # the boundary integrand S((0,1), w) F(w) is homogeneous of degree
    # deg S + deg F = -(2n + 3) - (order + 3), derived from the exact
    # fractions, and declared to the boundary rule
    from qszego import polyfrac, verify

    seen = []

    def record(integrand, **kw):
        seen.append(integrand)
        return QuadratureResult(np.zeros(4), 0.0, 0)

    monkeypatch.setattr(verify, "integrate_boundary", record)
    for t in [(2, 0, 0, 1), (3, 0, 0, 1), (0, 2, 0, 1), (3, 0, 0, 0), (2, 2, 0, 1)]:
        spec = TestFunctionSpec(n, t)
        reproducing_check(spec)
        degree = -(2 * n + 3) - (spec.order + 3)
        assert seen[-1].degree == degree


def test_homogeneous_degree_rejects_inhomogeneous_fractions(monkeypatch):
    # HyperFrac.degree skips zero components, and is None on an inhomogeneous
    # component, on mixed degrees and on all-zero components
    x0, x1 = RatPoly.variable(4, 0), RatPoly.variable(4, 1)
    zero = RadialFraction.zero(4)
    assert HyperFrac((RadialFraction(x0 * x1, 2), zero, RadialFraction(x1 * x1, 2), zero)).degree() == -2
    assert HyperFrac((RadialFraction(x0 * x1 + x0, 2), zero)).degree() is None
    assert HyperFrac((RadialFraction(x0, 1), RadialFraction(x0 * x1, 1))).degree() is None
    assert HyperFrac((zero, zero)).degree() is None

    # reproducing_check refuses a test function without one degree before it integrates
    def must_not_run(*a, **k):
        raise AssertionError("integrated a fraction without one degree")

    inhomogeneous = HyperFrac((RadialFraction(x0 * x1 + x0, 2), zero, zero, zero))
    monkeypatch.setattr(verify, "hardy_test_function_components", lambda t: inhomogeneous)
    monkeypatch.setattr(verify, "integrate_boundary", must_not_run)
    with pytest.raises(ValueError, match="homogeneous"):
        reproducing_check(TestFunctionSpec(1, (2, 0, 0, 1)))


def test_test_function_degree():
    # F_t combines partials of order |t| + 1 of |x|^-2: degree -(|t| + 3)
    for t in _multi_indices(4):
        assert hardy_test_function_components(t).degree() == -(sum(t) + 3)


def test_test_function_is_the_conjugate_gradient_of_a_newton_derivative():
    # F_t = conj grad(d^t N): component 0 is d^(t+e0) N, component i is -d^(t+e_i) N
    for t in _multi_indices(2):
        comps = hardy_test_function_components(t).comps
        for i, c in enumerate(comps):
            partial = newton_derivative(tuple(v + (j == i) for j, v in enumerate(t)))
            assert c == (partial if i == 0 else -partial)


@pytest.mark.parametrize("n", range(1, 7))
def test_szego_density_is_a_test_function(n):
    # the m = 4 density body is -1/2 F_(2n,0,0,0), exactly
    want = hardy_test_function_components((2 * n, 0, 0, 0)).scale(Fraction(-1, 2))
    assert szego_density(KernelOrder(n)).body == want


def test_cauchy_kernel_is_a_test_function():
    # conj(x)/|x|^4 = -1/2 conj grad(1/|x|^2) = -1/2 F_0
    assert cauchy_kernel(4).body == hardy_test_function_components((0, 0, 0, 0)).scale(Fraction(-1, 2))


@pytest.mark.parametrize("k", range(7))
def test_multi_indices_are_the_filtered_product_in_order(k):
    want = sorted(t for t in itertools.product(range(k + 1), repeat=4) if sum(t) <= k)
    assert _multi_indices(k) == want
    assert len(want) == math.comb(k + 4, 4)


@pytest.mark.parametrize("t, n_evals", [((2, 0, 0, 1), 8**3 + 12**3 + 18**3), ((3, 0, 0, 1), 27755)])
def test_reproducing_evaluates_one_radial_node_per_level(t, n_evals):
    # the boundary rule runs the levels 12 x 8^3, 18 x 12^3, 27 x 18^3, ...
    # of the per-node rule, and evaluates n_t^3 points per level: 8,072 and
    # 8,072 + 27^3 = 27,755
    rep = reproducing_check(TestFunctionSpec(1, t), tol=1e-3, budget=2e7)
    assert rep.passed and rep.n_evals == n_evals


def test_reproducing_budget_counts_rule_points():
    # two levels cost 12 x 8^3 + 18 x 12^3 = 37,248 rule points, although
    # only 8^3 + 12^3 points are evaluated
    spec = TestFunctionSpec(1, (2, 0, 0, 1))
    with pytest.raises(UsageError, match="budget 37247 too small"):
        reproducing_check(spec, budget=37247)
    rep = reproducing_check(spec, budget=37248)
    assert rep.n_evals == 8**3 + 12**3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_density_is_the_solved_test_function(n):
    # the built density is c0 times the test function of order (2n, 0, 0, 0),
    # with c0 the only nonzero solved coefficient of the coefficient system
    from qszego.verify import _solved_coefficient, hardy_test_function_components

    s = szego_density(KernelOrder(n))
    c0 = _solved_coefficient(n, 2 * n, 0, 0)[0]
    family = hardy_test_function_components((2 * n, 0, 0, 0))
    assert s.body.scale(s.coeff) == family.scale(c0.coef)
    assert 2 * s.pi_pow == c0.pi_half


def test_coefficient_system_exact():
    for n in (1, 2, 3):
        rep = coefficient_system_check(n)
        assert rep.passed


def test_coefficient_terms_are_sphere_moments():
    # every family term's Gamma ratio, with the hand-typed denominator tails
    # 5, 5 and 7, and the right side's ratio, times 2 Gamma(q3 + 3/2), is a
    # sphere moment: 6,777 terms over n = 1..6 and the 27-cell q grid
    checked = 0
    for n in range(1, 7):
        # (sh1, sh2, tail, p0 + p1 + p2) of the even, x0x1, x0x2 and x1x2 families
        families = ((0, 0, 5, n), (1, 0, 5, n - 1), (0, 1, 5, n - 1), (1, 1, 7, n - 1))
        for q1, q2, q3 in itertools.product(range(3), repeat=3):
            common = 2 * gamma_half(2 * q3 + 3)
            rhs = gamma_half(2 * q1 + 1) * gamma_half(2 * q2 + 1) / gamma_half(2 * (q1 + q2 + q3) + 5)
            assert rhs * common == sphere_moment((2 * q1, 2 * q2, 2 * q3 + 2))
            for sh1, sh2, tail, total in families:
                for p0 in range(total + 1):
                    for p1 in range(total - p0 + 1):
                        p2 = total - p0 - p1
                        kern = (
                            gamma_half(2 * (p1 + q1) + 1 + 2 * sh1)
                            * gamma_half(2 * (p2 + q2) + 1 + 2 * sh2)
                            / gamma_half(2 * (q1 + q2 + q3 + n - p0) + tail)
                        )
                        moment = sphere_moment((2 * (p1 + q1 + sh1), 2 * (p2 + q2 + sh2), 2 * q3 + 2))
                        assert kern * common == moment
                        checked += 1
    assert checked == 6777


def _cells():
    return list(itertools.product(range(3), repeat=3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coefficient_system_fails_on_a_wrong_coefficient(n, monkeypatch):
    # a doubled c0 breaks the even family's c0 equation in every cell, and
    # only that one
    solved = verify._solved_coefficient

    def doubled(n, *slot):
        c = solved(n, *slot)
        return (c[0] * 2, *c[1:])

    monkeypatch.setattr(verify, "_solved_coefficient", doubled)
    rep = coefficient_system_check(n)
    assert not rep.passed
    assert rep.rhs == [{"family": "even-c0", "q": q} for q in _cells()]


@pytest.mark.parametrize("family, offsets", [("odd-x0x1", (1, 1, 0)), ("odd-x0x2", (1, 0, 1)), ("odd-x1x2", (0, 1, 1))])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_coefficient_system_fails_on_a_nonzero_odd_coefficient(n, family, offsets, monkeypatch):
    # a c1 in the family's slot x0^(2(n-1)+e0) x1^e1 x2^e2 must not vanish
    solved = verify._solved_coefficient
    slot = (2 * (n - 1) + offsets[0], *offsets[1:])

    def with_c1(n, *s):
        c = solved(n, *s)
        return (c[0], SqrtPiRational(Fraction(1), -2), *c[2:]) if s == slot else c

    monkeypatch.setattr(verify, "_solved_coefficient", with_c1)
    rep = coefficient_system_check(n)
    assert not rep.passed
    assert rep.rhs == [{"family": f"{family}-c1", "q": q} for q in _cells()]


@pytest.mark.parametrize("n", [0, -1, 7])
def test_coefficient_system_rejects_n_outside_grid(n):
    with pytest.raises(ValueError):
        coefficient_system_check(n)


def test_stein_weiss_examples():
    z = RatPoly.zero(8)
    fueter = HyperFrac.from_polys((x(1), -x(0), z, z, z, z, z, z))
    ok, violations = stein_weiss_check(fueter)
    assert ok and not violations

    ident = HyperFrac.from_polys(tuple(x(i) for i in range(8)))
    ok, violations = stein_weiss_check(ident)
    assert not ok and "divergence" in violations

    zero = HyperFrac.from_polys((z,) * 8)
    assert stein_weiss_check(zero)[0]


def test_composed_analyticity_fueter():
    z = RatPoly.zero(8)
    f = HyperFrac.from_polys((x(1), -x(0), z, z, z, z, z, z))
    rep = composed_analyticity_check(f)
    assert rep.passed
    assert rep.inputs["universal_alpha"] and rep.inputs["cr_system"]


def test_composed_analyticity_dirac_null_but_asymmetric():
    z = RatPoly.zero(8)
    f = HyperFrac.from_polys((z, -x(2), x(1), RatPoly.const(8, -2) * x(0), z, z, z, z))
    assert f.dirac("left").is_zero()
    rep = composed_analyticity_check(f)
    assert rep.passed
    assert not rep.inputs["universal_alpha"]
    assert not rep.inputs["cr_system"]
    assert rep.inputs["alpha_witness"] is not None


def test_composed_analyticity_constant():
    z = RatPoly.zero(8)
    f = HyperFrac.from_polys((RatPoly.const(8, 1),) + (z,) * 7)
    rep = composed_analyticity_check(f)
    assert rep.passed and rep.inputs["universal_alpha"] and rep.inputs["cr_system"]


def _composed_analyticity_on_rational_matrices(f, n_random, seed):
    """The composed-analyticity report sampled at the basis elements and
    ``n_random`` random rational a, each substituted as its rational matrix L_a."""
    rng = random.Random(seed)
    alphas = [Hypercomplex.basis(8, i) for i in range(8)]
    alphas += [Hypercomplex([verify._rand_fraction(rng, 3, 3) for _ in range(8)]) for _ in range(n_random)]
    universal, witness = True, None
    for a in alphas:
        if not a.is_zero() and not f.substitute_linear(left_mult_matrix(a)).dirac("left").is_zero():
            universal, witness = False, a.to_text()
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


@pytest.mark.parametrize("seed", (11, 12, 13))
def test_composed_analyticity_from_the_basis_is_the_sampled_verdict(seed):
    # the eight basis elements give the verdicts, the witness and the CR half
    # of the check sampled at eight more random rational a
    keys = ("universal_alpha", "alpha_witness", "cr_system", "cr_witness")
    verdicts = set()
    for name, f in cr_corpus(seed):
        got = composed_analyticity_check(f)
        want = _composed_analyticity_on_rational_matrices(f, 8, seed)
        assert [got.inputs[k] for k in keys] == [want.inputs[k] for k in keys], name
        assert got.passed == want.passed, name
        verdicts.add(got.inputs["universal_alpha"])
    assert verdicts == {True, False}


# the lcm of its denominators is 12
RATIONAL_ALPHA = Hypercomplex(
    [Fraction(1, 2), Fraction(-2, 3), 1, Fraction(3, 4), 0, Fraction(-1, 6), 2, Fraction(5, 4)]
)


@pytest.mark.parametrize("analytic", (True, False))
def test_dilated_substitution_has_the_dilated_dirac_derivative(analytic):
    # g(x) = f(ax): D[f(delta a x)] = delta (Dg)(delta x), so it is zero exactly when Dg is
    names = dict(cr_corpus())
    f = names["conj-gradient-5" if analytic else "dirac-null-asymmetric"]
    a, delta = RATIONAL_ALPHA, 12
    dg = f.substitute_linear(left_mult_matrix(a)).dirac("left")
    scaled = f.substitute_linear(left_mult_matrix(a * delta))
    assert all(Fraction(c).denominator == 1 for row in left_mult_matrix(a * delta) for c in row)
    got = scaled.dirac("left")
    assert got == dg.substitute_linear([[delta * (i == j) for j in range(8)] for i in range(8)]).scale(delta)
    assert got.is_zero() == dg.is_zero() == analytic


@pytest.mark.parametrize("name", ("conj-gradient-5", "dirac-null-asymmetric", "random-0"))
def test_composed_dirac_derivative_is_linear_in_alpha(name):
    # D[f(a x)] = sum_k a_k G_k(a x), where G_k(e_k x) = D[f(e_k x)] and
    # L_(e_k) is orthogonal, so G_k = D[f o L_(e_k)] o L_(e_k)^T: the basis
    # elements decide every a
    f = dict(cr_corpus())[name]
    a = RATIONAL_ALPHA
    want = f.substitute_linear(left_mult_matrix(a)).dirac("left")
    got = None
    for k, a_k in enumerate(a.comps):
        basis = left_mult_matrix(Hypercomplex.basis(8, k))
        g_k = f.substitute_linear(basis).dirac("left").substitute_linear(tuple(zip(*basis)))
        term = g_k.substitute_linear(left_mult_matrix(a)).scale(a_k)
        got = term if got is None else got + term
    assert got == want
    assert want.is_zero() == stein_weiss_check(f)[0]


def test_corpus_agreement_and_classes():
    corpus = cr_corpus()
    assert len(corpus) >= 20
    true_class = false_class = 0
    for name, f in corpus:
        rep = composed_analyticity_check(f)
        assert rep.passed, name
        if rep.inputs["cr_system"]:
            true_class += 1
        else:
            false_class += 1
    assert true_class >= 5 and false_class >= 5


def test_stein_weiss_implies_analyticity():
    for name, f in cr_corpus():
        sw_ok, _ = stein_weiss_check(f)
        if sw_ok:
            rep = composed_analyticity_check(f)
            assert rep.inputs["universal_alpha"], name
            assert rep.inputs["cr_system"], name


def test_slice_regularity_examples():
    cases = slice_regularity_corpus()
    assert len(cases) >= 12
    for name, func, alpha in cases:
        assert slice_regularity_check(func, alpha), (name, alpha.to_text())


def test_slice_regularity_rejects_irregular():
    z = RatPoly.zero(8)
    bad = HyperFrac.from_polys((x(0), z, z, z))
    with pytest.raises(ValueError):
        slice_regularity_check(bad, Hypercomplex.basis(4, 1))


def test_subharmonicity_examples():
    z = RatPoly.zero(8)
    f = HyperFrac.from_polys((z, -x(2), x(1), RatPoly.const(8, -2) * x(0), z, z, z, z))
    for p in (6.0 / 7.0, 1.0, 2.0):
        rep = subharmonicity_check(f, p, n_points=400, seed=1)
        assert rep.passed, p


def test_subharmonicity_rejects_bad_inputs():
    z = RatPoly.zero(8)
    f = HyperFrac.from_polys((z, -x(2), x(1), RatPoly.const(8, -2) * x(0), z, z, z, z))
    with pytest.raises(ValueError):
        subharmonicity_check(f, 0.5)
    not_analytic = HyperFrac.from_polys(tuple(x(i) for i in range(8)))
    with pytest.raises(ValueError):
        subharmonicity_check(not_analytic, 1.0)


def test_subharmonicity_takes_each_partial_once(monkeypatch):
    # the Df = 0 test and R share the 8 first partials: 8 x 8 component derivatives
    z = RatPoly.zero(8)
    f = HyperFrac.from_polys((z, -x(2), x(1), RatPoly.const(8, -2) * x(0), z, z, z, z))
    calls = []
    deriv = RadialFraction.deriv
    monkeypatch.setattr(RadialFraction, "deriv", lambda self, i: calls.append(i) or deriv(self, i))
    assert subharmonicity_check(f, 1.0, n_points=50, seed=1).passed
    assert len(calls) == 64


def test_subharmonicity_ratio_closed_form():
    # f = x1 - x0 e1 gives |f|^2 = x0^2 + x1^2 and sum_i |d_i f|^2 = 2, so R = p/2
    z = RatPoly.zero(8)
    f = HyperFrac.from_polys((x(1), -x(0), z, z, z, z, z, z))
    for p in (6.0 / 7.0, 1.0, 2.0):
        rep = subharmonicity_check(f, p, n_points=200, seed=1)
        assert rep.lhs == pytest.approx(p / 2, rel=1e-12)
        assert rep.inputs["skipped_zeros"] == 0


def test_exact_laplacian_matches_stencil():
    # finite differences survive only here, as the reference for the exact form
    # p |f|^(p-2) sum_i |d_i f|^2 R that subharmonicity_check reads R from
    h = 1e-3
    for name, f in o_analytic_corpus():
        d = f.dim
        centers = np.random.default_rng(1).uniform(-1.5, 1.5, size=(200, d))
        vals = f.eval_array(centers)
        grads = np.stack([f.deriv(i).eval_array(centers) for i in range(d)], axis=1)
        mod = np.sqrt(np.sum(vals * vals, axis=1))
        keep = mod > 0.05 * np.median(mod)
        grad_sq = np.sum(grads * grads, axis=(1, 2))
        inner_sq = np.sum(np.einsum("na,nia->ni", vals, grads) ** 2, axis=1)
        shifted = [
            f.eval_array(centers + sign * h * np.eye(d)[i]) for i in range(d) for sign in (1, -1)
        ]
        for p in (6.0 / 7.0, 1.0, 2.0):
            first = p * mod ** (p - 2) * grad_sq
            exact = first * (1 + (p - 2) * inner_sq / (mod**2 * grad_sq))
            stencil = sum(np.sqrt(np.sum(v * v, axis=1)) ** p for v in shifted)
            lap = (stencil - 2 * d * mod**p) / h**2
            dev = np.max(np.abs(lap - exact)[keep] / first[keep])
            assert dev <= 1e-4, (name, p, dev)


@pytest.mark.parametrize("n", [1, 2])
def test_density_partials_match_central_differences(n):
    # finite differences survive only here, as the reference for the exact
    # partials that kernel_decay_check takes of the density
    order = KernelOrder(n)
    density = szego_density(order)
    rng = np.random.default_rng(0)
    for rho_lo, rho_hi in ((1.0, 10.0), (10.0, 100.0)):
        y, tau, rho = _sample_shell(rng, n, rho_lo, rho_hi, 1000)
        pts = np.concatenate([np.sum(y * y, axis=1)[:, None], tau], axis=1)
        h = 1e-4 * rho**2
        for i in range(4):
            exact = density.body.deriv(i).eval_array(pts) * density.prefactor()
            step = np.zeros_like(pts)
            step[:, i] = h
            plus, minus = pts + step, pts - step
            diff = density.eval_array(plus) - density.eval_array(minus)
            central = diff / (2 * h[:, None])
            dev = np.linalg.norm(central - exact, axis=1) / np.linalg.norm(exact, axis=1)
            assert np.max(dev) <= 1e-5, (rho_lo, i, np.max(dev))


def test_kernel_decay_suprema_match_central_differences():
    # (dK_dy, dK_dt) per shell at samples 20,000 and seed 2, from central
    # differences at relative step 1e-4; the ratio verdict cannot see a
    # constant factor lost from a derivative, these values can
    reference = {
        1: [(2.4245235744291316, 0.46631110108498425), (2.424554887260209, 0.46619655836215834)],
        2: [(38.590417499599894, 8.158028862505205), (39.5809442761082, 8.154539617069643)],
    }
    for n, shells in reference.items():
        rep = kernel_decay_check(n, samples=20_000, seed=2)
        for sup, (dy, dt) in zip(rep.lhs["suprema"], shells):
            assert sup["dK_dy"] == pytest.approx(dy, rel=1e-5)
            assert sup["dK_dt"] == pytest.approx(dt, rel=1e-5)


def test_kernel_decay_small_sample():
    rep = kernel_decay_check(1, samples=20_000, seed=2)
    assert rep.passed
    # only what the check is given; what it measures is in lhs
    assert rep.inputs == {"n": 1, "samples": 20_000, "shells": [[1.0, 10.0], [10.0, 100.0]]}
    assert rep.lhs["dilation_dev"] <= 1e-12
    for key, ratio in rep.lhs["ratios"].items():
        assert ratio < 2.0, key


def test_kernel_decay_pure_vertical_axis():
    # on the t1 axis K = s(e1 t1), so |K| |t1|^(d/2) is constant
    t1 = np.array([0.5, 1.0, 2.0, 5.0, 25.0])
    pts = np.stack([np.zeros(5), t1, np.zeros(5), np.zeros(5)], axis=-1)
    vals = szego_density(KernelOrder(1)).eval_array(pts)
    mods = np.sqrt(np.sum(vals * vals, axis=1)) * t1 ** 5.0
    assert np.ptp(mods) <= 1e-12 * mods[0]


def test_action_compatibility_reported():
    rep = action_compatibility_check()
    assert rep.passed
    verdicts = rep.inputs["verdicts"]
    assert set(verdicts) == {
        "quaternionic:minus_conj_beta_alpha",
        "quaternionic:plus_conj_alpha_beta",
        "octonionic:minus_conj_beta_alpha",
        "octonionic:plus_conj_alpha_beta",
    }
    assert all(verdicts.values())
