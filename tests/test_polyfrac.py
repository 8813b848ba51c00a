"""Exact polynomial / radial-fraction calculus and the Dirac operators."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qszego.hypercomplex import _PRODUCTS, Hypercomplex, left_mult_matrix, mult_table
from qszego.kernel import KernelOrder, szego_density
from qszego.polyfrac import (
    MAX_EXPONENT,
    HyperFrac,
    RadialFraction,
    RatPoly,
    _accumulate,
    dirac_from_partials,
    radius_sq,
)


def x(i, d=4):
    return RatPoly.variable(d, i)


def test_poly_ring_examples():
    assert (x(0) + (-x(0))).is_zero()
    prod = x(0) * x(1)
    assert prod.terms == {(1, 1, 0, 0): 1}
    scaled = (x(0) * x(0)).scale(Fraction(3, 2))
    assert scaled.terms == {(2, 0, 0, 0): Fraction(3, 2)}


def test_poly_from_pairs_and_from_dict_agree():
    terms = {(2, 0, 0, 0): Fraction(3, 2), (0, 1, 1, 0): -4, (0, 0, 0, 0): 0}
    a, b = RatPoly(4, terms), RatPoly(4, list(terms.items()))
    assert a == b and a.terms == b.terms
    assert list(a.terms) == [(2, 0, 0, 0), (0, 1, 1, 0)]  # the zero coefficient is dropped
    # a repeated key adds up in order; a sum that cancels deletes the key
    pairs = [((1, 0, 0, 0), 2), ((0, 1, 0, 0), 5), ((1, 0, 0, 0), -2), ((0, 1, 0, 0), 1)]
    assert RatPoly(4, pairs).terms == {(0, 1, 0, 0): 6}
    assert RatPoly(4, None) == RatPoly(4, []) == RatPoly(4, {}) == RatPoly.zero(4)


@pytest.mark.parametrize("key, message", [((1, 0, 0), "key length"), ((MAX_EXPONENT, 0, 0, 0), "exponent")])
def test_poly_rejects_bad_keys_in_either_form(key, message):
    with pytest.raises(ValueError, match=message):
        RatPoly(4, {key: 1})
    with pytest.raises(ValueError, match=message):
        RatPoly(4, [(key, 1)])


def test_poly_product_cancels_and_checks_exponents():
    a = x(0) + x(1)
    b = x(0) - x(1)
    assert (a * b).terms == {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1}  # the x0*x1 terms cancel
    big = RatPoly(4, {(MAX_EXPONENT - 1, 0, 0, 0): 1})
    with pytest.raises(ValueError, match="exponent overflow"):
        big * x(0)
    half = RatPoly(4, {(MAX_EXPONENT // 2, 0, 0, 0): 1})
    with pytest.raises(ValueError, match="exponent overflow"):
        half * half
    # the limit is reached by one term only, not by the factors' first terms
    with pytest.raises(ValueError, match="exponent overflow"):
        (x(1) + big) * (x(2) + x(0))
    just_below = RatPoly(4, {(MAX_EXPONENT // 2 - 1, 0, 0, 0): 1})
    assert (half * just_below).terms == {(MAX_EXPONENT - 1, 0, 0, 0): 1}
    # the factors' largest exponents sum to the limit, but in different variables
    assert (big * x(1)).terms == {(MAX_EXPONENT - 1, 1, 0, 0): 1}
    assert (RatPoly.const(4, 3) * big).terms == {(MAX_EXPONENT - 1, 0, 0, 0): 3}


def _mul_reference(a, b):
    """The product as the sum of all term pairs in a-major order, one key at a time."""
    products = (
        (tuple(p + q for p, q in zip(ka, kb)), ca * cb)
        for ka, ca in a.terms.items()
        for kb, cb in b.terms.items()
    )
    return _accumulate({}, products)


def test_poly_product_keeps_term_order_and_cancellations():
    rng = random.Random(29)
    cancelled = 0
    for dim in (1, 4, 8):
        for _ in range(60):
            # two variables at most and small exponents: many pairs land on one key, and some cancel
            a, b = (_random_poly(rng, dim, min(dim, 2), 6) for _ in range(2))
            for p, q in ((a, b), (b, a), (a, a), (a, RatPoly.zero(dim))):
                got = p * q
                assert list(got.terms.items()) == list(_mul_reference(p, q).items())
                keys = {tuple(map(sum, zip(ka, kb))) for ka in p.terms for kb in q.terms}
                cancelled += len(got.terms) < len(keys)
    assert cancelled > 20


def _random_key(rng, dim, n_vars=None, degree=3):
    """A monomial of degree at most ``degree`` in the first ``n_vars`` variables (default all)."""
    key = [0] * dim
    for _ in range(rng.randint(0, degree)):
        key[rng.randrange(n_vars or dim)] += 1
    return tuple(key)


def _random_poly(rng, dim, n_vars=None, n_terms=3):
    coefs = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n_terms))
    return RatPoly(dim, [(_random_key(rng, dim, n_vars), c) for c in coefs])


def test_poly_dimension_mismatch():
    with pytest.raises(ValueError):
        x(0, 4) * x(0, 8)


def newton():
    return RadialFraction(RatPoly.const(4, 1), 1)


def test_newton_first_derivative():
    # quotient rule: d/dx0 (1/|x|^2) = -2 x0 / |x|^4
    d = newton().deriv(0)
    assert d == RadialFraction(x(0).scale(-2), 2)


def test_newton_second_derivative_value():
    # oracle: -2/|x|^4 + 8 x0^2/|x|^6 evaluated at e0 gives -2 + 8 = 6
    d2 = newton().deriv(0).deriv(0)
    assert d2.eval((1, 0, 0, 0)) == 6


def test_newton_harmonic():
    lap = newton().deriv(0).deriv(0)
    for i in (1, 2, 3):
        lap = lap + newton().deriv(i).deriv(i)
    assert lap.is_zero()


def test_eval_examples():
    n = newton()
    assert n.eval((1, 0, 0, 0)) == 1
    assert n.eval((2, 0, 0, 0)) == Fraction(1, 4)
    d = n.deriv(0)
    assert d.eval((1, 1, 0, 0)) == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        n.eval((0, 0, 0, 0))


def test_mixed_partials_commute():
    rng = random.Random(4)
    for _ in range(40):
        terms = {}
        for _ in range(5):
            key = [0, 0, 0, 0]
            for _ in range(rng.randint(0, 6)):
                key[rng.randrange(4)] += 1
            terms[tuple(key)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        f = RadialFraction(RatPoly(4, terms), rng.randint(0, 2))
        i, j = rng.randrange(4), rng.randrange(4)
        assert f.deriv(i).deriv(j) == f.deriv(j).deriv(i)


def test_finite_difference_agreement():
    rng = random.Random(6)
    f = newton().deriv(0).deriv(3)
    g = f.deriv(1)
    h = 1e-4
    for _ in range(100):
        p = np.array([rng.uniform(0.5, 2.0) * rng.choice([-1, 1]) for _ in range(4)])
        plus = p.copy()
        plus[1] += h
        minus = p.copy()
        minus[1] -= h
        fd = (f.eval_array(plus[None, :])[0] - f.eval_array(minus[None, :])[0]) / (2 * h)
        exact = g.eval_array(p[None, :])[0]
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def identity_map():
    return HyperFrac.from_polys(tuple(x(i) for i in range(4)))


def test_dirac_identity_map():
    # sum_i e_i e_i = 1 - 3
    out = identity_map().dirac("left")
    assert out.comps[0] == RadialFraction(RatPoly.const(4, -2), 0)
    assert all(c.is_zero() for c in out.comps[1:])


def test_dirac_annihilates_cauchy_body():
    body = HyperFrac(
        (
            RadialFraction(x(0), 2),
            RadialFraction(-x(1), 2),
            RadialFraction(-x(2), 2),
            RadialFraction(-x(3), 2),
        )
    )
    assert body.dirac("left").is_zero()


def test_dirac_octonion_null_example():
    z = RatPoly.zero(8)
    f = HyperFrac.from_polys(
        (z, -x(2, 8), x(1, 8), RatPoly.const(8, -2) * x(0, 8), z, z, z, z)
    )
    assert f.dirac("left").is_zero()


def _random_poly_hyperfrac(rng, dim, alg_dim):
    polys = []
    for _ in range(alg_dim):
        terms = {}
        for _ in range(3):
            key = [0] * dim
            for _ in range(rng.randint(0, 3)):
                key[rng.randrange(dim)] += 1
            terms[tuple(key)] = rng.randint(-4, 4)
        polys.append(RatPoly(dim, terms))
    return HyperFrac.from_polys(tuple(polys))


def test_conjugated_dirac_is_laplacian_on_polynomials():
    # the conjugate Dirac operator is the left one with the partials i >= 1
    # negated; subharmonicity_check rests on conj(D) D = Laplacian
    rng = random.Random(8)
    for dim in (4, 8):
        f = _random_poly_hyperfrac(rng, dim, dim)
        g = f.dirac("left")
        lhs = dirac_from_partials([g.deriv(0)] + [g.deriv(i).scale(-1) for i in range(1, dim)])
        lap = [RadialFraction.zero(dim) for _ in range(dim)]
        for j in range(dim):
            for i in range(dim):
                lap[j] = lap[j] + f.comps[j].deriv(i).deriv(i)
        assert lhs == HyperFrac(tuple(lap))
        second = [f.deriv(i).deriv(i) for i in range(dim)]
        assert sum(second[1:], second[0]) == HyperFrac(tuple(lap))


def _random_mixed_hyperfrac(rng, dim, alg_dim):
    """Components P/|x|^(2k) with k in 0..3, about a quarter of them zero."""
    comps = []
    for _ in range(alg_dim):
        if rng.random() < 0.25:
            comps.append(RadialFraction.zero(dim))
            continue
        comps.append(RadialFraction(_random_poly(rng, dim), rng.randint(0, 3)))
    return HyperFrac(tuple(comps))


@pytest.mark.parametrize(
    "dim, alg_dim, var_indices",
    [(4, 4, None), (8, 8, None), (8, 4, (0, 1, 2, 3)), (8, 4, (4, 5, 6, 7)), (8, 4, "generator")],
)
def test_dirac_equals_dirac_of_the_partials(dim, alg_dim, var_indices):
    # the quotient rule once per output component, on the common k, against
    # the Dirac sum of the partials, each with its own quotient rule
    rng = random.Random(dim * 10 + alg_dim)
    for _ in range(15):
        f = _random_mixed_hyperfrac(rng, dim, alg_dim)
        wanted = range(alg_dim) if var_indices in (None, "generator") else var_indices
        want = dirac_from_partials([f.deriv(v) for v in wanted])
        if var_indices == "generator":
            got = f.dirac("left", (v for v in range(alg_dim)))
        else:
            got = f.dirac("left", var_indices)
        assert got == want
        assert got.is_zero() == want.is_zero()


def test_dirac_multiplies_by_radius_sq_once_per_component(monkeypatch):
    density = szego_density(KernelOrder(3)).body
    rsq = radius_sq(4)
    mul = RatPoly.__mul__
    calls = []

    def counting_mul(a, b):
        if rsq == a or (isinstance(b, RatPoly) and rsq == b):
            calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(RatPoly, "__mul__", counting_mul)
    assert density.dirac("left").is_zero()
    assert len(calls) == 4  # one per component, where the per-partial quotient rule made 16


def test_dirac_is_left_only():
    f = identity_map()
    assert f.dirac("left") == f.dirac() == f.dirac("left", (0, 1, 2, 3))
    for side in ("right", "conjugated", None):
        with pytest.raises(ValueError):
            f.dirac(side)


def test_zero_plus_fraction_is_the_fraction():
    f = RadialFraction(x(0) * x(1), 2)
    assert (0 + f) is f
    for other in (1, -1, 0.0, Fraction(0), 2.5):
        with pytest.raises(TypeError):
            other + f


def test_zero_plus_polynomial_is_the_polynomial():
    # on either side, as the generated products and the geometric maps add it
    p = x(0) * x(1)
    assert (p + 0) is p and (0 + p) is p
    for other in (1, -1, 0.0, Fraction(0), 2.5, False):
        with pytest.raises(TypeError):
            p + other
        with pytest.raises(TypeError):
            other + p


def test_hyperfrac_sum_needs_equal_component_counts():
    f4 = HyperFrac((newton(),) * 4)
    f8 = HyperFrac((newton(),) * 8)
    assert f4 + f4 == HyperFrac((newton() + newton(),) * 4)
    for a, b in ((f8, f4), (f4, f8)):
        with pytest.raises(ValueError):
            a + b
    for a, b in ((f4, 1), (1, f4), (f4, newton()), (newton(), f4)):
        with pytest.raises(TypeError):
            a + b


def _quat_product_reference(f, g):
    # the hand-written walk of the multiplication table that the generated
    # product replaced: out[k] accumulates sign * f_i g_j in i-major order
    table = mult_table(4)
    out = [RadialFraction.zero(f.dim) for _ in range(4)]
    for i in range(4):
        for j in range(4):
            k, s = table[i][j]
            out[k] = out[k] + (f.comps[i] * g.comps[j]).scale(s)
    return HyperFrac(tuple(out))


@pytest.mark.parametrize("dim", [4, 8])
def test_generated_product_on_symbolic_components(dim):
    rng = random.Random(dim)
    for _ in range(20):
        f = _random_poly_hyperfrac(rng, dim, 4)
        g = _random_poly_hyperfrac(rng, dim, 4)
        for a, b in ((f, g), (g, f)):
            got = HyperFrac(_PRODUCTS[4](a.comps, b.comps))
            want = _quat_product_reference(a, b)
            assert [(c.num, c.k) for c in got.comps] == [(c.num, c.k) for c in want.comps]


def test_linear_substitute_examples():
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    p = x(0) * x(0) + x(1)
    assert p.substitute_linear(ident) == p

    m = left_mult_matrix(Hypercomplex.basis(4, 1))
    assert x(0).substitute_linear(m) == -x(1)

    two = tuple(tuple(2 * int(i == j) for j in range(4)) for i in range(4))
    assert (x(1) * x(1)).substitute_linear(two) == (x(1) * x(1)).scale(4)

    # the y0*y1 terms of x0^2 and x1^2 cancel; x2*x3 adds y0*y1 back last
    p = x(0) * x(0) + x(1) * x(1) + x(2) * x(3)
    got = p.substitute_linear(_CANCELLING_ROWS)
    assert list(got.terms.items()) == [((2, 0, 0, 0), 2), ((0, 2, 0, 0), 2), ((1, 1, 0, 0), 1)]


# x0 -> y0 - y1, x1 -> y0 + y1, x2 -> y0, x3 -> y1
_CANCELLING_ROWS = ((1, -1, 0, 0), (1, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))


def _substitute_by_pairwise_sums(p, rows):
    """x -> Ax by adding the substituted terms one ``+`` at a time: the reference."""
    new_dim = len(rows[0])
    forms = [
        RatPoly(new_dim, {tuple(int(j == m) for m in range(new_dim)): v for j, v in enumerate(row) if v})
        for row in rows
    ]
    powers = [[RatPoly.const(new_dim, 1)] for _ in rows]
    out = RatPoly.zero(new_dim)
    for k, c in p.terms.items():
        term = RatPoly.const(new_dim, c)
        for i, e in enumerate(k):
            while len(powers[i]) <= e:
                powers[i].append(powers[i][-1] * forms[i])
            if e:
                term = term * powers[i][e]
        out = out + term
    return out


def test_substitute_matches_pairwise_sums_in_order():
    p = x(0) * x(0) + x(1) * x(1) + x(2) * x(3) + x(0) * x(1)
    got = p.substitute_linear(_CANCELLING_ROWS)
    assert list(got.terms.items()) == list(_substitute_by_pairwise_sums(p, _CANCELLING_ROWS).terms.items())

    rng = random.Random(8)
    polys = []
    for _ in range(8):
        terms = {}
        for _ in range(6):
            key = [0] * 8
            for _ in range(rng.randint(0, 3)):
                key[rng.randrange(8)] += 1
            terms[tuple(key)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        polys.append(RatPoly(8, terms))
    f = HyperFrac.from_polys(polys)
    a = Hypercomplex([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8)])
    rows = left_mult_matrix(a)
    g = f.substitute_linear(rows)
    for got, poly in zip(g.comps, polys):
        ref = _substitute_by_pairwise_sums(poly, rows)
        assert got.k == 0 and list(got.num.terms.items()) == list(ref.terms.items())


def test_substitute_rejects_rational_part():
    f = HyperFrac((newton(), newton(), newton(), newton()))
    with pytest.raises(ValueError):
        f.substitute_linear(tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))


def test_hyperfrac_substitute_rejects_bad_matrices():
    f = identity_map()
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    with_float = [row[:] for row in ident]
    with_float[3][2] = 0.5
    with pytest.raises(TypeError):
        f.substitute_linear(with_float)
    ragged = [row[:] for row in ident]
    ragged[2] = ragged[2][:3]
    with pytest.raises(ValueError, match="ragged"):
        f.substitute_linear(ragged)
    for rows in (ident[:3], ident + [[0, 0, 0, 0]]):
        with pytest.raises(ValueError, match="need 4 rows"):
            f.substitute_linear(rows)
    mixed = HyperFrac((RadialFraction(x(0), 0), newton(), RadialFraction.zero(4), RadialFraction(x(1), 0)))
    with pytest.raises(ValueError, match="polynomial components"):
        mixed.substitute_linear(ident)
    assert f.substitute_linear(ident) == f


def test_hyperfrac_eval_modes():
    f = identity_map()
    v = f.eval((1, 2, 3, 4))
    assert v.comps == (1, 2, 3, 4) and all(type(c) is int for c in v.comps)
    # eval is the exact oracle; float points belong to eval_array
    for exact_eval in (f.eval, f.comps[0].eval, f.comps[0].num.eval, newton().eval):
        with pytest.raises(TypeError):
            exact_eval((1.0, 2.0, 3.0, 4.0))


def test_json_roundtrip():
    f = newton().deriv(0).deriv(2)
    data = f.to_json()
    assert RadialFraction.from_json(data) == f
    hf = HyperFrac((f, newton(), RadialFraction.zero(4), newton().deriv(1)))
    assert HyperFrac.from_json(hf.to_json()) == hf
    assert data["terms"][0]["coef"].count("/") == 1


def test_eval_array_matches_exact():
    f = newton().deriv(0).deriv(1)
    pts = np.array([[1.0, 2.0, -1.0, 0.5], [0.3, -0.2, 1.1, 2.0]])
    vals = f.eval_array(pts)
    for p, v in zip(pts, vals):
        exact = f.eval(tuple(Fraction(c) for c in p))
        assert abs(v - float(exact)) < 1e-12 * max(1.0, abs(float(exact)))


@st.composite
def _polys(draw, dim=4, max_terms=5, max_power=3):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        key = tuple(draw(st.integers(0, max_power)) for _ in range(dim))
        terms[key] = terms.get(key, 0) + draw(st.integers(-9, 9))
    return RatPoly(dim, terms)


@given(_polys(), _polys(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_derivative_product_rule(f, g, axis):
    lhs = (f * g).deriv(axis)
    rhs = f.deriv(axis) * g + f * g.deriv(axis)
    assert lhs == rhs


@given(_polys(max_terms=3), st.integers(0, 2), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_radial_fraction_equality_is_by_value(poly, k, axis):
    # the constructor stores (num, k) as given, so P|x|^2/|x|^(2k+2) and
    # P/|x|^(2k) are two representations of one function
    frac = RadialFraction(poly, k)
    wide = RadialFraction(poly * radius_sq(4), k + 1)
    assert wide == frac and frac == wide
    assert wide.deriv(axis) == frac.deriv(axis)
    assert RadialFraction(poly * radius_sq(4) + x(axis), k + 1) != frac
    in_8_vars = RadialFraction(RatPoly(8, {e + (0,) * 4: c for e, c in poly.terms.items()}), k)
    assert frac != in_8_vars and in_8_vars != frac
