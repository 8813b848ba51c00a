"""Heisenberg groups, Siegel points, Cayley transform, homogeneous norm."""

import random
from fractions import Fraction

import numpy as np
import pytest

from qszego.geometry import (
    GroupElement,
    SiegelPoint,
    boundary_param,
    boundary_unparam,
    cayley,
    cayley_columns,
    cayley_inv,
    dilate,
    dilate_columns,
    dilate_element,
    group_inverse,
    group_mul,
    group_mul_columns,
    group_mul_with_convention,
    homogeneous_dim,
    identity_element,
    nu_columns,
    rho_length,
    rotate,
    rotate_columns,
    translate,
    translate_columns,
)
from qszego.hypercomplex import Hypercomplex, sum_squares
from qszego.kernel import szego_nu
from qszego.polyfrac import RatPoly
from qszego.suites import _ROUNDTRIP_HIGH, _ROUNDTRIP_LOW


def q(*comps):
    return Hypercomplex(comps)


def e(dim, i):
    return Hypercomplex.basis(dim, i)


def rand_quat(rng, span=4):
    return Hypercomplex([rng.randint(-span, span) for _ in range(4)])


def rand_oct(rng, span=4):
    return Hypercomplex([rng.randint(-span, span) for _ in range(8)])


def test_group_mul_example():
    a = GroupElement((e(4, 1),), (0, 0, 0))
    b = GroupElement((e(4, 2),), (0, 0, 0))
    ab = group_mul(a, b)
    assert ab.omega == (e(4, 1) + e(4, 2),)
    assert ab.t == (0, 0, -2)


def test_group_mul_pure_t():
    rng = random.Random(1)
    a = GroupElement((rand_quat(rng),), (1, 2, 3))
    s = GroupElement((Hypercomplex.zero(4),), (5, -1, 0))
    assert group_mul(a, s) == GroupElement(a.omega, (6, 1, 3))


def test_group_inverse():
    rng = random.Random(2)
    for kind, n in (("quaternionic", 1), ("quaternionic", 2), ("octonionic", 1)):
        ident = identity_element(kind, n)
        dim = 4 if kind == "quaternionic" else 8
        tn = 3 if kind == "quaternionic" else 7
        for _ in range(50):
            h = GroupElement(
                tuple(Hypercomplex([rng.randint(-4, 4) for _ in range(dim)]) for _ in range(n)),
                tuple(rng.randint(-4, 4) for _ in range(tn)),
            )
            assert group_mul(h, group_inverse(h)) == ident
            assert group_mul(group_inverse(h), h) == ident


@pytest.mark.parametrize("kind,n", [("quaternionic", 1), ("quaternionic", 2), ("octonionic", 1)])
def test_group_associativity(kind, n):
    rng = random.Random(3)
    dim = 4 if kind == "quaternionic" else 8
    tn = 3 if kind == "quaternionic" else 7

    def rand_el():
        return GroupElement(
            tuple(Hypercomplex([rng.randint(-3, 3) for _ in range(dim)]) for _ in range(n)),
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(tn)),
        )

    for _ in range(1000):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert group_mul(group_mul(a, b), c) == group_mul(a, group_mul(b, c))


def test_translation_example():
    h = GroupElement((e(4, 1),), (0, 0, 0))
    p = SiegelPoint((Hypercomplex.zero(4),), Hypercomplex.from_real(4, 1))
    moved = translate(h, p)
    assert moved.horizontal == (e(4, 1),)
    assert moved.vertical == Hypercomplex.from_real(4, 2)
    assert moved.height() == p.height() == 1


def test_translation_identity():
    p = SiegelPoint((q(1, 2, 3, 4),), q(31, 1, 0, -2))
    assert translate(identity_element("quaternionic", 1), p) == p


def test_translation_preserves_boundary():
    rng = random.Random(5)
    for _ in range(100):
        h = GroupElement((rand_quat(rng),), tuple(rng.randint(-4, 4) for _ in range(3)))
        g = GroupElement((rand_quat(rng),), tuple(rng.randint(-4, 4) for _ in range(3)))
        p = boundary_param(g)
        assert p.height() == 0
        assert translate(h, p).height() == 0


def test_translation_is_group_action_both_conventions():
    rng = random.Random(7)
    for kind, dim, tn in (("quaternionic", 4, 3), ("octonionic", 8, 7)):
        for conv in ("minus_conj_beta_alpha", "plus_conj_alpha_beta"):
            for _ in range(60):
                a = GroupElement(
                    (Hypercomplex([rng.randint(-3, 3) for _ in range(dim)]),),
                    tuple(rng.randint(-3, 3) for _ in range(tn)),
                )
                b = GroupElement(
                    (Hypercomplex([rng.randint(-3, 3) for _ in range(dim)]),),
                    tuple(rng.randint(-3, 3) for _ in range(tn)),
                )
                p = SiegelPoint(
                    (Hypercomplex([rng.randint(-3, 3) for _ in range(dim)]),),
                    Hypercomplex([rng.randint(-3, 3) for _ in range(dim)]),
                )
                assert translate(a, translate(b, p)) == translate(
                    group_mul_with_convention(a, b, conv), p
                )


def test_printed_conventions_coincide():
    rng = random.Random(9)
    for _ in range(200):
        a = GroupElement((rand_quat(rng),), tuple(rng.randint(-4, 4) for _ in range(3)))
        b = GroupElement((rand_quat(rng),), tuple(rng.randint(-4, 4) for _ in range(3)))
        assert group_mul_with_convention(
            a, b, "minus_conj_beta_alpha"
        ) == group_mul_with_convention(a, b, "plus_conj_alpha_beta")


def test_dilation():
    p = SiegelPoint((Hypercomplex.zero(4),), Hypercomplex.from_real(4, 1))
    d = dilate(2, p)
    assert d.vertical == Hypercomplex.from_real(4, 4)
    rng = random.Random(11)
    for _ in range(50):
        pt = SiegelPoint((rand_quat(rng),), rand_quat(rng))
        assert dilate(3, pt).height() == 9 * pt.height()
    with pytest.raises(ValueError):
        dilate(0, p)


def test_dilation_factor_of_elements_and_exact_float_delta():
    h = GroupElement((q(1, 2, 3, 4),), (1, -2, 3))
    for delta in (0, -1, 0.0, -0.5):
        with pytest.raises(ValueError):
            dilate_element(delta, h)
    # a float delta is taken exactly: 0.5 scales by Fraction(1, 2)
    dh = dilate_element(0.5, h)
    assert dh.omega[0].comps == (Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert dh.t == (Fraction(1, 4), Fraction(-1, 2), Fraction(3, 4))
    p = SiegelPoint((q(1, -1, 0, 2),), q(8, 4, 0, -4))
    dp = dilate(0.5, p)
    assert dp.horizontal[0].comps == (Fraction(1, 2), Fraction(-1, 2), 0, 1)
    assert dp.vertical.comps == (2, 1, 0, -1)
    assert all(isinstance(c, (int, Fraction)) for c in dp.horizontal[0].comps + dp.vertical.comps)


def test_rotation_example():
    p = SiegelPoint((e(4, 2),), Hypercomplex.from_real(4, 1))
    r = rotate((e(4, 1),), p)
    assert r.horizontal == (e(4, 3),)
    assert r.vertical == p.vertical
    assert r.height() == p.height()
    with pytest.raises(ValueError):
        rotate((q(2, 0, 0, 0),), p)


def test_boundary_parameterization():
    assert boundary_param(identity_element("quaternionic", 1)) == SiegelPoint(
        (Hypercomplex.zero(4),), Hypercomplex.zero(4)
    )
    h = GroupElement((e(4, 1),), (1, 0, 0))
    p = boundary_param(h)
    assert p.vertical == Hypercomplex((1, 1, 0, 0))
    rng = random.Random(13)
    for _ in range(100):
        g = GroupElement((rand_quat(rng),), tuple(rng.randint(-5, 5) for _ in range(3)))
        assert boundary_unparam(boundary_param(g)) == g
    with pytest.raises(ValueError):
        boundary_unparam(SiegelPoint((Hypercomplex.zero(4),), Hypercomplex.from_real(4, 1)))


def test_octonionic_boundary_parameterization():
    h = GroupElement((e(8, 3),), (0, 0, 0, 0, 0, 0, 2))
    p = boundary_param(h)
    assert p.vertical == Hypercomplex((1, 0, 0, 0, 0, 0, 0, 2))
    assert boundary_unparam(p) == h


def test_cayley_center_and_boundary():
    center = SiegelPoint((Hypercomplex.zero(8),), Hypercomplex.from_real(8, 1))
    b = cayley(center)
    assert b.sigma1 == b.sigma2 == Hypercomplex.zero(8)

    bp = SiegelPoint((Hypercomplex.zero(8),), e(8, 1))
    ball = cayley(bp)
    assert ball.sigma1 == Hypercomplex.zero(8)
    assert ball.sigma2 == -e(8, 1)
    assert ball.norm_sq_sum() == 1


def _norms(comps):
    return np.sqrt(sum_squares(comps))


def test_cayley_roundtrip_random():
    # the draws of 3,000 points drawn one at a time, as columns
    draws = np.random.default_rng(0).uniform(_ROUNDTRIP_LOW, _ROUNDTRIP_HIGH, (3000, 16))
    tau1 = tuple(draws[:, :8].T)
    tau2 = (sum_squares(tau1) + draws[:, 8],) + tuple(draws[:, 9:].T)
    sigma1, sigma2 = cayley_columns(tau1, tau2)
    assert np.all(sum_squares(sigma1) + sum_squares(sigma2) < 1)
    for back, tau in zip(cayley_columns(sigma1, sigma2, inverse=True), (tau1, tau2)):
        # max |a - b| <= max(1e-12, 1e-12 * max(|a|, |b|)) on every row
        diff = np.max(np.abs(np.array(back) - np.array(tau)), axis=0)
        assert np.all(diff <= np.maximum(1e-12, 1e-12 * np.maximum(_norms(back), _norms(tau))))


def test_cayley_pole():
    p = SiegelPoint((Hypercomplex.zero(8),), Hypercomplex.from_real(8, -1))
    with pytest.raises(ZeroDivisionError):
        cayley(p)


def _hex(comps):
    return [float(c).hex() for c in comps]


def test_cayley_columns_match_points_bit_for_bit():
    rng = np.random.default_rng(3)
    tau1 = rng.uniform(-1, 1, (300, 8))
    tau2 = np.concatenate([np.sum(tau1 * tau1, axis=1, keepdims=True), rng.uniform(-2, 2, (300, 7))], axis=1)
    tau2[::2, 0] += rng.uniform(0.05, 3.0, 150)
    tau1[7, 3] = tau2[7, 5] = -0.0
    # the exact boundary point (0, e1), in floats
    tau1[0], tau2[0] = 0.0, [0.0, 1.0] + [0.0] * 6
    sigma1, sigma2 = cayley_columns(tuple(tau1.T), tuple(tau2.T))
    back1, back2 = cayley_columns(sigma1, sigma2, inverse=True)
    for i in range(300):
        # the same function on the row's Python floats
        ball1, ball2 = cayley_columns(tuple(tau1[i].tolist()), tuple(tau2[i].tolist()))
        assert _hex(c[i] for c in sigma1) == _hex(ball1)
        assert _hex(c[i] for c in sigma2) == _hex(ball2)
        row1, row2 = cayley_columns(ball1, ball2, inverse=True)
        assert _hex(c[i] for c in back1) == _hex(row1)
        assert _hex(c[i] for c in back2) == _hex(row2)
    assert _hex(c[0] for c in sigma2) == _hex([0.0, -1.0] + [0.0] * 6)


def test_cayley_columns_block_with_pole_raises():
    tau1 = tuple(np.zeros(3) for _ in range(8))
    tau2 = (np.array([1.0, -1.0, 2.0]),) + tuple(np.zeros(3) for _ in range(7))
    with pytest.raises(ZeroDivisionError, match="tau2 = -1"):
        cayley_columns(tau1, tau2)
    sigma2 = (np.array([0.5, -1.0]),) + tuple(np.zeros(2) for _ in range(7))
    with pytest.raises(ZeroDivisionError, match="sigma2 = -1"):
        cayley_columns(tuple(np.zeros(2) for _ in range(8)), sigma2, inverse=True)


def test_rho_length():
    assert rho_length(GroupElement((Hypercomplex.zero(4),), (4, 0, 0))) == 2.0
    assert rho_length(GroupElement((e(4, 1),), (0, 0, 0))) == 1.0
    rng = random.Random(15)
    for _ in range(100):
        h = GroupElement(
            (Hypercomplex([Fraction(rng.uniform(-3, 3)) for _ in range(4)]),),
            tuple(Fraction(rng.uniform(-3, 3)) for _ in range(3)),
        )
        assert rho_length(dilate_element(3.0, h)) == pytest.approx(3.0 * rho_length(h), rel=1e-12)
        assert rho_length(group_inverse(h)) == rho_length(h)


def test_homogeneous_dim():
    assert homogeneous_dim(1) == 10
    assert homogeneous_dim(2) == 14


def test_octonionic_translation_height():
    rng = random.Random(17)
    for _ in range(100):
        h = GroupElement((rand_oct(rng),), tuple(rng.randint(-4, 4) for _ in range(7)))
        p = SiegelPoint((rand_oct(rng),), rand_oct(rng))
        assert translate(h, p).height() == p.height()


def test_identity_element_checks_its_kind_and_n():
    for kind in ("quaternonic", "Quaternionic", "complex"):
        with pytest.raises(ValueError, match="'quaternionic' or 'octonionic'"):
            identity_element(kind, 1)
    with pytest.raises(ValueError, match="single coordinate"):
        identity_element("octonionic", 3)
    assert identity_element("octonionic").n == 1
    assert identity_element("quaternionic", 2) == GroupElement((Hypercomplex.zero(4),) * 2, (0, 0, 0))


@pytest.mark.parametrize("kind, n", [("quaternionic", 1), ("quaternionic", 2), ("octonionic", 1)])
def test_group_mul_columns_on_object_columns_is_the_object_product(kind, n):
    rng = random.Random(23)
    dim, rows = (4 if kind == "quaternionic" else 8), 30

    def element():
        return GroupElement(
            tuple(Hypercomplex([rng.randint(-4, 4) for _ in range(dim)]) for _ in range(n)),
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim - 1)),
        )

    def columns(elements):
        omega = tuple(
            tuple(np.array([h.omega[j].comps[i] for h in elements], dtype=object) for i in range(dim))
            for j in range(n)
        )
        return omega, tuple(np.array([h.t[i] for h in elements], dtype=object) for i in range(dim - 1))

    a, b = [element() for _ in range(rows)], [element() for _ in range(rows)]
    for conv in ("minus_conj_beta_alpha", "plus_conj_alpha_beta"):
        omega, t = group_mul_columns(*columns(a), *columns(b), conv)
        for row in range(rows):
            got = GroupElement(
                tuple(Hypercomplex([c[row] for c in w]) for w in omega), tuple(c[row] for c in t)
            )
            assert got == group_mul_with_convention(a[row], b[row], conv)
    with pytest.raises(ValueError, match="unknown convention"):
        group_mul_columns(*columns(a), *columns(b), "conj_alpha_beta")


def test_kind_mismatch_raises():
    a = GroupElement((e(4, 1),), (0, 0, 0))
    b = GroupElement((e(8, 1),), (0,) * 7)
    with pytest.raises(ValueError):
        group_mul(a, b)


def test_points_and_elements_are_exact():
    # a float coordinate is refused where its value is built, and the maps
    # return exact components
    one = Hypercomplex.from_real(4, 1)
    for build in (
        lambda: Hypercomplex((0.5, 0.0, 0.0, 0.0)),
        lambda: GroupElement((one,), (0, 0.5, 0)),
    ):
        with pytest.raises(TypeError):
            build()
    h = GroupElement((q(Fraction(1, 2), 0, 1, 0),), (1, Fraction(1, 3), 0))
    p = translate(h, SiegelPoint((one,), Hypercomplex.from_real(4, 3)))
    b = cayley(SiegelPoint((Hypercomplex.basis(8, 1) * Fraction(1, 2),), Hypercomplex.from_real(8, 1)))
    back = cayley_inv(b)
    for value in (*p.horizontal, p.vertical, b.sigma1, b.sigma2, *back.horizontal, back.vertical):
        assert all(type(c) in (int, Fraction) for c in value.comps)
    assert all(type(c) in (int, Fraction) for c in h.t)
    assert not hasattr(SiegelPoint((one,), one), "exact")
    assert not hasattr(GroupElement((one,), (0, 0, 0)), "exact")


def test_point_needs_a_horizontal_coordinate():
    # as a group element does: the maps take the algebra's dimension from q'
    with pytest.raises(ValueError, match="empty horizontal part"):
        SiegelPoint((), Hypercomplex.from_real(4, 1))


@pytest.mark.parametrize(
    "horizontal, dim, message",
    [
        ((), 4, "empty horizontal part"),
        ((Hypercomplex.zero(4), Hypercomplex.zero(8)), 4, "mixed algebra dimensions"),
        ((Hypercomplex.zero(8), Hypercomplex.zero(8)), 8, "single coordinate"),
    ],
    ids=["empty", "mixed", "two-octonionic"],
)
def test_points_and_elements_check_the_horizontal_part_alike(horizontal, dim, message):
    with pytest.raises(ValueError, match=message):
        SiegelPoint(horizontal, Hypercomplex.from_real(dim, 1))
    with pytest.raises(ValueError, match=message):
        GroupElement(horizontal, (0,) * (dim - 1))


def _row(x, i):
    """Row i of nested sequences of float columns, as Python floats."""
    return tuple(_row(c, i) for c in x) if isinstance(x, tuple) else float(x[i])


def _flat_hex(x):
    return [h for c in x for h in _flat_hex(c)] if isinstance(x, tuple) else [x.hex()]


def test_column_maps_match_each_row_bit_for_bit():
    rng = np.random.default_rng(5)
    rows = 40

    def columns(count):
        return tuple(rng.uniform(-2, 2, (count, rows)))

    q, omega, rotation = ((columns(4), columns(4)) for _ in range(3))
    v, u, t = columns(4), columns(4), columns(3)
    delta = rng.uniform(0.5, 2, rows)
    for c in (q[0][1], q[1][0], v[2], u[3], omega[1][2], t[0], rotation[0][0]):
        c[::3] = -0.0
    v[0][1] = -0.0
    for fn, args in (
        (translate_columns, (omega, t, q, v)),
        (dilate_columns, (delta, q, v)),
        (rotate_columns, (rotation, q, v)),
        (nu_columns, (q, v, omega, u)),
    ):
        out = fn(*args)
        for i in range(rows):
            assert _flat_hex(_row(out, i)) == _flat_hex(fn(*_row(args, i))), (fn.__name__, i)


def test_translation_leaves_nu_invariant_as_polynomials():
    # nu(T_h q, T_h w) - nu(q, w) = 0 identically in the 23 real coordinates of
    # q', q_2, w', w_2, h' and t (n = 1), run through the same column maps
    xs = [RatPoly.variable(23, i) for i in range(23)]
    q1, v, w1, u, h1 = (tuple(xs[4 * i : 4 * i + 4]) for i in range(5))
    t = tuple(xs[20:])
    before = nu_columns((q1,), v, (w1,), u)
    after = nu_columns(*translate_columns((h1,), t, (q1,), v), *translate_columns((h1,), t, (w1,), u))
    assert not before[0].is_zero()
    assert all((a - b).is_zero() for a, b in zip(after, before))


def _polynomial_columns(count):
    """Component sequences of ``count`` coordinates and the dilation factor delta, as RatPoly variables."""
    xs = [RatPoly.variable(count + 1, i) for i in range(count + 1)]
    return xs[:count], xs[count]


@pytest.mark.parametrize("convention", ["minus_conj_beta_alpha", "plus_conj_alpha_beta"])
@pytest.mark.parametrize("dim, n", [(4, 1), (4, 2), (8, 1)])
def test_dilation_is_an_automorphism_of_the_group_law_as_polynomials(dim, n, convention):
    # delta o ([alpha, t][beta, s]) = (delta o [alpha, t])(delta o [beta, s])
    # identically in delta and the coordinates of both elements: the sampled
    # group checks run on their samples dilated by 6
    size = n * dim + dim - 1
    xs, delta = _polynomial_columns(2 * size)

    def element(start):
        comps = xs[start : start + size]
        return tuple(tuple(comps[i : i + dim]) for i in range(0, n * dim, dim)), tuple(comps[n * dim :])

    a, b = element(0), element(size)
    omega, t = dilate_columns(delta, *group_mul_columns(*a, *b, convention))
    want_omega, want_t = group_mul_columns(*dilate_columns(delta, *a), *dilate_columns(delta, *b), convention)
    assert omega == want_omega and t == want_t
    # the twisted terms delta^2 alpha_i beta_j are there
    assert max(sum(key) for c in t for key in c.terms) == 4


@pytest.mark.parametrize("dim", [4, 8])
def test_dilation_commutes_with_translation_as_polynomials(dim):
    # delta o T_h (q', v) = T_{delta o h} (delta q', delta^2 v) identically in
    # delta and the coordinates of h and of the point (n = 1)
    xs, delta = _polynomial_columns(4 * dim - 1)
    h = ((tuple(xs[:dim]),), tuple(xs[dim : 2 * dim - 1]))
    p = ((tuple(xs[2 * dim - 1 : 3 * dim - 1]),), tuple(xs[3 * dim - 1 :]))
    q, v = dilate_columns(delta, *translate_columns(*h, *p))
    want_q, want_v = translate_columns(*dilate_columns(delta, *h), *dilate_columns(delta, *p))
    assert q == want_q and v == want_v
    assert max(sum(key) for key in v[0].terms) == 4


def test_column_maps_on_exact_components_are_the_object_maps():
    rng = random.Random(19)

    def point():
        return SiegelPoint((rand_quat(rng), rand_quat(rng)), rand_quat(rng))

    def comps(p):
        return tuple(h.comps for h in p.horizontal), p.vertical.comps

    for _ in range(50):
        p, w = point(), point()
        omega = (rand_quat(rng), rand_quat(rng))
        t = tuple(Fraction(rng.randint(-9, 9), 4) for _ in range(3))
        rotation = (e(4, rng.randint(0, 3)), -e(4, rng.randint(0, 3)))
        delta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        moved = translate(GroupElement(omega, t), p)
        assert comps(moved) == translate_columns(tuple(h.comps for h in omega), t, *comps(p))
        assert comps(dilate(delta, p)) == dilate_columns(delta, *comps(p))
        turned = rotate(rotation, p)
        assert comps(turned) == rotate_columns(tuple(r.comps for r in rotation), *comps(p))
        assert szego_nu(p, w).comps == nu_columns(*comps(p), *comps(w))
