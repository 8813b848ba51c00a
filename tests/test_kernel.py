"""Construction and evaluation of the Cauchy and Szego kernels."""

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qszego.geometry import (
    GroupElement,
    SiegelPoint,
    dilate_columns,
    nu_columns,
    rotate_columns,
    translate,
    translate_columns,
)
from qszego.hypercomplex import Hypercomplex, conj, sum_squares
from qszego import kernel as kernel_module
from qszego.kernel import (
    KernelOrder,
    KernelValue,
    PiScaledKernel,
    QuaternionicDensity,
    cauchy_kernel,
    complex_szego_closed_form,
    density_closed_form,
    density_values,
    gegenbauer_coefficients,
    group_kernel,
    newton_derivative,
    newton_potential,
    szego_density,
    szego_eval,
    szego_nu,
)
from qszego.polyfrac import HyperFrac, RadialFraction, RatPoly
from qszego.verify import _multi_indices

PI = math.pi


def origin_point(n=1):
    return SiegelPoint(
        tuple(Hypercomplex.zero(4) for _ in range(n)), Hypercomplex.from_real(4, 1)
    )


def test_newton_potential_values():
    n = newton_potential()
    assert n.eval((1, 0, 0, 0)) == 1
    assert n.eval((0, 2, 0, 0)) == Fraction(1, 4)


def test_newton_derivative_cache_consistency():
    d = newton_derivative((2, 0, 0, 0))
    assert d == newton_potential().deriv(0).deriv(0)
    assert newton_derivative((0, 0, 0, 0)) == newton_potential()


def test_cauchy_kernel_values():
    e = cauchy_kernel(4)
    v = e.eval((1, 0, 0, 0))
    assert abs(v.comps[0] - 1 / (2 * PI**2)) < 1e-15
    w = e.eval((0, 1, 0, 0))
    assert abs(w.comps[1] + 1 / (2 * PI**2)) < 1e-15
    assert e.body.dirac("left").is_zero()
    with pytest.raises(ValueError):
        cauchy_kernel(8)


def test_cauchy_kernel_complex_case():
    e = cauchy_kernel(2)
    v = e.eval((1, 0))
    assert abs(v.comps[0] - 1 / (2 * PI)) < 1e-16
    assert e.body.dirac("left").is_zero()


def test_density_construction_thread_safe():
    # the per-order cache has a once-only guard; hammer it from threads
    import threading

    from qszego import kernel as kernel_mod

    with kernel_mod._DENSITY_LOCK:
        kernel_mod._DENSITY_CACHE.pop((4, 2), None)
    results = []

    def build():
        results.append(szego_density(KernelOrder(2)))

    threads = [threading.Thread(target=build) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)


def _density_per_order(order):
    """The density by the per-order loop: d steps from the Cauchy kernel itself."""
    e = cauchy_kernel(order.m)
    d = order.deriv_order
    head, radial = e.body.comps[0], RadialFraction(RatPoly.const(order.m, 1), order.m // 2)
    for _ in range(d):
        head, radial = head.deriv(0), radial.deriv(0)
    comps = (head,) + tuple(RadialFraction(c.num * radial.num, radial.k) for c in e.body.comps[1:])
    return PiScaledKernel(e.coeff * Fraction(-2) ** d, e.pi_pow - d, HyperFrac(comps))


def _clear_densities():
    with kernel_module._DENSITY_LOCK:
        kernel_module._DENSITY_CACHE.clear()
        kernel_module._DENSITY_CHAIN_ENDS.clear()


@pytest.mark.parametrize("build_order", ["ascending", "5-2-8"])
def test_density_chain_equals_the_per_order_loop(build_order):
    # the shared chain takes the per-order loop's steps, so every numerator
    # has its keys in the same order with the same coefficients; built out
    # of order, a lower order starts again and a higher one continues
    _clear_densities()
    orders = [KernelOrder(n, 4) for n in range(1, 9)] + [KernelOrder(n, 2) for n in range(1, 6)]
    if build_order == "5-2-8":
        first = [KernelOrder(5), KernelOrder(2), KernelOrder(8), KernelOrder(5, 2), KernelOrder(2, 2)]
        orders = first + [o for o in orders if o not in first]
    for order in orders:
        got, want = szego_density(order), _density_per_order(order)
        assert (got.coeff, got.pi_pow) == (want.coeff, want.pi_pow)
        assert [(c.k, list(c.num.terms.items())) for c in got.body.comps] == [
            (c.k, list(c.num.terms.items())) for c in want.body.comps
        ]


def test_density_orders_share_one_derivative_chain(monkeypatch):
    # orders 1..6 of m = 4 take 2 * 6 steps of two derivatives each, where
    # building each order from the Cauchy kernel takes 4 * (1 + ... + 6) = 84
    _clear_densities()
    deriv = RadialFraction.deriv
    calls = []
    monkeypatch.setattr(RadialFraction, "deriv", lambda f, i: calls.append(i) or deriv(f, i))
    for n in range(1, 7):
        szego_density(KernelOrder(n))
    assert len(calls) == 24


@pytest.mark.parametrize("m", (2, 4))
def test_density_matches_componentwise_derivatives(m):
    # the density taken the long way: d x0-derivatives of every Cauchy component
    e = cauchy_kernel(m)
    for n in range(1, 5):
        order = KernelOrder(n, m=m)
        comps = e.body.comps
        for _ in range(order.deriv_order):
            comps = tuple(c.deriv(0) for c in comps)
        d = order.deriv_order
        assert szego_density(order) == PiScaledKernel(
            e.coeff * (-2) ** d, e.pi_pow - d, HyperFrac(comps)
        )


@pytest.mark.parametrize("m", (2, 4))
def test_kernel_builds_one_float_plan(monkeypatch, m):
    # one plan per kernel object serves every one-point and many-point call,
    # with the values of the body's own evaluator
    build = kernel_module.float_plan
    builds = []
    monkeypatch.setattr(kernel_module, "float_plan", lambda fracs: builds.append(fracs) or build(fracs))
    pts = np.random.default_rng(m).uniform(-3, 3, (20, m))
    kernel = cauchy_kernel(m)
    values = [kernel.eval(tuple(p)) for p in pts] + [kernel.eval(tuple(pts[0]))]
    rows = kernel.eval_array(pts)
    assert builds == [kernel.body.comps]
    want = kernel.body.eval_array(pts) * kernel.prefactor()
    assert rows.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert [list(v.comps) for v in values[:-1]] == rows.tolist()


@pytest.mark.parametrize("m", (2, 4))
def test_one_point_eval_is_an_eval_array_row(m):
    rng = np.random.default_rng(m)
    pts = rng.uniform(-3, 3, (50, m))
    for kernel in (cauchy_kernel(m), szego_density(KernelOrder(2, m=m))):
        rows = kernel.eval_array(pts)
        for p, row in zip(pts, rows):
            v = kernel.eval(tuple(p))
            # a KernelValue: the row's Python floats, and abs() is math.sqrt
            # of their sum of squares added from the integer 0, bit for bit
            assert isinstance(v, KernelValue) and all(type(c) is float for c in v.comps)
            assert [c.hex() for c in v.comps] == [float(c).hex() for c in row]
            acc = 0
            for c in row.tolist():
                acc += c * c
            assert abs(v).hex() == math.sqrt(acc).hex()


def test_abs_beyond_the_square_range():
    # at |nu| = 1e-40 and 1e31 the only nonzero component is 2.46e199 and
    # 2.46e-156, whose squares overflow and fall below the normal floats;
    # the modulus is that component, bit for bit
    density = szego_density(KernelOrder(1))
    for x0, square in ((1e-40, math.inf), (1e31, 6.0704e-312)):
        v = density.eval([x0, 0, 0, 0])
        assert v.comps[1:] == (0.0, 0.0, 0.0)
        assert v.comps[0] * v.comps[0] == pytest.approx(square, rel=1e-4)
        assert abs(v) == v.comps[0]
    for e in (700, -700):
        assert abs(KernelValue((math.ldexp(3, e), math.ldexp(-4, e), 0.0, 0.0))) == math.ldexp(5, e)
    with pytest.raises(OverflowError):
        abs(KernelValue((1e308, 1e308, -1e308, 1e308)))


def test_szego_density_base_value():
    # two quotient-rule passes on x0/|x|^4 give 12 at e0; times (4/pi^2)/(2 pi^2)
    s = szego_density(KernelOrder(1))
    v = s.eval((1, 0, 0, 0))
    assert abs(v.comps[0] - 24 / PI**4) < 1e-15
    assert v.comps[0] == pytest.approx(0.2463836, abs=1e-7)


def test_szego_density_homogeneity_value():
    s = szego_density(KernelOrder(1))
    v1 = s.eval((1, 0, 0, 0)).comps[0]
    v2 = s.eval((2, 0, 0, 0)).comps[0]
    assert abs(v2 - v1 / 2**5) < 1e-16


@pytest.mark.parametrize("n", [1, 2, 3])
def test_density_dirac_annihilation(n):
    assert szego_density(KernelOrder(n)).body.dirac("left").is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_density_body_homogeneous(n):
    s = szego_density(KernelOrder(n))
    for c in s.body.comps:
        if not c.is_zero():
            assert c.num.homogeneous_degree() == 2 * c.k - (2 * n + 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_density_degree(n):
    assert szego_density(KernelOrder(n)).body.degree() == -(2 * n + 3)


def test_newton_derivative_degree():
    # a partial of order |a| of |x|^-2 has degree -(|a| + 2)
    for a in _multi_indices(4):
        assert HyperFrac((newton_derivative(a), RadialFraction.zero(4))).degree() == -(sum(a) + 2)


def test_density_rejects_octonionic_order():
    with pytest.raises(ValueError):
        KernelOrder(1, m=8)


def test_szego_eval_base_point():
    p = origin_point()
    v = szego_eval(1, p, p)
    assert abs(v.comps[0] - 3 / (4 * PI**4)) < 1e-16
    assert szego_nu(p, p) == Hypercomplex.from_real(4, 2)


def test_szego_eval_singular():
    # coincident boundary points give nu = 0
    bp = SiegelPoint((Hypercomplex.zero(4),), Hypercomplex.zero(4))
    with pytest.raises(ZeroDivisionError):
        szego_eval(1, bp, bp)


def _random_interior(rng):
    """The float components (q', q_2) of a random interior point, n = 1."""
    q1 = tuple(rng.uniform(-1, 1) for _ in range(4))
    vert = (sum_squares(q1) + rng.uniform(0.2, 2.0),) + tuple(rng.uniform(-1, 1) for _ in range(3))
    return (q1,), vert


def _kernel(q, w):
    """The components of S(q, w) at float components, n = 1."""
    return szego_density(1).eval(nu_columns(*q, *w)).comps


def _close(a, b, rel):
    """max |a_i - b_i| <= rel * max(|a|, |b|) on two component tuples."""
    diff = max(abs(x - y) for x, y in zip(a, b))
    return diff <= rel * max(math.sqrt(sum_squares(a)), math.sqrt(sum_squares(b)))


def _scaled(c, factor):
    return tuple(x * factor for x in c)


def test_hermitian_symmetry():
    rng = random.Random(13)
    for _ in range(50):
        q, w = _random_interior(rng), _random_interior(rng)
        lhs = _kernel(q, w)
        rhs = conj(_kernel(w, q))
        assert _close(lhs, rhs, rel=1e-12)


def test_dilation_invariance():
    rng = random.Random(15)
    for _ in range(20):
        q, w = _random_interior(rng), _random_interior(rng)
        base = _kernel(q, w)
        scaled = _scaled(_kernel(dilate_columns(2.0, *q), dilate_columns(2.0, *w)), 2.0**10)
        assert _close(scaled, base, rel=1e-10)


def test_rotation_invariance():
    rng = random.Random(17)
    for _ in range(20):
        q, w = _random_interior(rng), _random_interior(rng)
        u = [rng.uniform(-1, 1) for _ in range(4)]
        u = _scaled(u, 1.0 / math.sqrt(sum_squares(u)))
        assert _close(
            _kernel(rotate_columns((u,), *q), rotate_columns((u,), *w)), _kernel(q, w), rel=1e-10
        )


def test_translation_invariance():
    rng = random.Random(19)
    for _ in range(20):
        q, w = _random_interior(rng), _random_interior(rng)
        omega = (tuple(rng.uniform(-1, 1) for _ in range(4)),)
        t = tuple(rng.uniform(-1, 1) for _ in range(3))
        assert _close(
            _kernel(translate_columns(omega, t, *q), translate_columns(omega, t, *w)),
            _kernel(q, w),
            rel=1e-10,
        )


def test_complex_closed_form_values():
    assert abs(complex_szego_closed_form(1, 2.0) - 1 / (4 * PI**2)) < 1e-16
    assert abs(complex_szego_closed_form(1, 1.0) - 1 / PI**2) < 1e-16
    with pytest.raises(ZeroDivisionError):
        complex_szego_closed_form(1, 0)


def test_complex_density_matches_closed_form():
    rng = random.Random(21)
    for n in (1, 2, 3):
        s = szego_density(KernelOrder(n, m=2))
        for _ in range(100):
            nu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(nu) < 0.2:
                continue
            v = s.eval((nu.real, nu.imag))
            got = complex(float(v.comps[0]), float(v.comps[1]))
            want = complex_szego_closed_form(n, nu)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_unified_complex_density_symbolic():
    # closed form 2^(n-1) n! pi^-(n+1) conj(nu)^(n+1) / |nu|^(2n+2)
    for n in (1, 2, 3, 4):
        s = szego_density(KernelOrder(n, m=2))
        x0, x1 = RatPoly.variable(2, 0), RatPoly.variable(2, 1)
        re_p, im_p = RatPoly.const(2, 1), RatPoly.zero(2)
        for _ in range(n + 1):
            re_p, im_p = re_p * x0 + im_p * x1, im_p * x0 - re_p * x1
        closed = PiScaledKernel(
            Fraction(2 ** (n - 1) * math.factorial(n)),
            -(n + 1),
            HyperFrac((RadialFraction(re_p, n + 1), RadialFraction(im_p, n + 1))),
        )
        assert s.scaled_equal(closed)


def test_group_kernel_unit_imaginary():
    # s(e1): the e1 component of the density body at (0,1,0,0) is 4
    h = GroupElement((Hypercomplex.zero(4),), (1, 0, 0))
    v = group_kernel(KernelOrder(1), h, 0.0)
    assert abs(v.comps[1] - 8 / PI**4) < 1e-15
    assert abs(v.comps[0]) < 1e-18


def test_group_kernel_identity_with_eps():
    h = GroupElement((Hypercomplex.zero(4),), (0, 0, 0))
    v = group_kernel(KernelOrder(1), h, 1.0)
    assert abs(v.comps[0] - 24 / PI**4) < 1e-15
    with pytest.raises(ZeroDivisionError):
        group_kernel(KernelOrder(1), h, 0.0)


def test_group_kernel_dilation_homogeneity():
    rng = random.Random(23)
    d = 10  # 4n + 6 at n = 1
    for _ in range(20):
        w = Hypercomplex([Fraction(rng.uniform(-1, 1)) for _ in range(4)])
        t = tuple(Fraction(rng.uniform(-1, 1)) for _ in range(3))
        h = GroupElement((w,), t)
        h3 = GroupElement((w * 3,), tuple(9 * v for v in t))
        base = group_kernel(KernelOrder(1), h).comps
        scaled = group_kernel(KernelOrder(1), h3).comps
        assert _close(_scaled(scaled, 3.0**d), base, rel=1e-12)


def test_group_kernel_matches_full_kernel():
    # K_eps(h) = S(h(0) + eps e0, 0-boundary-point)
    rng = random.Random(25)
    origin = SiegelPoint((Hypercomplex.zero(4),), Hypercomplex.zero(4))
    for _ in range(10):
        w = Hypercomplex([Fraction(rng.uniform(-1, 1)) for _ in range(4)])
        t = tuple(Fraction(rng.uniform(-1, 1)) for _ in range(3))
        h = GroupElement((w,), t)
        eps = rng.uniform(0.1, 1.0)
        moved = translate(h, origin)
        shifted = SiegelPoint(
            moved.horizontal, moved.vertical + Hypercomplex.from_real(4, Fraction(eps))
        )
        got, want = group_kernel(KernelOrder(1), h, eps), szego_eval(1, shifted, origin)
        assert isinstance(got, KernelValue) and isinstance(want, KernelValue)
        assert _close(got.comps, want.comps, rel=1e-12)


def test_kernel_json_roundtrip(tmp_path):
    s = szego_density(KernelOrder(2))
    data = s.to_json()
    back = PiScaledKernel.from_json(data)
    assert back.coeff == s.coeff
    assert back.pi_pow == s.pi_pow
    assert back.body == s.body


# sha256 of json.dumps(szego_density(KernelOrder(n, m)).to_json(), sort_keys=True),
# recorded when RadialFraction still divided every numerator by |x|^2 as far
# as it would go: the forms built without that division must be the same.
DENSITY_JSON_SHA256 = {
    (4, 1): "f57d5c6cbf3671266604655c81a8c0d4e5040c94b4cd834697fe62119ab20081",
    (4, 2): "e74f8dbe28e0ce7812f8c83e99b201447fd00fcac9a76d1ceb5b32a41aee75fa",
    (4, 3): "e38c4564c4e82d3e1d7008752052d63d7cee43e5942a36efbc89b81a60278cfd",
    (4, 4): "3b712ca9327e9f8ca63da05441097ee7d6d7f3bdc9c15e8cf32a787e8798b216",
    (4, 5): "9a45c2389d47c54795dd14f5e61dfdfc4dd9b9c8dbfe8e35f7c2d801705ad7a6",
    (4, 6): "c56c3a19af50dc08b11920baca81bb12e5d6ea27c7e1b3a97599e66dda57c432",
    (4, 7): "b41db2a03269f5e208e265bf7aead88f7b2ff61cc21b3b3fb7042731f4e77033",
    (4, 8): "67c79446a0ad131a8105f01a78007157e13aa6ea31837d18f7b27c4e2946a7ab",
    (4, 9): "d905250b78ad1d779888468aa3ea005058264133f02b0ceafceac5b8ff7a8185",
    (4, 10): "9af723020765c4f135e1b1413d77ca41dd8942a10ed5d3ce2e10e7dea7be2572",
    (4, 11): "8abcf659f71970be28ae2c580b0f1cdbfd310310dc1758b3d910110e56afc373",
    (2, 1): "2817f81c098081e58934fb047506515a1d0125df10004d6fff26fab9e6f524e4",
    (2, 2): "7b17ed3e13d092293aa835a0a60ab157a6d9302201c1fd5a3d631302c21c0058",
    (2, 3): "e8eed7b481058282ae940ab19b1a8d0f52642d0d652f512e144d9b9997c67395",
    (2, 4): "1b78c7a73cbea4fc5cfa5acc66e5c6d81c99fdd60611d9c00ecf7569c2152d16",
}


@pytest.mark.parametrize("m,n", sorted(DENSITY_JSON_SHA256))
def test_density_json_pinned(m, n):
    text = json.dumps(szego_density(KernelOrder(n, m)).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DENSITY_JSON_SHA256[(m, n)]


# ----------------------------------------------------------------------
# the Gegenbauer closed form: exact identity and float range


def test_gegenbauer_coefficients():
    # U_3 = 8c^3 - 4c, C^(2)_2 = 12c^2 - 2, C^(2)_4 = 80c^4 - 48c^2 + 3
    assert gegenbauer_coefficients(1, 3) == [8, -4]
    assert gegenbauer_coefficients(2, 2) == [12, -2]
    assert gegenbauer_coefficients(2, 4) == [80, -48, 3]
    assert all(type(a) is Fraction for a in gegenbauer_coefficients(2, 7))


@pytest.mark.parametrize("n", range(1, 9))
def test_density_closed_form_equals_the_derivative(n):
    assert density_closed_form(n) == szego_density(KernelOrder(n)).body


def test_quaternionic_density_type_and_equality():
    # the m = 4 density evaluates by the closed form; the m = 2 one by its
    # plan; equality reads coefficient, power of pi and body alone
    s4, s2 = szego_density(KernelOrder(2)), szego_density(KernelOrder(2, m=2))
    assert type(s4) is QuaternionicDensity and s4.n == 2
    assert type(s2) is PiScaledKernel
    plain = PiScaledKernel(s4.coeff, s4.pi_pow, s4.body)
    assert s4 == plain and plain == s4 and s4 != s2


def _exact_floats(density, point):
    """The density's exact value at an integer point, each component rounded once."""
    pre = Fraction(density.prefactor())
    return np.array([float(pre * c) for c in density.body.eval([int(v) for v in point]).comps])


def test_density_floats_match_the_exact_oracle_across_the_float_range():
    # random integer directions d, scaled by 2^m to |x| near every decade
    # from 1e-300 to 1e300; the body is homogeneous of degree -(2n+3), so
    # the exact value at d 2^m is the exact value at d times 2^(-(2n+3)m).
    # Points whose exact largest component is not a normal float are left
    # out; the rest must agree to 1e-12 of that component
    rng = np.random.default_rng(35)
    decades = 10.0 ** np.arange(-300, 301)
    for n in (1, 2, 3, 4, 5, 6, 10, 16, 24):
        density = szego_density(KernelOrder(n))
        degree = density.body.degree()
        assert degree == -(2 * n + 3)
        for d in rng.integers(-9, 10, (3, 4)):
            d[0] = d[0] or 1
            m = np.round(np.log2(decades / np.linalg.norm(d))).astype(int)
            with np.errstate(over="ignore", under="ignore"):
                want = np.ldexp(_exact_floats(density, d), (degree * m)[:, None])
            big = np.max(np.abs(want), axis=1)
            keep = (big >= np.finfo(float).tiny) & (big < np.inf)
            assert np.count_nonzero(keep) >= 10
            got = density.eval_array(np.ldexp(d.astype(float), m[keep][:, None]))
            err = np.max(np.abs(got - want[keep]), axis=1) / big[keep]
            assert np.max(err) <= 1e-12, (n, d.tolist())
    # the point whose per-term value was 3.1e-11 off; a float point is an
    # integer point over 2^E, so its exact value is 2^(E(2n+3)) times that
    density = szego_density(KernelOrder(24))
    nu = [Fraction(v) for v in (0.3, 0.5, 0.2, 0.7)]
    den = max(v.denominator for v in nu)
    pre = Fraction(density.prefactor())
    want = np.array([float(pre * c * den**51) for c in density.body.eval([v * den for v in nu]).comps])
    got = np.array(density.eval([float(v) for v in nu]).comps)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_density_value_that_rounds_to_zero_raises():
    # the rule for a nonzero value below the floats: a point whose every
    # component rounds to 0 raises (|s| is about 1e-1005 at |nu| = 1e200);
    # a component below the floats beside a representable one is rounded
    with pytest.raises(FloatingPointError, match="underflow"):
        density_values(1, (1e200, 0.0, 0.0, 0.0))
    value = density_values(1, (1e50, 1e-250, 0.0, 0.0))
    assert value[0] > 0 and value[1:].tolist() == [0.0, 0.0, 0.0]
    assert not np.signbit(value).any()


def test_density_point_bits_do_not_depend_on_the_block():
    # one point far outside the unit range sends its block through the
    # power-of-two scaling; the other points keep the bits they have alone
    pts = np.random.default_rng(4).uniform(-3, 3, (40, 4))
    alone = density_values(3, pts.T)
    mixed = density_values(3, np.concatenate([pts, [[1e-20, 2e-20, 0.0, 0.0]]]).T)
    assert np.array_equal(mixed[:-1].view(np.uint64), alone.view(np.uint64))
    scaled = density_values(3, (pts * 2.0**-60).T)
    assert np.array_equal(scaled.view(np.uint64), np.ldexp(alone, 9 * 60).view(np.uint64))


def test_density_columns_broadcast_like_the_plan():
    # axis columns give the bits of the points they span, and empty point
    # sets give empty values of the broadcast shape
    density = szego_density(KernelOrder(2))
    t = np.linspace(-2.0, 3.0, 7)
    axes = (1.5, t[:, None, None], -t[None, :, None], t[None, None, :])
    grid = np.stack(np.broadcast_arrays(*axes), axis=-1)
    got = density.eval_columns(axes)
    assert got.shape == (7, 7, 7, 4)
    assert np.array_equal(got.view(np.uint64), density.eval_array(grid).view(np.uint64))
    assert density.eval_array(np.zeros((0, 4))).shape == (0, 4)
    assert density.eval_array(np.ones((3, 0, 4))).shape == (3, 0, 4)
