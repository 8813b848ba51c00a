"""Gamma arithmetic, moment closed forms, and the integration engines."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qszego import polyfrac, quadrature, suites
from qszego.hypercomplex import mul_arrays
from qszego.kernel import KernelOrder, newton_derivative, szego_density
from qszego.polyfrac import _ROWS, eval_fractions
from qszego.quadrature import (
    BoundaryIntegrand,
    ExpDecay,
    PowerDecay,
    SqrtPiRational,
    _axis_rule,
    _boundary_level_radial,
    _sphere_level,
    _t_grid,
    exponential_moment_closed_form,
    gamma_half,
    integrate_boundary,
    integrate_r3,
    parseval_identity_check,
    sphere_moment,
    sphere_surface,
)
from qszego.verify import hardy_test_function_components

PI = math.pi


def _cut_levels(monkeypatch, count):
    """Cut every refinement in ``quadrature`` to its first ``count`` levels."""
    refine = quadrature._refine
    monkeypatch.setattr(quadrature, "_refine", lambda level, sizes, *tol: refine(level, list(sizes)[:count], *tol))


def _g(a):
    """g = ((1 + r^2)^2 + |t|^2)^(-a) on the boundary, homogeneous of degree -2a, at r = 0."""

    def fn(t1, t2, t3):
        return (1.0 + t1 * t1 + t2 * t2 + t3 * t3) ** (-float(a))

    return fn


def _g_exact(n, a):
    """The boundary integral of g over R^(4n) x R^3, exact.

    pi^(3/2) Gamma(a - 3/2) / Gamma(a) from t, then
    pi^(2n) Gamma(2a - 3 - 2n) / Gamma(2a - 3) from w'.
    """
    t_part = SqrtPiRational(1, 3) * gamma_half(2 * a - 3) / gamma_half(2 * a)
    w_part = SqrtPiRational(1, 4 * n) * gamma_half(4 * a - 6 - 4 * n) / gamma_half(4 * a - 6)
    return (t_part * w_part).to_float()


def test_gamma_half_values():
    assert gamma_half(1) == SqrtPiRational(Fraction(1), 1)  # Gamma(1/2) = sqrt(pi)
    assert gamma_half(3) == SqrtPiRational(Fraction(1, 2), 1)  # Gamma(3/2)
    assert gamma_half(2) == SqrtPiRational(Fraction(1), 0)  # Gamma(1) = 1
    assert gamma_half(8) == SqrtPiRational(Fraction(6), 0)  # Gamma(4) = 6
    with pytest.raises(ValueError):
        gamma_half(0)


def test_gamma_duplication_exact():
    # Gamma(x) Gamma(x + 1/2) = 2^(1-2x) Gamma(1/2) Gamma(2x) for 2x = 1..20
    for twice in range(1, 21):
        lhs = gamma_half(twice) * gamma_half(twice + 1)
        rhs = gamma_half(1) * gamma_half(2 * twice) * SqrtPiRational(Fraction(2) ** (1 - twice))
        assert lhs == rhs


def test_duplication_at_one():
    # Gamma(1) Gamma(3/2) = 2^-1 sqrt(pi) Gamma(2)
    assert gamma_half(2) * gamma_half(3) == SqrtPiRational(Fraction(1, 2), 1) * gamma_half(4)


def test_sqrtpi_addition_guards():
    with pytest.raises(ValueError):
        SqrtPiRational(Fraction(1), 1) + SqrtPiRational(Fraction(1), 2)
    assert SqrtPiRational.zero() + SqrtPiRational(Fraction(2), 3) == SqrtPiRational(Fraction(2), 3)


def test_moment_closed_form_base():
    m = exponential_moment_closed_form(1, 0, 0, 0, 0)
    assert m == SqrtPiRational(Fraction(8), 2)
    assert abs(m.to_float() - 8 * PI) < 1e-14


def test_moment_closed_form_scaled():
    m = exponential_moment_closed_form(2, 0, 0, 0, 0)
    assert abs(m.to_float() - PI) < 1e-15


def test_moment_closed_form_odd_is_zero():
    assert exponential_moment_closed_form(1, 0, 1, 0, 0).is_zero()
    assert exponential_moment_closed_form(3, 2, 0, 3, 0).is_zero()


def test_moment_negative_radial_exponent():
    # l0 = -2 stays integrable; value 2 a^-1 Gamma(1) * 2 pi = 4 pi / a
    m = exponential_moment_closed_form(2, -2, 0, 0, 0)
    assert abs(m.to_float() - 2 * PI) < 1e-14
    with pytest.raises(ValueError):
        exponential_moment_closed_form(1, -3, 0, 0, 0)


def _exponents(d, max_total):
    """Every exponent tuple in N^d of total at most ``max_total``."""
    return [a for a in itertools.product(range(max_total + 1), repeat=d) if sum(a) <= max_total]


def test_sphere_moment_values():
    # S^0 is two points; the circle, the sphere and their second moments
    assert sphere_moment((0,)) == SqrtPiRational(2)
    assert sphere_moment((0, 0)) == SqrtPiRational(2, 2)
    assert sphere_moment((0, 0, 0)) == SqrtPiRational(4, 2)
    assert sphere_moment((2, 0, 0)) == SqrtPiRational(Fraction(4, 3), 2)
    assert sphere_moment((2, 2)) == SqrtPiRational(Fraction(1, 4), 2)
    for bad in ((), (-1,), (2, -2, 0)):
        with pytest.raises(ValueError):
            sphere_moment(bad)


def test_sphere_moment_sums_to_the_lower_moment():
    # |xi|^2 = 1 on the sphere, so sum_i M(a + 2 e_i) = M(a): 791 exponent
    # tuples over d = 1..5, |a| <= 6, odd ones included
    checked = 0
    for d in range(1, 6):
        for a in _exponents(d, 6):
            raised = [tuple(ai + 2 * (i == j) for j, ai in enumerate(a)) for i in range(d)]
            total = SqrtPiRational.zero()
            for b in raised:
                total = total + sphere_moment(b)
            assert total == sphere_moment(a), a
            checked += 1
    assert checked == 791


def test_sphere_moment_vanishes_on_an_odd_exponent():
    for d in range(1, 6):
        for a in _exponents(d, 6):
            odd = any(ai % 2 for ai in a)
            assert sphere_moment(a).is_zero() == odd, a
            if not odd:
                assert sphere_moment(a).coef > 0


@pytest.mark.parametrize("d", range(1, 17))
def test_sphere_moment_of_one_is_the_sphere_surface(d):
    # the float surface feeds the boundary rule; it agrees with the exact one
    exact = sphere_moment((0,) * d).to_float()
    assert abs(sphere_surface(d) - exact) <= 1e-15 * exact


def _exponential_moment_product(a, l0, l1, l2, l3):
    """The exponential moment as its Gamma product, with the parity rule by hand."""
    if (l1 % 2) or (l2 % 2) or (l3 % 2):
        return SqrtPiRational.zero()
    l = l0 + l1 + l2 + l3
    k1, k2, k3 = l1 // 2, l2 // 2, l3 // 2
    num = gamma_half(2 * (l + 3)) * gamma_half(2 * k1 + 1) * gamma_half(2 * k2 + 1) * gamma_half(2 * k3 + 1)
    return (num / gamma_half(2 * (k1 + k2 + k3) + 3)) * 2 * (Fraction(a) ** (-(l + 3)))


def test_exponential_moment_is_its_gamma_product():
    # 15,435 tuples: five decay rates, l0 = -2..6 and every l_i <= 6
    checked = 0
    for a in (1, 2, 4, Fraction(3, 2), 0.5):
        for l0 in range(-2, 7):
            for l1, l2, l3 in itertools.product(range(7), repeat=3):
                want = _exponential_moment_product(a, l0, l1, l2, l3)
                assert exponential_moment_closed_form(a, l0, l1, l2, l3) == want
                checked += 1
    assert checked == 15435


def _radius(x1, x2, x3):
    """|x| from coordinate columns, in the order of ``np.linalg.norm(pts, axis=1)``."""
    return np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)


def test_integrate_r3_exponential():
    f = lambda *x: np.exp(-_radius(*x))
    res = integrate_r3(f, ExpDecay(1.0), (1, 1, 1), tol=1e-9)
    assert abs(res.value - 8 * PI) <= 1e-8 * 8 * PI
    assert res.n_evals > 0
    assert res.error_estimate >= 0


def test_integrate_r3_odd_vanishes():
    f = lambda x1, x2, x3: x1 * np.exp(-_radius(x1, x2, x3))
    res = integrate_r3(f, ExpDecay(1.0), (-1, 1, 1), tol=1e-9, abs_tol=1e-12)
    assert abs(res.value) < 1e-10


def test_integrate_r3_nonconvergence_reports_best(monkeypatch):
    # tolerance far below reachable: the result must carry the best value
    _cut_levels(monkeypatch, 2)
    f = lambda *x: np.exp(-_radius(*x))
    res = integrate_r3(f, ExpDecay(1.0), (1, 1, 1), tol=0.0)
    assert not res.converged
    assert abs(res.value - 8 * PI) < 1e-3


def test_integrate_r3_one_level_is_not_converged(monkeypatch):
    # one level gives no error estimate: not converged, not a budget error
    _cut_levels(monkeypatch, 1)
    f = lambda *x: np.exp(-_radius(*x))
    res = integrate_r3(f, ExpDecay(1.0), (1, 1, 1))
    assert not res.converged and res.error_estimate == math.inf and res.n_evals == 16 * 12 * 12


def test_sphere_level_columns_match_scalar_levels():
    # a leading axis of values (component-leading) is reduced value by value,
    # bit for bit as a one-value integrand is
    f = lambda x1, x2, x3: (1.0 + (x1 * x1 + x2 * x2 + x3 * x3)) ** -2.0
    g = lambda x1, x2, x3: x1**2 * (1.0 + (x1 * x1 + x2 * x2 + x3 * x3)) ** -3.0
    even = (1, 1, 1)
    both, used = _sphere_level(lambda *x: np.stack([f(*x), g(*x)]), PowerDecay(2.0), 16, 12, 12, (even, even))
    one_f, _ = _sphere_level(f, PowerDecay(2.0), 16, 12, 12, even)
    one_g, _ = _sphere_level(g, PowerDecay(2.0), 16, 12, 12, even)
    assert isinstance(one_f, float) and used == 2304
    assert [v.hex() for v in both] == [one_f.hex(), one_g.hex()]


def _full_azimuth(nphi):
    """cos and sin of all nphi azimuthal midpoints of the rule, symmetric by
    construction: the first quadrant's, from ``_azimuth``, and their exact
    sign flips and reversals (-c, s), (-c, -s) and (c, -s) of the mirrored
    node, so the nodes are bit-symmetric across the planes x2 = 0 and x3 = 0."""
    c, s = quadrature._azimuth(nphi)
    return np.concatenate([c, -c[::-1], -c, c[::-1]]), np.concatenate([s, s[::-1], -s, -s[::-1]])


def _radial_rule(decay, nr):
    u, wu = np.polynomial.legendre.leggauss(nr)
    r, jac = decay.map((u + 1.0) / 2.0)
    return r, wu / 2.0 * jac * r * r


def _sphere_level_per_node(f, decay, nr, nc, nphi, parity):
    """The spherical level with one integrand call per radial node on that
    node's stacked (nc / 2 * nphi / 4, 3) octant points (cos theta > 0 and
    the first-quadrant phi), passed as ``f(*pts.T)``, which returns the
    values or (C, ...) of them, and one ``np.sum`` per node and value, times
    its parity factor (1 + s1)(1 + s2)(1 + s3): the per-node reference the
    grouped column calls of ``_sphere_level`` must match bit for bit.
    Returns (value, evals)."""
    r, weight = _radial_rule(decay, nr)
    c, wc = np.polynomial.legendre.leggauss(nc)
    c, wc = c[nc // 2 :], wc[nc // 2 :]
    cphi, sphi = quadrature._azimuth(nphi)
    fold = np.prod(1.0 + np.reshape(np.asarray(parity, dtype=float), (-1, 3)), axis=1)
    wphi = 2.0 * math.pi / nphi
    s = np.sqrt(1.0 - c**2)
    total = 0.0
    for i in range(nr):
        x1 = np.broadcast_to((r[i] * c)[:, None], (len(c), len(cphi)))
        x2 = r[i] * s[:, None] * cphi[None, :]
        x3 = r[i] * s[:, None] * sphi[None, :]
        pts = np.stack([x1, x2, x3], axis=-1).reshape(-1, 3)
        vals = np.reshape(f(*pts.T), (-1, len(c), len(cphi)))
        angular = np.array([np.sum(v * wc[:, None]) * k * wphi for v, k in zip(vals, fold)])
        total = total + weight[i] * angular
    return (float(total[0]) if len(total) == 1 else total), nr * nc * nphi


def _sphere_level_unfolded(f, decay, nr, nc, nphi):
    """The spherical level at every one of its nr * nc * nphi points, on the
    symmetric azimuthal nodes of ``_full_azimuth``, one integrand call per
    radial node: the rule the folded level stands for.  Returns the values."""
    r, weight = _radial_rule(decay, nr)
    c, wc = np.polynomial.legendre.leggauss(nc)
    cphi, sphi = _full_azimuth(nphi)
    s = np.sqrt(1.0 - c**2)
    total = 0.0
    for i in range(nr):
        x1 = np.broadcast_to((r[i] * c)[:, None], (nc, nphi))
        vals = np.reshape(f(x1, r[i] * s[:, None] * cphi, r[i] * s[:, None] * sphi), (-1, nc, nphi))
        total = total + weight[i] * np.sum(vals * wc[:, None], axis=(-2, -1)) * (2.0 * math.pi / nphi)
    return total


@pytest.mark.parametrize("size", [(64, 24, 24), (16, 48, 48), (16, 12, 12)])
def test_sphere_level_groups_whole_radial_nodes(size):
    # one integrand call per group of whole radial nodes, at most _ROWS
    # evaluated points (one node when a node alone has more), on the group's
    # coordinate columns at the nc / 2 polar nodes with cos theta > 0 and
    # the nphi / 4 azimuthal nodes of the first quadrant; an odd and an even
    # value, folded by their parities, give the values of the per-node
    # octant reference on its stacked points
    nr, nc, nphi = size
    half, quarter = nc // 2, nphi // 4
    calls = []

    def f(x1, x2, x3):
        calls.append((x1.shape, x2.shape, x3.shape))
        r2 = x1 * x1 + x2 * x2 + x3 * x3
        return np.stack([x1 * (x2 * x2 * x2) * (1.0 + r2) ** -4.0, np.exp(-r2)])

    parity = ((-1, -1, 1), (1, 1, 1))
    got, used = _sphere_level(f, PowerDecay(2.0), nr, nc, nphi, parity)
    group = max(1, _ROWS // (half * quarter))
    sizes = [min(group, nr - i) for i in range(0, nr, group)]
    assert used == nr * nc * nphi
    assert calls == [((g, half, 1), (g, half, quarter), (g, half, quarter)) for g in sizes]
    want, _ = _sphere_level_per_node(f, PowerDecay(2.0), nr, nc, nphi, parity)
    assert [v.hex() for v in got] == [v.hex() for v in want] and got[0] == 0.0


_POWERS = list(itertools.product((1, 2), repeat=3))
_POWER_PARITIES = [tuple((-1) ** k for k in p) for p in _POWERS]


def _powers(x1, x2, x3):
    """x1^a x2^b x3^c exp(-|x|^2) for every a, b, c in {1, 2}, one value per
    triple, of parity ((-1)^a, (-1)^b, (-1)^c): every sign triple once."""
    radial = np.exp(-(x1 * x1 + x2 * x2 + x3 * x3))
    power = lambda x, k: x if k == 1 else x * x
    return np.stack([power(x1, a) * power(x2, b) * power(x3, c) * radial for a, b, c in _POWERS])


def test_folded_level_equals_unfolded_for_every_parity():
    # for every sign triple, the grouped level equals the per-node octant
    # reference bit for bit
    for size in [(16, 12, 12), (8, 14, 16)]:
        folded, used = _sphere_level(_powers, ExpDecay(1.0), *size, _POWER_PARITIES)
        octant, want_used = _sphere_level_per_node(_powers, ExpDecay(1.0), *size, _POWER_PARITIES)
        assert used == want_used == math.prod(size)
        assert folded.view(np.uint64).tolist() == octant.view(np.uint64).tolist()


@pytest.mark.parametrize("size", [(16, 12, 12), (8, 14, 16), (64, 24, 24)])
def test_folded_level_is_the_unfolded_rule_to_rounding(size):
    # summing the octant times (1 + s1)(1 + s2)(1 + s3) is the rule on all
    # of its points in exact arithmetic, so the two differ by rounding only:
    # at most 64 eps times the rule applied to |f|, for every sign triple
    folded, _ = _sphere_level(_powers, ExpDecay(1.0), *size, _POWER_PARITIES)
    unfolded = _sphere_level_unfolded(_powers, ExpDecay(1.0), *size)
    modulus = _sphere_level_unfolded(lambda *x: np.abs(_powers(*x)), ExpDecay(1.0), *size)
    assert np.all(np.abs(folded - unfolded) <= 64 * np.finfo(float).eps * modulus)
    assert np.all(modulus > 0) and folded[_POWER_PARITIES.index((1, 1, 1))] > 0


def test_odd_parity_level_is_exactly_zero():
    # a triple with a -1 has a fold of exactly 0: the level is 0.0, the
    # rule's exact value, not a rounding residue
    folded, _ = _sphere_level(_powers, PowerDecay(2.0), 16, 12, 12, _POWER_PARITIES)
    for value, parity in zip(folded.tolist(), _POWER_PARITIES):
        assert (value.hex() == "0x0.0p+0") == (-1 in parity), (value, parity)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_odd_parity_value_raises(bad):
    # a fold of 0 does not hide a fault: inf * 0 and nan * 0 are nan
    def f(x1, x2, x3):
        vals = x1 * np.exp(-(x1 * x1 + x2 * x2 + x3 * x3))
        vals.flat[0] = bad
        return vals

    with pytest.raises(FloatingPointError):
        _sphere_level(f, ExpDecay(1.0), 16, 12, 12, (-1, 1, 1))


def test_sphere_level_rejects_odd_nc():
    # the octant holds the nodes with cos theta > 0: a node on x1 = 0 has no place
    calls = []
    with pytest.raises(ValueError, match="even nc"):
        _sphere_level(lambda *x: calls.append(x), ExpDecay(1.0), 16, 13, 12, (1, 1, 1))
    assert not calls


@pytest.mark.parametrize(
    "nphi, parity, match",
    [
        (14, (1, 1, 1), "multiple of 4"),
        (12, (1, 0, 1), "must be \\+1 or -1"),
        (12, (1, 1, 2.0), "must be \\+1 or -1"),
        (12, 1, "one triple"),
        (12, (1, -1), "one triple"),
        (12, ((1, 1, 1), (1, 1)), "one triple"),
        (12, ((1, 1, 1), (1, 1, 1)), "declares 2 values, the integrand returns 1"),
    ],
)
def test_sphere_level_rejects_bad_rule_or_parity(nphi, parity, match):
    # a parity is one triple of +-1 per value, and the azimuthal rule has
    # four quadrants; both the level and the adaptive rule refuse the rest
    # before the integrand sees a point, but for a count of values, which
    # only its first call shows
    f = lambda *x: np.exp(-_radius(*x))
    with pytest.raises(ValueError, match=match):
        _sphere_level(f, ExpDecay(1.0), 16, 12, nphi, parity)
    if nphi == 12:
        with pytest.raises(ValueError, match=match):
            integrate_r3(f, ExpDecay(1.0), parity)


def test_parseval_zero_path_evaluates_one_eighth_of_the_rule(monkeypatch):
    # the zero path's one 64 x 24 x 24 level evaluates its product at
    # 64 x 12 x 6 points, one octant: a fall back to a less folded rule
    # fails here, not only in the benchmark
    build = polyfrac.float_plan
    points = []

    def counted(fracs):
        evaluate = build(fracs)

        def apply(cols):
            points.append(math.prod(np.broadcast_shapes(*(np.shape(c) for c in cols))))
            return evaluate(cols)

        return apply

    monkeypatch.setattr(quadrature, "float_plan", counted)
    rep = parseval_identity_check((0, 1, 0, 0), (0, 0, 1, 0), 1.0)
    assert rep.passed and rep.rhs == 0.0 and rep.n_evals == 64 * 24 * 24
    assert sum(points) == 64 * 12 * 6 == 4608


@pytest.mark.parametrize("n", [12, 16, 24, 48])
def test_leggauss_nodes_antisymmetric_weights_symmetric(n):
    # the premise of the fold of _sphere_level: c[n-1-j] = -c[j] and
    # w[n-1-j] = w[j], bit for bit
    c, w = quadrature._leggauss(n)
    assert (-c[::-1]).view(np.uint64).tolist() == c.view(np.uint64).tolist()
    assert w[::-1].view(np.uint64).tolist() == w.view(np.uint64).tolist()


@pytest.mark.parametrize("n", [12, 16, 24, 48])
def test_azimuthal_nodes_symmetric_across_both_planes(n):
    # the rule the octant of _sphere_level stands for: node k mirrored
    # across x2 = 0 is node n/2 - 1 - k, (cos, sin) -> (-cos, sin), and
    # across x3 = 0 it is node n - 1 - k, (cos, sin) -> (cos, -sin), bit for
    # bit; its first quadrant is the octant's; and the nodes are the
    # midpoints (k + 1/2) 2 pi / n, within the 1e-15 to which cos and sin of
    # the rounded angles themselves miss them
    cphi, sphi = _full_azimuth(n)
    bits = lambda a: a.view(np.uint64).tolist()
    assert [bits(a[: n // 4]) for a in (cphi, sphi)] == [bits(a) for a in quadrature._azimuth(n)]
    across_x2 = np.r_[n // 2 - 1 : -1 : -1, n - 1 : n // 2 - 1 : -1]
    assert bits(-cphi[across_x2]) == bits(cphi) and bits(sphi[across_x2]) == bits(sphi)
    assert bits(cphi[::-1]) == bits(cphi) and bits(-sphi[::-1]) == bits(sphi)
    phi = (np.arange(n) + 0.5) * (2.0 * PI / n)
    assert np.max(np.abs(cphi - np.cos(phi))) <= 2e-15 and np.max(np.abs(sphi - np.sin(phi))) <= 2e-15


class _Captured(Exception):
    pass


def _assert_parity(f, parity, rng):
    """f(..., -x_i, ...) = s_i * f(x1, x2, x3) bit for bit, for i = 1, 2, 3
    and the declared triple (s1, s2, s3) of each value, on seeded columns of
    the shapes the spherical rule passes."""
    g, half, quarter = 3, 6, 4
    x1 = rng.standard_normal((g, half, 1)) * 10.0 ** rng.uniform(-1, 1, (g, half, 1))
    x2, x3 = (rng.standard_normal((g, half, quarter)) * 10.0 ** rng.uniform(-1, 1, (g, half, quarter)) for _ in "23")
    sign = np.reshape(np.asarray(parity, dtype=float), (-1, 3))
    here = np.reshape(f(x1, x2, x3), (-1, g, half, quarter))
    assert len(here) == len(sign)
    for i, flipped in enumerate([(-x1, x2, x3), (x1, -x2, x3), (x1, x2, -x3)]):
        there = np.reshape(f(*flipped), (-1, g, half, quarter))
        want = here * np.reshape(sign[:, i], (-1, 1, 1, 1))
        assert there.view(np.uint64).tolist() == want.view(np.uint64).tolist(), (i, parity)


def test_declared_parities_hold_bit_for_bit(monkeypatch):
    # every parity the package passes to the spherical rule, in x1, x2 and
    # x3: the Newton products of order <= 3 (signed, and signed with their
    # modulus on the zero path) and the props suite's moment integrands; the
    # fold needs them to hold in exact arithmetic, and they hold bit for bit
    seen = []

    def record(f, decay, nr, nc, nphi, parity):
        seen.append((f, parity))
        raise _Captured

    monkeypatch.setattr(quadrature, "_sphere_level", record)
    multi = [m for m in np.ndindex(4, 4, 4, 4) if sum(m) <= 3]
    rng = random.Random(32)
    pairs = [(rng.choice(multi), rng.choice(multi)) for _ in range(60)]
    for p, q in pairs:
        with pytest.raises(_Captured):
            parseval_identity_check(p, q, rng.choice([0.5, 0.75, 1.0, 1.5]))
    # an odd axis order leaves the right side 0: a sign -1 is on the zero
    # path only, next to the modulus's (1, 1, 1); the pairs flip every axis
    even = (1, 1, 1)
    signed = [parity[0] for _, parity in seen if parity != even]
    assert all(parity in (even, (parity[0], even)) for _, parity in seen)
    assert all(-1 in {t[i] for t in signed} for i in range(3)) and even not in signed

    moments = []

    def integrate(f, decay, parity, **tol):
        moments.append((f, parity))
        return quadrature.QuadratureResult(1.0, 0.0, 0)

    def stop(*args):
        raise _Captured

    monkeypatch.setattr(suites, "integrate_r3", integrate)
    monkeypatch.setattr(suites, "parseval_identity_check", stop)
    with pytest.raises(_Captured):
        suites.props_suite(0)
    assert moments

    cols = np.random.default_rng(32)
    for f, parity in seen + moments:
        _assert_parity(f, parity, cols)


@pytest.mark.parametrize("nc, nphi", [(12, 12), (24, 24), (48, 48), (16, 16)])
def test_numpy_sum_over_trailing_axes_equals_per_slice_sums(nc, nphi):
    # the premise of the grouped angular sum of _sphere_level: summing a
    # contiguous (C, g, nc / 2, nphi / 4) octant block over its last two axes
    # gives, bit for bit, np.sum of each contiguous slice on its own
    rng = np.random.default_rng(nc * 100 + nphi)
    h, q = nc // 2, nphi // 4
    for count, g in ((1, 1), (2, max(1, _ROWS // (h * q))), (3, 5)):
        mags = 10.0 ** rng.uniform(-8, 8, (count, g, h, q))
        block = np.where(rng.random(mags.shape) < 0.5, -mags, mags)
        block[..., ::2] += -np.roll(block, 1, axis=-1)[..., ::2]  # heavy cancellation
        got = np.sum(block, axis=(-2, -1))
        want = [[np.sum(np.ascontiguousarray(block[i, j])) for j in range(g)] for i in range(count)]
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def _parseval_lhs_by_points(p, q, x0, rhs):
    """The left side of ``parseval_identity_check`` by the point path: both
    factors evaluated on each node's stacked points as
    ``eval_fractions(factors, (x0, *pts.T))`` on the per-node level, refined
    as ``integrate_r3`` refines.  Returns (lhs, n_evals)."""
    factors = (newton_derivative(p), newton_derivative(q))
    x0_col = np.full(1, float(x0))

    def product(*cols):
        vals = eval_fractions(factors, (x0_col, *cols))
        return vals[:, 0] * vals[:, 1]

    def signed_and_absolute(*cols):
        vals = product(*cols)
        return np.stack([vals, np.abs(vals)])

    decay = PowerDecay(max(1.0, 2.0 * x0))
    parity = tuple((-1) ** (p[i] + q[i]) for i in (1, 2, 3))
    if rhs == 0.0:
        (lhs, _), used = _sphere_level_per_node(signed_and_absolute, decay, 64, 24, 24, (parity, (1, 1, 1)))
        return lhs, used
    sizes = [(16 * 2**k, min(12 * 2**k, 48), min(12 * 2**k, 48)) for k in range(5)]
    level = lambda *size: _sphere_level_per_node(product, decay, *size, parity)
    res, _ = quadrature._refine(level, sizes, 1e-6 * 0.2, abs(rhs) * 1e-6 * 0.2)
    return res.value, res.n_evals


@pytest.mark.parametrize("x0", [0.5, 0.75, 1.5])
def test_parseval_columns_equal_point_path(x0):
    # 20 seeded pairs of order <= 3, half with a vanishing right side: the
    # column contract gives the left side and n_evals of the point path
    multi = [m for m in np.ndindex(4, 4, 4, 4) if sum(m) <= 3]
    rng = random.Random(18)
    pairs = {True: [], False: []}
    while min(len(v) for v in pairs.values()) < 10:
        p, q = rng.choice(multi), rng.choice(multi)
        zero = exponential_moment_closed_form(1, 0, *(p[i] + q[i] for i in (1, 2, 3))).is_zero()
        if len(pairs[zero]) < 10:
            pairs[zero].append((p, q))
    for zero, chosen in pairs.items():
        for p, q in chosen:
            rep = parseval_identity_check(p, q, x0)
            assert (rep.rhs == 0.0) == zero
            lhs, used = _parseval_lhs_by_points(p, q, x0, rep.rhs)
            assert (rep.lhs.hex(), rep.n_evals) == (lhs.hex(), used)


@pytest.mark.parametrize(
    "p, q, vanishes", [((0, 1, 0, 0), (1, 0, 1, 0), True), ((0, 1, 0, 0), (2, 1, 0, 0), False)], ids=["odd", "even"]
)
def test_parseval_builds_one_float_plan(monkeypatch, p, q, vanishes):
    # one plan of both factors serves every group of every level, on the
    # single level of a vanishing right side and on the refined levels
    build = polyfrac.float_plan
    applied = []

    def counted(fracs):
        evaluate = build(fracs)
        applied.append(0)

        def apply(cols):
            applied[-1] += 1
            return evaluate(cols)

        return apply

    monkeypatch.setattr(polyfrac, "float_plan", counted)
    monkeypatch.setattr(quadrature, "float_plan", counted)
    rep = parseval_identity_check(p, q, 0.75)
    assert rep.passed and (rep.rhs == 0.0) == vanishes
    assert len(applied) == 1 and applied[0] > 1


def _nan_at_first_point(fn):
    """``fn`` with its first value replaced by nan on its first call."""
    calls = []

    def poisoned(*args):
        vals = np.array(fn(*args), dtype=float)
        if not calls:
            vals.flat[0] = np.nan
        calls.append(1)
        return vals

    return poisoned


def test_nonfinite_integrand_value_raises():
    # a nan at one point leaves the level as an error, not as a nan value
    # or a convergence failure
    f = _nan_at_first_point(lambda *x: np.exp(-_radius(*x)))
    with pytest.raises(FloatingPointError):
        integrate_r3(f, ExpDecay(1.0), (1, 1, 1), tol=1e-9)

    fn = _nan_at_first_point(_g(4))
    with pytest.raises(FloatingPointError):
        integrate_boundary(BoundaryIntegrand(n=1, fn=fn, degree=-8), tol=1e-9, budget=1e6)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_moment_quadrature_consistency_random(seed):
    rng = random.Random(seed)
    a = rng.choice([1.0, 2.0, 4.0])
    l0 = rng.randint(0, 2)
    l1, l2, l3 = (2 * rng.randint(0, 1) for _ in range(3))
    exact = exponential_moment_closed_form(a, l0, l1, l2, l3).to_float()

    def f(x1, x2, x3):
        r = _radius(x1, x2, x3)
        return r**l0 * x1**l1 * x2**l2 * x3**l3 * np.exp(-a * r)

    res = integrate_r3(f, ExpDecay(a), (1, 1, 1), tol=1e-8, abs_tol=abs(exact) * 1e-10)
    assert abs(res.value - exact) <= 1e-6 * abs(exact)


def test_parseval_identity_examples():
    rep = parseval_identity_check((1, 0, 0, 0), (1, 0, 0, 0), 1.0)
    assert rep.passed and rep.rel_deviation <= 1e-6

    rep = parseval_identity_check((0, 1, 0, 0), (0, 0, 1, 0), 1.0)
    assert rep.passed and rep.rhs == 0.0

    rep = parseval_identity_check((2, 0, 0, 0), (0, 0, 0, 2), 0.5)
    assert rep.passed and rep.rel_deviation <= 1e-6

    # pinned float.hex of one odd and one even pair; an odd pair takes its
    # signed and absolute integrals from one 64 x 24 x 24 level
    rep = parseval_identity_check((0, 1, 0, 0), (0, 0, 1, 0), 1.0)
    assert (rep.lhs.hex(), rep.rel_deviation.hex()) == ("0x0.0p+0", "0x0.0p+0")
    assert rep.n_evals == 64 * 24 * 24 == 36864

    rep = parseval_identity_check((1, 0, 0, 0), (1, 0, 0, 0), 1.0)
    assert (rep.lhs.hex(), rep.rhs.hex()) == ("0x1.3bd3cc9be45d7p+2", "0x1.3bd3cc9be45dep+2")
    assert rep.n_evals == 20736


def test_parseval_rejects_bad_input():
    with pytest.raises(ValueError):
        parseval_identity_check((1, 0, 0), (0, 0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        parseval_identity_check((1, 0, 0, 0), (0, 0, 0, 0), 0.0)


def test_boundary_rejects_nonintegrable():
    bi = BoundaryIntegrand(n=1, fn=_g(2), degree=-4)
    with pytest.raises(ValueError, match="degree -4"):
        integrate_boundary(bi, tol=1e-3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_integrability_threshold(n):
    # absolutely integrable over R^(4n) x R^3 exactly when degree < -(2n + 3)
    with pytest.raises(ValueError, match="cannot be absolutely integrable"):
        BoundaryIntegrand(n=n, fn=None, degree=-(2 * n + 3)).check_integrable()
    BoundaryIntegrand(n=n, fn=None, degree=-(2 * n + 4)).check_integrable()


@pytest.mark.parametrize("n, a", [(1, 4), (2, 5), (3, 6)])
def test_boundary_rule_matches_exact_value(n, a):
    # g is homogeneous of degree -2a, so the radial reduction and the one
    # evaluation per level are exact in exact arithmetic; the rule must
    # converge and meet the closed form far inside its tolerance
    exact = _g_exact(n, a)
    res = integrate_boundary(BoundaryIntegrand(n=n, fn=_g(a), degree=-2 * a), tol=1e-9, budget=5e7)
    assert res.converged
    assert res.value.shape == (1,)
    assert abs(res.value[0] - exact) <= 1e-11 * exact


def test_boundary_nonconvergence_reports_best():
    # the budget pays for the 12 x 8^3 and 18 x 12^3 levels, which do not
    # agree to 1e-12; the result is the second level and its distance from the first
    bi = BoundaryIntegrand(n=1, fn=_g(4), degree=-8)
    res = integrate_boundary(bi, tol=1e-12, budget=6e4)
    assert not res.converged
    assert res.n_evals == 8**3 + 12**3
    first, second = _boundary_level_radial(bi, 12, 8)[0], _boundary_level_radial(bi, 18, 12)[0]
    assert res.value.view(np.uint64).tolist() == second.view(np.uint64).tolist()
    assert res.error_estimate == float(np.max(np.abs(second - first))) > 0
    assert abs(res.value[0] - _g_exact(1, 4)) <= 1e-5 * _g_exact(1, 4)

    # a = 3 decays slowest of the integrable g at n = 1: the whole budget
    # leaves it short of 1e-9
    res = integrate_boundary(BoundaryIntegrand(n=1, fn=_g(3), degree=-6), tol=1e-9, budget=5e7)
    assert not res.converged
    assert 0 < res.error_estimate < math.inf
    assert 1e-9 < abs(res.value[0] - _g_exact(1, 3)) / _g_exact(1, 3) < 1e-7


def test_parseval_unconverged_is_a_failing_report(monkeypatch):
    # a rule cut to one level cannot converge: the check fails and keeps its left side
    _cut_levels(monkeypatch, 1)
    rep = parseval_identity_check((1, 0, 0, 0), (1, 0, 0, 0), 1.0)
    assert not rep.passed
    assert math.isfinite(rep.lhs) and rep.rhs == float.fromhex("0x1.3bd3cc9be45dep+2")
    assert rep.n_evals == 16 * 12 * 12


def test_boundary_budget_determinism():
    bi = BoundaryIntegrand(n=1, fn=_g(4), degree=-8)
    a = integrate_boundary(bi, tol=1e-9, budget=1e6)
    b = integrate_boundary(bi, tol=1e-9, budget=1e6)
    assert a.value.view(np.uint64).tolist() == b.value.view(np.uint64).tolist()
    assert a.n_evals == b.n_evals


def test_coordinate_maps_pinned_bit_for_bit():
    # exact float.hex values of one rule per coordinate map ("cut" through
    # ExpDecay, "power" through PowerDecay and the boundary level, on g and
    # on the reproducing integrand); a change to node placement, weights or
    # summation order shows here before it shows in a tolerance
    res = integrate_r3(lambda *x: np.exp(-_radius(*x)), ExpDecay(1.0), (1, 1, 1), tol=1e-9)
    assert (res.value.hex(), res.n_evals) == ("0x1.921fb54442cd7p+4", 168192)

    value, used = _sphere_level(
        lambda x1, x2, x3: (1.0 + (x1 * x1 + x2 * x2 + x3 * x3)) ** -2.0, PowerDecay(2.0), 16, 12, 12, (1, 1, 1)
    )
    assert (value.hex(), used) == ("0x1.3bd3cc9be4e6fp+3", 2304)

    value, used = _boundary_level_radial(BoundaryIntegrand(n=1, fn=_g(4), degree=-8), 12, 8)
    assert (float(value[0]).hex(), used) == ("0x1.03df8d7f3ea86p+0", 512)

    # the reproducing integrand S((0,1), w) F(w) of verify.reproducing_check
    # at n = 1, t = (2, 0, 0, 1): four components, homogeneous of degree
    # -5 - 6, evaluated once at r = 0, where 1 + r^2 is the column 1.0
    density = szego_density(KernelOrder(1))
    comps = hardy_test_function_components((2, 0, 0, 1))

    def reproducing(t1, t2, t3):
        s = density.eval_columns((1.0, -t1, -t2, -t3))
        f = eval_fractions(comps.comps, (1.0, t1, t2, t3))
        return mul_arrays(s, f, 4)

    bi = BoundaryIntegrand(n=1, fn=reproducing, degree=-11)
    value, used = _boundary_level_radial(bi, 12, 8)
    assert ([float(v).hex() for v in value], used) == (
        ["0x1.e142bda8e8685p-62", "-0x1.daf483108b6dep-59", "0x1.9858f8abad5d6p-58", "0x1.29da4abd870fcp-1"],
        512,
    )


def test_reproducing_integrand_columns_equal_points():
    # the reproducing integrand of verify.reproducing_check at n = 1,
    # t = (3, 0, 0, 1), homogeneous of degree D = -5 - 7.  At the one node
    # the level evaluates, r = 0, the axis columns (with 1 + r^2 the scalar
    # column 1.0, as verify passes it) give, bit for bit, the values of a
    # reference that builds every point; n_t is odd, so every t
    # axis holds a 0 and -t holds -0.0.  The per-node reference, its
    # t-window grown to 1 + r^2, has the same bits in columns and points at
    # every node, each node holds (1 + r^2)^D times the r = 0 values, and
    # its level equals the rule's
    degree = -12
    density = szego_density(KernelOrder(1))
    comps = hardy_test_function_components((3, 0, 0, 1))

    def columns(r, t):
        base = 1.0 + r * r
        s = density.eval_columns((base, -t[0], -t[1], -t[2]))
        return mul_arrays(s, eval_fractions(comps.comps, (base, *t)), 4)

    def points(r, t):
        base = 1.0 + r * r
        s = density.eval_array(np.stack([base, -t[:, 0], -t[:, 1], -t[:, 2]], axis=-1))
        f = comps.eval_array(np.stack([base, t[:, 0], t[:, 1], t[:, 2]], axis=-1))
        return mul_arrays(s, f, 4)

    calls = []

    def recorded(*axes):
        calls.append((axes, columns(0.0, axes)))
        return calls[-1][1]

    n_r, n_t = 12, 9
    bi = BoundaryIntegrand(n=1, fn=recorded, degree=degree)
    got, used = _boundary_level_radial(bi, n_r, n_t)
    assert used == n_t**3 and len(calls) == 1

    r, wr = _axis_rule(n_r, half_line=True)
    t1, wt = _t_grid(n_t)
    tt = np.stack(np.meshgrid(t1, t1, t1, indexing="ij"), axis=-1).reshape(-1, 3)
    axes = (t1[:, None, None], t1[None, :, None], t1[None, None, :])
    got_axes, node0 = calls[0]
    assert [a.shape for a in got_axes] == [a.shape for a in axes]
    assert all(np.array_equal(a, b) for a, b in zip(got_axes, axes))
    assert node0.shape == (n_t, n_t, n_t, 4)
    at_zero = points(np.zeros(len(tt)), tt)
    assert np.array_equal(node0.reshape(-1, 4).view(np.uint64), at_zero.view(np.uint64))

    want = 0.0
    for i in range(n_r):
        grow = 1.0 + r[i] ** 2
        vals = points(np.full(len(tt), r[i]), tt * grow)
        node = columns(r[i : i + 1].reshape(1, 1, 1), tuple(a * grow for a in axes))
        assert np.array_equal(node.reshape(-1, 4).view(np.uint64), vals.view(np.uint64))
        scaled = grow**degree * at_zero
        assert np.max(np.abs(vals - scaled)) <= 1e-13 * np.max(np.abs(scaled))
        want = want + sphere_surface(4) * wr[i] * r[i] ** 3 * ((wt * grow**3) @ vals)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
