"""Gamma arithmetic, moment closed forms, and the integration engines."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qszego import polyfrac, quadrature
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
    res = integrate_r3(f, ExpDecay(1.0), tol=1e-9)
    assert abs(res.value - 8 * PI) <= 1e-8 * 8 * PI
    assert res.n_evals > 0
    assert res.error_estimate >= 0


def test_integrate_r3_odd_vanishes():
    f = lambda x1, x2, x3: x1 * np.exp(-_radius(x1, x2, x3))
    res = integrate_r3(f, ExpDecay(1.0), tol=1e-9, abs_tol=1e-12)
    assert abs(res.value) < 1e-10


def test_integrate_r3_nonconvergence_reports_best(monkeypatch):
    # tolerance far below reachable: the result must carry the best value
    _cut_levels(monkeypatch, 2)
    f = lambda *x: np.exp(-_radius(*x))
    res = integrate_r3(f, ExpDecay(1.0), tol=0.0)
    assert not res.converged
    assert abs(res.value - 8 * PI) < 1e-3


def test_integrate_r3_one_level_is_not_converged(monkeypatch):
    # one level gives no error estimate: not converged, not a budget error
    _cut_levels(monkeypatch, 1)
    f = lambda *x: np.exp(-_radius(*x))
    res = integrate_r3(f, ExpDecay(1.0))
    assert not res.converged and res.error_estimate == math.inf and res.n_evals == 16 * 12 * 12


def test_sphere_level_columns_match_scalar_levels():
    # a leading axis of values (component-leading) is reduced value by value,
    # bit for bit as a one-value integrand is
    f = lambda x1, x2, x3: (1.0 + (x1 * x1 + x2 * x2 + x3 * x3)) ** -2.0
    g = lambda x1, x2, x3: x1**2 * (1.0 + (x1 * x1 + x2 * x2 + x3 * x3)) ** -3.0
    both, used = _sphere_level(lambda *x: np.stack([f(*x), g(*x)]), PowerDecay(2.0), 16, 12, 12)
    one_f, _ = _sphere_level(f, PowerDecay(2.0), 16, 12, 12)
    one_g, _ = _sphere_level(g, PowerDecay(2.0), 16, 12, 12)
    assert isinstance(one_f, float) and used == 2304
    assert [v.hex() for v in both] == [one_f.hex(), one_g.hex()]


def _sphere_level_per_node(f, decay, nr, nc, nphi):
    """The spherical level with one integrand call per radial node on that
    node's stacked (nc * nphi, 3) points, passed as ``f(*pts.T)``, which
    returns (nc * nphi,) or (C, nc * nphi) values, and one angular sum per
    node and value: the reference the grouped column calls of
    ``_sphere_level`` must match bit for bit.  Returns (value, evals)."""
    u, wu = np.polynomial.legendre.leggauss(nr)
    r, jac = decay.map((u + 1.0) / 2.0)
    wu = wu / 2.0
    c, wc = np.polynomial.legendre.leggauss(nc)
    phi = (np.arange(nphi) + 0.5) * (2.0 * math.pi / nphi)
    wphi = 2.0 * math.pi / nphi
    s = np.sqrt(1.0 - c**2)
    total = 0.0
    for i in range(nr):
        x1 = np.broadcast_to((r[i] * c)[:, None], (nc, nphi))
        x2 = r[i] * s[:, None] * np.cos(phi)[None, :]
        x3 = r[i] * s[:, None] * np.sin(phi)[None, :]
        pts = np.stack([x1, x2, x3], axis=-1).reshape(-1, 3)
        vals = np.reshape(f(*pts.T), (-1, nc, nphi))
        angular = np.array([np.sum(v * wc[:, None]) * wphi for v in vals])
        total = total + wu[i] * jac[i] * r[i] * r[i] * angular
    return (float(total[0]) if len(total) == 1 else total), nr * nc * nphi


@pytest.mark.parametrize("size", [(64, 24, 24), (16, 48, 48), (16, 12, 12)])
def test_sphere_level_groups_whole_radial_nodes(size):
    # one integrand call per group of whole radial nodes, at most _ROWS
    # points (one node when a node alone has more), on the group's coordinate
    # columns, with the values of the per-node reference on stacked points
    nr, nc, nphi = size
    calls = []

    def f(x1, x2, x3):
        calls.append((x1.shape, x2.shape, x3.shape))
        r2 = x1 * x1 + x2 * x2 + x3 * x3
        return np.stack([x2**3 * (1.0 + r2) ** -4.0, np.exp(-r2)])

    got, used = _sphere_level(f, PowerDecay(2.0), nr, nc, nphi)
    group = max(1, _ROWS // (nc * nphi))
    sizes = [min(group, nr - i) for i in range(0, nr, group)]
    assert used == nr * nc * nphi
    assert calls == [((g, nc, 1), (g, nc, nphi), (g, nc, nphi)) for g in sizes]
    want, _ = _sphere_level_per_node(f, PowerDecay(2.0), nr, nc, nphi)
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("nc, nphi", [(12, 12), (24, 24), (48, 48), (16, 16)])
def test_numpy_sum_over_trailing_axes_equals_per_slice_sums(nc, nphi):
    # the premise of the grouped angular sum of _sphere_level: summing a
    # contiguous (C, g, nc, nphi) block over its last two axes gives, bit for
    # bit, np.sum of each contiguous (nc, nphi) slice on its own
    rng = np.random.default_rng(nc * 100 + nphi)
    for count, g in ((1, 1), (2, max(1, _ROWS // (nc * nphi))), (3, 5)):
        mags = 10.0 ** rng.uniform(-8, 8, (count, g, nc, nphi))
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
    if rhs == 0.0:
        (lhs, _), used = _sphere_level_per_node(signed_and_absolute, decay, 64, 24, 24)
        return lhs, used
    sizes = [(16 * 2**k, min(12 * 2**k, 48), min(12 * 2**k, 48)) for k in range(5)]
    level = lambda *size: _sphere_level_per_node(product, decay, *size)
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
        integrate_r3(f, ExpDecay(1.0), tol=1e-9)

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

    res = integrate_r3(f, ExpDecay(a), tol=1e-8, abs_tol=abs(exact) * 1e-10)
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
    assert (rep.lhs.hex(), rep.rel_deviation.hex()) == ("-0x1.358951a4f44c0p-61", "0x1.261c6a47811aap-61")
    assert rep.n_evals == 64 * 24 * 24 == 36864

    rep = parseval_identity_check((1, 0, 0, 0), (1, 0, 0, 0), 1.0)
    assert (rep.lhs.hex(), rep.rhs.hex()) == ("0x1.3bd3cc9be45d8p+2", "0x1.3bd3cc9be45dep+2")
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
    res = integrate_r3(lambda *x: np.exp(-_radius(*x)), ExpDecay(1.0), tol=1e-9)
    assert (res.value.hex(), res.n_evals) == ("0x1.921fb54442cd7p+4", 168192)

    value, used = _sphere_level(
        lambda x1, x2, x3: (1.0 + (x1 * x1 + x2 * x2 + x3 * x3)) ** -2.0, PowerDecay(2.0), 16, 12, 12
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
        s = eval_fractions(density.body.comps, (1.0, -t1, -t2, -t3)) * density.prefactor()
        f = eval_fractions(comps.comps, (1.0, t1, t2, t3))
        return mul_arrays(s, f, 4)

    bi = BoundaryIntegrand(n=1, fn=reproducing, degree=-11)
    value, used = _boundary_level_radial(bi, 12, 8)
    assert ([float(v).hex() for v in value], used) == (
        ["-0x1.e142bda8e8685p-73", "0x1.603f20e0347e2p-59", "0x1.95b9df419f30cp-62", "0x1.29da4abd870fcp-1"],
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
        s = eval_fractions(density.body.comps, (base, -t[0], -t[1], -t[2])) * density.prefactor()
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
