"""The shared-power float evaluator gives the per-term loop's values bit for
bit, and raises on a float fault at one point and on a grid alike."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qszego.kernel import KernelOrder, newton_derivative, szego_density
from qszego.polyfrac import _ROWS, HyperFrac, RadialFraction, RatPoly, eval_fractions, float_plan
from qszego.verify import hardy_test_function_components


def _product_power(x, e):
    """x**e as x**(e // 2) * x**(e - e // 2), the evaluator's rule, written
    out here so that the reference does not share its code."""
    return x if e == 1 else _product_power(x, e // 2) * _product_power(x, e - e // 2)


def _per_term(frac, x):
    """One fraction evaluated term by term, powers recomputed for each term."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1], dtype=float)
    for k, c in frac.num.terms.items():
        term = np.full(x.shape[:-1], float(c))
        for i, e in enumerate(k):
            if e:
                term = term * _product_power(x[..., i], e)
        out += term
    if frac.k:
        out = out / _product_power(np.sum(x * x, axis=-1), frac.k)
    return out


def _shapes(dim):
    return [(dim,), (0, dim), (2 * _ROWS + 7, dim), (3, 5, dim)]


def _points(shape, seed):
    # signed values over four decades; every tenth coordinate past x0 is 0,
    # so signed zeros occur, but x0 is never 0, so no row is singular
    rng = np.random.default_rng(seed)
    mags = 10.0 ** rng.uniform(-2, 2, shape)
    x = np.where(rng.random(shape) < 0.5, -mags, mags)
    x[..., 1:][rng.random(x[..., 1:].shape) < 0.1] = 0.0
    return x


def _axes(dim, seed):
    """The axes of a tensor grid like the boundary rule's t grid, with more
    than ``_ROWS`` points.  x0 > 0, so no point is singular; the other axes
    have both signs, and the last one holds +0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    side = next(n for n in itertools.count(2) if n**dim > _ROWS)
    axes = [10.0 ** rng.uniform(-1, 1, side)]
    for _ in range(1, dim):
        mags = 10.0 ** rng.uniform(-1, 1, side)
        axes.append(np.where(np.arange(side) % 2, -mags, mags))
    axes[-1][:2] = (0.0, -0.0)
    return axes


def _grid(dim, seed):
    """The points of the ``_axes`` grid as a (side^dim, dim) array."""
    return np.stack(np.meshgrid(*_axes(dim, seed), indexing="ij"), axis=-1).reshape(-1, dim)


def _axis_columns(axes):
    """Axis i as a column of shape (1, ..., len(axes[i]), ..., 1)."""
    return [a.reshape([-1 if j == i else 1 for j in range(len(axes))]) for i, a in enumerate(axes)]


def _same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (so 0.0 differs from -0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _assert_bit_identical(hf, seed):
    for x in [_points(shape, seed) for shape in _shapes(hf.dim)] + [_grid(hf.dim, seed)]:
        shape = x.shape
        got = hf.eval_array(x)
        want = np.stack([_per_term(c, x) for c in hf.comps], axis=-1)
        assert got.shape == shape[:-1] + (hf.alg_dim,)
        assert _same_bits(got, want)
        for c, col in zip(hf.comps, np.moveaxis(got, -1, 0)):
            assert _same_bits(c.eval_array(x), col)


@pytest.mark.parametrize("m, n", [(4, 1), (4, 2), (4, 3), (4, 4), (2, 1), (2, 2), (2, 3)])
def test_density_values_bit_identical(m, n):
    _assert_bit_identical(szego_density(KernelOrder(n, m=m)).body, seed=10 * m + n)


def test_newton_derivatives_bit_identical():
    orders = [o for o in itertools.product(range(5), repeat=4) if sum(o) <= 4]
    assert len(orders) == 70
    for chunk in range(0, 70, 4):
        fracs = [newton_derivative(o) for o in orders[chunk : chunk + 4]]
        fracs += [RadialFraction.zero(4)] * (4 - len(fracs))
        _assert_bit_identical(HyperFrac(fracs), seed=chunk)


@pytest.mark.parametrize("t", [(2, 0, 0, 1), (3, 0, 0, 1)])
def test_hardy_test_functions_bit_identical(t):
    _assert_bit_identical(hardy_test_function_components(t), seed=sum(t))


def test_bare_polynomial_bit_identical():
    poly = RatPoly(4, {(3, 0, 1, 0): Fraction(1, 3), (0, 2, 0, 5): -7, (1, 1, 1, 1): 2, (0, 0, 0, 0): Fraction(5, 2)})
    for shape in _shapes(4):
        x = _points(shape, seed=7)
        got = RadialFraction(poly).eval_array(x)
        assert got.shape == shape[:-1]
        assert _same_bits(got, _per_term(RadialFraction(poly), x))


def test_one_point_fault_still_raises():
    # |x|^(2k) underflows to 0 at |nu| = 1e-60; the one-point path raises
    with pytest.raises(FloatingPointError):
        szego_density(KernelOrder(1)).eval([1e-60, 0, 0, 0])


def test_one_call_equals_one_call_per_fraction():
    # the n = 1 density and its four partials: 20 fractions in one call
    body = szego_density(KernelOrder(1)).body
    parts = [body] + [body.deriv(i) for i in range(4)]
    x = _points((2 * _ROWS + 7, 4), seed=5)
    got = eval_fractions([c for f in parts for c in f.comps], np.moveaxis(x, -1, 0))
    assert np.array_equal(got, np.concatenate([f.eval_array(x) for f in parts], axis=1))


def test_grid_fault_raises():
    # |x|^(2k) overflows at |nu| = 1e60 and underflows to 0 at 1e-60 and 1e-130
    with pytest.raises(FloatingPointError):
        szego_density(KernelOrder(1)).eval_array([[1e60, 0, 0, 0], [1e-60, 0, 0, 0]])
    with pytest.raises(FloatingPointError):
        szego_density(KernelOrder(1)).eval_array([[1e-130, 0, 0, 0]])


def test_grid_zeros_of_both_signs_sum_to_positive_zero():
    # x3 holds 0.0 and -0.0 next to negative values; an odd power of -0.0 is
    # -0.0, and a term may be -0.0, but every sum starts at +0.0, so a value
    # that is zero is +0.0
    poly = RatPoly(4, {(0, 0, 0, 3): 1, (0, 0, 0, 5): 2, (1, 1, 0, 1): 1})
    x = np.zeros((2 * _ROWS + 7, 4))
    x[:, 0] = 1.0
    x[:, 3] = np.resize([0.0, -0.0, -1.5, 2.0, -0.0], len(x))
    got = RadialFraction(poly, 2).eval_array(x)
    assert _same_bits(got, _per_term(RadialFraction(poly, 2), x))
    assert _same_bits(got[x[:, 3] == 0], np.zeros(np.count_nonzero(x[:, 3] == 0)))


def test_mixed_sign_power_overflow_raises():
    # (-1e40)**9 overflows in a column of both signs with repeated values
    frac = RadialFraction(RatPoly(4, {(0, 0, 0, 9): 1}))
    x = [[1.0, 0.0, 0.0, v] for v in (2.0, -1e40, 2.0, -3.0)]
    with pytest.raises(FloatingPointError):
        frac.eval_array(x)


@pytest.mark.parametrize("e", range(2, 10))
def test_numpy_power_depends_on_the_element_alone(e):
    # numpy's array power of a value does not depend on the array that
    # holds it, so an integrand that raises the sphere rule's columns to
    # powers itself (the exponential-moment integrand of props_suite) gets
    # the bits of the power taken on every point, and the rule's value does
    # not depend on how it groups radial nodes; the evaluator's powers are
    # products and need no such premise
    rng = np.random.default_rng(e)
    mags = 10.0 ** rng.uniform(-3, 3, 5000)
    x = np.where(rng.random(5000) < 0.5, -mags, mags)
    x = np.concatenate([x, x[:1000]])
    want = x**e
    perm = rng.permutation(len(x))
    assert _same_bits(x[perm] ** e, want[perm])
    assert _same_bits(x[1:] ** e, want[1:])
    distinct, rows = np.unique(x, return_inverse=True)
    assert len(distinct) < len(x)
    assert _same_bits((distinct**e)[rows], want)
    assert _same_bits(np.concatenate([x[i : i + 1] ** e for i in range(len(x))]), want)
    assert _same_bits(np.concatenate([x[i : i + 1].reshape(1, 1, 1) ** e for i in range(len(x))]).ravel(), want)
    for shape in [(-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, -1)]:
        assert _same_bits((x.reshape(shape) ** e).ravel(), want)
    grid = np.broadcast_to(x[:40, None, None], (40, 40, 40))
    assert _same_bits(np.ascontiguousarray(grid) ** e, np.broadcast_to(want[:40, None, None], grid.shape))


@pytest.mark.parametrize("e", range(2, 50))
def test_powers_are_the_product_rule(e):
    # on values of both signs over six decades, with +-0.0 and +-1.0, x**e
    # is x**(e // 2) * x**(e - e // 2), bit for bit; the monomial's value is
    # that power added to +0.0, so an odd power of -0.0 reads +0.0.  A
    # product adds one rounding of at most 2**-53 to the relative errors of
    # its factors, so x**e lies within (e - 1) * 2**-53 relative of the
    # exact power
    rng = np.random.default_rng(e)
    mags = 10.0 ** rng.uniform(-3, 3, 300)
    x = np.concatenate([[0.0, -0.0, 1.0, -1.0], np.where(rng.random(300) < 0.5, -mags, mags)])
    got = RadialFraction(RatPoly(1, {(e,): 1})).eval_array(x[:, None])
    assert _same_bits(got, 0.0 + _product_power(x, e))
    for v, exact in zip(got.tolist(), (Fraction(c) ** e for c in x.tolist())):
        assert abs(Fraction(v) - exact) <= (e - 1) * Fraction(1, 2**53) * abs(exact)


def test_power_of_two_scaling_is_exact():
    # a homogeneous fraction of degree d at x * 2**j is ldexp(value, j * d)
    # bit for bit, for j chosen per point so that max|x_i| lands in
    # [1/2, 1): every product, sum and quotient scales exactly
    newton = [newton_derivative(o) for o in itertools.product(range(4), repeat=4) if sum(o) <= 3]
    density = [c for n in (1, 2, 3) for c in szego_density(KernelOrder(n)).body.comps]
    fracs = newton + density
    assert len(newton) == 35
    degrees = np.array([f.num.homogeneous_degree() - 2 * f.k for f in fracs])
    x = _points((100_000, 4), seed=11)
    j = -np.frexp(np.max(np.abs(x), axis=1))[1]
    want = np.ldexp(eval_fractions(fracs, x.T), j[:, None] * degrees)
    assert _same_bits(eval_fractions(fracs, np.ldexp(x, j[:, None]).T), want)


def _fractions(dim):
    """Fractions of dimension ``dim`` with powers up to 9, some k > 0, and a
    constant term."""
    rng = np.random.default_rng(dim)
    fracs = []
    for k in (0, 1, 3):
        terms = {(0,) * dim: Fraction(5, 2)} if k == 1 else {}
        for _ in range(6):
            key = tuple(int(e) for e in rng.integers(0, 4, dim) * (rng.random(dim) < 0.6))
            terms[key] = Fraction(int(rng.integers(-9, 10)) or 1, int(rng.integers(1, 7)))
        terms[tuple(9 * (i == dim - 1) for i in range(dim))] = -1
        terms[tuple(7 * (i == 0) for i in range(dim))] = 3
        fracs.append(RadialFraction(RatPoly(dim, terms), k))
    return fracs


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_axis_columns_equal_the_points_array(dim):
    # the grid passed as its axes gives the values of the grid passed as an
    # (N, dim) array, bit for bit; the axes cover several leading-axis blocks
    # and the last one holds +0.0 and -0.0 next to negative values
    fracs = _fractions(dim)
    axes = _axes(dim, seed=dim)
    got = eval_fractions(fracs, _axis_columns(axes))
    assert got.shape == tuple(len(a) for a in axes) + (len(fracs),)
    assert len(axes[0]) > 1 and np.prod(got.shape[1:-1]) < _ROWS < np.prod(got.shape[:-1])
    pts = _grid(dim, seed=dim)
    want = eval_fractions(fracs, np.moveaxis(pts, -1, 0))
    assert _same_bits(got.reshape(want.shape), want)
    if dim < 8:  # np.sum adds eight or more squares pairwise, not in order
        assert _same_bits(want, np.stack([_per_term(f, pts) for f in fracs], axis=-1))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_one_element_columns_equal_full_columns(dim):
    # x0 as a one-element, a (1, 1, 1) and a scalar column, beside full
    # columns of several leading-axis blocks, gives the values of a full x0
    # column: each power is a chain of IEEE products, whose bits depend on
    # the value alone, whatever holds it (numpy's own scalar power can
    # differ from its array power in the last bit: 1.1**7 does on x86-64
    # with numpy 2.4)
    fracs = _fractions(dim)
    pts = _points((2 * _ROWS + 7, dim), seed=dim)
    pts[:, 0] = 1.1
    want = eval_fractions(fracs, np.moveaxis(pts, -1, 0))
    rest = list(np.moveaxis(pts[:, 1:], -1, 0))
    for x0 in (np.full(1, 1.1), np.full((1, 1, 1), 1.1), np.float64(1.1), 1.1):
        got = eval_fractions(fracs, [x0] + rest)
        assert _same_bits(got.reshape(want.shape), want)
    cube = [c.reshape(-1, 1, 1) for c in rest]
    got = eval_fractions(fracs, [np.full((1, 1, 1), 1.1)] + cube)
    assert got.shape == (len(pts), 1, 1, len(fracs)) and _same_bits(got.reshape(want.shape), want)


@pytest.mark.parametrize("dim", range(1, 8))
def test_radius_sum_order_is_np_sum_order(dim):
    # |x|^2 is summed as ((x0^2 + x1^2) + x2^2) + ..., which is the order of
    # np.sum(x * x, axis=-1) for fewer than eight coordinates
    one_over_r2 = RadialFraction(RatPoly.const(dim, 1), 1)
    rng = np.random.default_rng(dim)
    for rows in list(range(1, 9)) + [_ROWS, 64_000]:
        mags = 10.0 ** rng.uniform(-8, 8, (rows, dim))
        x = np.where(rng.random((rows, dim)) < 0.5, -mags, mags)
        assert _same_bits(one_over_r2.eval_array(x), 1.0 / np.sum(x * x, axis=-1))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_one_plan_equals_a_plan_per_block(dim):
    # one plan applied to every block of two calls, on a points array and on
    # sphere-rule columns of groups of whole nodes, gives the values of a
    # plan built afresh for each block, bit for bit; each fraction's values
    # are one contiguous row of the component-leading buffer
    fracs = _fractions(dim)
    evaluate = float_plan(fracs)
    pts = _points((2 * _ROWS + 7, dim), seed=dim)
    rng = np.random.default_rng(dim)
    nodes = [rng.uniform(0.5, 2.0, (40, 1, 1))] + [rng.uniform(-2, 2, (1, 24, 24)) for _ in range(dim - 1)]
    for cols, size in ((list(pts.T), _ROWS), (nodes, _ROWS // (24 * 24))):
        got = evaluate(cols)
        per_block = [
            eval_fractions(fracs, [c if len(c) == 1 else c[i : i + size] for c in cols])
            for i in range(0, max(len(c) for c in cols), size)
        ]
        want = np.concatenate(per_block)
        assert len(per_block) > 1 and _same_bits(got, want)
        assert all(row.flags.c_contiguous for row in np.moveaxis(got, -1, 0))


def test_plan_needs_one_column_per_variable_and_one_dimension():
    # a column too few or too many would shift every power's register
    fracs = _fractions(4)
    for cols in (np.ones((3, 5)), np.ones((5, 5))):
        with pytest.raises(ValueError, match="4 coordinate columns"):
            eval_fractions(fracs, cols)
    with pytest.raises(ValueError, match="share their dimension"):
        float_plan(fracs + _fractions(2))
