"""The shared-power float evaluator gives the per-term loop's values bit for
bit, and raises on a float fault at one point and on a grid alike."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qszego.kernel import KernelOrder, group_kernel_array, newton_derivative, szego_density
from qszego.polyfrac import _ROWS, HyperFrac, RadialFraction, RatPoly, eval_fractions
from qszego.verify import hardy_test_function_components


def _per_term(frac, x):
    """One fraction evaluated term by term, powers recomputed for each term.

    A single point (shape (dim,)) is taken as a one-row array: as a 0-d
    value, |x|^2 ** k would be a numpy scalar power, which rounds differently
    from the array power in the last bit for some k >= 3.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return _per_term(frac, x[None])[0]
    out = np.zeros(x.shape[:-1], dtype=float)
    for k, c in frac.num.terms.items():
        term = np.full(x.shape[:-1], float(c))
        for i, e in enumerate(k):
            if e == 1:
                term = term * x[..., i]
            elif e:
                term = term * x[..., i] ** e
        out += term
    if frac.k:
        out = out / np.sum(x * x, axis=-1) ** frac.k
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


def _same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (so 0.0 differs from -0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _assert_bit_identical(hf, seed):
    for shape in _shapes(hf.dim):
        x = _points(shape, seed)
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
    got = eval_fractions([c for f in parts for c in f.comps], x)
    assert np.array_equal(got, np.concatenate([f.eval_array(x) for f in parts], axis=1))


def test_grid_fault_raises():
    # |x|^(2k) overflows at |nu| = 1e60 and underflows to 0 at 1e-60 and 1e-130
    with pytest.raises(FloatingPointError):
        szego_density(KernelOrder(1)).eval_array([[1e60, 0, 0, 0], [1e-60, 0, 0, 0]])
    with pytest.raises(FloatingPointError):
        group_kernel_array(1, [1e-130], [[0.0, 0.0, 0.0]])
