"""Multiplication tables, conjugation, norms and the associator."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qszego
from qszego.hypercomplex import (
    _PRODUCTS,
    OCTONION_TRIPLES,
    Hypercomplex,
    associator,
    conj,
    left_mult_matrix,
    mul_arrays,
    mult_table,
)
from qszego.polyfrac import RadialFraction, RatPoly


def basis(dim, i):
    return Hypercomplex.basis(dim, i)


def test_quaternion_table_examples():
    e1, e2, e3 = (basis(4, i) for i in (1, 2, 3))
    assert e1 * e2 == e3
    assert e2 * e3 == e1
    assert e3 * e1 == e2
    assert e2 * e1 == -e3


def test_octonion_triple_example():
    # (2,5,7) is one of the seven generating triples
    assert basis(8, 2) * basis(8, 5) == basis(8, 7)


def test_difference_of_squares():
    one = Hypercomplex.from_real(4, 1)
    e1 = basis(4, 1)
    assert (one + e1) * (one - e1) == Hypercomplex.from_real(4, 2)


def test_table_generated_from_triples():
    table = mult_table(8)
    for a, b, c in OCTONION_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            assert table[x][y] == (z, 1)
            assert table[y][x] == (z, -1)
    for i in range(8):
        assert table[0][i] == (i, 1)
        assert table[i][0] == (i, 1)
    for i in range(1, 8):
        assert table[i][i] == (0, -1)


def test_conj_norm_inverse_examples():
    e1, e2 = basis(4, 1), basis(4, 2)
    v = e1 + e2
    assert v.conj() == -e1 - e2
    assert v.norm_sq() == 2
    two = Hypercomplex.from_real(4, 2)
    assert two.inverse() == Hypercomplex((Fraction(1, 2), 0, 0, 0))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Hypercomplex.zero(8).inverse()


def test_component_extraction():
    v = Hypercomplex.from_real(8, 3) + basis(8, 5)
    assert v.re == 3
    assert v.im(5) == 1
    assert (basis(4, 1) * 2).im(1) == 2
    with pytest.raises(ValueError):
        v.im(8)


def test_associator_table_value():
    # (e1 e2) e4 = e3 e4 = e7 while e1 (e2 e4) = e1 e6 = -e7
    a = associator(basis(8, 1), basis(8, 2), basis(8, 4))
    assert a == basis(8, 7) * 2


def test_associator_quaternionic_subalgebra():
    assert associator(basis(8, 1), basis(8, 2), basis(8, 3)).is_zero()


def _rand(rng, dim, span=9):
    return Hypercomplex([rng.randint(-span, span) for _ in range(dim)])


@pytest.mark.parametrize("dim", [4, 8])
def test_norm_multiplicativity_exact(dim):
    rng = random.Random(3)
    for _ in range(2000):
        a, b = _rand(rng, dim), _rand(rng, dim)
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


@pytest.mark.parametrize("dim", [4, 8])
def test_conjugation_antiautomorphism_10k(dim):
    rng = random.Random(5)
    for _ in range(10_000):
        a, b = _rand(rng, dim, 5), _rand(rng, dim, 5)
        assert (a * b).conj() == b.conj() * a.conj()


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_conj_of_components_is_the_hypercomplex_conjugate(dim):
    rng = random.Random(7)
    for _ in range(200):
        a = Hypercomplex([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim)])
        assert conj(a.comps) == a.conj().comps
        assert Hypercomplex(conj(a.comps)) == a.conj()
    assert conj((1, 2.5, -3.0)) == (1, -2.5, 3.0)


def test_conj_acts_on_symbolic_components():
    polys = [RatPoly.variable(4, i) * RatPoly.variable(4, 0) for i in range(4)]
    assert conj(polys) == (polys[0], -polys[1], -polys[2], -polys[3])
    assert conj(polys)[1].terms == {(1, 1, 0, 0): -1}
    fracs = [RadialFraction(p, 2) for p in polys]
    got = conj(fracs)
    assert got[0] is fracs[0]
    assert all(g.num == -f.num and g.k == 2 for g, f in zip(got[1:], fracs[1:]))


@pytest.mark.parametrize("dim", [4, 8])
def test_conjugation_antiautomorphism_fractions(dim):
    rng = random.Random(6)
    for _ in range(500):
        a = Hypercomplex(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim)]
        )
        b = Hypercomplex(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim)]
        )
        assert (a * b).conj() == b.conj() * a.conj()
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


def test_quaternion_associativity():
    rng = random.Random(7)
    for _ in range(1000):
        a, b, c = (_rand(rng, 4) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_octonion_alternativity():
    rng = random.Random(9)
    for _ in range(1000):
        x, y = _rand(rng, 8), _rand(rng, 8)
        assert associator(x, x, y).is_zero()
        assert associator(x.conj(), x, y).is_zero()


def test_two_sided_inverse():
    rng = random.Random(11)
    one = Hypercomplex.from_real(8, 1)
    for _ in range(300):
        a = _rand(rng, 8)
        if a.is_zero():
            continue
        assert a * a.inverse() == one
        assert a.inverse() * a == one


@given(
    st.lists(st.integers(-50, 50), min_size=8, max_size=8),
    st.lists(st.integers(-50, 50), min_size=8, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_norm_multiplicativity_property(xs, ys):
    a, b = Hypercomplex(xs), Hypercomplex(ys)
    assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


def test_mode_mixing_raises():
    # values are exact by type: a float or bool component, or a float scalar, raises
    a = Hypercomplex((1, 0, 0, 0))
    for comps in ((1.0, 0, 0, 0), (1, 0, 0, np.float64(0.5)), (True, 0, 0, 0)):
        with pytest.raises(TypeError):
            Hypercomplex(comps)
    with pytest.raises(TypeError):
        Hypercomplex.from_real(4, 2.5)
    with pytest.raises(TypeError):
        a * 0.5
    assert not hasattr(a, "exact")


def test_no_value_carries_a_scalar_mode():
    # exactness is a type, not a flag: no exact= keyword or parameter and no
    # .exact attribute anywhere in the package
    found = []
    for path in sorted(Path(qszego.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                (isinstance(node, (ast.keyword, ast.arg)) and node.arg == "exact")
                or (isinstance(node, ast.Attribute) and node.attr == "exact")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_exact_storage_normalized():
    v = Hypercomplex((Fraction(4, 2), Fraction(1, 3), 0, 0))
    assert v.comps[0] == 2 and isinstance(v.comps[0], int)
    assert v.comps[1] == Fraction(1, 3)
    w = Hypercomplex([np.int64(3), np.int64(-2), 0, 0])
    assert w.comps == (3, -2, 0, 0) and all(type(c) is int for c in w.comps)
    assert Hypercomplex([1, 2, 3, 4]).comps == (1, 2, 3, 4)
    # bool is an int subclass but not a scalar component
    for comps in ([True, 0, 0, 0], [0, 0, 0, False]):
        with pytest.raises(TypeError):
            Hypercomplex(comps)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Hypercomplex.basis(4, 0) * Hypercomplex.basis(8, 0)


def test_left_mult_matrix_example():
    # e1 * x sends the real component of x to -x1
    m = left_mult_matrix(basis(4, 1))
    assert m[0] == (0, -1, 0, 0)
    assert m[1] == (1, 0, 0, 0)


def _table_loop_product(a, b):
    """The product of two component tuples by the nested table loop, skipping zero terms: the reference."""
    table = mult_table(len(a))
    out = [0] * len(a)
    for i, ai in enumerate(a):
        if not ai:
            continue
        row = table[i]
        for j, bj in enumerate(b):
            if not bj:
                continue
            k, s = row[j]
            if s > 0:
                out[k] = out[k] + ai * bj
            else:
                out[k] = out[k] - ai * bj
    return out


def _product_operands(rng, dim):
    ints = [0, 0, 1, -1, 7, -12]
    fracs = [Fraction(0), Fraction(3, 4), Fraction(-5, 3), Fraction(6, 3)]
    # underflowing products (1e-200 squared) add signed zeros that are not skipped
    floats = [0.0, -0.0, 0.0, 1.5, -2.25, 1e-200, -1e-200, 1.0 / 3.0]
    # exact operands are values, float operands are component tuples
    exact, floating = [], []
    for _ in range(300):
        exact.append(Hypercomplex([rng.choice(ints + fracs) for _ in range(dim)]))
        floating.append(tuple(rng.choice(floats + [rng.uniform(-4, 4)]) for _ in range(dim)))
    for i in range(dim):
        exact += [Hypercomplex.basis(dim, i), Hypercomplex.basis(dim, i) * Fraction(1, 3)]
        unit = tuple(float(j == i) for j in range(dim))
        floating += [unit, tuple(-c for c in unit)]
    exact += [Hypercomplex.from_real(dim, 5), Hypercomplex.from_real(dim, Fraction(-2, 7)), Hypercomplex.zero(dim)]
    rest = (0.0,) * (dim - 1)
    floating += [(2.5, *rest), (-0.0, *rest), (0.0, *rest), (-0.0,) * dim]
    return exact, floating


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_product_matches_table_loop_bit_for_bit(dim):
    rng = random.Random(dim)
    exact, floating = _product_operands(rng, dim)
    for values in (exact, floating):
        pairs = [(rng.choice(values), rng.choice(values)) for _ in range(2000)]
        pairs += [(a, b) for a in values[-2 * dim - 4 :] for b in values[-2 * dim - 4 :]]
        for a, b in pairs:
            if values is exact:
                assert list((a * b).comps) == _table_loop_product(a.comps, b.comps)
            else:
                got, ref = _PRODUCTS[dim](a, b), _table_loop_product(a, b)
                assert [v.hex() for v in got] == [float(v).hex() for v in ref]


def _mul_arrays_loop(a, b, dim):
    # the strided update loop mul_arrays ran before it called the generated product
    table = mult_table(dim)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i in range(dim):
        for j in range(dim):
            k, s = table[i][j]
            if s > 0:
                out[..., k] += a[..., i] * b[..., j]
            else:
                out[..., k] -= a[..., i] * b[..., j]
    return out


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_mul_arrays_matches_update_loop_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-300, -1e150])

    def draw(shape):
        values = rng.uniform(-4, 4, shape)
        mask = rng.random(shape) < 0.4
        values[mask] = rng.choice(pool, int(mask.sum()))
        return values

    for sa, sb in [((50, dim), (50, dim)), ((3, 1, 5, dim), (1, 4, 5, dim)), ((dim,), (7, dim)), ((dim,), (dim,))]:
        a, b = draw(sa), draw(sb)
        got, ref = mul_arrays(a, b, dim), _mul_arrays_loop(a, b, dim)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
