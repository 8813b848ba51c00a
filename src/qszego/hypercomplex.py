"""Quaternion and octonion arithmetic over exact rationals.

One component-vector representation covers the complex numbers (dim 2), the
quaternions (dim 4) and the octonions (dim 8).  Multiplication is table
driven: the sign/index tables are generated at import time from the defining
oriented triples (e_a e_b = e_c plus anticommutativity, e_i^2 = -1 and e_0
acting as identity), never typed by hand.  From each table one straight-line
product function is generated at import, as ``dataclasses`` generates
methods: component k is ``0 +- a_i*b_j +- ...`` over the (i, j) with
e_i e_j = +-e_k, in i-major order.  It runs on any components that take
``0 +``, ``+``, ``-`` and ``*``: exact and float scalars, numpy columns
(:func:`mul_arrays`), ``RatPoly`` components and the ``RadialFraction``
components of a symbolic ``HyperFrac``.  On finite float components its values are those of summing
the table's products term by term from the integer 0 and skipping the zero
ones, bit for bit, including the sign of a zero.  With an inf or nan
component a product 0*inf is summed as nan, where skipping it would not;
the command line rejects non-finite input.

``Hypercomplex`` values are exact and immutable: every component is stored
as an ``int`` or a ``Fraction`` in lowest terms, and a float (or bool)
component or scalar raises ``TypeError``.  Float work runs the products on
columns (:func:`mul_arrays`); a float kernel value at one point is a
``kernel.KernelValue``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import numpy as np

QUATERNION_TRIPLES = ((1, 2, 3),)

OCTONION_TRIPLES = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 7, 6),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 6, 5),
)


def _build_table(dim, triples):
    """Generate table[i][j] = (k, sign) with e_i e_j = sign * e_k."""
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        table[0][i] = (i, 1)
        table[i][0] = (i, 1)
    for i in range(1, dim):
        table[i][i] = (0, -1)
    for a, b, c in triples:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if table[x][y] is not None and (x != 0 and y != 0 and x != y):
                raise ValueError(f"triple collision at e{x} e{y}")
            table[x][y] = (z, 1)
            table[y][x] = (z, -1)
    for i in range(dim):
        for j in range(dim):
            if table[i][j] is None:
                raise ValueError(f"triples do not determine e{i} e{j}")
    return tuple(tuple(row) for row in table)


_TABLES = {
    2: _build_table(2, ()),
    4: _build_table(4, QUATERNION_TRIPLES),
    8: _build_table(8, OCTONION_TRIPLES),
}


def _make_product(dim):
    """The straight-line product of two component tuples of ``dim``, generated from its table."""
    sums = [["0"] for _ in range(dim)]
    for i, row in enumerate(_TABLES[dim]):
        for j, (k, s) in enumerate(row):
            sums[k].append(f"{'+' if s > 0 else '-'} a{i} * b{j}")
    a = ", ".join(f"a{i}" for i in range(dim))
    b = ", ".join(f"b{i}" for i in range(dim))
    comps = "".join(f"        {' '.join(terms)},\n" for terms in sums)
    namespace = {}
    exec(f"def _mul{dim}(a, b):\n    {a} = a\n    {b} = b\n    return (\n{comps}    )\n", namespace)
    return namespace[f"_mul{dim}"]


_PRODUCTS = {dim: _make_product(dim) for dim in _TABLES}


def sum_squares(comps):
    """c0*c0 + c1*c1 + ..., added left to right from the integer 0.

    The components may be exact or float scalars or float columns (numpy
    arrays); a column gets, row by row, the bits of the scalar sum.
    """
    acc = 0
    for c in comps:
        acc += c * c
    return acc


def conj(comps):
    """(c0, -c1, -c2, ...): the one conjugate, of any components with unary minus."""
    return (comps[0],) + tuple(-x for x in comps[1:])


def mult_table(dim):
    """The (index, sign) multiplication table for the given dimension."""
    try:
        return _TABLES[dim]
    except KeyError:
        raise ValueError(f"unsupported dimension {dim}") from None


def _norm_rat(x):
    # Keep exact components as plain ints when possible; Fraction stays in
    # lowest terms with positive denominator by construction.
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar component")
    if isinstance(x, int):
        return x
    if isinstance(x, Rational):
        f = Fraction(x)
        return int(f) if f.denominator == 1 else f
    raise TypeError(f"not an exact rational: {x!r}")


class Hypercomplex:
    """An element of a 2/4/8-dimensional real composition algebra, over exact rationals."""

    __slots__ = ("dim", "comps")

    def __init__(self, components):
        comps = tuple(components)
        if len(comps) not in _TABLES:
            raise ValueError(f"dimension {len(comps)} not supported")
        if not all(type(c) is int for c in comps):
            # bool is not int by type, so it goes to _norm_rat and raises
            comps = tuple(_norm_rat(c) for c in comps)
        _set_dim(self, len(comps))
        _set_comps(self, comps)

    def __setattr__(self, name, value):
        raise AttributeError("Hypercomplex values are immutable")

    @classmethod
    def _make(cls, dim, comps):
        obj = object.__new__(cls)
        _set_dim(obj, dim)
        _set_comps(obj, tuple(comps))
        return obj

    # -- constructors -----------------------------------------------------

    @classmethod
    def basis(cls, dim, index):
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        comps = [0] * dim
        comps[index] = 1
        return cls(comps)

    @classmethod
    def from_real(cls, dim, value):
        return cls([value] + [0] * (dim - 1))

    @classmethod
    def zero(cls, dim):
        return cls.from_real(dim, 0)

    # -- arithmetic ---------------------------------------------------------

    def _check_same(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Hypercomplex):
            return NotImplemented
        self._check_same(other)
        return Hypercomplex._make(self.dim, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        if not isinstance(other, Hypercomplex):
            return NotImplemented
        self._check_same(other)
        return Hypercomplex._make(self.dim, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self):
        return Hypercomplex._make(self.dim, tuple(-a for a in self.comps))

    def __mul__(self, other):
        if isinstance(other, Hypercomplex):
            self._check_same(other)
            return Hypercomplex._make(self.dim, _PRODUCTS[self.dim](self.comps, other.comps))
        c = _norm_rat(other)
        return Hypercomplex._make(self.dim, tuple(a * c for a in self.comps))

    def conj(self):
        return Hypercomplex._make(self.dim, conj(self.comps))

    def norm_sq(self):
        return sum_squares(self.comps)

    def __abs__(self):
        return math.sqrt(float(self.norm_sq()))

    def inverse(self):
        n2 = self.norm_sq()
        if not n2:
            raise ZeroDivisionError("inverse of zero")
        return self.conj() * _norm_rat(Fraction(1, 1) / Fraction(n2))

    @property
    def re(self):
        return self.comps[0]

    def im(self, i):
        if not 1 <= i < self.dim:
            raise ValueError(f"imaginary index {i} out of range for dim {self.dim}")
        return self.comps[i]

    def is_zero(self):
        return not any(self.comps)

    def __eq__(self, other):
        if not isinstance(other, Hypercomplex):
            return NotImplemented
        return self.dim == other.dim and all(a == b for a, b in zip(self.comps, other.comps))

    def __hash__(self):
        return hash((self.dim, self.comps))

    # -- rendering ----------------------------------------------------------

    def to_text(self):
        parts = []
        for i, c in enumerate(self.comps):
            if not c:
                continue
            parts.append(str(c) if i == 0 else f"{c} e{i}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Hypercomplex({self.to_text()!r}, dim={self.dim})"


# The slot descriptors: setting through them bypasses the immutability guard
# in ``__setattr__`` at the cost of one call.
_set_dim = Hypercomplex.dim.__set__
_set_comps = Hypercomplex.comps.__set__


def associator(x, y, z):
    """(xy)z - x(yz); vanishes identically on associative subalgebras."""
    return (x * y) * z - x * (y * z)


def left_mult_matrix(a):
    """Matrix M with (a*x)_k = sum_j M[k][j] x_j, with exact entries."""
    dim = a.dim
    table = _TABLES[dim]
    m = [[0] * dim for _ in range(dim)]
    for l, al in enumerate(a.comps):
        if not al:
            continue
        for j in range(dim):
            k, s = table[l][j]
            m[k][j] = m[k][j] + (al if s > 0 else -al)
    return tuple(tuple(row) for row in m)


def mul_arrays(a, b, dim):
    """Vectorized product of component arrays with shape (..., dim).

    Runs the straight-line product of ``dim`` on the component views, so
    every value has the bits of the scalar product at that point.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    comps = _PRODUCTS[dim](tuple(a[..., i] for i in range(dim)), tuple(b[..., j] for j in range(dim)))
    return np.stack(comps, axis=-1)
