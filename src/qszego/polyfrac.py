"""Exact calculus on rational functions of the form P(x) / |x|^(2k).

``RatPoly`` is a sparse multivariate polynomial over exact rationals.
``RadialFraction`` divides such a polynomial by an integer power of the
squared radius ``|x|^2 = sum x_i^2`` and stores the pair as given.  For
dim >= 2, |x|^2 is prime in Q[x], so derivatives and scalings of reduced
fractions, and products of two with k > 0, stay reduced without a division.
Sums are not reduced; equality, zero and degree tests (Dirac annihilation,
homogeneity) do not depend on it.
``HyperFrac`` is a vector of radial fractions acting as hypercomplex
components; the left Dirac operator and linear variable substitutions act
on it, and ``degree`` is the one home of its degree of homogeneity.

``eval`` is exact and rejects floats: it is the oracle that the one float
evaluator, ``eval_fractions``, is checked against.  It runs a plan that
``float_plan`` builds from the fractions, which a caller that evaluates
the same fractions many times builds once.  It takes one coordinate column
per variable, and the columns broadcast to the shape of the point set: a
tensor grid passes its axes, so each power x_i**e is taken once per axis
value instead of once per point.  Every power is a chain of IEEE
products, x^e = x^(e//2) * x^(e - e//2), so its bits depend on the value
alone: an axis column, a one-element column and a scalar give the bits of
the whole-grid power, and scaling a point by 2^j scales each power by
2^(je) exactly while nothing overflows or underflows.  ``eval_array`` of
a fraction or a ``HyperFrac`` passes its points array as columns.

All values are immutable, all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

import numpy as np

from .hypercomplex import Hypercomplex, _norm_rat, mult_table

MAX_EXPONENT = 1 << 16


def _accumulate(terms, items):
    """Add the (key, coefficient) pairs into ``terms`` in order; a key whose sum cancels is deleted."""
    for k, c in items:
        acc = terms.get(k)
        if acc is None:
            terms[k] = c
        else:
            acc = acc + c
            if acc:
                terms[k] = acc
            else:
                del terms[k]
    return terms


def _checked_items(dim, items):
    for exps, coef in items:
        exps = tuple(int(e) for e in exps)
        if len(exps) != dim:
            raise ValueError(f"monomial key length {len(exps)} != dim {dim}")
        if any(e < 0 or e >= MAX_EXPONENT for e in exps):
            raise ValueError(f"exponent out of range in {exps}")
        c = _norm_rat(coef)
        if c:
            yield exps, c


class RatPoly:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms or ()
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "terms", _accumulate({}, _checked_items(dim, items)))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly values are immutable")

    @classmethod
    def _make(cls, dim, terms):
        """A polynomial from terms that are already clean (no zero coefficient)."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def const(cls, dim, value):
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim, i):
        if not 0 <= i < dim:
            raise ValueError(f"variable index {i} out of range")
        key = [0] * dim
        key[i] = 1
        return cls(dim, {tuple(key): 1})

    # -- ring operations ----------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        """``p + 0`` and ``0 + p`` are ``p``: the generated products and the
        geometric column maps sum from the integer 0."""
        if not isinstance(other, RatPoly):
            return self if type(other) is int and other == 0 else NotImplemented
        self._check_dim(other)
        return RatPoly._make(self.dim, _accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatPoly._make(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, RatPoly):
            self._check_dim(other)
            products = (
                (tuple(map(add, ka, kb)), ca * cb)
                for ka, ca in self.terms.items()
                for kb, cb in other.terms.items()
            )
            out = _accumulate({}, products)
            # an output exponent can reach the limit only if the factors' largest ones sum to it
            if out and self.dim and max(map(max, self.terms)) + max(map(max, other.terms)) >= MAX_EXPONENT:
                if any(e >= MAX_EXPONENT for k in out for e in k):
                    raise ValueError("exponent overflow in product")
            return RatPoly._make(self.dim, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = _norm_rat(c)
        if not c:
            return RatPoly.zero(self.dim)
        return RatPoly._make(self.dim, {k: v * c for k, v in self.terms.items()})

    def deriv(self, i):
        if not 0 <= i < self.dim:
            raise ValueError(f"axis {i} out of range")
        out = {}
        for k, c in self.terms.items():
            e = k[i]
            if e == 0:
                continue
            # k -> k - e_i is injective, so no two terms land on one key
            out[k[:i] + (e - 1,) + k[i + 1 :]] = c * e
        return RatPoly._make(self.dim, out)

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def homogeneous_degree(self):
        """Common total degree of all monomials, or None if inhomogeneous."""
        degs = {sum(k) for k in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None if degs else 0

    def __eq__(self, other):
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "RatPoly(0)"
        bits = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            mono = "".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(k) if e)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return "RatPoly(" + " + ".join(bits) + ")"

    # -- evaluation ----------------------------------------------------------

    def eval(self, point):
        """Exact value at a point of exact rationals; a float raises TypeError."""
        point = tuple(_norm_rat(x) for x in point)
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        total = 0
        for k, c in self.terms.items():
            v = c
            for x, e in zip(point, k):
                if e:
                    v = v * x**e
            total = total + v
        return total

    # -- substitution ----------------------------------------------------------

    def substitute_linear(self, rows):
        """Replace x_i by the linear form sum_j rows[i][j] * y_j.

        ``rows`` has one row per old variable; the number of columns sets the
        dimension of the resulting polynomial.
        """
        return _linear_substitution(self.dim, rows)(self)


def _linear_substitution(dim, rows):
    """Checks ``rows`` and returns the map x -> Ax on polynomials of ``dim``
    variables; the linear forms and their powers are built once and shared
    by every polynomial the map is applied to."""
    rows = [tuple(_norm_rat(v) for v in r) for r in rows]
    if len(rows) != dim:
        raise ValueError(f"need {dim} rows, got {len(rows)}")
    new_dim = len(rows[0])
    if any(len(r) != new_dim for r in rows):
        raise ValueError("ragged substitution matrix")
    units = [tuple(int(j == m) for m in range(new_dim)) for j in range(new_dim)]
    # power_cache[i][e] is the e-th power of the linear form of row i
    power_cache = [{1: RatPoly._make(new_dim, {u: v for u, v in zip(units, row) if v})} for row in rows]

    def form_pow(i, e):
        cache = power_cache[i]
        if e not in cache:
            cache[e] = form_pow(i, e - 1) * cache[1]
        return cache[e]

    one = (0,) * new_dim

    def substitute(poly):
        # one dict takes every term, in the order and with the cancellations
        # of summing them pairwise
        out = {}
        for k, c in poly.terms.items():
            term = RatPoly._make(new_dim, {one: _norm_rat(c)})
            for i, e in enumerate(k):
                if e:
                    term = term * form_pow(i, e)
            _accumulate(out, term.terms.items())
        return RatPoly._make(new_dim, out)

    return substitute


@lru_cache(maxsize=None)
def radius_sq(dim):
    """The polynomial sum_i x_i^2 (one shared value per dimension)."""
    return RatPoly(dim, {tuple(2 * (j == i) for j in range(dim)): 1 for i in range(dim)})


class RadialFraction:
    """P(x) / |x|^(2k) as given; ``deriv`` and ``scale`` keep it reduced, a sum may not."""

    __slots__ = ("num", "k")

    def __init__(self, num, k=0):
        if k < 0:
            raise ValueError("denominator power must be nonnegative")
        if num.is_zero():
            k = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError("RadialFraction values are immutable")

    @property
    def dim(self):
        return self.num.dim

    @classmethod
    def from_poly(cls, poly):
        return cls(poly, 0)

    @classmethod
    def zero(cls, dim):
        return cls(RatPoly.zero(dim), 0)

    def is_zero(self):
        return self.num.is_zero()

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, RadialFraction):
            return NotImplemented
        self._check_dim(other)
        k = max(self.k, other.k)
        return RadialFraction(self._over(k) + other._over(k), k)

    def _over(self, k):
        """The numerator of this fraction written over |x|^(2k), for k >= self.k."""
        num = self.num
        for _ in range(k - self.k):
            num = num * radius_sq(self.dim)
        return num

    def __radd__(self, other):
        """``0 + f`` is ``f``: the generated hypercomplex products sum from the integer 0."""
        if type(other) is int and other == 0:
            return self
        return NotImplemented

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RadialFraction(-self.num, self.k)

    def __mul__(self, other):
        if isinstance(other, RadialFraction):
            self._check_dim(other)
            return RadialFraction(self.num * other.num, self.k + other.k)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        return RadialFraction(self.num.scale(c), self.k if c else 0)

    def deriv(self, i):
        """d/dx_i via the quotient rule."""
        dnum = self.num.deriv(i)
        if self.k == 0:
            return RadialFraction(dnum, 0)
        xi = RatPoly.variable(self.dim, i)
        new_num = dnum * radius_sq(self.dim) + (xi * self.num).scale(-2 * self.k)
        return RadialFraction(new_num, self.k + 1)

    def __eq__(self, other):
        """By value: P/|x|^(2k) == P|x|^2/|x|^(2k+2); unequal dimensions are unequal."""
        if not isinstance(other, RadialFraction):
            return NotImplemented
        return self.dim == other.dim and (self - other).is_zero()

    def __repr__(self):
        if self.k == 0:
            return f"RadialFraction({self.num!r})"
        return f"RadialFraction({self.num!r} / |x|^{2 * self.k})"

    def eval(self, point):
        """Exact value at a point of exact rationals; a float raises TypeError."""
        point = tuple(_norm_rat(x) for x in point)
        if self.k:
            r2 = sum(x * x for x in point)
            if not r2:
                raise ZeroDivisionError("evaluation at the singular origin")
            return _norm_rat(Fraction(self.num.eval(point)) / Fraction(r2) ** self.k)
        return self.num.eval(point)

    def eval_array(self, x):
        return eval_fractions((self,), np.moveaxis(x, -1, 0))[..., 0]

    def to_json(self):
        terms = [
            {"exp": list(k), "coef": f"{Fraction(c).numerator}/{Fraction(c).denominator}"}
            for k, c in sorted(self.num.terms.items())
        ]
        return {"dim": self.dim, "k": self.k, "terms": terms}

    @classmethod
    def from_json(cls, data):
        dim = int(data["dim"])
        terms = {tuple(t["exp"]): Fraction(t["coef"]) for t in data["terms"]}
        return cls(RatPoly(dim, terms), int(data["k"]))


# Points per block of the float evaluator: the shared powers of one block
# stay near a megabyte, however many points a call passes.
_ROWS = 4096


def float_plan(fracs):
    """``evaluate(cols)``, the evaluator of ``fracs`` that :func:`eval_fractions` runs.

    The plan holds each term's float coefficient and factor list and the
    steps that form every power the terms and denominators use, each after
    its operands; a block of points only runs the steps and the terms.
    """
    fracs = tuple(fracs)
    dim = fracs[0].dim if fracs else 0
    if any(f.dim != dim for f in fracs):
        raise ValueError("the fractions of one plan must share their dimension")
    # register j of a block: coordinate column j for j < dim, else steps[j - dim](registers)
    steps = []

    def power(chain, e):
        """The register of x**e; ``chain`` maps each e' taken so far to the register of x**e'."""
        if e not in chain:
            a, b = power(chain, e // 2), power(chain, e - e // 2)
            steps.append(lambda regs: regs[a] * regs[b])
            chain[e] = dim + len(steps) - 1
        return chain[e]

    chains = [{1: i} for i in range(dim)]
    terms = [
        [
            (float(c), [ch[e] if e in ch else power(ch, e) for ch, e in zip(chains, key) if e])
            for key, c in f.num.terms.items()
        ]
        for f in fracs
    ]
    denominators = [None] * len(fracs)
    if any(f.k for f in fracs):
        # a square the terms do not share is a temporary, as are the partial sums
        squares = [ch.get(2) for ch in chains]

        def radius_sq(regs):
            total = None
            for i, sq in enumerate(squares):
                term = regs[i] * regs[i] if sq is None else regs[sq]
                total = term if total is None else total + term
            return total

        steps.append(radius_sq)
        r2 = {1: dim + len(steps) - 1}
        denominators = [power(r2, f.k) if f.k else None for f in fracs]
    plan = list(zip(terms, denominators))

    def evaluate(cols):
        cols = [np.asarray(c, dtype=float) for c in cols]
        if fracs and len(cols) != dim:
            raise ValueError(f"need {dim} coordinate columns, got {len(cols)}")
        true_shape = np.broadcast_shapes(*(c.shape for c in cols))
        shape = true_shape or (1,)
        cols = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in cols]
        out = np.empty((len(plan),) + shape)
        size = max(1, _ROWS // max(1, math.prod(shape[1:])))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for start in range(0, shape[0], size):
                regs = [np.ascontiguousarray(c if len(c) == 1 else c[start : start + size]) for c in cols]
                for fn in steps:
                    regs.append(fn(regs))
                for row, (row_terms, den) in zip(out[:, start : start + size], plan):
                    row.fill(0.0)
                    for c, factors in row_terms:
                        term = c
                        for j in factors:
                            term = term * regs[j]
                        row += term
                    if den is not None:
                        np.divide(row, regs[den], out=row)
        # the S + (len(fracs),) view: np.moveaxis(out, 0, -1) without its per-call axis checks
        return out.transpose((*range(1, out.ndim), 0)).reshape(true_shape + (len(plan),))

    return evaluate


def eval_fractions(fracs, cols):
    """Float values of the fractions ``fracs`` at the points given by ``cols``.

    ``cols`` holds one coordinate column per variable; the columns broadcast
    to the shape S of the point set (a points array x of shape (..., dim)
    passes ``np.moveaxis(x, -1, 0)``).  Returns shape S + (len(fracs),), the
    view of a (len(fracs),) + S buffer in which each fraction fills its own
    contiguous row; a value that overflows, divides by zero or is invalid
    raises ``FloatingPointError``.  The points are taken in blocks of at
    most ``_ROWS`` along S's leading axis.  In each block every power
    x_i**e (e >= 2) is taken once, on the column's own contiguous slice, and
    |x|^2 = ((x_0^2 + x_1^2) + x_2^2) + ... (the order of
    ``np.sum(x * x, axis=-1)`` for dim < 8, which holds every fraction with
    k > 0 evaluated in floats here, on the squares the terms share) and
    |x|^(2k) once; all are shared by all terms of all fractions.  Both kinds
    of power follow one rule, x^e = x^(e//2) * x^(e - e//2), so x^e is
    within (e - 1) * 2^-53 relative of the exact power and does not depend
    on numpy's ``**``.  Each term is c * x_i**e * ... in key order, each
    partial product on its own broadcast shape, the terms are summed in
    order from +0.0 and the sum is divided by |x|^(2k), so the values are
    those of evaluating every term at every point, bit for bit.  It is
    ``float_plan(fracs)(cols)``: a caller that evaluates the same fractions
    many times builds the plan once and applies it to each set of columns.
    """
    return float_plan(fracs)(cols)


class HyperFrac:
    """Vector of radial fractions acting as hypercomplex components."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        comps = tuple(comps)
        if len(comps) not in (2, 4, 8):
            raise ValueError(f"component count {len(comps)} not supported")
        d = comps[0].dim
        if any(c.dim != d for c in comps):
            raise ValueError("components must share variable dimension")
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("HyperFrac values are immutable")

    @property
    def alg_dim(self):
        return len(self.comps)

    @property
    def dim(self):
        return self.comps[0].dim

    @classmethod
    def from_polys(cls, polys):
        return cls(tuple(RadialFraction.from_poly(p) for p in polys))

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def is_polynomial(self):
        return all(c.k == 0 for c in self.comps)

    def degree(self):
        """deg(P) - 2k if every nonzero component P/|x|^(2k) has that one degree, else None."""
        degs = set()
        for c in self.comps:
            if not c.is_zero():
                d = c.num.homogeneous_degree()
                degs.add(None if d is None else d - 2 * c.k)
        return degs.pop() if len(degs) == 1 else None

    def __add__(self, other):
        if not isinstance(other, HyperFrac):
            return NotImplemented
        if len(self.comps) != len(other.comps):
            raise ValueError("component count mismatch")
        return HyperFrac(tuple(a + b for a, b in zip(self.comps, other.comps)))

    def scale(self, c):
        return HyperFrac(tuple(a.scale(c) for a in self.comps))

    def __eq__(self, other):
        if not isinstance(other, HyperFrac):
            return NotImplemented
        return self.comps == other.comps

    def __repr__(self):
        return f"HyperFrac({list(self.comps)!r})"

    def eval(self, point):
        """Exact component values at a point of exact rationals."""
        return Hypercomplex(tuple(c.eval(point) for c in self.comps))

    def eval_array(self, x):
        return eval_fractions(self.comps, np.moveaxis(x, -1, 0))

    def deriv(self, i):
        """Componentwise d/dx_i."""
        return HyperFrac(tuple(c.deriv(i) for c in self.comps))

    def dirac(self, side="left", var_indices=None):
        """The left Dirac operator sum_i e_i df/dx_i, through the multiplication table.

        ``side`` must be ``"left"``: the Hardy space is made of left-regular
        functions, and no other side is implemented.  ``var_indices`` selects
        which variables pair with e_0, e_1, ...; by default the variable
        dimension must equal the component count.

        Every partial of P_j/|x|^(2k) is (|x|^2 dP_j/dx_v - 2k x_v P_j) /
        |x|^(2k+2), so on the components' common k the quotient rule is
        applied once per output component, to A = D(P) and B = the same sum
        of the x_v P_j, instead of once per partial.  The result equals the
        Dirac operator of the partials by value.
        """
        if side != "left":
            raise ValueError(f"only the left Dirac operator is implemented, not {side!r}")
        if var_indices is None:
            if self.dim != self.alg_dim:
                raise ValueError(
                    f"variable dimension {self.dim} != component count {self.alg_dim};"
                    " pass var_indices explicitly"
                )
            var_indices = range(self.alg_dim)
        var_indices = tuple(var_indices)
        k = max(c.k for c in self.comps)
        nums = [c._over(k) for c in self.comps]

        def dirac_of(partial):
            partials = [HyperFrac.from_polys(partial(v, p) for p in nums) for v in var_indices]
            return dirac_from_partials(partials)

        a = dirac_of(lambda v, p: p.deriv(v))
        if not k:
            return a
        b = dirac_of(lambda v, p: RatPoly.variable(self.dim, v) * p)
        rsq = radius_sq(self.dim)
        return HyperFrac(
            RadialFraction(ca.num * rsq + cb.num.scale(-2 * k), k + 1) for ca, cb in zip(a.comps, b.comps)
        )

    def substitute_linear(self, rows):
        """Component-wise x -> Ax substitution; polynomial inputs only.  The
        linear forms and their powers are built once for all components."""
        if not self.is_polynomial():
            raise ValueError("substitution requires polynomial components")
        substitute = _linear_substitution(self.dim, rows)
        return HyperFrac.from_polys(substitute(c.num) for c in self.comps)

    def to_json(self):
        return {"components": [c.to_json() for c in self.comps]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(RadialFraction.from_json(c) for c in data["components"]))


def dirac_from_partials(partials):
    """The left Dirac operator of :meth:`HyperFrac.dirac` from the partials it pairs with e_0, e_1, ..."""
    alg = partials[0].alg_dim
    if len(partials) != alg:
        raise ValueError("need one variable per basis element")
    table = mult_table(alg)
    out = [RadialFraction.zero(partials[0].dim) for _ in range(alg)]
    for i, partial in enumerate(partials):
        for j, df in enumerate(partial.comps):
            if df.is_zero():
                continue
            k, s = table[i][j]
            out[k] = out[k] + df.scale(s)
    return HyperFrac(tuple(out))
