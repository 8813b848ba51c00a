"""Exact calculus on rational functions of the form P(x) / |x|^(2k).

``RatPoly`` is a sparse multivariate polynomial over exact rationals.
``RadialFraction`` divides such a polynomial by an integer power of the
squared radius ``|x|^2 = sum x_i^2`` and stores the pair as given.  For
dim >= 2, |x|^2 is prime in Q[x], so derivatives and scalings of reduced
fractions, and products of two with k > 0, stay reduced without a division.
Sums are not reduced; equality, zero and degree tests (Dirac annihilation,
homogeneity) do not depend on it.
``HyperFrac`` is a vector of radial fractions acting as hypercomplex
components; the Dirac operators and linear variable substitutions act on it.

``eval`` is exact and rejects floats: it is the oracle that the one float
evaluator, ``eval_fractions``, is checked against.  It evaluates any number
of fractions in one pass that shares each power x_i**e, |x|^2 and |x|^(2k)
across them, in blocks of ``_ROWS`` points, with the term-by-term loop's
values bit for bit; a float fault raises ``FloatingPointError``, on a grid
as at one point.  ``eval_array`` of a fraction or a ``HyperFrac`` calls it.

All values are immutable, all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .hypercomplex import Hypercomplex, _norm_rat, mult_table

MAX_EXPONENT = 1 << 16


def _clean_terms(dim, items):
    terms = {}
    for exps, coef in items:
        exps = tuple(int(e) for e in exps)
        if len(exps) != dim:
            raise ValueError(f"monomial key length {len(exps)} != dim {dim}")
        if any(e < 0 or e >= MAX_EXPONENT for e in exps):
            raise ValueError(f"exponent out of range in {exps}")
        c = _norm_rat(coef)
        if not c:
            continue
        acc = terms.get(exps)
        if acc is None:
            terms[exps] = c
        else:
            acc = acc + c
            if acc:
                terms[exps] = acc
            else:
                del terms[exps]
    return terms


class RatPoly:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        object.__setattr__(self, "dim", int(dim))
        if terms is None:
            cleaned = {}
        elif isinstance(terms, dict):
            cleaned = _clean_terms(dim, terms.items())
        else:
            cleaned = _clean_terms(dim, terms)
        object.__setattr__(self, "terms", cleaned)

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
        if not isinstance(other, RatPoly):
            return NotImplemented
        self._check_dim(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            if acc is None:
                out[k] = c
            else:
                acc = acc + c
                if acc:
                    out[k] = acc
                else:
                    del out[k]
        return RatPoly._make(self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatPoly._make(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, RatPoly):
            self._check_dim(other)
            out = {}
            for ka, ca in self.terms.items():
                for kb, cb in other.terms.items():
                    k = tuple(a + b for a, b in zip(ka, kb))
                    c = ca * cb
                    acc = out.get(k)
                    if acc is None:
                        out[k] = c
                    else:
                        acc = acc + c
                        if acc:
                            out[k] = acc
                        else:
                            del out[k]
            if out and any(e >= MAX_EXPONENT for k in out for e in k):
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
        rows = [tuple(_norm_rat(v) for v in r) for r in rows]
        if len(rows) != self.dim:
            raise ValueError(f"need {self.dim} rows, got {len(rows)}")
        new_dim = len(rows[0])
        if any(len(r) != new_dim for r in rows):
            raise ValueError("ragged substitution matrix")
        forms = [RatPoly(new_dim, {tuple(int(j == m) for m in range(new_dim)): rows[i][j] for j in range(new_dim) if rows[i][j]}) for i in range(self.dim)]
        power_cache = [{0: RatPoly.const(new_dim, 1)} for _ in range(self.dim)]

        def form_pow(i, e):
            cache = power_cache[i]
            if e not in cache:
                cache[e] = form_pow(i, e - 1) * forms[i]
            return cache[e]

        out = RatPoly.zero(new_dim)
        for k, c in self.terms.items():
            term = RatPoly.const(new_dim, c)
            for i, e in enumerate(k):
                if e:
                    term = term * form_pow(i, e)
            out = out + term
        return out


def radius_sq(dim):
    """The polynomial sum_i x_i^2."""
    key0 = [0] * dim
    terms = {}
    for i in range(dim):
        k = list(key0)
        k[i] = 2
        terms[tuple(k)] = 1
    return RatPoly(dim, terms)


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
        rsq = radius_sq(self.dim)
        a, b = self.num, other.num
        for _ in range(k - self.k):
            a = a * rsq
        for _ in range(k - other.k):
            b = b * rsq
        return RadialFraction(a + b, k)

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
        return eval_fractions((self,), x)[..., 0]

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


@np.errstate(over="raise", divide="raise", invalid="raise")
def eval_fractions(fracs, x):
    """Float values of the fractions ``fracs`` at points x of shape (..., dim).

    Returns shape (..., len(fracs)); a value that overflows, divides by zero
    or is invalid raises ``FloatingPointError``.  The points are taken in
    blocks of ``_ROWS``; in each block every power x_i**e (e >= 2), |x|^2
    and |x|^(2k) is computed once and shared by all terms of all fractions.
    Each term is still c * x_i**e * ... in key order, the terms are summed in
    order and the sum is divided by |x|^(2k), so the values are those of
    evaluating every term on its own, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, x.shape[-1])
    plans, powers = [], set()
    for f in fracs:
        terms = []
        for key, c in f.num.terms.items():
            factors = [(i, e) for i, e in enumerate(key) if e]
            powers.update(factors)
            terms.append((float(c), factors))
        plans.append((f.k, terms))
    radial = {f.k for f in fracs if f.k}
    out = np.empty((len(flat), len(fracs)))
    for start in range(0, len(flat), _ROWS):
        block = flat[start : start + _ROWS]
        rows = slice(start, start + len(block))
        cols = np.ascontiguousarray(block.T)
        pw = {(i, e): cols[i] ** e if e > 1 else cols[i] for i, e in powers}
        r2 = np.sum(block * block, axis=-1) if radial else None
        r2k = {k: r2**k for k in radial}
        term = np.empty(len(block))
        for j, (k, terms) in enumerate(plans):
            acc = np.zeros(len(block))
            for c, factors in terms:
                if not factors:
                    acc += c
                    continue
                np.multiply(c, pw[factors[0]], out=term)
                for ie in factors[1:]:
                    term *= pw[ie]
                acc += term
            if k:
                np.divide(acc, r2k[k], out=out[rows, j])
            else:
                out[rows, j] = acc
    return out.reshape(x.shape[:-1] + (len(fracs),))


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

    def __add__(self, other):
        return HyperFrac(tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return HyperFrac(tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self):
        return HyperFrac(tuple(-a for a in self.comps))

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
        return eval_fractions(self.comps, x)

    def deriv(self, i):
        """Componentwise d/dx_i."""
        return HyperFrac(tuple(c.deriv(i) for c in self.comps))

    def dirac(self, side="left", conjugated=False, var_indices=None):
        """Apply the Dirac operator through the multiplication table.

        ``left`` computes sum_i e_i df/dx_i, ``right`` computes
        sum_i (df/dx_i) e_i; ``conjugated`` uses the conjugate basis
        (sign flip on e_1..).  ``var_indices`` selects which variables pair
        with e_0..; by default the variable dimension must equal the
        component count.
        """
        alg = self.alg_dim
        if var_indices is None:
            if self.dim != alg:
                raise ValueError(
                    f"variable dimension {self.dim} != component count {alg};"
                    " pass var_indices explicitly"
                )
            var_indices = range(alg)
        var_indices = tuple(var_indices)
        if len(var_indices) != alg:
            raise ValueError("need one variable per basis element")
        table = mult_table(alg)
        out = [RadialFraction.zero(self.dim) for _ in range(alg)]
        for i, vi in enumerate(var_indices):
            sign_i = -1 if (conjugated and i >= 1) else 1
            for j, df in enumerate(self.deriv(vi).comps):
                if df.is_zero():
                    continue
                k, s = table[i][j] if side == "left" else table[j][i]
                out[k] = out[k] + df.scale(s * sign_i)
        return HyperFrac(tuple(out))

    def substitute_linear(self, rows):
        """Component-wise x -> Ax substitution; polynomial inputs only."""
        if not self.is_polynomial():
            raise ValueError("substitution requires polynomial components")
        return HyperFrac.from_polys(tuple(c.num.substitute_linear(rows) for c in self.comps))

    def to_json(self):
        return {"components": [c.to_json() for c in self.comps]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(RadialFraction.from_json(c) for c in data["components"]))
