"""Siegel half spaces, Heisenberg groups and the Cayley transform.

Points ``(q', q_{n+1})`` with Re q_{n+1} > |q'|^2 form the quaternionic
Siegel half space; the octonionic case has a single horizontal coordinate.
The boundary is parameterized by Heisenberg group elements ``[w', t]`` whose
twisted product makes translation an automorphism of the domain.  Both the
quaternionic and the octonionic multiplication laws are implemented exactly
as printed (they differ in the sign and the order of the conjugated factor;
see :func:`group_mul_with_convention` for testing either convention on
either group).

The octonionic Cayley transform is one formula over component sequences.
:func:`cayley` and :func:`cayley_inv` run it on the components of one point,
exact or float; :func:`cayley_columns` runs it on float columns, one row per
point, so a block of points costs one pass of array operations, and every
row has the bits of the point-wise transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hypercomplex import _PRODUCTS, Hypercomplex, _norm_rat, sum_squares


def _coerce_t(t, exact):
    if exact:
        return tuple(_norm_rat(v) for v in t)
    return tuple(float(v) for v in t)


@dataclass(frozen=True)
class SiegelPoint:
    """A point (q', q_{n+1}); height r = Re(vertical) - |horizontal|^2."""

    horizontal: tuple
    vertical: Hypercomplex

    def __post_init__(self):
        horizontal = tuple(self.horizontal)
        object.__setattr__(self, "horizontal", horizontal)
        dim = self.vertical.dim
        exact = self.vertical.exact
        for h in horizontal:
            if h.dim != dim:
                raise ValueError("mixed algebra dimensions in point")
            if h.exact != exact:
                raise TypeError("mixed scalar modes in point")
        if dim == 8 and len(horizontal) != 1:
            raise ValueError("octonionic points have a single horizontal coordinate")

    @property
    def n(self):
        return len(self.horizontal)

    @property
    def alg_dim(self):
        return self.vertical.dim

    @property
    def exact(self):
        return self.vertical.exact

    def height(self):
        return self.vertical.re - sum(h.norm_sq() for h in self.horizontal)


@dataclass(frozen=True)
class BallPoint:
    """A point (sigma_1, sigma_2) of the unit ball model."""

    sigma1: Hypercomplex
    sigma2: Hypercomplex

    def norm_sq_sum(self):
        return self.sigma1.norm_sq() + self.sigma2.norm_sq()

    def in_ball(self):
        return self.norm_sq_sum() < 1


@dataclass(frozen=True)
class GroupElement:
    """Heisenberg element [w', t]; t has 3 (quaternionic) or 7 (octonionic) slots."""

    omega: tuple
    t: tuple

    def __post_init__(self):
        omega = tuple(self.omega)
        if not omega:
            raise ValueError("empty horizontal part")
        dim = omega[0].dim
        exact = omega[0].exact
        for w in omega:
            if w.dim != dim or w.exact != exact:
                raise ValueError("inconsistent horizontal components")
        expected_t = {4: 3, 8: 7}.get(dim)
        if expected_t is None:
            raise ValueError(f"unsupported algebra dimension {dim}")
        if dim == 8 and len(omega) != 1:
            raise ValueError("octonionic elements have a single horizontal coordinate")
        t = _coerce_t(self.t, exact)
        if len(t) != expected_t:
            raise ValueError(f"t must have {expected_t} components")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "t", t)

    @property
    def kind(self):
        return "quaternionic" if self.omega[0].dim == 4 else "octonionic"

    @property
    def n(self):
        return len(self.omega)

    @property
    def alg_dim(self):
        return self.omega[0].dim

    @property
    def exact(self):
        return self.omega[0].exact


def identity_element(kind, n=1):
    dim = 4 if kind == "quaternionic" else 8
    n = 1 if kind == "octonionic" else n
    return GroupElement(tuple(Hypercomplex.zero(dim) for _ in range(n)), (0,) * (dim - 1))


def _hermitian_pairing(a, b):
    """sum_i conj(a_i) b_i over horizontal tuples."""
    acc = Hypercomplex.zero(a[0].dim, exact=a[0].exact)
    for ai, bi in zip(a, b):
        acc = acc + ai.conj() * bi
    return acc


def group_mul_with_convention(a, b, convention):
    """Product [alpha,t][beta,s] with an explicit t-part convention.

    ``minus_conj_beta_alpha``: t_i + s_i - 2 Im_i(conj(beta) . alpha)
    ``plus_conj_alpha_beta``:  t_i + s_i + 2 Im_i(conj(alpha) . beta)

    The two agree identically because conj(beta).alpha and conj(alpha).beta
    are conjugates of each other; both are kept so the compatibility suite
    can exercise each printed form.
    """
    if a.kind != b.kind or a.n != b.n:
        raise ValueError("group kind/shape mismatch")
    if a.exact != b.exact:
        raise TypeError("scalar mode mismatch")
    omega = tuple(wa + wb for wa, wb in zip(a.omega, b.omega))
    if convention == "minus_conj_beta_alpha":
        inner = _hermitian_pairing(b.omega, a.omega)
        t = tuple(ta + sb - 2 * inner.im(i + 1) for i, (ta, sb) in enumerate(zip(a.t, b.t)))
    elif convention == "plus_conj_alpha_beta":
        inner = _hermitian_pairing(a.omega, b.omega)
        t = tuple(ta + sb + 2 * inner.im(i + 1) for i, (ta, sb) in enumerate(zip(a.t, b.t)))
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return GroupElement(omega, t)


def group_mul(a, b):
    """Heisenberg product, using each group's printed convention."""
    conv = "minus_conj_beta_alpha" if a.kind == "quaternionic" else "plus_conj_alpha_beta"
    return group_mul_with_convention(a, b, conv)


def group_inverse(h):
    return GroupElement(tuple(-w for w in h.omega), tuple(-v for v in h.t))


def _imag_embedding(t, exact):
    return Hypercomplex((0, *t), exact=exact)


def translate(h, p):
    """Left translation of the half space by [w', t]."""
    if h.alg_dim != p.alg_dim or h.n != p.n:
        raise ValueError("element/point shape mismatch")
    if h.exact != p.exact:
        raise TypeError("scalar mode mismatch")
    horizontal = tuple(qi + wi for qi, wi in zip(p.horizontal, h.omega))
    shift = _hermitian_pairing(h.omega, p.horizontal) * 2
    w2 = sum(w.norm_sq() for w in h.omega)
    vertical = (
        p.vertical
        + Hypercomplex.from_real(p.alg_dim, w2, exact=p.exact)
        + shift
        + _imag_embedding(h.t, p.exact)
    )
    return SiegelPoint(horizontal, vertical)


def _dilation_factor(delta, exact):
    """delta as a scalar of the mode ``exact``; a float delta is taken exactly
    in exact mode."""
    if not delta > 0:
        raise ValueError("dilation factor must be positive")
    if exact:
        return _norm_rat(Fraction(delta) if isinstance(delta, float) else delta)
    return float(delta)


def dilate(delta, p):
    delta = _dilation_factor(delta, p.exact)
    return SiegelPoint(tuple(h * delta for h in p.horizontal), p.vertical * (delta * delta))


def dilate_element(delta, h):
    """Group dilation delta o [w', t] = [delta w', delta^2 t]."""
    delta = _dilation_factor(delta, h.exact)
    d2 = delta * delta
    return GroupElement(tuple(w * delta for w in h.omega), tuple(v * d2 for v in h.t))


def rotate(rotation, p):
    """Componentwise rotation (R_1 q_1, ..., R_n q_n, q_{n+1}), |R_i| = 1 to 1e-12."""
    rotation = tuple(rotation)
    if len(rotation) != p.n:
        raise ValueError("one unit rotation per horizontal coordinate")
    for r in rotation:
        n2 = r.norm_sq()
        if r.exact:
            if n2 != 1:
                raise ValueError("rotation components must have unit norm")
        elif abs(float(n2) - 1.0) > 1e-12:
            raise ValueError("rotation components must have unit norm")
    horizontal = tuple(r * q for r, q in zip(rotation, p.horizontal))
    return SiegelPoint(horizontal, p.vertical)


def boundary_param(h):
    """[w', t] -> (w', |w'|^2 + e.t), a point on the boundary."""
    w2 = sum(w.norm_sq() for w in h.omega)
    vertical = Hypercomplex.from_real(h.alg_dim, w2, exact=h.exact) + _imag_embedding(h.t, h.exact)
    return SiegelPoint(h.omega, vertical)


def boundary_unparam(p):
    """Inverse of :func:`boundary_param`; requires the point on the boundary to 1e-12."""
    height = p.height()
    if p.exact:
        if height != 0:
            raise ValueError("point is not on the boundary")
    elif abs(float(height)) > 1e-12:
        raise ValueError(f"point is off the boundary by {float(height):g}")
    t = tuple(p.vertical.comps[1:])
    return GroupElement(p.horizontal, t)


def _cayley_map(a, b, pole):
    """(a (1 + conj b), (1 + conj b)(1 - b)) / |1 + b|^2 on component sequences.

    Shared by both directions and by points and columns: each component is
    an exact or float scalar or a float column.  The steps are those of the
    ``Hypercomplex`` operations, 1 + b, the running sum of squares and
    division as multiplication by 1.0/denominator, so a column gets, row by
    row, the bits of the map at one point.
    """
    one_plus_b = (1 + b[0],) + tuple(0 + c for c in b[1:])
    denom = sum_squares(one_plus_b)
    if not np.all(denom):
        raise ZeroDivisionError(f"Cayley pole: {pole} = -1")
    if isinstance(denom, (float, np.ndarray)):
        inv = 1.0 / denom
    else:
        inv = _norm_rat(Fraction(1, 1) / denom)
    factor = (1 + b[0],) + tuple(0 + -c for c in b[1:])
    one_minus_b = (1 - b[0],) + tuple(0 - c for c in b[1:])
    mul = _PRODUCTS[8]
    return (
        tuple(c * inv for c in mul(a, factor)),
        tuple(c * inv for c in mul(factor, one_minus_b)),
    )


def cayley_columns(first, second, inverse=False):
    """The Cayley transform of points given as two sequences of 8 components.

    Forward, ``(tau1, tau2)`` goes to ``(sigma1, sigma2)``; with ``inverse``,
    ``(sigma1, sigma2)`` goes back.  The components may be float columns, one
    row per point, and each row has the bits of :func:`cayley` or
    :func:`cayley_inv` at that point.  Raises ZeroDivisionError if any row is
    the pole.
    """
    if inverse:
        return _cayley_map(first, second, "sigma2")
    return _cayley_map(tuple(c * 2 for c in first), second, "tau2")


def cayley(p):
    """Octonionic Siegel half space (n=1) to the unit ball."""
    if p.alg_dim != 8 or p.n != 1:
        raise ValueError("Cayley transform expects an octonionic point with n=1")
    sigma1, sigma2 = cayley_columns(p.horizontal[0].comps, p.vertical.comps)
    return BallPoint(Hypercomplex(sigma1, exact=p.exact), Hypercomplex(sigma2, exact=p.exact))


def cayley_inv(b):
    """Unit ball back to the Siegel half space."""
    sigma1, sigma2 = b.sigma1, b.sigma2
    if sigma1.dim != 8 or sigma2.dim != 8:
        raise ValueError("inverse Cayley transform expects an octonionic ball point")
    if sigma1.exact != sigma2.exact:
        raise TypeError("mixed scalar modes in ball point")
    exact = sigma1.exact
    tau1, tau2 = cayley_columns(sigma1.comps, sigma2.comps, inverse=True)
    return SiegelPoint((Hypercomplex(tau1, exact=exact),), Hypercomplex(tau2, exact=exact))


def rho_length(h):
    """Homogeneous length max(|w'|, max_i |t_i|^(1/2))."""
    w2 = sum(float(w.norm_sq()) for w in h.omega)
    vals = [math.sqrt(w2)] + [math.sqrt(abs(float(v))) for v in h.t]
    return max(vals)


def homogeneous_dim(n):
    """Homogeneous dimension of the quaternionic Heisenberg group."""
    return 4 * n + 6
