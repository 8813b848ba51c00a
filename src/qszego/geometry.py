"""Siegel half spaces, Heisenberg groups and the Cayley transform.

Points ``(q', q_{n+1})`` with Re q_{n+1} > |q'|^2 form the quaternionic
Siegel half space; the octonionic case has a single horizontal coordinate.
The boundary is parameterized by Heisenberg group elements ``[w', t]`` whose
twisted product makes translation an automorphism of the domain.  Both the
quaternionic and the octonionic multiplication laws are implemented exactly
as printed (they differ in the sign and the order of the conjugated factor;
see :func:`group_mul_with_convention` for testing either convention on
either group).

Points, group elements and ball points are exact by construction: their
coordinates are exact ``Hypercomplex`` values, and a float ``t`` component
raises ``TypeError``.  Each map of the half space is one formula over
component sequences (:func:`translate_columns`, :func:`dilate_columns`,
:func:`rotate_columns`, :func:`nu_columns` and :func:`cayley_columns`),
whose components may be exact or float scalars or float columns, one row
per point; the first four also run on ``RatPoly`` components.  The group
law is one such formula too, :func:`group_mul_columns`.  The object maps run
the formulas on exact components; the float checks run them on columns, so
a block of points costs one pass of array operations, and every row has the
bits of the formula on that row's floats.  The sampled exact checks of the
group law and of translation run them on int64 columns of their samples
dilated by 6 (:func:`dilate_columns`), which clears the denominators: the
dilation is an automorphism of either law and commutes with translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hypercomplex import _PRODUCTS, Hypercomplex, _norm_rat, conj, sum_squares


def _comps(values):
    return tuple(v.comps for v in values)


def _horizontal_part(part, dim=None):
    """``part`` as a tuple: not empty, of one algebra dimension (``dim`` if given), octonionic only alone."""
    part = tuple(part)
    if not part:
        raise ValueError("empty horizontal part")
    dim = part[0].dim if dim is None else dim
    if any(h.dim != dim for h in part):
        raise ValueError("mixed algebra dimensions in horizontal part")
    if dim == 8 and len(part) != 1:
        raise ValueError("an octonionic horizontal part has a single coordinate")
    return part


@dataclass(frozen=True)
class SiegelPoint:
    """A point (q', q_{n+1}); height r = Re(vertical) - |horizontal|^2."""

    horizontal: tuple
    vertical: Hypercomplex

    def __post_init__(self):
        object.__setattr__(self, "horizontal", _horizontal_part(self.horizontal, self.vertical.dim))

    @property
    def n(self):
        return len(self.horizontal)

    @property
    def alg_dim(self):
        return self.vertical.dim

    def height(self):
        return self.vertical.re - sum(h.norm_sq() for h in self.horizontal)


def _point(horizontal, vertical):
    """The point of exact component sequences; a float component raises TypeError."""
    return SiegelPoint(tuple(Hypercomplex(h) for h in horizontal), Hypercomplex(vertical))


@dataclass(frozen=True)
class BallPoint:
    """A point (sigma_1, sigma_2) of the unit ball model."""

    sigma1: Hypercomplex
    sigma2: Hypercomplex

    def norm_sq_sum(self):
        return self.sigma1.norm_sq() + self.sigma2.norm_sq()


@dataclass(frozen=True)
class GroupElement:
    """Heisenberg element [w', t]; t has 3 (quaternionic) or 7 (octonionic) slots."""

    omega: tuple
    t: tuple

    def __post_init__(self):
        omega = _horizontal_part(self.omega)
        dim = omega[0].dim
        expected_t = {4: 3, 8: 7}.get(dim)
        if expected_t is None:
            raise ValueError(f"unsupported algebra dimension {dim}")
        t = tuple(_norm_rat(v) for v in self.t)  # a float raises TypeError
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


# the algebra dimension and the printed t-part convention of each group
_GROUP_DIM = {"quaternionic": 4, "octonionic": 8}
_PRINTED_CONVENTION = {"quaternionic": "minus_conj_beta_alpha", "octonionic": "plus_conj_alpha_beta"}


def identity_element(kind, n=1):
    if kind not in _GROUP_DIM:
        raise ValueError(f"unknown group kind {kind!r}; choose 'quaternionic' or 'octonionic'")
    dim = _GROUP_DIM[kind]
    return GroupElement(tuple(Hypercomplex.zero(dim) for _ in range(n)), (0,) * (dim - 1))


# -- the maps, each one formula over component sequences -------------------
#
# A horizontal part is a sequence of coordinates, each a sequence of
# components; every component is an exact or float scalar, a float column or
# (outside the Cayley map) a ``RatPoly``.
# The float steps are fixed: sums start from the integer 0, a conjugate is
# taken before its product, and a scalar multiplies from the right.


def _pairing(a, b):
    """sum_i conj(a_i) b_i over two horizontal parts, summed from the integer 0."""
    mul = _PRODUCTS[len(b[0])]
    acc = (0,) * len(b[0])
    for ai, bi in zip(a, b):
        acc = tuple(s + c for s, c in zip(acc, mul(conj(ai), bi)))
    return acc


def translate_columns(omega, t, q, v):
    """Left translation of the points (q, v) by [omega, t]:
    (q + omega, ((v + |omega|^2) + 2 sum_i conj(omega_i) q_i) + e.t)."""
    shift = _pairing(omega, q)
    lift = (sum(sum_squares(w) for w in omega),) + (0,) * (len(v) - 1)
    horizontal = tuple(tuple(a + b for a, b in zip(qi, wi)) for qi, wi in zip(q, omega))
    vertical = tuple(((a + b) + c * 2) + d for a, b, c, d in zip(v, lift, shift, (0, *t)))
    return horizontal, vertical


def dilate_columns(delta, q, v):
    """(delta q, delta^2 v); on a group element's (omega, t) it is delta o [omega, t]."""
    d2 = delta * delta
    return tuple(tuple(c * delta for c in h) for h in q), tuple(c * d2 for c in v)


def rotate_columns(rotation, q, v):
    """(R_1 q_1, ..., R_n q_n, v) for unit R_i."""
    mul = _PRODUCTS[len(v)]
    return tuple(mul(r, qi) for r, qi in zip(rotation, q)), tuple(v)


def nu_columns(q, v, omega, u):
    """The kernel argument v + conj(u) - 2 sum_i conj(omega_i) q_i of (q, v) and (omega, u)."""
    return tuple((a + b) - c * 2 for a, b, c in zip(v, conj(u), _pairing(omega, q)))


def group_mul_columns(alpha, t, beta, s, convention):
    """The product [alpha, t][beta, s] of group elements given as horizontal
    parts and t sequences, with an explicit t-part convention:

    ``minus_conj_beta_alpha``: t_i + s_i - 2 Im_i(conj(beta) . alpha)
    ``plus_conj_alpha_beta``:  t_i + s_i + 2 Im_i(conj(alpha) . beta)

    The two agree identically because conj(beta).alpha and conj(alpha).beta
    are conjugates of each other; both are kept so the compatibility suite
    can exercise each printed form.  Returns the horizontal part and the t
    sequence of the product.
    """
    if convention == "minus_conj_beta_alpha":
        inner = tuple(-c for c in _pairing(beta, alpha))
    elif convention == "plus_conj_alpha_beta":
        inner = _pairing(alpha, beta)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    omega = tuple(tuple(a + b for a, b in zip(wa, wb)) for wa, wb in zip(alpha, beta))
    return omega, tuple(ta + sb + c * 2 for ta, sb, c in zip(t, s, inner[1:]))


def group_mul_with_convention(a, b, convention):
    """Product [alpha,t][beta,s] of two elements of one group, with an
    explicit t-part convention (see :func:`group_mul_columns`)."""
    if a.kind != b.kind or a.n != b.n:
        raise ValueError("group kind/shape mismatch")
    omega, t = group_mul_columns(_comps(a.omega), a.t, _comps(b.omega), b.t, convention)
    return GroupElement(tuple(Hypercomplex(w) for w in omega), t)


def group_mul(a, b):
    """Heisenberg product, using each group's printed convention."""
    return group_mul_with_convention(a, b, _PRINTED_CONVENTION[a.kind])


def group_inverse(h):
    return GroupElement(tuple(-w for w in h.omega), tuple(-v for v in h.t))


def translate(h, p):
    """Left translation of the half space by [w', t]."""
    if h.alg_dim != p.alg_dim or h.n != p.n:
        raise ValueError("element/point shape mismatch")
    return _point(*translate_columns(_comps(h.omega), h.t, _comps(p.horizontal), p.vertical.comps))


def _dilation_factor(delta):
    """delta as an exact positive scalar; a float delta is taken exactly."""
    if not delta > 0:
        raise ValueError("dilation factor must be positive")
    return _norm_rat(Fraction(delta))


def dilate(delta, p):
    return _point(*dilate_columns(_dilation_factor(delta), _comps(p.horizontal), p.vertical.comps))


def dilate_element(delta, h):
    """Group dilation delta o [w', t] = [delta w', delta^2 t]."""
    omega, t = dilate_columns(_dilation_factor(delta), _comps(h.omega), h.t)
    return GroupElement(tuple(Hypercomplex(w) for w in omega), t)


def rotate(rotation, p):
    """Componentwise rotation (R_1 q_1, ..., R_n q_n, q_{n+1}) by exact unit R_i."""
    rotation = tuple(rotation)
    if len(rotation) != p.n:
        raise ValueError("one unit rotation per horizontal coordinate")
    if any(r.norm_sq() != 1 for r in rotation):
        raise ValueError("rotation components must have unit norm")
    return _point(*rotate_columns(_comps(rotation), _comps(p.horizontal), p.vertical.comps))


def boundary_param(h):
    """[w', t] -> (w', |w'|^2 + e.t), a point on the boundary."""
    return SiegelPoint(h.omega, Hypercomplex((sum(w.norm_sq() for w in h.omega), *h.t)))


def boundary_unparam(p):
    """Inverse of :func:`boundary_param`; the point must be on the boundary."""
    if p.height() != 0:
        raise ValueError("point is not on the boundary")
    return GroupElement(p.horizontal, p.vertical.comps[1:])


def cayley_columns(first, second, inverse=False):
    """The Cayley transform of points given as two sequences of 8 components.

    Forward, ``(tau1, tau2)`` goes to ``(sigma1, sigma2)``; with ``inverse``,
    ``(sigma1, sigma2)`` goes back.  Both are the one map (a (1 + conj b),
    (1 + conj b)(1 - b)) / |1 + b|^2, of (a, b) = (2 tau1, tau2) forward and
    (sigma1, sigma2) back.  :func:`cayley` and :func:`cayley_inv` run it on
    exact components, the float checks on float columns, one row per point.
    The steps are 1 + b, the running sum of squares and division as
    multiplication by 1.0/denominator, so each row has the bits of this
    function on that row's Python floats.  Raises ZeroDivisionError if any
    row is the pole.
    """
    a, b, pole = (first, second, "sigma2") if inverse else (tuple(c * 2 for c in first), second, "tau2")
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


def cayley(p):
    """Octonionic Siegel half space (n=1) to the unit ball."""
    if p.alg_dim != 8 or p.n != 1:
        raise ValueError("Cayley transform expects an octonionic point with n=1")
    sigma1, sigma2 = cayley_columns(p.horizontal[0].comps, p.vertical.comps)
    return BallPoint(Hypercomplex(sigma1), Hypercomplex(sigma2))


def cayley_inv(b):
    """Unit ball back to the Siegel half space."""
    if b.sigma1.dim != 8 or b.sigma2.dim != 8:
        raise ValueError("inverse Cayley transform expects an octonionic ball point")
    tau1, tau2 = cayley_columns(b.sigma1.comps, b.sigma2.comps, inverse=True)
    return _point((tau1,), tau2)


def rho_length(h):
    """Homogeneous length max(|w'|, max_i |t_i|^(1/2))."""
    w2 = sum(float(w.norm_sq()) for w in h.omega)
    vals = [math.sqrt(w2)] + [math.sqrt(abs(float(v))) for v in h.t]
    return max(vals)


def homogeneous_dim(n):
    """Homogeneous dimension of the quaternionic Heisenberg group."""
    return 4 * n + 6
