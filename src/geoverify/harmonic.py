"""Rough Laplacian, harmonic sections, and tension-field residuals.

A vector field X is a harmonic section when its rough Laplacian

    Lap X = sum_i [ nabla_{e_i} nabla_{e_i} X - nabla_{nabla_{e_i} e_i} X ]

vanishes, and a harmonic map into the tangent bundle (Sasaki metric)
when additionally the horizontal curvature trace

    sum_i R(X, nabla_{e_i} X) e_i

vanishes.  Both residuals are computed intrinsically from the geometry
built by :mod:`geoverify.curvature` and the jets of the field's frame
components X_k; the rough Laplacian is each component's scalar Laplacian
plus C_akj d_a X_k + M_kj X_k, from the geometry's operator coefficients.
A coordinate field X = X_l d_l takes it by the product rule

    Lap X = (Lap X_l) d_l + 2 nabla_{grad X_l} d_l + X_l Lap d_l,

with one set of coefficients per geometry, so its frame components need
first derivatives only.  The coefficients keep the direction l in front:
a stack of single-direction fields f_m d_{l_m} (the corollary families,
the witnesses) evaluates its profiles f_m as one closed form, each power of
t once, packed over the span of the variables they read, and takes each
member on its direction's columns and those rows.  Only exact zeros drop
out.  The component-system and expanded quadratic forms
(:func:`harmonic_section_equations`, :func:`horizontal_tension_expanded`)
re-derive the same quantities from plain s/t partial derivatives, on
frame components converted to second order, and exist purely as
independent cross-checks; the section system carries weights
(1, 1, 1/2, 1/2) relative to the intrinsic Laplacian.

The four classical families of harmonic sections along single
coordinate directions are provided by :func:`corollary_field`; families
3 and 4 are power laws in t with the forced exponents (3 +- sqrt(7))/2.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .chart import AnalyticVectorField, _apply, _as_points, _packed, coordinate_field
from .curvature import _nabla, geometry_at
from .jets import _einsum, _moved
from .soliton import _scalar_laplacian

__all__ = [
    "NotSTOnly",
    "TensionValue",
    "CorollaryFamily",
    "EXPONENT_PLUS",
    "EXPONENT_MINUS",
    "corollary_field",
    "rough_laplacian",
    "harmonic_section_residual",
    "harmonic_section_equations",
    "horizontal_tension",
    "horizontal_tension_expanded",
    "harmonic_map_residual",
]

EXPONENT_PLUS = 1.5 + math.sqrt(7.0) / 2.0
EXPONENT_MINUS = 1.5 - math.sqrt(7.0) / 2.0

_ST_TOL = 1e-12
_Operator = namedtuple("_Operator", "G v C M")  # Laplacian coefficients, as a Geometry names them
# the families' span, along d_x, d_y, d_s, d_t at (c1, c2) = (1, 0), then (0, 1): _profile's bits where they are finite
_BASIS = [lambda x, y, s, t, power: 1.0] * 2 + [lambda x, y, s, t, power: power(EXPONENT_PLUS)] * 2
_BASIS += [lambda x, y, s, t, power: t * t, lambda x, y, s, t, power: t * t / (s * s + t * t) ** 2]
_BASIS += [lambda x, y, s, t, power: power(EXPONENT_MINUS)] * 2


class NotSTOnly(ValueError):
    """Raised when a field required to depend only on (s, t) depends on x or y."""


@dataclass(frozen=True)
class TensionValue:
    """Horizontal and vertical tension parts, frame components.

    X is a harmonic section at p iff ``vertical`` vanishes, and a
    harmonic map iff both parts vanish.
    """

    horizontal: np.ndarray
    vertical: np.ndarray

    def max_component(self) -> float | np.ndarray:
        """Largest |component| of either part, per point."""
        return np.maximum(np.abs(self.horizontal).max(axis=-1), np.abs(self.vertical).max(axis=-1))


@dataclass(frozen=True)
class CorollaryFamily:
    """One of the four single-direction harmonic-section families.

    index 1: (c1 + c2 t^2) d/dx
    index 2: (c1 + c2 t^2 / (s^2 + t^2)^2) d/dy
    index 3: (c1 t^a+ + c2 t^a-) d/ds      a+- = (3 +- sqrt 7)/2
    index 4: (c1 t^a+ + c2 t^a-) d/dt
    """

    index: int
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        if self.index not in (1, 2, 3, 4):
            raise ValueError(f"family index must be 1..4, got {self.index}")


def _profile(fam: CorollaryFamily):
    """The family member's one coordinate component f(x, y, s, t, power) along d/dx, d/dy, d/ds or d/dt, index 1..4."""
    c1, c2 = fam.c1, fam.c2
    if fam.index == 1:
        return lambda x, y, s, t, power: c1 + c2 * t * t
    if fam.index == 2:
        return lambda x, y, s, t, power: c1 + c2 * t * t / (s * s + t * t) ** 2
    return lambda x, y, s, t, power: c1 * power(EXPONENT_PLUS) + c2 * power(EXPONENT_MINUS)


def _form(profiles):
    """One closed form, an entry (f,) per profile f(x, y, s, t, power), whose power(r) = t**r takes each power once."""
    return lambda x, y, s, t: tuple((f(x, y, s, t, pw),) for pw in [functools.cache(lambda r: t**r)] for f in profiles)


def corollary_field(fam: CorollaryFamily) -> AnalyticVectorField:
    """Build the family member as a coordinate-basis field."""
    comps, form = [lambda x, y, s, t: 0.0] * 4, _form([_profile(fam)])
    comps[fam.index - 1] = lambda *q: form(*q)[0][0]
    return coordinate_field(*comps)


def _coordinate_basis(geo, rows=slice(None)):
    """The coframe, d_l's column l the leading axis, T[l, ..., j] = th_j(d_l), and the coefficients of a coordinate
    field's rough Laplacian on its own component jets: 2 K[l, ..., a, j] = 2 G_ab d_b T_jl + C_akj T_kl for the
    derivative rows a in ``rows`` (all four by default), so that d_a X_l K[l, a, j] = g(nabla_{grad X_l} d_l, e_j); and
    L[l, ..., j] = g(Lap d_l, e_j) by the frame route of :func:`_rough_laplacian`, over the coframe jets' live rows and
    the matching blocks of G, v and C."""
    live, (T, dTL, d2TL) = geo._live, (a.transpose(_moved(-1, 0, a.ndim)) for a in geo._coframe)
    G, C = geo.G[..., rows, live], geo._C(rows)
    K2 = _einsum("...ab,l...bj->l...aj", 2 * G, dTL) + _einsum("...akj,l...k->l...aj", C, T)
    op = _Operator(geo.G[..., live, live], geo.v[..., live], C if rows == live else geo._C(live), geo.M)
    return T, K2, _rough_laplacian(op, T, dTL, d2TL)


def _field_data(X: AnalyticVectorField, p):
    """The geometry at p, X's frame-component jets val[..., k] and grad[..., a, k], to first order, and its rough
    Laplacian: a coordinate field's by the product rule on its own jets, so that no frame-component Hessian forms."""
    geo = geometry_at(p)
    own = X.component_jets(p)
    if X.basis == "frame":
        return geo, own[0], own[1], _rough_laplacian(geo, *own)
    _, K2, L = _coordinate_basis(geo)
    basis = geo.coframe[0], *(a.transpose(_moved(0, -2, a.ndim)) for a in (K2, L))  # l behind the batch
    return (geo, *_apply(geo.coframe, own[:2]), _rough_laplacian(geo, *own, basis))


def _stack(geo, form, dirs, p):
    """The fields f_m d_{l_m}, f_m entry m of a :func:`_form` and l_m = dirs[m], from one evaluation packed over the
    span of the variables its entries read: their rough Laplacians [m, ..., j], over those rows with the matching
    blocks of G, v and 2 K; the profiles' jets (f, df)[m, ..., 1] to first order, df on those rows; and the rows."""
    jets, rows = _packed(form, p)
    f, df, d2f = (a.transpose(_moved(-2, 0, a.ndim)) for a in jets)  # the member axis in front
    T, K2, L = (A[list(dirs)] for A in _coordinate_basis(geo, rows))
    op = _Operator(geo.G[..., rows, rows], geo.v[..., rows], None, None)
    return _rough_laplacian(op, f, df, d2f, (T[..., None], K2[..., None, :], L[..., None, :])), (f, df), rows


def _require_st_only(grad: np.ndarray):
    worst = float(np.abs(grad[..., 0:2, :]).max())
    if not worst <= _ST_TOL:  # a NaN gradient fails too
        raise NotSTOnly(f"field components depend on x or y (gradient {worst:.3e})")


def _rough_laplacian(geo, val, grad, hess, basis=None) -> np.ndarray:
    """Frame components of Lap X from the jets of X's frame components, or of its coordinate components X_l given
    ``basis``, :func:`_coordinate_basis`'s (T, 2 K, L) with l behind the batch, or the columns of a :func:`_stack`:
    Lap(X_l d_l) = (Lap X_l) d_l + 2 nabla_{grad X_l} d_l + X_l Lap d_l."""
    T, C, M = basis or (None, geo.C, geo.M)
    lap = _scalar_laplacian(geo, grad, hess)  # each component's
    lap = lap if T is None else _einsum("...jl,...l->...j", T, lap)
    return lap + _einsum("...akj,...ak->...j", C, grad) + _einsum("...k,...kj->...j", val, M)


def _horizontal_tension(geo, val, grad) -> np.ndarray:
    A = _nabla(geo, val, grad)  # sum_i R(X, nabla_{e_i} X) e_i = X_a Y_ak, Y_ak = A_ib R_abik: 16 entries, not 64
    return _einsum("...a,...ak->...k", val, _einsum("...ib,...abik->...ak", A, geo.Rfr))


def _tension(geo, val, grad, lap) -> TensionValue:
    return TensionValue(_horizontal_tension(geo, val, grad), lap)


def _section_equations(t, val, grad, hess) -> np.ndarray:
    _require_st_only(grad)
    # component indices first: v[k], ds[k] = d/ds X_k, lap[k] = (d2/dt2 + d2/ds2) X_k
    parts = val, grad[..., 2, :], hess[..., 3, 3, :] + hess[..., 2, 2, :]
    v, ds, lap = (a.transpose(_moved(-1, 0, a.ndim)) for a in parts)
    eq1 = 4 * t * t * lap[0] + 4 * t * ds[1] - 3 * v[0]
    eq2 = 4 * t * t * lap[1] - 4 * t * ds[0] - 3 * v[1]
    eq3 = 2 * t * t * lap[2] - 4 * t * ds[3] - 3 * v[2]
    eq4 = 2 * t * t * lap[3] + 4 * t * ds[2] - 3 * v[3]
    return np.stack([eq1, eq2, eq3, eq4], axis=-1)


def rough_laplacian(X: AnalyticVectorField, p) -> np.ndarray:
    """Frame components of the rough Laplacian of X at p."""
    return _field_data(X, p)[3]


def harmonic_section_residual(X: AnalyticVectorField, p) -> np.ndarray:
    """Rough Laplacian of an (s,t)-dependent field; zero iff X is a harmonic section.

    Raises :class:`NotSTOnly` when the frame components of X depend on x
    or y at p (checked through the jet gradients).
    """
    _, _, grad, lap = _field_data(X, p)
    _require_st_only(grad)
    return lap


def harmonic_section_equations(X: AnalyticVectorField, p) -> np.ndarray:
    """The four-component harmonic-section system, from plain s/t partials.

    Independent of the connection pipeline.  Componentwise, the intrinsic
    rough Laplacian equals (eq1, eq2, 2*eq3, 2*eq4).
    """
    return _section_equations(_as_points(p)[..., 3], *X.frame_component_jets(p))


def horizontal_tension(X: AnalyticVectorField, p) -> np.ndarray:
    """Frame components of sum_i R(X, nabla_{e_i} X) e_i at p."""
    return _horizontal_tension(*_field_data(X, p)[:3])


def horizontal_tension_expanded(X: AnalyticVectorField, p) -> np.ndarray:
    """The expanded quadratic form of the horizontal tension for (s,t) fields.

    Spelled out from the curvature and connection tables; cross-checks
    :func:`horizontal_tension` without touching the computed tensors.
    """
    t = _as_points(p)[..., 3]
    v, grad, _ = X.frame_component_jets(p)
    _require_st_only(grad)
    X1, X2, X3, X4 = np.moveaxis(v, -1, 0)
    s1, s2, s3, s4 = np.moveaxis(grad[..., 2, :], -1, 0)  # d/ds of the frame components
    t1, t2, t3, t4 = np.moveaxis(grad[..., 3, :], -1, 0)  # d/dt
    line1 = (
        3 * X3 * X2
        + 2 * t * X3 * s1
        + 3 * X4 * X1
        - 2 * t * X4 * s2
        - 2 * t * X1 * s3
        + 2 * t * X2 * s4
        + 2 * t * X4 * t1
        + 2 * t * X3 * t2
        - 2 * t * X2 * t3
        - 2 * t * X1 * t4
    )
    line2 = (
        3 * X4 * X2
        - 3 * X1 * X3
        + 2 * t * X4 * s1
        + 2 * t * X3 * s2
        - 2 * t * X2 * s3
        - 2 * t * X1 * s4
        - 2 * t * X3 * t1
        + 2 * t * X4 * t2
        + 2 * t * X1 * t3
        - 2 * t * X2 * t4
    )
    line3 = -4 * t * (X2 * t1 - X1 * t2 - 2 * X4 * t3 + 2 * X3 * t4)
    line4 = (
        2 * X2 * X2
        + 4 * t * X2 * s1
        + 2 * X1 * X1
        - 4 * t * X1 * s2
        + 8 * X4 * X4
        - 8 * t * X4 * s3
        + 8 * X3 * X3
        + 8 * t * X3 * s4
    )
    return np.stack([line1, line2, line3, line4], axis=-1)


def harmonic_map_residual(X: AnalyticVectorField, p) -> TensionValue:
    """Both tension parts of X as a map into the tangent bundle at p."""
    return _tension(*_field_data(X, p))
