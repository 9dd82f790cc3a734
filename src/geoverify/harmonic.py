"""Rough Laplacian, harmonic sections, and tension-field residuals.

A vector field X is a harmonic section when its rough Laplacian

    Lap X = sum_i [ nabla_{e_i} nabla_{e_i} X - nabla_{nabla_{e_i} e_i} X ]

vanishes, and a harmonic map into the tangent bundle (Sasaki metric)
when additionally the horizontal curvature trace

    sum_i R(X, nabla_{e_i} X) e_i

vanishes.  Both residuals are computed intrinsically from the connection
and curvature produced by :mod:`geoverify.curvature` plus jet
derivatives of the field's frame components.  The component-system and
expanded quadratic forms (:func:`harmonic_section_equations`,
:func:`horizontal_tension_expanded`) re-derive the same quantities from
plain s/t partial derivatives and exist purely as independent
cross-checks; the section system carries weights (1, 1, 1/2, 1/2)
relative to the intrinsic Laplacian.

The four classical families of harmonic sections along single
coordinate directions are provided by :func:`corollary_field`; families
3 and 4 are power laws in t with the forced exponents (3 +- sqrt(7))/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chart import AnalyticVectorField, _as_points, _per_point, coordinate_field
from .curvature import geometry_at

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

    def max_component(self) -> float:
        """Largest |component| of either part, per point."""
        return _per_point(np.maximum(np.max(np.abs(self.horizontal), axis=-1), np.max(np.abs(self.vertical), axis=-1)))


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


def corollary_field(fam: CorollaryFamily) -> AnalyticVectorField:
    """Build the family member as a coordinate-basis field."""
    c1, c2 = fam.c1, fam.c2
    if fam.index == 1:
        profile = lambda x, y, s, t: c1 + c2 * t * t
    elif fam.index == 2:
        profile = lambda x, y, s, t: c1 + c2 * t * t / (s * s + t * t) ** 2
    else:
        profile = lambda x, y, s, t: c1 * t**EXPONENT_PLUS + c2 * t**EXPONENT_MINUS
    zero = lambda x, y, s, t: 0.0
    comps = [zero, zero, zero, zero]
    comps[fam.index - 1] = profile
    return coordinate_field(*comps)


def _field_data(X: AnalyticVectorField, p):
    """The geometry at p and the frame component jets of X: val[..., k], grad[..., a, k], hess[..., a, b, k]."""
    return (geometry_at(p), *X.frame_component_jets(p))


def _require_st_only(grad: np.ndarray):
    worst = float(np.max(np.abs(grad[..., 0:2, :])))
    if worst > _ST_TOL:
        raise NotSTOnly(f"field components depend on x or y (gradient {worst:.3e})")


def _rough_laplacian(geo, val, grad, hess) -> np.ndarray:
    E, dE, fc, dfc = geo.E, geo.dE, geo.fc, geo.dfc

    eX = E @ grad  # eX[i, k] = e_i(X_k)
    eeX = np.einsum("...ib,...bk->...ik", np.einsum("...ia,...aib->...ib", E, dE), grad)
    eeX = eeX + np.einsum("...ib,...ibk->...ik", E, np.einsum("...ia,...abk->...ibk", E, hess))
    edfc = np.einsum("...im,...mikj->...ikj", E, dfc)  # e_i(fc[i,k,j])
    vfc = np.einsum("...k,...ikj->...ij", val, fc)  # (nabla_{e_i} e_k) X_k, frame comps j

    second = eeX.sum(axis=-2)
    mixed = 2.0 * np.einsum("...ik,...ikj->...j", eX, fc)
    conn_deriv = np.einsum("...k,...ikj->...j", val, edfc)
    conn_conn = np.einsum("...im,...imj->...j", vfc, fc)
    trace_dirs = np.einsum("...iim->...m", fc)
    drift = np.einsum("...m,...mj->...j", trace_dirs, eX + vfc)
    return second + mixed + conn_deriv + conn_conn - drift


def _horizontal_tension(geo, val, grad, _hess) -> np.ndarray:
    A = geo.E @ grad + np.einsum("...m,...imb->...ib", val, geo.fc)  # A[i,b] = (nabla_{e_i} X)_b
    return np.einsum("...ib,...bik->...k", A, np.einsum("...a,...abik->...bik", val, geo.Rfr))


def _tension(geo, val, grad, hess) -> TensionValue:
    return TensionValue(_horizontal_tension(geo, val, grad, hess), _rough_laplacian(geo, val, grad, hess))


def _section_equations(t, val, grad, hess) -> np.ndarray:
    _require_st_only(grad)
    # component indices first: v[k], ds[k] = d/ds X_k, lap[k] = (d2/dt2 + d2/ds2) X_k
    v, ds, lap = (np.moveaxis(a, -1, 0) for a in (val, grad[..., 2, :], hess[..., 3, 3, :] + hess[..., 2, 2, :]))
    eq1 = 4 * t * t * lap[0] + 4 * t * ds[1] - 3 * v[0]
    eq2 = 4 * t * t * lap[1] - 4 * t * ds[0] - 3 * v[1]
    eq3 = 2 * t * t * lap[2] - 4 * t * ds[3] - 3 * v[2]
    eq4 = 2 * t * t * lap[3] + 4 * t * ds[2] - 3 * v[3]
    return np.stack([eq1, eq2, eq3, eq4], axis=-1)


def rough_laplacian(X: AnalyticVectorField, p) -> np.ndarray:
    """Frame components of the rough Laplacian of X at p."""
    return _rough_laplacian(*_field_data(X, p))


def harmonic_section_residual(X: AnalyticVectorField, p) -> np.ndarray:
    """Rough Laplacian of an (s,t)-dependent field; zero iff X is a harmonic section.

    Raises :class:`NotSTOnly` when the frame components of X depend on x
    or y at p (checked through the jet gradients).
    """
    geo, val, grad, hess = _field_data(X, p)
    _require_st_only(grad)
    return _rough_laplacian(geo, val, grad, hess)


def harmonic_section_equations(X: AnalyticVectorField, p) -> np.ndarray:
    """The four-component harmonic-section system, from plain s/t partials.

    Independent of the connection pipeline.  Componentwise, the intrinsic
    rough Laplacian equals (eq1, eq2, 2*eq3, 2*eq4).
    """
    return _section_equations(_as_points(p)[..., 3], *X.frame_component_jets(p))


def horizontal_tension(X: AnalyticVectorField, p) -> np.ndarray:
    """Frame components of sum_i R(X, nabla_{e_i} X) e_i at p."""
    return _horizontal_tension(*_field_data(X, p))


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
