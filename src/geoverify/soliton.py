"""Ricci soliton machinery for the chart metric.

The solitons of the space form a five-parameter affine family: a fixed
quadratic base field plus the span of the five independent Killing
fields.  :func:`soliton_field` builds a family member from the constants
(c1..c5); :func:`soliton_residual` measures Ric + (1/2) L_xi g - lam g
in the orthonormal frame, which vanishes exactly on the family at
lam = -6 and nowhere else.

The residual is assembled intrinsically (computed Ricci + covariant
derivatives of the field); :func:`soliton_system` assembles the same
conditions a second way, directly from frame derivatives of the
components, and serves as an independent cross-check.  Its off-diagonal
entries carry twice the weight of the corresponding residual entries;
both vanish together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import AnalyticVectorField, _jets, coordinate_field, metric_jets
from .curvature import _nabla, geometry_at

__all__ = [
    "SolitonParams",
    "SOLITON_LAMBDA",
    "soliton_field",
    "beta_matrix",
    "lie_derivative_metric",
    "soliton_residual",
    "soliton_system",
    "closedness_defect",
    "COMPONENT_PAIRS",
    "scalar_laplacian",
]

SOLITON_LAMBDA = -6.0


@dataclass(frozen=True)
class SolitonParams:
    """The five constants of the soliton family plus the soliton constant."""

    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0
    c5: float = 0.0
    lam: float = SOLITON_LAMBDA

    def constants(self) -> tuple[float, float, float, float, float]:
        return (self.c1, self.c2, self.c3, self.c4, self.c5)


def soliton_field(params: SolitonParams) -> AnalyticVectorField:
    """The soliton vector field for the given constants, coordinate basis.

    Components:

        xi^x = [(c2 - 12) x + 2 c3 y + 2 c5] / 2
        xi^y = -[c1 x + (c2 + 12) y - 2 c4] / 2
        xi^s = [c1 (s^2 - t^2) + 2 c2 s + 2 c3] / 2
        xi^t = (c1 s + c2) t

    At c = 0 this is the base field -6(x d/dx + y d/dy); the five
    c-directions are Killing fields, so the soliton equation holds at
    lam = -6 for every choice of constants.
    """
    c1, c2, c3, c4, c5 = params.constants()
    return coordinate_field(
        lambda x, y, s, t: 0.5 * ((c2 - 12.0) * x + 2.0 * c3 * y + 2.0 * c5),
        lambda x, y, s, t: -0.5 * (c1 * x + (c2 + 12.0) * y - 2.0 * c4),
        lambda x, y, s, t: 0.5 * (c1 * (s * s - t * t) + 2.0 * c2 * s + 2.0 * c3),
        lambda x, y, s, t: (c1 * s + c2) * t,
    )


def beta_matrix(xi: AnalyticVectorField, p) -> np.ndarray:
    """beta[..., i, j] = g(nabla_{e_i} xi, e_j) at p."""
    geo = geometry_at(p)
    return _nabla(geo, *xi.frame_component_jets(p, geo.coframe, order=1))


def lie_derivative_metric(xi: AnalyticVectorField, p) -> np.ndarray:
    """(L_xi g)(e_i, e_j) = beta[i,j] + beta[j,i] at p."""
    beta = beta_matrix(xi, p)
    return beta + np.swapaxes(beta, -1, -2)


def soliton_residual(xi: AnalyticVectorField, lam: float, p) -> np.ndarray:
    """Ric + (1/2) L_xi g - lam g in the frame; zero iff (xi, lam) is a soliton at p."""
    geo = geometry_at(p)
    beta = _nabla(geo, *xi.frame_component_jets(p, geo.coframe, order=1))
    return geo.ric + 0.5 * (beta + beta.swapaxes(-1, -2)) - lam * np.eye(4)


def soliton_system(xi: AnalyticVectorField, lam: float, p) -> np.ndarray:
    """The soliton conditions assembled from component derivatives alone.

    Independent of :func:`soliton_residual`: no connection table, no
    computed Ricci.  Diagonal entries equal the residual's diagonal;
    off-diagonal entries are twice the residual's (same zero set).
    """
    alpha, dalpha, _ = xi.frame_component_jets(p)  # dalpha[..., a, k] = d_a alpha_k
    # values a[k] and frame derivatives D[i, k] = e_i(alpha_k), component indices first
    a, D = np.moveaxis(alpha, -1, 0), np.moveaxis(geometry_at(p).E @ dalpha, (-2, -1), (0, 1))
    out = np.empty_like(D)
    out[0, 0] = D[0, 0] - a[3] - lam
    out[1, 1] = D[1, 1] + a[3] - lam
    out[2, 2] = D[2, 2] - 2.0 * a[3] - lam - 6.0
    out[3, 3] = D[3, 3] - lam - 6.0
    out[0, 1] = out[1, 0] = D[0, 1] - 2.0 * a[2] + D[1, 0]
    out[0, 2] = out[2, 0] = D[0, 2] + 2.0 * a[1] + D[2, 0]
    out[0, 3] = out[3, 0] = D[0, 3] + a[0] + D[3, 0]
    out[1, 2] = out[2, 1] = D[1, 2] + D[2, 1]
    out[1, 3] = out[3, 1] = D[1, 3] - a[1] + D[3, 1]
    out[2, 3] = out[3, 2] = D[2, 3] + 2.0 * a[2] + D[3, 2]
    return np.moveaxis(out, (0, 1), (-2, -1))


# coordinate index pairs (a, b) for the six components of a two-form,
# ordered (xy, xs, xt, ys, yt, st)
COMPONENT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_A, _B = np.array(COMPONENT_PAIRS).T  # the pairs' a and b as index arrays, built once


def _closedness_defect(metric, xi: AnalyticVectorField, p) -> np.ndarray:
    """d_a w_b - d_b w_a of w_b = g_ba xi^a from its gradient dw[..., m, b], given first-order metric jets (g, dg)."""
    g, dg = metric
    v, dv = xi.coordinate_component_jets(p, order=1)
    dw = np.einsum("...mba,...a->...mb", dg, v) + np.einsum("...ma,...ba->...mb", dv, g)
    return dw[..., _A, _B] - dw[..., _B, _A]


def closedness_defect(xi: AnalyticVectorField, p) -> np.ndarray:
    """The six components (d_a w_b - d_b w_a) of d(xi-flat) at p, shape (..., 6).

    All six vanish on an open set iff xi is locally a gradient there;
    ordering follows :data:`COMPONENT_PAIRS`.
    """
    return _closedness_defect(metric_jets(p, order=1), xi, p)


def _scalar_laplacian(geo, grad, hess) -> np.ndarray:
    """G_ab d_a d_b f_k + v_b d_b f_k from the jets grad[..., a, k], hess[..., a, b, k] of the f_k (see Geometry)."""
    return np.einsum("...ab,...abk->...k", geo.G, hess) + np.einsum("...b,...bk->...k", geo.v, grad)


def scalar_laplacian(f, p) -> float | np.ndarray:
    """Laplacian sum_i [e_i(e_i f) - (nabla_{e_i} e_i) f] of a scalar component.

    ``f`` is a closed-form callable of (x, y, s, t) evaluable on jets.
    """
    _, grad, hess = _jets(lambda *q: (f(*q),), p)  # one component
    return _scalar_laplacian(geometry_at(p), grad, hess)[..., 0][()]
