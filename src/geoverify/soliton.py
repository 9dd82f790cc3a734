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

from .chart import AnalyticVectorField, as_point, coordinate_field, eval_component, frame_field, metric_jets
from .curvature import geometry_at, ricci_frame
from .jets import sqrt

__all__ = [
    "SolitonParams",
    "SOLITON_LAMBDA",
    "soliton_field",
    "soliton_frame_components",
    "beta_matrix",
    "lie_derivative_metric",
    "soliton_residual",
    "soliton_system",
    "OneFormValue",
    "dual_one_form",
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


def soliton_frame_components(params: SolitonParams) -> AnalyticVectorField:
    """The same family written directly in frame components (for cross-checks)."""
    c1, c2, c3, c4, c5 = params.constants()

    def a1(x, y, s, t):
        return (
            0.5
            / sqrt(t)
            * ((c2 - 12.0) * x + 2.0 * c3 * y + 2.0 * c5 + s * (c1 * x + (c2 + 12.0) * y - 2.0 * c4))
        )

    def a2(x, y, s, t):
        return -0.5 * sqrt(t) * (c1 * x + (c2 + 12.0) * y - 2.0 * c4)

    def a3(x, y, s, t):
        return (c1 * (s * s - t * t) + 2.0 * c2 * s + 2.0 * c3) / (4.0 * t)

    def a4(x, y, s, t):
        return 0.5 * (c1 * s + c2)

    return frame_field(a1, a2, a3, a4)


def _frame_derivative_data(xi: AnalyticVectorField, p):
    """values alpha_k, frame directional derivatives D[i,k] = e_i(alpha_k)."""
    geo = geometry_at(p)
    alpha, dalpha, _ = xi.frame_component_jets(p)  # dalpha[a, k] = d_a alpha_k
    return geo, alpha, geo.E @ dalpha  # D[i, k] = sum_a E[i,a] d_a alpha_k


def beta_matrix(xi: AnalyticVectorField, p) -> np.ndarray:
    """beta[i,j] = g(nabla_{e_i} xi, e_j) at p."""
    geo, alpha, D = _frame_derivative_data(xi, p)
    return D + np.einsum("k,ikj->ij", alpha, geo.fc)


def lie_derivative_metric(xi: AnalyticVectorField, p) -> np.ndarray:
    """(L_xi g)(e_i, e_j) = beta[i,j] + beta[j,i] at p."""
    beta = beta_matrix(xi, p)
    return beta + beta.T


def soliton_residual(xi: AnalyticVectorField, lam: float, p) -> np.ndarray:
    """Ric + (1/2) L_xi g - lam g in the frame; zero iff (xi, lam) is a soliton at p."""
    return ricci_frame(p) + 0.5 * lie_derivative_metric(xi, p) - lam * np.eye(4)


def soliton_system(xi: AnalyticVectorField, lam: float, p) -> np.ndarray:
    """The soliton conditions assembled from component derivatives alone.

    Independent of :func:`soliton_residual`: no connection table, no
    computed Ricci.  Diagonal entries equal the residual's diagonal;
    off-diagonal entries are twice the residual's (same zero set).
    """
    _, a, D = _frame_derivative_data(xi, p)
    out = np.empty((4, 4))
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
    return out


@dataclass(frozen=True)
class OneFormValue:
    """One-form components against (dx, dy, ds, dt)."""

    comp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "comp", np.asarray(self.comp, dtype=float))


# coordinate index pairs (a, b) for the six components of a two-form,
# ordered (xy, xs, xt, ys, yt, st)
COMPONENT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _dual_one_form_jets(xi: AnalyticVectorField, p):
    """Value w[b] and gradient dw[m, b] of the metric dual w_b = g_ba xi^a."""
    g, dg, _ = metric_jets(p)
    v, dv, _ = xi.coordinate_component_jets(p)
    return g @ v, dg @ v + dv @ g.T


def dual_one_form(xi: AnalyticVectorField, p) -> OneFormValue:
    """The metric dual g(xi, .) in coordinate components."""
    return OneFormValue(_dual_one_form_jets(xi, p)[0])


def closedness_defect(xi: AnalyticVectorField, p) -> np.ndarray:
    """The six components (d_a w_b - d_b w_a) of d(xi-flat) at p.

    All six vanish on an open set iff xi is locally a gradient there;
    ordering follows :data:`COMPONENT_PAIRS`.
    """
    _, dw = _dual_one_form_jets(xi, p)
    return np.array([dw[a, b] - dw[b, a] for a, b in COMPONENT_PAIRS])


def scalar_laplacian(f, p) -> float:
    """Laplacian sum_i [e_i(e_i f) - (nabla_{e_i} e_i) f] of a scalar component.

    ``f`` is a closed-form callable of (x, y, s, t) evaluable on jets.
    """
    geo = geometry_at(as_point(p))
    _, grad, hess = eval_component(f, p)
    second = np.einsum("ia,aib,b->", geo.E, geo.dE, grad) + np.einsum(
        "ia,ib,ab->", geo.E, geo.E, hess
    )
    trace_dirs = np.einsum("iim->m", geo.fc)  # sum_i nabla_{e_i} e_i, frame comps
    drift = trace_dirs @ (geo.E @ grad)
    return float(second - drift)
