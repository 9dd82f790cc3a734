"""Connection and curvature of the chart metric.

Everything here is computed from the coordinate metric and its jet
derivatives: Christoffel symbols from first derivatives of g, the
curvature tensor from second derivatives, then contracted against the
orthonormal frame.  The frame connection and curvature tables of the
model space are therefore outputs of a generic pipeline, not inputs,
which is what makes comparing them against the published integer tables
a meaningful check.

Sign conventions:

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Ric(X, Y) = sum_i g(R(X, e_i) e_i, Y)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chart import FrameVector, Point, as_point, frame_jets, inverse_metric_jets, metric_jets

__all__ = [
    "christoffel_at",
    "metric_compatibility_defect",
    "frame_connection",
    "riemann_frame",
    "riemann_frame_table",
    "ricci_frame",
    "scalar_curvature",
    "coercivity_check",
    "geometry_at",
]


@dataclass(frozen=True)
class Geometry:
    """Pointwise arrays for one chart point (all indices 0-based).

    Derivative indices always come first:

        g[a,b]            metric             dg[m,a,b] = d_m g_ab
        E[i,a]            frame e_{i+1} components against d/dx_a
                                             dE[m,i,a] = d_m E[i,a]
        Gamma[c,a,b]      Christoffel Gamma^c_ab
        fc[i,j,k]         g(nabla_{e_i} e_j, e_k)
        dfc[m,i,j,k]      d_m fc[i,j,k]
        Rfr[i,j,k,l]      g(R(e_i,e_j)e_k, e_l)
    """

    g: np.ndarray
    dg: np.ndarray
    E: np.ndarray
    dE: np.ndarray
    Gamma: np.ndarray
    fc: np.ndarray
    dfc: np.ndarray
    Rfr: np.ndarray


@lru_cache(maxsize=256)
def _geometry(p: Point) -> Geometry:
    g, dg, d2g = metric_jets(p)
    ginv, dginv, _ = inverse_metric_jets(p)
    E, dE, d2E = frame_jets(p)

    # Gamma^c_ab = 1/2 g^{cd} (d_a g_bd + d_b g_ad - d_d g_ab)
    S = dg + dg.transpose(1, 0, 2) - dg.transpose(2, 1, 0)  # S[a,b,d]
    Gamma = 0.5 * np.einsum("cd,abd->cab", ginv, S)
    dS = d2g + d2g.transpose(0, 2, 1, 3) - d2g.transpose(0, 3, 2, 1)  # dS[m,a,b,d]
    dGamma = 0.5 * (np.einsum("mcd,abd->mcab", dginv, S) + np.einsum("cd,mabd->mcab", ginv, dS))

    # Riem[a,l,b,c]: R(d_a, d_b) d_c = Riem[a,:,b,c] . (d_l basis)
    Riem = (
        dGamma  # dGamma[a,l,b,c] = d_a Gamma^l_bc
        - dGamma.transpose(2, 1, 0, 3)
        + np.einsum("lam,mbc->albc", Gamma, Gamma)
        - np.einsum("lbm,mac->albc", Gamma, Gamma)
    )
    Rdown = np.einsum("albc,ld->abcd", Riem, g)  # g(R(d_a, d_b) d_c, d_d)
    Rfr = np.einsum("ia,jb,kc,ld,abcd->ijkl", E, E, E, E, Rdown)

    # frame connection g(nabla_{e_i} e_j, e_k) and its coordinate gradient
    M = dE + np.einsum("jb,cab->ajc", E, Gamma)  # M[a,j,c] = (nabla_{d_a} e_j)^c
    fc = np.einsum("ia,ajc,cd,kd->ijk", E, M, g, E)
    dM = d2E + np.einsum("mjb,cab->majc", dE, Gamma) + np.einsum("jb,mcab->majc", E, dGamma)
    dfc = (
        np.einsum("mia,ajc,cd,kd->mijk", dE, M, g, E)
        + np.einsum("ia,majc,cd,kd->mijk", E, dM, g, E)
        + np.einsum("ia,ajc,mcd,kd->mijk", E, M, dg, E)
        + np.einsum("ia,ajc,cd,mkd->mijk", E, M, g, dE)
    )

    return Geometry(g, dg, E, dE, Gamma, fc, dfc, Rfr)


def geometry_at(p) -> Geometry:
    """Cached pointwise geometry bundle (treat the arrays as read-only)."""
    return _geometry(as_point(p))


def christoffel_at(p) -> np.ndarray:
    """Coordinate Christoffel symbols, indexed [k, i, j] = Gamma^k_ij."""
    return geometry_at(p).Gamma.copy()


def metric_compatibility_defect(p) -> float:
    """Max component of nabla g at p; vanishes for the Levi-Civita connection."""
    geo = geometry_at(p)
    nabla_g = geo.dg - np.einsum("dab,dc->abc", geo.Gamma, geo.g) - np.einsum("dac,bd->abc", geo.Gamma, geo.g)
    return float(np.max(np.abs(nabla_g)))


def frame_connection(p) -> np.ndarray:
    """g(nabla_{e_i} e_j, e_k) as a (4,4,4) array, indices 0-based."""
    return geometry_at(p).fc.copy()


def riemann_frame_table(p) -> np.ndarray:
    """All frame curvature components g(R(e_i,e_j)e_k,e_l), 0-based indices."""
    return geometry_at(p).Rfr.copy()


def riemann_frame(p, i: int, j: int, k: int, l: int) -> float:
    """g(R(e_i, e_j) e_k, e_l) with 1-based frame indices (matching the table labels)."""
    for idx in (i, j, k, l):
        if not 1 <= idx <= 4:
            raise ValueError(f"frame index {idx} outside 1..4")
    return float(geometry_at(p).Rfr[i - 1, j - 1, k - 1, l - 1])


def ricci_frame(p) -> np.ndarray:
    """Ricci matrix in the frame: Ric[i,j] = sum_a g(R(e_i,e_a)e_a,e_j)."""
    return np.einsum("iaaj->ij", geometry_at(p).Rfr)


def scalar_curvature(p) -> float:
    return float(np.trace(ricci_frame(p)))


def coercivity_check(p, v: FrameVector, lam: float) -> float:
    """Ric(v, v) - lam * g(v, v) for a frame vector v at p."""
    ric = ricci_frame(p)
    c = v.comp
    return float(c @ ric @ c - lam * (c @ c))
