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

from .chart import FrameVector, _per_point, as_point, frame_jets, inverse_metric_jets, metric_jets

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
    """Pointwise arrays for one chart point or a batch (all indices 0-based).

    Batch axes come first, then derivative indices, then the entry:

        g[..., a,b]            metric             dg[..., m,a,b] = d_m g_ab
        E[..., i,a]            frame e_{i+1} components against d/dx_a
                                                  dE[..., m,i,a] = d_m E[i,a]
        Gamma[..., c,a,b]      Christoffel Gamma^c_ab
        fc[..., i,j,k]         g(nabla_{e_i} e_j, e_k)
        dfc[..., m,i,j,k]      d_m fc[i,j,k]
        Rfr[..., i,j,k,l]      g(R(e_i,e_j)e_k, e_l)
    """

    g: np.ndarray
    dg: np.ndarray
    E: np.ndarray
    dE: np.ndarray
    Gamma: np.ndarray
    fc: np.ndarray
    dfc: np.ndarray
    Rfr: np.ndarray


def _christoffel(p):
    """Metric jets g, dg and Gamma^c_ab = 1/2 g^{cd} (d_a g_bd + d_b g_ad - d_d g_ab) with dGamma[m] = d_m Gamma."""
    g, dg, d2g = metric_jets(p)
    ginv, dginv, _ = inverse_metric_jets(p)
    S = dg + np.swapaxes(dg, -3, -2) - np.swapaxes(dg, -3, -1)  # S[a,b,d]
    dS = d2g + np.swapaxes(d2g, -3, -2) - np.swapaxes(d2g, -3, -1)  # dS[m,a,b,d]
    Gamma = 0.5 * np.einsum("...cd,...abd->...cab", ginv, S)
    dGamma = 0.5 * (np.einsum("...mcd,...abd->...mcab", dginv, S) + np.einsum("...cd,...mabd->...mcab", ginv, dS))
    return g, dg, Gamma, dGamma


def _frame_connection(p, g, dg, Gamma, dGamma):
    """Frame jets E, dE and fc[i,j,k] = g(nabla_{e_i} e_j, e_k) = E_ia M_ajc g_cd E_kd, dfc[m,i,j,k] = d_m fc."""
    E, dE, d2E = frame_jets(p)
    M = dE + np.einsum("...jb,...cab->...ajc", E, Gamma)  # M[a,j,c] = (nabla_{d_a} e_j)^c
    dM = d2E + np.einsum("...mjb,...cab->...majc", dE, Gamma)
    dM += np.einsum("...jb,...mcab->...majc", E, dGamma)
    gE = np.einsum("...cd,...kd->...ck", g, E)
    EM = np.einsum("...ia,...ajc->...ijc", E, M)
    d_gE = np.einsum("...mcd,...kd->...mck", dg, E) + np.einsum("...cd,...mkd->...mck", g, dE)
    dfc = np.einsum("...mia,...ajk->...mijk", dE, np.einsum("...ajc,...ck->...ajk", M, gE))
    dfc += np.einsum("...ia,...majk->...mijk", E, np.einsum("...majc,...ck->...majk", dM, gE))
    dfc += np.einsum("...ijc,...mck->...mijk", EM, d_gE)
    return E, dE, np.einsum("...ijc,...ck->...ijk", EM, gE), dfc


def _frame_curvature(g, E, Gamma, dGamma):
    """Rfr[i,j,k,l] = g(R(e_i,e_j)e_k, e_l)."""
    # Riem[a,l,b,c]: R(d_a, d_b) d_c = Riem[a,:,b,c] . (d_l basis); dGamma[a,l,b,c] = d_a Gamma^l_bc
    Riem = dGamma - np.swapaxes(dGamma, -4, -2)
    Riem += np.einsum("...lam,...mbc->...albc", Gamma, Gamma)
    Riem -= np.einsum("...lbm,...mac->...albc", Gamma, Gamma)
    Rdown = np.einsum("...albc,...ld->...abcd", Riem, g)  # g(R(d_a, d_b) d_c, d_d)
    # E_ia E_jb E_kc E_ld Rdown_abcd, one frame index at a time
    Rfr = np.einsum("...abcd,...ld->...abcl", Rdown, E)
    Rfr = np.einsum("...abcl,...kc->...abkl", Rfr, E)
    Rfr = np.einsum("...abkl,...jb->...ajkl", Rfr, E)
    return np.einsum("...ajkl,...ia->...ijkl", Rfr, E)


def _build(p) -> Geometry:
    # each stage loads the jets only it needs, so second derivatives are freed early
    g, dg, Gamma, dGamma = _christoffel(p)
    E, dE, fc, dfc = _frame_connection(p, g, dg, Gamma, dGamma)
    return Geometry(g, dg, E, dE, Gamma, fc, dfc, _frame_curvature(g, E, Gamma, dGamma))


# single points only: a replay asks for one point's geometry several times; a check's batch is built once
_geometry = lru_cache(maxsize=256)(_build)


def geometry_at(p) -> Geometry:
    """Geometry at one point (cached; treat the arrays as read-only) or at a (..., 4) batch of points."""
    if np.ndim(p) > 1:
        return _build(p)
    return _geometry(as_point(p))


def _ricci(Rfr: np.ndarray) -> np.ndarray:
    return np.einsum("...iaaj->...ij", Rfr)


def christoffel_at(p) -> np.ndarray:
    """Coordinate Christoffel symbols, indexed [..., k, i, j] = Gamma^k_ij."""
    return geometry_at(p).Gamma.copy()


def metric_compatibility_defect(p) -> float:
    """Max component of nabla g at p; vanishes for the Levi-Civita connection."""
    geo = geometry_at(p)
    G, g = geo.Gamma, geo.g
    nabla_g = geo.dg - np.einsum("...dab,...dc->...abc", G, g) - np.einsum("...dac,...bd->...abc", G, g)
    return float(np.max(np.abs(nabla_g)))


def frame_connection(p) -> np.ndarray:
    """g(nabla_{e_i} e_j, e_k) as a (..., 4, 4, 4) array, indices 0-based."""
    return geometry_at(p).fc.copy()


def riemann_frame_table(p) -> np.ndarray:
    """All frame curvature components g(R(e_i,e_j)e_k,e_l), 0-based indices."""
    return geometry_at(p).Rfr.copy()


def riemann_frame(p, i: int, j: int, k: int, l: int) -> float:
    """g(R(e_i, e_j) e_k, e_l) with 1-based frame indices (matching the table labels)."""
    for idx in (i, j, k, l):
        if not 1 <= idx <= 4:
            raise ValueError(f"frame index {idx} outside 1..4")
    return _per_point(geometry_at(p).Rfr[..., i - 1, j - 1, k - 1, l - 1])


def ricci_frame(p) -> np.ndarray:
    """Ricci matrix in the frame: Ric[..., i, j] = sum_a g(R(e_i,e_a)e_a,e_j)."""
    return _ricci(geometry_at(p).Rfr)


def scalar_curvature(p) -> float:
    return _per_point(np.trace(ricci_frame(p), axis1=-2, axis2=-1))


def coercivity_check(p, v: FrameVector, lam: float) -> float:
    """Ric(v, v) - lam * g(v, v) for a frame vector v (components [..., i]) at p."""
    c = v.comp
    return _per_point(np.einsum("...i,...ij,...j->...", c, ricci_frame(p), c) - lam * np.einsum("...i,...i->...", c, c))
