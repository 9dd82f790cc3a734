"""Connection and curvature of the chart metric, computed in the orthonormal frame.

Everything here comes from the frame and coframe jets alone.  The frame's
Lie brackets give the structure functions c_ijk = th_k([e_i, e_j]);
Koszul's formula for an orthonormal frame gives the connection
fc_ijk = g(nabla_{e_i} e_j, e_k) = (c_ijk - c_ikj - c_jki) / 2; and
Cartan's structure equation gives the curvature from the connection.  The
frame connection and curvature tables of the model space are therefore
outputs of a generic pipeline fed only by the frame's closed form, not
inputs, which is what makes comparing them against the published integer
tables a meaningful check.

Contractions over a derivative index run over the live coordinates only:
the variables the frame and coframe jets carry, one slice packed over the
span of their entries' variables, first to last (s and t on a batch of F4;
all four at a single point, whose jets are dense).  The rows left out are
never formed, and are exact zeros in the dense layout, so every result is
the full contraction's bit for bit.  Only a point's dense jets have x and y
rows, which hold NaN or inf (0*inf) where t under- or overflows, and they
are contracted with the rest.

The connection's derivatives dfc = d_m fc_ijk are read by Ricci, the
curvature table and a point's S_kj = sum_i e_i(fc_ikj), M's one
connection-derivative term.  A batch takes S without dfc: Koszul's formula
is linear, so S = (P_kj - P_jk - Q_kj) / 2 from the jets, with the 4x4
traces P_kj = sum_i e_i(c_ikj) and Q_kj = sum_i e_i(c_kji), and Q needs no
frame-coframe product, since sum_i th_i(d_b) e_i = d_b (see Geometry).

Sign conventions:

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Ric(X, Y) = sum_i g(R(X, e_i) e_i, Y)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .chart import _as_points, _in_span, frame_jets
from .jets import NVARS, _einsum, _moved

__all__ = [
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
    """Pointwise frame arrays for one chart point or a batch (all indices 0-based), built in the live coordinates.

    Batch axes come first, then derivative indices, then the entry.  The build forms E and fc from views of the frame
    and coframe jets packed over the live coordinates, one slice (s and t on a batch, all four at a point), the rest on
    first read (and kept).  dfc is read by ric, Rfr and a point's S alone: a batch's S comes from P and Q, so of the
    checks only ``lemma2``, ``theorem1``, ``coercivity``, ``riemc`` and the witnesses' tension form it.

        E[..., i,a]            frame e_{i+1} components against d/dx_a
        coframe                jets (T, dT) of the coframe rows th_{k+1}, dense, for converting coordinate fields
        fc[..., i,j,k]         g(nabla_{e_i} e_j, e_k); tau_m = sum_i fc_iim, so sum_i nabla_{e_i} e_i = tau_m e_m
        ric[..., i,j]          Ric(e_i, e_j) = e_i(tau_j) - e_a(fc_iaj) + tau_m fc_imj - (fc_iam + c_ima) fc_amj
        Rfr[..., i,j,k,l]      g(R(e_i,e_j)e_k, e_l), 256 entries per point

    and the Laplacians' coefficients: Lap f = G_ab d_a d_b f + v_b d_b f, (Lap X)_j = Lap X_j + C_akj d_a X_k + M_kj X_k
    on the jets of a scalar f and of a field's frame components X_k,
        G[..., a,b]            sum_i E_ia E_ib, the inverse metric
        v[..., b]              sum_i e_i(E_ib) - tau_m E_mb
        C[..., a,k,j]          2 sum_i E_ia fc_ikj
        M[..., k,j]            (Lap e_k)_j = S_kj + sum_i fc_ikm fc_imj - tau_m fc_mkj, S_kj = sum_i e_i(fc_ikj): at
                               a point the trace of dfc, on a batch (P_kj - P_jk - Q_kj) / 2 from B_ijb = [e_i, e_j]^b
                               (m, a and a derivative's b over the live coordinates):
            U_kb = sum_i e_i(B_ikb) = eE_a d_a E_kb + G_ma d_m d_a E_kb - d_m E_ka sum_i E_im d_a E_ib
                                      - E_ka sum_i e_i(d_a E_ib)
            P_kj = sum_i e_i(c_ikj) = U_kb T_jb + B_ikb e_i(T_jb)
            Y_kj = sum_i T_ib e_i(D_kjb) = sum_b d_b D_kjb = d_b E_ka d_a E_jb + E_ka d_b d_a E_jb,  D_ijb = e_i(E_jb)
            Q_kj = sum_i e_i(c_kji) = Y_kj - Y_jk + B_kjb sum_i e_i(T_ib)
        (sum_i T_ib e_i = d_b: the chart's coframe is exactly the frame's inverse, as test_chart and lemma1 certify)

    A build of up to 1024 rows frees a few MB.  glibc's dynamic trim threshold handed about 4.7 MB of it back to the OS
    per block, and the next block faulted it in again (1100 of the 1195 minor faults of a warm 300-point ``corollary``
    run), so importing geoverify fixes glibc's mmap and trim thresholds at 32 and 128 MiB; off glibc nothing changes.
    """

    E: np.ndarray
    _coframe: tuple[np.ndarray, np.ndarray, np.ndarray]  # the coframe jets over the live coordinates
    fc: np.ndarray
    _tau: np.ndarray
    _c: np.ndarray  # c[..., i,j,k] = th_k([e_i, e_j])
    _eE: np.ndarray  # eE[..., b] = sum_i e_i(E_ib)
    _live: slice  # the live coordinates: the span of the variables the frame and coframe jets read
    _stage2: tuple[np.ndarray, np.ndarray, np.ndarray]  # d_m E, d_m d_n E (live m, n); B = [e_i, e_j]^b

    @cached_property
    def coframe(self) -> tuple[np.ndarray, np.ndarray]:  # dense, for converting a field's own jets to first order
        return self._coframe[0], _in_span(self._coframe[1], self._live, -3)  # a point's are dense already: no copy

    @cached_property
    def _dfc(self) -> np.ndarray:
        """dfc[..., m,i,j,k] = d_m fc_ijk for the live coordinates m, by way of dD = d_m e_i(E_jb), dB and dc."""
        (dEL, d2EL, B), live, (T, dT, _) = self._stage2, self._live, self._coframe
        dD = _einsum("...mia,...ajb->...mijb", dEL[..., live], dEL)
        dD += _einsum("...ia,...majb->...mijb", self.E[..., live], d2EL)
        dB = dD - dD.swapaxes(-3, -2)
        dc = _einsum("...mijb,...kb->...mijk", dB, T) + _einsum("...ijb,...mkb->...mijk", B, dT)
        return _koszul(dc)

    @cached_property
    def G(self) -> np.ndarray:
        return np.asfortranarray(self.E.swapaxes(-1, -2) @ self.E)  # the batch innermost, as in every other array

    @cached_property
    def v(self) -> np.ndarray:
        return self._eE - _einsum("...m,...mb->...b", self._tau, self.E)

    @cached_property
    def C(self) -> np.ndarray:
        return 2 * _einsum("...ia,...ikj->...akj", self.E, self.fc)

    def _C(self, rows: slice) -> np.ndarray:  # C's rows alone, unless C is formed or all are asked for: the same bits
        full = "C" in vars(self) or rows == slice(None)  # then from C, which is kept
        return self.C[..., rows, :, :] if full else 2 * _einsum("...ia,...ikj->...akj", self.E[..., rows], self.fc)

    @cached_property
    def _S(self) -> np.ndarray:
        """S[..., k,j] = sum_i e_i(fc_ikj): at a point from dfc, on a batch from P and Q (see the class docstring)."""
        (dEL, d2EL, B), live, (T, dT, _) = self._stage2, self._live, self._coframe
        EL = self.E[..., live]
        if self.E.ndim == 2:  # a point: one einsum over the dfc that its Ricci and curvature table read too
            return _einsum("...ia,...aikj->...kj", EL, self._dfc)
        # G's live block, not sum_i E_im E_ia inside the sum: cheaper, and non-finite only where G overflows (t past
        # about 1e154), which M's readers read
        dL, G = dEL[..., live], self.G[..., live, live]
        H = _einsum("...im,...aib->...mab", EL, dEL)  # sum_i E_im d_a E_ib
        Z = _einsum("...im,...maib->...ab", EL, d2EL)  # sum_i e_i(d_a E_ib)
        U = _einsum("...a,...akb->...kb", self._eE[..., live], dEL) + _einsum("...ma,...makb->...kb", G, d2EL)
        U -= _einsum("...mka,...mab->...kb", dL, H) + _einsum("...ka,...ab->...kb", EL, Z)
        BE = _einsum("...ikb,...im->...mkb", B, EL)  # sum_i B_ikb e_i = sum_m BE_mkb d_m
        P = _einsum("...kb,...jb->...kj", U, T) + _einsum("...mkb,...mjb->...kj", BE, dT)
        Y = _einsum("...bka,...ajb->...kj", dL, dL) + _einsum("...ka,...bajb->...kj", EL, d2EL[..., live])
        div = _einsum("...im,...mib->...b", EL, dT)  # sum_i e_i(T_ib)
        Q = Y - Y.swapaxes(-1, -2) + _einsum("...kjb,...b->...kj", B, div)
        return 0.5 * (P - P.swapaxes(-1, -2) - Q)

    @cached_property
    def M(self) -> np.ndarray:
        M = self._S + _einsum("...ikm,...imj->...kj", self.fc, self.fc)
        M -= _einsum("...m,...mkj->...kj", self._tau, self.fc)
        return M

    @cached_property
    def ric(self) -> np.ndarray:
        # Rfr_iaaj in one pass, with fc_iam + c_ima = -fc_mia, since fc_ijk = -fc_ikj and c_ima = fc_ima - fc_mia
        fc, EL, dfc = self.fc, self.E[..., self._live], self._dfc
        e = _einsum("...im,...maaj->...ij", EL, dfc) - _einsum("...am,...miaj->...ij", EL, dfc)
        return e + _einsum("...m,...imj->...ij", self._tau, fc) + _einsum("...mia,...amj->...ij", fc, fc)

    @cached_property
    def Rfr(self) -> np.ndarray:
        # Cartan: Rfr_ijkl = e_i(fc_jkl) - e_j(fc_ikl) + fc_jkm fc_iml - fc_ikm fc_jml - c_ijm fc_mkl, where
        # A[i,j,k,l] = e_i(fc_jkl) + fc_jkm fc_iml = g(nabla_{e_i} nabla_{e_j} e_k, e_l) and [e_i, e_j] = c_ijm e_m
        fc, EL = self.fc, self.E[..., self._live]
        A = _einsum("...ia,...ajkl->...ijkl", EL, self._dfc) + _einsum("...jkm,...iml->...ijkl", fc, fc)
        return A - A.swapaxes(-4, -3) - _einsum("...ijm,...mkl->...ijkl", self._c, fc)


def _koszul(c):
    """fc[..., i,j,k] = (c_ijk - c_ikj - c_jki) / 2, for c or any derivative of it."""
    return 0.5 * (c - c.swapaxes(-1, -2) - c.transpose(_moved(-1, -3, c.ndim)))  # c_ikj and c_jki as views


def _build(p) -> Geometry:
    (F, dF, d2F), live = frame_jets(p, coframe=True)  # entry axes (frame or coframe, row, coordinate slot)
    (E, dEL, d2EL), coframe = (tuple(a[..., k, :, :] for a in (F, dF, d2F)) for k in (0, 1))  # views, not copies
    D = _einsum("...ia,...ajb->...ijb", E[..., live], dEL)  # D[i,j,b] = e_i(E_jb)
    B = D - D.swapaxes(-3, -2)  # [e_i, e_j]^b
    c = _einsum("...ijb,...kb->...ijk", B, coframe[0])
    fc, eE = _koszul(c), _einsum("...iib->...b", D)
    return Geometry(E, coframe, fc, _einsum("...iim->...m", fc), c, eE, live, (dEL, d2EL, B))


@lru_cache(maxsize=256)
def _geometry(coords: tuple, dtype: np.dtype) -> Geometry:
    """One point's geometry, keyed on its validated array's values and dtype (longdouble padding is uninitialized)."""
    return _build(np.array(coords, dtype))


def geometry_at(p) -> Geometry:
    """Geometry at one point validated by ``_as_points`` (cached; treat its arrays as read-only) or at a batch."""
    P = p if isinstance(p, np.ndarray) and p.ndim > 1 else _as_points(p)  # _build's frame_jets validates a batch
    return _build(P) if P.ndim > 1 else _geometry(tuple(P.tolist()), P.dtype)  # replays ask for a point repeatedly


def _nabla(geo: Geometry, val, grad) -> np.ndarray:
    """A[..., i, j] = g(nabla_{e_i} X, e_j) from the frame-component jets val[..., k], grad[..., a, k] of X."""
    E = geo.E if grad.shape[-2] == NVARS else geo.E[..., NVARS - grad.shape[-2] :]  # grad's rows: the chart's last
    # an einsum, not E @ grad: a matmul puts the batch outermost, which slows every sum over its result
    return _einsum("...ia,...ak->...ik", E, grad) + _einsum("...k,...ikj->...ij", val, geo.fc)


def frame_connection(p) -> np.ndarray:
    """g(nabla_{e_i} e_j, e_k) as a (..., 4, 4, 4) array, indices 0-based."""
    return geometry_at(p).fc.copy()


def riemann_frame_table(p) -> np.ndarray:
    """All frame curvature components g(R(e_i,e_j)e_k,e_l), 0-based indices."""
    return geometry_at(p).Rfr.copy()


def riemann_frame(p, i: int, j: int, k: int, l: int) -> float | np.ndarray:
    """g(R(e_i, e_j) e_k, e_l) with 1-based frame indices (matching the table labels)."""
    for idx in (i, j, k, l):
        if not 1 <= idx <= 4:
            raise ValueError(f"frame index {idx} outside 1..4")
    return geometry_at(p).Rfr[..., i - 1, j - 1, k - 1, l - 1][()]


def ricci_frame(p) -> np.ndarray:
    """Ricci matrix in the frame: Ric[..., i, j] = sum_a g(R(e_i,e_a)e_a,e_j)."""
    return geometry_at(p).ric.copy()


def scalar_curvature(p) -> float | np.ndarray:
    return np.trace(geometry_at(p).ric, axis1=-2, axis2=-1)


def coercivity_check(p, v, lam: float) -> float | np.ndarray:
    """Ric(v, v) - lam * g(v, v) for the frame components v[..., i] of a vector at p."""
    quadratic = _einsum("...i,...ij,...j->...", v, geometry_at(p).ric, v)
    return quadratic - lam * _einsum("...i,...i->...", v, v)
