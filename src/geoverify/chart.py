"""The global chart of the model space F4 = R2 x H2.

Coordinates are (x, y, s, t) with t > 0.  The orthonormal left-invariant
frame and its dual coframe are

    e1 = sqrt(t) dx,                        th1 = dx/sqrt(t) - s dy/sqrt(t),
    e2 = (s/sqrt(t)) dx + (1/sqrt(t)) dy,   th2 = sqrt(t) dy,
    e3 = 2t ds,                             th3 = ds/(2t),
    e4 = 2t dt,                             th4 = dt/(2t),

(where dx on the left column abbreviates the coordinate vector field
d/dx) and the metric g = th1^2 + th2^2 + th3^2 + th4^2 has matrix

    [[ 1/t,      -s/t,          0,        0 ],
     [-s/t,  (s^2+t^2)/t,       0,        0 ],
     [  0,        0,        1/(4t^2),     0 ],
     [  0,        0,           0,     1/(4t^2)]].

The frame, coframe and metric tables are closed forms in (x, y, s, t)
over the jet arithmetic that form each shared subexpression, such as
sqrt(t) or 1/t, once and return 4x4 grids; the frame and coframe share
one.  So the same definitions serve values, gradients and Hessians, at
one point or at a (..., 4) batch of points in one numpy evaluation.
``_jets`` evaluates any such closed form, one returning a jet or constant
or nested 4-tuples of them, into ``(val, grad, hess)`` arrays, or ``(val,
grad)`` at order 1, the only jet format that leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .jets import _ALL, NVARS, Jet2, _axes, _index, _lift, _require, point_jets
from .jets import reciprocal, sqrt

__all__ = [
    "Point", "AnalyticVectorField", "coordinate_field", "frame_field", "constant_frame_field", "metric_at",
    "frame_matrix",
]


@dataclass(frozen=True)
class Point:
    """A chart point, its coordinates as given (a floating dtype, such as np.longdouble, reaches every result);
    construction enforces the domain conditions, finite coordinates and t > 0, as validated by ``_as_points``."""

    x: float
    y: float
    s: float
    t: float

    def __post_init__(self):
        _as_points(self)

    def __getitem__(self, k: int) -> float:
        return (self.x, self.y, self.s, self.t)[k]

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.s, self.t)


Component = Callable[..., object]  # (x, y, s, t) -> float | per-point ndarray | Jet2


def _const(c: float) -> Component:
    return lambda x, y, s, t: c


# the closed-form tables, one function each that computes every shared subexpression once;
# rows are e1..e4 resp. th1..th4, columns coordinate slots; the frame and the coframe share one closed form
def _frames(x, y, s, t):
    r, w = sqrt(t), 2 * t
    ir, h = reciprocal(r), reciprocal(w)
    u = s * ir
    frame = (r, 0.0, 0.0, 0.0), (u, ir, 0.0, 0.0), (0.0, 0.0, w, 0.0), (0.0, 0.0, 0.0, w)
    return frame, ((ir, -u, 0.0, 0.0), (0.0, r, 0.0, 0.0), (0.0, 0.0, h, 0.0), (0.0, 0.0, 0.0, h))


def _metric(x, y, s, t):
    it = reciprocal(t)
    u, q = -s * it, reciprocal(4 * t**2)  # not it**2 / 4: where t^2 underflows, a domain error, not inf
    return (it, u, 0.0, 0.0), (u, t - s * u, 0.0, 0.0), (0.0, 0.0, q, 0.0), (0.0, 0.0, 0.0, q)


_JetArrays = tuple[np.ndarray, np.ndarray, np.ndarray]  # (val, grad, hess): batch axes, derivative indices, entry


def _as_points(p) -> np.ndarray:
    """A Point or a (..., 4) array-like of points as an array in its own floating dtype, any other input (integers,
    objects) as float64; a domain error names the first bad row."""
    P = np.asarray(p.astuple() if isinstance(p, Point) else p)
    P = P if P.dtype.kind == "f" else P.astype(float)
    if P.shape[-1:] != (4,):
        raise ValueError(f"a chart point has 4 coordinates, got shape {P.shape}")
    ok = P[..., 3] > 0.0  # finiteness row by row is a slow reduction over length-4 rows: only where some entry fails
    _require(ok if np.isfinite(P).all() else ok & np.isfinite(P).all(-1), "chart requires finite coordinates and t > 0")
    return P


def _packed(f: Callable, p, order: int = 2, dense: bool = False) -> tuple[tuple, slice]:
    """Evaluate the closed form ``f`` at a point or a (..., 4) batch p, in one call, to ``order`` 1 or 2.

    ``f(x, y, s, t)`` returns a jet or constant, or nested tuples of them, such as a 4x4 grid.  Returns ``val[..., e]``,
    ``grad[..., m, e] = d_m entry`` and, at order 2, ``hess[..., m, n, e] = d_m d_n entry`` for m, n over the span of
    the variables its entries read, from the first to the last (all four if ``dense``, or at a point or order 1), and
    that span as a slice: a variable inside it that no entry reads has rows of exact zeros.
    """
    P = _as_points(p)
    entries, shape = [f(*point_jets(P, order))], ()
    while isinstance(entries[0], tuple):
        shape += (len(entries[0]),)
        entries = [e for row in entries for e in row]
    read = {0, NVARS - 1} if dense else set().union(*{jet.V for jet in entries if isinstance(jet, Jet2)})
    rows = slice(min(read, default=0), max(read, default=-1) + 1)
    V, batch = _ALL[rows], P.shape[:-1]
    u = len(V)
    # one buffer with the batch axes innermost, viewed batch-first: einsum keeps that memory layout for its
    # results (order="K"), so every contraction downstream loops over the batch, not over length-4 axes
    B = np.zeros((1 + u + u * u * (order - 1), len(entries)) + batch, P.dtype)
    for k, jet in enumerate(entries):
        if isinstance(jet, Jet2):  # its slots over its own variables, in the layout over V
            B[slice(None) if jet.V == V else _index(jet.V, V, order), k] = _lift(jet.J, batch)
        else:
            B[0, k] = jet
    parts = ((B[0], shape), (B[1 : 1 + u], (u,) + shape), (B[1 + u :], (u, u) + shape))[: order + 1]
    return tuple(A.reshape(d + batch).transpose(_axes(len(d), len(d + batch))) for A, d in parts), rows


def _jets(f: Callable, p, order: int = 2) -> _JetArrays:
    return _packed(f, p, order, dense=True)[0]  # the dense layout: exact zeros in the rows f does not read


def _in_span(a: np.ndarray, rows: slice, axis: int, span: slice = slice(0, NVARS)) -> np.ndarray:
    """a's rows ``rows`` on its negative ``axis`` within ``span`` (default: all four), other rows zeros; a if equal."""
    if rows == span:
        return a
    out = np.zeros_like(a, shape=[span.stop - span.start if k == a.ndim + axis else n for k, n in enumerate(a.shape)])
    out[(..., slice(rows.start - span.start, rows.stop - span.start)) + (slice(None),) * (-1 - axis)] = a
    return out


def _apply(A: _JetArrays, x: tuple) -> tuple:
    """Jets of A @ x by the product rule, to the order of x's jets; hess's cross term is added to its transpose."""
    (a, da, *d2a), (v, dv, *d2v) = A, x
    grad = np.einsum("...mij,...j->...mi", da, v) + np.einsum("...ij,...mj->...mi", a, dv)
    if not d2v:
        return np.einsum("...ij,...j->...i", a, v), grad
    cross = np.einsum("...mij,...nj->...mni", da, dv)  # d_m A_ij d_n x_j
    hess = np.einsum("...mnij,...j->...mni", d2a[0], v) + np.einsum("...ij,...mnj->...mni", a, d2v[0])
    hess += cross + np.swapaxes(cross, -3, -2)
    return np.einsum("...ij,...j->...i", a, v), grad, hess


def metric_at(p) -> np.ndarray:
    """Coordinate metric matrix (4x4) at p."""
    return metric_jets(p, order=1)[0]


def frame_matrix(p) -> np.ndarray:
    """Rows are the coordinate components of e1..e4 at p."""
    return _jets(_frames, p, order=1)[0][..., 0, :, :]


def metric_jets(p, order: int = 2) -> _JetArrays:
    return _jets(_metric, p, order)


def frame_jets(p, coframe: bool = False):
    """Jets of the frame rows at p; with ``coframe``, the packed jets of both tables, entry axes (2, 4, 4), and rows."""
    return _packed(_frames, p) if coframe else tuple(a[..., 0, :, :] for a in _jets(_frames, p))


def coframe_jets(p) -> _JetArrays:
    return tuple(a[..., 1, :, :] for a in _jets(_frames, p))


@dataclass(frozen=True)
class AnalyticVectorField:
    """A vector field given by four closed-form component functions.

    ``basis`` records whether the components are against the frame
    (e1..e4) or the coordinate basis; evaluation converts on demand and
    the conversion factors are themselves closed forms, so frame
    components of a coordinate field still carry exact Hessians.
    """

    components: tuple[Component, Component, Component, Component]
    basis: Literal["frame", "coordinate"]

    def __post_init__(self):
        if self.basis not in ("frame", "coordinate"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if len(self.components) != 4:
            raise ValueError("a vector field needs exactly 4 components")

    def component_jets(self, p, order: int = 2) -> _JetArrays:
        """Jets ``(val[..., k], grad[..., a, k], hess[..., a, b, k])``, or ``(val, grad)`` at ``order`` 1, own basis."""
        return _jets(lambda *q: tuple(f(*q) for f in self.components), p, order)

    def frame_component_jets(self, p, coframe: _JetArrays | None = None, order: int = 2) -> tuple:
        """Jets of the frame components th_j(X) at p to ``order`` 1 or 2 (converting if needed, with the coframe jets
        at p if given, to at least that order): (val, grad) or (val, grad, hess)."""
        own = self.component_jets(p, order)
        return own if self.basis == "frame" else _apply(coframe or coframe_jets(p), own)

    def coordinate_component_jets(self, p, order: int = 2) -> _JetArrays:
        """Jets of the coordinate components at p to ``order`` 1 or 2 (converting if needed): sum_j X_j e_j."""
        own = self.component_jets(p, order)
        if self.basis == "coordinate":
            return own
        return _apply(tuple(np.swapaxes(E, -1, -2) for E in frame_jets(p)), own)


def coordinate_field(fx: Component, fy: Component, fs: Component, ft: Component) -> AnalyticVectorField:
    return AnalyticVectorField((fx, fy, fs, ft), "coordinate")


def frame_field(f1: Component, f2: Component, f3: Component, f4: Component) -> AnalyticVectorField:
    return AnalyticVectorField((f1, f2, f3, f4), "frame")


def constant_frame_field(comp) -> AnalyticVectorField:
    """Components comp[..., k]: one constant vector, or one per point of a batch."""
    return frame_field(*map(_const, np.moveaxis(np.asarray(comp), -1, 0)))
