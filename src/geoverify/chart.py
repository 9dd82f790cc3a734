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

Every entry is a closed-form expression over the jet arithmetic, so the
same definitions serve values, gradients and Hessians, at one point or at
a (..., 4) batch of points in one numpy evaluation.

Vector quantities carry their basis explicitly: :class:`FrameVector`
components are against (e1..e4), :class:`CoordVector` components against
(d/dx, d/dy, d/ds, d/dt).  The two are never interchangeable without an
explicit conversion at a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal

import numpy as np

from .jets import NVARS, DomainError, Jet2, _require, point_jets, sqrt

__all__ = [
    "Point", "as_point", "CoordVector", "FrameVector", "AnalyticVectorField", "coordinate_field", "frame_field",
    "constant_coordinate_field", "constant_frame_field", "metric_at", "inverse_metric_at", "frame_at", "coframe_at",
    "to_frame", "to_coord",
]


@dataclass(frozen=True)
class Point:
    """A chart point; construction enforces the domain condition t > 0."""

    x: float
    y: float
    s: float
    t: float

    def __post_init__(self):
        for name in ("x", "y", "s", "t"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not self.t > 0.0:
            raise DomainError(f"chart requires t > 0, got t = {self.t}")

    def __getitem__(self, k: int) -> float:
        return (self.x, self.y, self.s, self.t)[k]

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.s, self.t)


def as_point(p) -> Point:
    """Coerce a Point or a length-4 sequence to a Point (validates t > 0)."""
    if isinstance(p, Point):
        return p
    return Point(float(p[0]), float(p[1]), float(p[2]), float(p[3]))


@dataclass(frozen=True)
class CoordVector:
    """Tangent vector components against (d/dx, d/dy, d/ds, d/dt)."""

    comp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "comp", np.asarray(self.comp, dtype=float))


@dataclass(frozen=True)
class FrameVector:
    """Tangent vector components against the orthonormal frame (e1..e4)."""

    comp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "comp", np.asarray(self.comp, dtype=float))

    def norm_squared(self) -> float:
        # the frame is orthonormal, so |v|_g^2 is the Euclidean square
        return float(self.comp @ self.comp)


Component = Callable[..., object]  # (x, y, s, t) -> float | per-point ndarray | Jet2


def _const(c: float) -> Component:
    return lambda x, y, s, t: c


_ZERO = _const(0.0)

# closed-form entries; rows are e1..e4 resp. th1..th4, columns coordinate slots
_FRAME: tuple[tuple[Component, ...], ...] = (
    (lambda x, y, s, t: sqrt(t), _ZERO, _ZERO, _ZERO),
    (lambda x, y, s, t: s / sqrt(t), lambda x, y, s, t: 1 / sqrt(t), _ZERO, _ZERO),
    (_ZERO, _ZERO, lambda x, y, s, t: 2 * t, _ZERO),
    (_ZERO, _ZERO, _ZERO, lambda x, y, s, t: 2 * t),
)

_COFRAME: tuple[tuple[Component, ...], ...] = (
    (lambda x, y, s, t: 1 / sqrt(t), lambda x, y, s, t: -s / sqrt(t), _ZERO, _ZERO),
    (_ZERO, lambda x, y, s, t: sqrt(t), _ZERO, _ZERO),
    (_ZERO, _ZERO, lambda x, y, s, t: 1 / (2 * t), _ZERO),
    (_ZERO, _ZERO, _ZERO, lambda x, y, s, t: 1 / (2 * t)),
)

_METRIC: tuple[tuple[Component, ...], ...] = (
    (lambda x, y, s, t: 1 / t, lambda x, y, s, t: -s / t, _ZERO, _ZERO),
    (lambda x, y, s, t: -s / t, lambda x, y, s, t: (s * s + t * t) / t, _ZERO, _ZERO),
    (_ZERO, _ZERO, lambda x, y, s, t: 1 / (4 * t * t), _ZERO),
    (_ZERO, _ZERO, _ZERO, lambda x, y, s, t: 1 / (4 * t * t)),
)

_INVERSE_METRIC: tuple[tuple[Component, ...], ...] = (
    (lambda x, y, s, t: t + s * s / t, lambda x, y, s, t: s / t, _ZERO, _ZERO),
    (lambda x, y, s, t: s / t, lambda x, y, s, t: 1 / t, _ZERO, _ZERO),
    (_ZERO, _ZERO, lambda x, y, s, t: 4 * t * t, _ZERO),
    (_ZERO, _ZERO, _ZERO, lambda x, y, s, t: 4 * t * t),
)


_JetArrays = tuple[np.ndarray, np.ndarray, np.ndarray]  # (val, grad, hess): batch axes, derivative indices, entry


def _as_points(p) -> np.ndarray:
    """A Point or a (..., 4) array-like of points as a float array, requiring t > 0 at every point."""
    P = np.array(p.astuple()) if isinstance(p, Point) else np.asarray(p, dtype=float)
    _require(P[..., 3] > 0.0, "chart requires t > 0")
    return P


def _jets(entries, p) -> _JetArrays:
    """Evaluate one closed form, a 4-vector or a 4x4 grid of them at a point or a (..., 4) batch p.

    Returns ``val[..., e]``, ``grad[..., m, e] = d_m entry`` and ``hess[..., m, n, e] = d_m d_n entry``.
    """
    table = np.array(entries, dtype=object)
    P = _as_points(p)
    xyst = point_jets(P)
    batch, n = P.shape[:-1], table.size
    # stored with the batch axes innermost, viewed batch-first: einsum keeps that memory layout for its
    # results (order="K"), so every contraction downstream loops over the batch, not over length-4 axes
    shapes = (n,), (NVARS, n), (NVARS, NVARS, n)
    val, grad, hess = (np.moveaxis(np.zeros(s + batch), range(len(s)), range(-len(s), 0)) for s in shapes)
    for k, f in enumerate(table.flat):
        jet = f(*xyst)
        if isinstance(jet, Jet2):
            val[..., k], grad[..., k], hess[..., k] = jet.value, jet.grad, jet.hess
        else:
            val[..., k] = jet
    shape = table.shape
    d1, d2 = batch + (NVARS,), batch + (NVARS, NVARS)
    return val.reshape(batch + shape), grad.reshape(d1 + shape), hess.reshape(d2 + shape)


def _apply(A: _JetArrays, x: _JetArrays) -> _JetArrays:
    """Jets of A @ x: the product rule for each A_ij x_j, summed over j last to keep hess symmetric."""
    (a, da, d2a), (v, dv, d2v) = A, x
    v = v[..., None, :]  # broadcast over i
    cross = da[..., :, None, :, :] * dv[..., None, :, None, :]  # [m, n, i, j] = d_m A_ij d_n x_j
    hess = a[..., None, None, :, :] * d2v[..., :, :, None, :]
    hess += v[..., None, None, :, :] * d2a
    hess += cross + np.swapaxes(cross, -4, -3)
    grad = a[..., None, :, :] * dv[..., :, None, :] + v[..., None, :, :] * da
    return (a * v).sum(-1), grad.sum(-1), hess.sum(-1)


def _per_point(a):
    """A per-point scalar result: a float for a single point, the array for a batch."""
    return float(a) if np.ndim(a) == 0 else a


def metric_at(p) -> np.ndarray:
    """Coordinate metric matrix (4x4) at p."""
    return metric_jets(p)[0]


def inverse_metric_at(p) -> np.ndarray:
    """Coordinate inverse metric matrix (4x4) at p."""
    return inverse_metric_jets(p)[0]


def frame_matrix(p) -> np.ndarray:
    """Rows are the coordinate components of e1..e4 at p."""
    return frame_jets(p)[0]


def coframe_matrix(p) -> np.ndarray:
    """Rows are the covector components of th1..th4 at p."""
    return coframe_jets(p)[0]


def metric_jets(p) -> _JetArrays:
    return _jets(_METRIC, p)


def inverse_metric_jets(p) -> _JetArrays:
    return _jets(_INVERSE_METRIC, p)


def frame_jets(p) -> _JetArrays:
    return _jets(_FRAME, p)


def coframe_jets(p) -> _JetArrays:
    return _jets(_COFRAME, p)


def frame_at(p) -> tuple[CoordVector, CoordVector, CoordVector, CoordVector]:
    """The four frame vectors e1..e4 as coordinate vectors at p."""
    E = frame_matrix(p)
    return tuple(CoordVector(E[i]) for i in range(4))


def coframe_at(p) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four coframe covectors th1..th4 (components against dx, dy, ds, dt)."""
    T = coframe_matrix(p)
    return tuple(T[i].copy() for i in range(4))


def to_frame(v: CoordVector, p) -> FrameVector:
    """Express a coordinate vector in the orthonormal frame at p."""
    return FrameVector(coframe_matrix(p) @ v.comp)


def to_coord(v: FrameVector, p) -> CoordVector:
    """Express a frame vector in the coordinate basis at p."""
    return CoordVector(frame_matrix(p).T @ v.comp)


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

    def component_jets(self, p) -> _JetArrays:
        """Jets ``(val[..., k], grad[..., a, k], hess[..., a, b, k])`` of the components in the field's own basis."""
        return _jets(self.components, p)

    def frame_component_jets(self, p) -> _JetArrays:
        """Jets of the frame components at p (converting if needed): th_j(X)."""
        return next(frame_jets_of([self], p))

    def coordinate_component_jets(self, p) -> _JetArrays:
        """Jets of the coordinate components at p (converting if needed): sum_j X_j e_j."""
        own = self.component_jets(p)
        if self.basis == "coordinate":
            return own
        return _apply(tuple(np.swapaxes(E, -1, -2) for E in frame_jets(p)), own)

    def frame_values(self, p) -> np.ndarray:
        return self.frame_component_jets(p)[0]

    def coordinate_values(self, p) -> np.ndarray:
        return self.coordinate_component_jets(p)[0]


def frame_jets_of(fields: Iterable[AnalyticVectorField], p) -> Iterator[_JetArrays]:
    """Jets of each field's frame components at p in turn, evaluating the coframe at most once for all of them."""
    coframe = None
    for X in fields:
        own = X.component_jets(p)
        if X.basis == "coordinate":
            coframe = coframe or coframe_jets(p)
            own = _apply(coframe, own)
        yield own


def coordinate_field(fx: Component, fy: Component, fs: Component, ft: Component) -> AnalyticVectorField:
    return AnalyticVectorField((fx, fy, fs, ft), "coordinate")


def frame_field(f1: Component, f2: Component, f3: Component, f4: Component) -> AnalyticVectorField:
    return AnalyticVectorField((f1, f2, f3, f4), "frame")


def constant_coordinate_field(comp) -> AnalyticVectorField:
    """Components comp[..., k]: one constant vector, or one per point of a batch."""
    return coordinate_field(*map(_const, np.moveaxis(np.asarray(comp, dtype=float), -1, 0)))


def constant_frame_field(comp) -> AnalyticVectorField:
    """Components comp[..., k]: one constant vector, or one per point of a batch."""
    return frame_field(*map(_const, np.moveaxis(np.asarray(comp, dtype=float), -1, 0)))
