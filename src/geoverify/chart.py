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
same definitions serve values, gradients and Hessians.

Vector quantities carry their basis explicitly: :class:`FrameVector`
components are against (e1..e4), :class:`CoordVector` components against
(d/dx, d/dy, d/ds, d/dt).  The two are never interchangeable without an
explicit conversion at a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .jets import DomainError, Jet2, constant, point_jets, sqrt

__all__ = [
    "Point",
    "as_point",
    "CoordVector",
    "FrameVector",
    "AnalyticVectorField",
    "coordinate_field",
    "frame_field",
    "constant_coordinate_field",
    "constant_frame_field",
    "metric_at",
    "inverse_metric_at",
    "frame_at",
    "coframe_at",
    "to_frame",
    "to_coord",
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


Component = Callable[..., object]  # (x, y, s, t) -> float | Jet2


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


def eval_component(f: Component, p) -> Jet2:
    """Evaluate a component function to a full 2-jet at p."""
    out = f(*point_jets(as_point(p)))
    if not isinstance(out, Jet2):
        out = constant(float(out))
    return out


def _eval_matrix_jets(entries, p: Point) -> list[list[Jet2]]:
    jets = point_jets(p)
    out = []
    for row in entries:
        jrow = []
        for f in row:
            v = f(*jets)
            jrow.append(v if isinstance(v, Jet2) else constant(float(v)))
        out.append(jrow)
    return out


def _values(jets: list[list[Jet2]]) -> np.ndarray:
    return np.array([[j.value for j in row] for row in jets])


def metric_at(p) -> np.ndarray:
    """Coordinate metric matrix (4x4) at p."""
    return _values(metric_jets(p))


def inverse_metric_at(p) -> np.ndarray:
    """Coordinate inverse metric matrix (4x4) at p."""
    return _values(inverse_metric_jets(p))


def frame_matrix(p) -> np.ndarray:
    """Rows are the coordinate components of e1..e4 at p."""
    return _values(frame_jets(p))


def coframe_matrix(p) -> np.ndarray:
    """Rows are the covector components of th1..th4 at p."""
    return _values(coframe_jets(p))


def metric_jets(p) -> list[list[Jet2]]:
    return _eval_matrix_jets(_METRIC, as_point(p))


def inverse_metric_jets(p) -> list[list[Jet2]]:
    return _eval_matrix_jets(_INVERSE_METRIC, as_point(p))


def frame_jets(p) -> list[list[Jet2]]:
    return _eval_matrix_jets(_FRAME, as_point(p))


def coframe_jets(p) -> list[list[Jet2]]:
    return _eval_matrix_jets(_COFRAME, as_point(p))


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

    def component_jets(self, p) -> list[Jet2]:
        """Jets of the components in the field's own basis."""
        return [eval_component(f, p) for f in self.components]

    def frame_component_jets(self, p) -> list[Jet2]:
        """Jets of the frame components at p (converting if needed)."""
        own = self.component_jets(p)
        if self.basis == "frame":
            return own
        T = coframe_jets(p)
        return [sum_jets(T[j][a] * own[a] for a in range(4)) for j in range(4)]

    def coordinate_component_jets(self, p) -> list[Jet2]:
        """Jets of the coordinate components at p (converting if needed)."""
        own = self.component_jets(p)
        if self.basis == "coordinate":
            return own
        E = frame_jets(p)
        return [sum_jets(E[j][a] * own[j] for j in range(4)) for a in range(4)]

    def frame_values(self, p) -> np.ndarray:
        return np.array([j.value for j in self.frame_component_jets(p)])

    def coordinate_values(self, p) -> np.ndarray:
        return np.array([j.value for j in self.coordinate_component_jets(p)])


def sum_jets(items) -> Jet2:
    total = None
    for it in items:
        total = it if total is None else total + it
    return total if total is not None else constant(0.0)


def coordinate_field(fx: Component, fy: Component, fs: Component, ft: Component) -> AnalyticVectorField:
    return AnalyticVectorField((fx, fy, fs, ft), "coordinate")


def frame_field(f1: Component, f2: Component, f3: Component, f4: Component) -> AnalyticVectorField:
    return AnalyticVectorField((f1, f2, f3, f4), "frame")


def constant_coordinate_field(comp) -> AnalyticVectorField:
    c = [float(v) for v in comp]
    return coordinate_field(*(_const(v) for v in c))


def constant_frame_field(comp) -> AnalyticVectorField:
    c = [float(v) for v in comp]
    return frame_field(*(_const(v) for v in c))
