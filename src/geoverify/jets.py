"""Second-order jet arithmetic in the four chart variables (x, y, s, t).

A :class:`Jet2` carries the value, gradient and symmetric Hessian of a
scalar expression at a point, or at every point of a batch: the value
has the batch shape ``S`` (``()`` for a single point), the gradient
``S + (4,)`` and the Hessian ``S + (4, 4)``.  Propagating jets through
the arithmetic operators gives first and second partial derivatives that
are exact up to roundoff, which is what every curvature and residual
computation in this package is built on.  Jets are capped at order 2:
nothing in the geometry of the model space needs a third derivative.

Expressions are ordinary Python callables written with ``+ - * / **``
and :func:`sqrt`; evaluated on floats they return floats, evaluated on
seeded jets they return the full 2-jet.  A constant in an expression is
a float or an ndarray of the batch shape (one value per point).
"""

from __future__ import annotations

import math

import numpy as np

NVARS = 4

__all__ = ["DomainError", "Jet2", "seed", "constant", "point_jets", "sqrt", "reciprocal"]


class DomainError(ValueError):
    """Evaluation left the domain (t <= 0, a pole, a branch violation), first at flat batch ``index``."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def _require(ok, what: str):
    """Raise :class:`DomainError` at the first flat index where the numpy boolean ``ok`` is False."""
    if not ok.all():
        index = int(np.flatnonzero(~ok)[0])
        raise DomainError(f"{what} at batch index {index}", index)


class Jet2:
    """Value, gradient and Hessian of a scalar at a chart point or a batch of points.

    The Hessian is stored in full but every operation builds it from
    symmetric pieces, so ``hess == swapaxes(hess, -1, -2)`` holds bit for bit.
    """

    __slots__ = ("value", "grad", "hess")
    __array_ufunc__ = None  # ndarray (+-*/) Jet2 defers to the Jet2 operator

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    def __repr__(self):
        return f"Jet2(value={self.value!r}, grad={self.grad.tolist()!r})"

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        return Jet2(self.value + np.asarray(other, dtype=float), self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)
        return Jet2(self.value - np.asarray(other, dtype=float), self.grad, self.hess)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            c = np.asarray(other, dtype=float)
            return Jet2(self.value * c, self.grad * c[..., None], self.hess * c[..., None, None])
        u, v = self.value[..., None], other.value[..., None]
        cross = self.grad[..., :, None] * other.grad[..., None, :]
        cross = cross + cross.swapaxes(-1, -2)  # symmetrize before accumulating: exact Hessian symmetry
        return Jet2(
            self.value * other.value,
            u * other.grad + v * self.grad,
            u[..., None] * other.hess + v[..., None] * self.hess + cross,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, r):
        r = float(r)
        v = np.asarray(self.value, dtype=float)  # overflows to inf, where a float power raises
        if not math.isfinite(r):
            raise DomainError(f"non-finite exponent {r}")
        if r == int(r):
            n = int(r)
            if n < 0:
                _require(v != 0.0, "negative power of zero")
            h1 = n * v ** (n - 1) if n != 0 else np.zeros_like(v)
            h2 = n * (n - 1) * v ** (n - 2) if n not in (0, 1) else np.zeros_like(v)
            return _compose(self, v**n, h1, h2)
        _require(~(v <= 0.0), "non-integer power of non-positive value")
        h0 = v**r
        return _compose(self, h0, r * h0 / v, r * (r - 1.0) * h0 / (v * v))


def _compose(f: Jet2, h0, h1, h2) -> Jet2:
    """Chain rule for a scalar function h applied to jet f (h0=h(v), h1=h'(v), h2=h''(v))."""
    g = f.grad
    outer = g[..., :, None] * g[..., None, :]  # exactly symmetric
    h1 = h1[..., None]
    return Jet2(h0, h1 * g, h1[..., None] * f.hess + h2[..., None, None] * outer)


def seed(p, k: int) -> Jet2:
    """Jet of the k-th coordinate function (0=x, 1=y, 2=s, 3=t) at a point or a (..., 4) batch p."""
    if not 0 <= k < NVARS:
        raise ValueError(f"variable index {k} out of range")
    P = p if isinstance(p, np.ndarray) else np.array([p[i] for i in range(NVARS)], dtype=float)
    value = P[..., k][()]  # a numpy scalar for a single point
    grad = np.zeros(value.shape + (NVARS,))
    grad[..., k] = 1.0
    return Jet2(value, grad, np.zeros(value.shape + (NVARS, NVARS)))


def constant(c) -> Jet2:
    """Jet of a constant: a float, or an ndarray with one value per point of a batch."""
    value = np.asarray(c, dtype=float)
    return Jet2(value, np.zeros(value.shape + (NVARS,)), np.zeros(value.shape + (NVARS, NVARS)))


def point_jets(p) -> tuple[Jet2, Jet2, Jet2, Jet2]:
    """The four coordinate jets (x, y, s, t) seeded at a point or a (..., 4) batch p."""
    return tuple(seed(p, k) for k in range(NVARS))


def sqrt(u):
    """Square root for floats, arrays and jets; positive argument required."""
    if isinstance(u, Jet2):
        v = u.value
        _require(~(v <= 0.0), "sqrt of non-positive value")
        r = np.sqrt(v)
        return _compose(u, r, 0.5 / r, -0.25 / (r * v))
    _require(~(np.asarray(u) <= 0.0), "sqrt of non-positive value")
    return np.sqrt(u)


def reciprocal(u):
    """1/u for floats, arrays and jets; nonzero argument required."""
    if isinstance(u, Jet2):
        v = u.value
        _require(v != 0.0, "reciprocal of zero")
        w = 1.0 / v
        return _compose(u, w, -w * w, 2.0 * w * w * w)
    _require(np.asarray(u) != 0.0, "reciprocal of zero")
    return 1.0 / u
