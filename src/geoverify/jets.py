"""Second-order jet arithmetic in the four chart variables (x, y, s, t).

A :class:`Jet2` carries the value, gradient and symmetric Hessian of a
scalar expression at a point.  Propagating jets through the arithmetic
operators gives first and second partial derivatives that are exact up
to roundoff, which is what every curvature and residual computation in
this package is built on.  Jets are capped at order 2: nothing in the
geometry of the model space needs a third derivative.

Expressions are ordinary Python callables written with ``+ - * / **``
and :func:`sqrt`; evaluated on floats they return floats, evaluated on
seeded jets they return the full 2-jet.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

NVARS = 4

__all__ = ["DomainError", "Jet2", "seed", "constant", "point_jets", "sqrt", "reciprocal"]


class DomainError(ValueError):
    """Evaluation left the domain: t <= 0, a pole, or a branch violation."""


def _as_value(other):
    if isinstance(other, numbers.Real):
        return float(other)
    return None


class Jet2:
    """Value, gradient and Hessian of a scalar at a chart point.

    The Hessian is stored as a full 4x4 array but every operation builds
    it from symmetric pieces, so ``hess == hess.T`` holds bit for bit.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value = float(value)
        self.grad = grad
        self.hess = hess

    def __repr__(self):
        return f"Jet2(value={self.value!r}, grad={self.grad.tolist()!r})"

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        c = _as_value(other)
        if c is not None:
            return Jet2(self.value + c, self.grad, self.hess)
        return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        c = _as_value(other)
        if c is not None:
            return Jet2(self.value - c, self.grad, self.hess)
        return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        c = _as_value(other)
        if c is not None:
            return Jet2(self.value * c, self.grad * c, self.hess * c)
        cross = np.outer(self.grad, other.grad)
        cross = cross + cross.T  # symmetrize before accumulating: exact Hessian symmetry
        return Jet2(
            self.value * other.value,
            self.value * other.grad + other.value * self.grad,
            self.value * other.hess + other.value * self.hess + cross,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = _as_value(other)
        if c is not None:
            if c == 0.0:
                raise DomainError("division by zero constant")
            return self * (1.0 / c)
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        c = _as_value(other)
        if c is None:
            return NotImplemented
        return reciprocal(self) * c

    def __pow__(self, r):
        r = float(r)
        v = np.float64(self.value)  # overflows to inf, where a float power raises
        if not math.isfinite(r):
            raise DomainError(f"non-finite exponent {r}")
        if r == int(r):
            n = int(r)
            if v == 0.0 and n < 0:
                raise DomainError("negative power of zero")
            h1 = n * v ** (n - 1) if n != 0 else 0.0
            h2 = n * (n - 1) * v ** (n - 2) if n not in (0, 1) else 0.0
            return _compose(self, v**n, h1, h2)
        if v <= 0.0:
            raise DomainError(f"non-integer power of non-positive value {v}")
        h0 = v**r
        return _compose(self, h0, r * h0 / v, r * (r - 1.0) * h0 / (v * v))


def _compose(f: Jet2, h0: float, h1: float, h2: float) -> Jet2:
    """Chain rule for a scalar function h applied to jet f (h0=h(v), h1=h'(v), h2=h''(v))."""
    outer = np.outer(f.grad, f.grad)  # exactly symmetric
    return Jet2(h0, h1 * f.grad, h1 * f.hess + h2 * outer)


def seed(p, k: int) -> Jet2:
    """Jet of the k-th coordinate function at point p (0=x, 1=y, 2=s, 3=t)."""
    if not 0 <= k < NVARS:
        raise ValueError(f"variable index {k} out of range")
    grad = np.zeros(NVARS)
    grad[k] = 1.0
    return Jet2(float(p[k]), grad, np.zeros((NVARS, NVARS)))


def constant(c: float) -> Jet2:
    return Jet2(float(c), np.zeros(NVARS), np.zeros((NVARS, NVARS)))


def point_jets(p) -> tuple[Jet2, Jet2, Jet2, Jet2]:
    """The four coordinate jets (x, y, s, t) seeded at p."""
    return tuple(seed(p, k) for k in range(NVARS))


def sqrt(u):
    """Square root for floats and jets; positive argument required."""
    if isinstance(u, Jet2):
        v = u.value
        if v <= 0.0:
            raise DomainError(f"sqrt of non-positive value {v}")
        r = math.sqrt(v)
        return _compose(u, r, 0.5 / r, -0.25 / (r * v))
    if u <= 0.0:
        raise DomainError(f"sqrt of non-positive value {u}")
    return math.sqrt(u)


def reciprocal(u):
    """1/u for floats and jets; nonzero argument required."""
    if isinstance(u, Jet2):
        v = u.value
        if v == 0.0:
            raise DomainError("reciprocal of zero")
        w = 1.0 / v
        return _compose(u, w, -w * w, 2.0 * w * w * w)
    if u == 0.0:
        raise DomainError("reciprocal of zero")
    return 1.0 / u
