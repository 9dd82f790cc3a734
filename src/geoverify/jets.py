"""Second-order jet arithmetic in the four chart variables (x, y, s, t).

A :class:`Jet2` carries the value, gradient and symmetric Hessian of a
scalar expression at a point, or at every point of a batch of shape ``S``
(``()`` for a single point), packed like forward-mode Taylor coefficients
over ``V``, the sorted chart variables it depends on, in one contiguous
array ``J`` of shape ``(1 + d + d * d,) + S`` for ``d = len(V)``, batch axes
last and in the floating dtype of the seeded point (float64 by default):
``J[0]`` is the value, ``J[1:1+d]`` the gradient, the rest the row-major
Hessian.  So a sum or a product with a constant is one numpy operation.
``value``, ``grad`` and ``hess`` are over all four variables.  On a batch,
each coordinate's 2-jet is seeded over itself, and jets meet in the layout
of the union of their variables, new slots exact zeros, so a closed form in
t or (s, t) carries 3 or 7 slots, not 21 (structural sparsity: Griewank &
Walther, *Evaluating Derivatives*, 2008, ch. 7).  A point and a first-order
batch stay dense: on a point a numpy call costs the same whatever its slot
count, and at 5 slots a union costs more than it saves.  The derivatives
are exact up to roundoff, which is what every curvature and residual
computation here is built on.  Jets have order 2, or 1 where no Hessian is
read: a first-order ``J`` holds the ``1 + d`` value and gradient slots, equal
to the 2-jet's bit for bit, since its products and chain rules skip the
Hessian terms (truncated Taylor propagation: ibid., ch. 13).

Expressions are ordinary Python callables written with ``+ - * / **``
and :func:`sqrt`; evaluated on floats they return floats, evaluated on
seeded jets they return the full 2-jet.  A constant in an expression is
a float or an ndarray of the batch shape (one value per point).

Every kernel contracts with ``_einsum``: numpy's C einsum, which ``np.einsum``
calls when ``optimize`` is off, bound once to skip ``np.einsum``'s Python
dispatch (about 0.7 us of a 2.2 us contraction at one point).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

NVARS = 4
NSLOTS = 1 + NVARS + NVARS * NVARS  # value, gradient, row-major Hessian
_SLOTS = {1: 1 + NVARS, 2: NSLOTS}  # packed slots of a dense jet of each order
_GRAD, _HESS, _SQUARE = slice(1, 1 + NVARS), slice(1 + NVARS, NSLOTS), (NVARS, NVARS)
_ALL, _OWN = tuple(range(NVARS)), tuple((k,) for k in range(NVARS))  # a dense jet's variables; a coordinate's own
try:  # the same function and bits as np.einsum(..., optimize=False)
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy 1.x names the module numpy.core, whose import warns under numpy 2
    _einsum = np.einsum

__all__ = ["DomainError", "Jet2", "point_jets", "sqrt", "reciprocal"]


class DomainError(ValueError):
    """Evaluation left the domain (t <= 0, a pole, a branch violation), first at flat batch ``index``."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def _require(ok, what: str):
    """Raise :class:`DomainError` at the first flat index where the numpy boolean ``ok`` is False."""
    if ok is not True and ok is not np.True_ and not ok.all():  # a scalar that holds needs no array reduction
        index = int(np.flatnonzero(~ok)[0])
        raise DomainError(f"{what} at batch index {index}", index)


class Jet2:
    """Value, gradient and Hessian of a scalar at a chart point or a batch of points, packed in ``J``.

    The derivatives are over the sorted variables ``V``, all four by default.  The Hessian is stored in full but every
    operation builds it from symmetric pieces, so ``hess == swapaxes(hess, -1, -2)`` holds bit for bit.  A first-order
    jet (``len(J) == 1 + len(V)``) has none.
    """

    __slots__ = ("J", "V")
    __array_ufunc__ = None  # ndarray (+-*/) Jet2 defers to the Jet2 operator

    def __init__(self, J: np.ndarray, V: tuple = _ALL):
        self.J, self.V = J, V

    value = property(lambda self: self.J[0])
    grad = property(lambda self: _dense(self)[_GRAD].transpose(_axes(1, self.J.ndim)))
    hess = property(
        lambda self: _dense(self)[_HESS].reshape(_SQUARE + self.J.shape[1:]).transpose(_axes(2, self.J.ndim + 1))
    )

    def __repr__(self):
        return f"Jet2(value={self.value!r}, grad={self.grad.tolist()!r})"

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        return _shift(self, other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.J, self.V)

    def __sub__(self, other):
        return _shift(self, other, operator.sub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            J, c = _with_constant(self.J, other)
            return Jet2(J * c, self.V)
        X, Y, V = self.J, other.J, self.V
        if V is not other.V or X.shape != Y.shape:  # at a single point every jet is dense, V the same tuple
            X, Y, V = _joint(self, other)
        u, v, n = X[0], Y[0], 1 + len(V)
        J = X * v + Y * u
        J[0] = u * v
        if len(J) > n:
            cross = X[1:n, None] * Y[None, 1:n]
            H = J[n:]
            H += (cross + cross.swapaxes(0, 1)).reshape(H.shape)  # symmetrized: exact Hessian symmetry
        return Jet2(J, V)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, r):
        r = float(r)
        v = np.asarray(self.J[0])  # overflows to inf, where a float power raises
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


@functools.cache
def _axes(lead: int, ndim: int) -> tuple[int, ...]:
    """Transpose axes that move the trailing batch axes of an ``ndim``-axis array in front of its ``lead`` others."""
    return tuple(range(lead, ndim)) + tuple(range(lead))


@functools.cache
def _moved(source: int, destination: int, ndim: int) -> tuple[int, ...]:
    """Transpose axes that move axis ``source`` of an ``ndim``-axis array to ``destination``, as ``np.moveaxis`` does
    without its per-call argument handling, which costs more than the view it makes."""
    order = [k for k in range(ndim) if k != source % ndim]
    order.insert(destination % ndim, source % ndim)
    return tuple(order)


def _lift(J: np.ndarray, shape: tuple) -> np.ndarray:
    """Packed jets J broadcast to the batch they share with ``shape``, new batch axes after the slot axis."""
    if shape == J.shape[1:] or not shape:
        return J
    batch = np.broadcast_shapes(J.shape[1:], shape)
    return np.broadcast_to(J.reshape(J.shape[:1] + (1,) * (len(batch) + 1 - J.ndim) + J.shape[1:]), J.shape[:1] + batch)


def _joint(a: Jet2, b: Jet2) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The packed jets of a and b broadcast to the batch they share (see :func:`_lift`), cut to the lower order of
    the two, in the layout over the union of their variables; and that union."""
    A, B, V = a.J, b.J, a.V
    if V != b.V:
        V, order = tuple(sorted({*V, *b.V})), min(_order(a), _order(b))
        A, B = _embed(a, V, order), _embed(b, V, order)
    elif A.shape == B.shape:
        return A, B, V
    n = min(len(A), len(B))  # truncated Taylor arithmetic: with a first-order operand, a result is first order only
    return _lift(A[:n], B.shape[1:]), _lift(B[:n], A.shape[1:]), V


def _order(f: Jet2) -> int:
    return 2 if len(f.J) > 1 + len(f.V) else 1


@functools.cache
def _index(V: tuple, U: tuple, order: int) -> slice | np.ndarray:
    """The slots, in the layout over the variables U, of a jet over V (a subset of U) to ``order``."""
    at, u = [U.index(k) for k in V], len(U)
    hess = [1 + u + i * u + j for i in at for j in at if order == 2]
    return slice(None) if V == U else np.array([0] + [1 + i for i in at] + hess)


def _embed(f: Jet2, U: tuple, order: int) -> np.ndarray:
    """f's packed jets cut to ``order``, in the layout over the variables U: the slots f.V lacks are exact zeros."""
    d, u = len(f.V), len(U)
    J = f.J[: 1 + d + d * d * (order - 1)]
    if f.V == U:
        return J
    out = np.zeros((1 + u + u * u * (order - 1),) + J.shape[1:], J.dtype)
    out[_index(f.V, U, order)] = J
    return out


def _dense(f: Jet2) -> np.ndarray:
    return _embed(f, _ALL, _order(f))  # over all four variables


def _with_constant(J: np.ndarray, c):
    """J broadcast against a constant c, and c: a number, or an array with one value per point."""
    if isinstance(c, (int, float)):
        return J, c
    c = np.asarray(c)
    return _lift(J, c.shape), c


def _shift(f: Jet2, other, op) -> Jet2:
    """f + other or f - other: one ``op`` on all the slots of two jets, or on the value slot of a copy of f."""
    if isinstance(other, Jet2):
        X, Y, V = _joint(f, other)
        return Jet2(op(X, Y), V)
    J, c = _with_constant(f.J, other)
    J = J.copy()
    J[0] = op(J[0], c)
    return Jet2(J, f.V)


def _compose(f: Jet2, h0, h1, h2) -> Jet2:
    """Chain rule for a scalar function h applied to jet f (h0=h(v), h1=h'(v), h2=h''(v))."""
    n = 1 + len(f.V)
    g = f.J[1:n]
    J = f.J * h1
    J[0] = h0
    if len(J) > n:
        H = J[n:]
        H += (h2 * (g[:, None] * g[None, :])).reshape(H.shape)  # the outer product is exactly symmetric
    return Jet2(J, f.V)


def point_jets(p, order: int = 2) -> tuple[Jet2, Jet2, Jet2, Jet2]:
    """The coordinate jets (x, y, s, t) of ``order`` 1 or 2 in p's dtype: own-variable 2-jets on a batch, else dense."""
    P = p if isinstance(p, np.ndarray) else np.asarray([p[i] for i in range(NVARS)])
    slots, dense = _SLOTS[order], P.ndim == 1 or order == 1  # a KeyError for an order other than 1 or 2
    J = np.zeros((NVARS, slots if dense else 3) + P.shape[:-1], np.result_type(P, 0.0))
    for k in range(NVARS):
        J[k, 0], J[k, 1 + k * dense] = P[..., k], 1.0
    return tuple(map(Jet2, J, (_ALL,) * NVARS if dense else _OWN))


def sqrt(u):
    """Square root for floats, arrays and jets; positive argument required."""
    if isinstance(u, Jet2):
        v = u.J[0]
        _require(~(v <= 0.0), "sqrt of non-positive value")
        r = np.sqrt(v)
        return _compose(u, r, 0.5 / r, -0.25 / (r * v))
    _require(~(np.asarray(u) <= 0.0), "sqrt of non-positive value")
    return np.sqrt(u)


def reciprocal(u):
    """1/u for floats, arrays and jets; nonzero argument required."""
    if isinstance(u, Jet2):
        v = u.J[0]
        _require(v != 0.0, "reciprocal of zero")
        w = 1.0 / v
        return _compose(u, w, -w * w, 2.0 * w * w * w)
    _require(np.asarray(u) != 0.0, "reciprocal of zero")
    return 1.0 / u
