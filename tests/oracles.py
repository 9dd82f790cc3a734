"""Finite-difference oracles, reference routes and random inputs shared by the test modules.

The oracles deliberately avoid the jet pipeline: derivatives come from
central differences on plain float evaluation, so agreement with the
package is a two-route check, not a tautology.  The reference routes at
the end do use the jets: the coordinate Christoffel symbols are the metric
route to the Laplacian's coefficients, the soliton family's hand-written
frame components the second route for the basis conversion, and the full
four-row geometry and coordinate-basis contractions and the frame-Hessian
rough Laplacian are the second routes for the live-direction contractions
and the product-rule Laplacian, the per-component quadratic field is
the second route for ``theorem3``'s closed form over a component axis, and
the metric dual's jets are the two-step lowering that the closedness
defect folds into one gradient, and the W-first horizontal tension is the
contraction order that the tension kernel reverses.
"""

from __future__ import annotations

import math

import numpy as np

from geoverify.chart import Point, _apply, _in_span, coframe_jets, coordinate_field, frame_field, frame_jets
from geoverify.chart import metric_jets
from geoverify.curvature import _nabla, geometry_at
from geoverify.harmonic import CorollaryFamily, _form, _horizontal_tension, _profile, _rough_laplacian, _stack
from geoverify.harmonic import corollary_field
from geoverify.jets import sqrt
from geoverify.soliton import SolitonParams, soliton_field

GRAD_STEP = 1e-4
HESS_STEP = 1e-3


def rand_point(rng: np.random.Generator) -> Point:
    return Point(
        rng.uniform(-2.0, 2.0),
        rng.uniform(-2.0, 2.0),
        rng.uniform(-2.0, 2.0),
        rng.uniform(0.5, 2.0),
    )


def _shift(p, k, h):
    q = list(p)
    q[k] += h
    return q


def fd_gradient(f, p, h: float = GRAD_STEP) -> np.ndarray:
    """Central differences d_k f, k first: shape (4,) for a scalar f, (4, *shape) for an array-valued one."""
    p = list(p)
    return np.array([(f(*_shift(p, k, h)) - f(*_shift(p, k, -h))) / (2.0 * h) for k in range(4)])


def fd_hessian_richardson(f, p, h: float = 2e-3) -> np.ndarray:
    """Richardson-extrapolated Hessian: kills the O(h^2) truncation term."""
    return (4.0 * fd_hessian(f, p, h / 2) - fd_hessian(f, p, h)) / 3.0


def fd_hessian(f, p, h: float = HESS_STEP) -> np.ndarray:
    """Central differences d_a d_b f, (a, b) first: shape (4, 4) for a scalar f, (4, 4, *shape) otherwise."""
    p = list(p)
    f0 = np.asarray(f(*p), dtype=float)
    out = np.empty((4, 4) + f0.shape)
    for k in range(4):
        out[k, k] = (f(*_shift(p, k, h)) - 2.0 * f0 + f(*_shift(p, k, -h))) / (h * h)
    for a in range(4):
        for b in range(a + 1, 4):
            pp = f(*_shift(_shift(p, a, h), b, h))
            pm = f(*_shift(_shift(p, a, h), b, -h))
            mp = f(*_shift(_shift(p, a, -h), b, h))
            mm = f(*_shift(_shift(p, a, -h), b, -h))
            out[a, b] = out[b, a] = (pp - pm - mp + mm) / (4.0 * h * h)
    return out


# closed-form metric data for the coordinate-formula oracles; these are the
# published matrices, entered independently of geoverify.chart
def metric_entries(x, y, s, t) -> np.ndarray:
    return np.array(
        [
            [1.0 / t, -s / t, 0.0, 0.0],
            [-s / t, (s * s + t * t) / t, 0.0, 0.0],
            [0.0, 0.0, 1.0 / (4 * t * t), 0.0],
            [0.0, 0.0, 0.0, 1.0 / (4 * t * t)],
        ]
    )


def inverse_metric_entries(x, y, s, t) -> np.ndarray:
    return np.array(
        [
            [t + s * s / t, s / t, 0.0, 0.0],
            [s / t, 1.0 / t, 0.0, 0.0],
            [0.0, 0.0, 4 * t * t, 0.0],
            [0.0, 0.0, 0.0, 4 * t * t],
        ]
    )


def frame_entries(x, y, s, t) -> np.ndarray:
    r = math.sqrt(t)
    return np.array(
        [
            [r, 0.0, 0.0, 0.0],
            [s / r, 1.0 / r, 0.0, 0.0],
            [0.0, 0.0, 2 * t, 0.0],
            [0.0, 0.0, 0.0, 2 * t],
        ]
    )


def coframe_entries(x, y, s, t) -> np.ndarray:
    r = math.sqrt(t)
    return np.array(
        [
            [1.0 / r, -s / r, 0.0, 0.0],
            [0.0, r, 0.0, 0.0],
            [0.0, 0.0, 1.0 / (2 * t), 0.0],
            [0.0, 0.0, 0.0, 1.0 / (2 * t)],
        ]
    )


def sqrt_det_metric(x, y, s, t) -> float:
    # the x/y block has unit determinant, so sqrt(det g) = 1/(4 t^2)
    return 1.0 / (4.0 * t * t)


def fd_christoffel(p, h: float = GRAD_STEP) -> np.ndarray:
    """Gamma^k_ij from central differences of the metric entries."""
    p = list(p)
    dg = np.empty((4, 4, 4))
    for m in range(4):
        gp = metric_entries(*_shift(p, m, h))
        gm = metric_entries(*_shift(p, m, -h))
        dg[m] = (gp - gm) / (2.0 * h)
    ginv = inverse_metric_entries(*p)
    S = dg + dg.transpose(1, 0, 2) - dg.transpose(2, 1, 0)
    return 0.5 * np.einsum("kd,abd->kab", ginv, S)


def fd_laplace_beltrami(f, p, h: float = HESS_STEP) -> float:
    """Divergence-form Laplacian (1/sqrt g) d_a (sqrt g g^{ab} d_b f) by nested FD."""

    def flux(a, q):
        return sqrt_det_metric(*q) * float(inverse_metric_entries(*q)[a] @ fd_gradient(f, q, h))

    p = list(p)
    total = 0.0
    for a in range(4):
        total += (flux(a, _shift(p, a, h)) - flux(a, _shift(p, a, -h))) / (2.0 * h)
    return total / sqrt_det_metric(*p)


def fd_lie_derivative_metric(xi_components, p, h: float = GRAD_STEP) -> np.ndarray:
    """(L_xi g)_ab in coordinates from FD partials of g and the field."""
    p = list(p)
    g = metric_entries(*p)
    dg = np.empty((4, 4, 4))
    for m in range(4):
        dg[m] = (metric_entries(*_shift(p, m, h)) - metric_entries(*_shift(p, m, -h))) / (2.0 * h)
    xi = np.array([float(c(*p)) for c in xi_components])
    dxi = np.empty((4, 4))  # dxi[a, c] = d_a xi^c
    for a in range(4):
        qp, qm = _shift(p, a, h), _shift(p, a, -h)
        dxi[a] = [(c(*qp) - c(*qm)) / (2.0 * h) for c in xi_components]
    return np.einsum("c,cab->ab", xi, dg) + np.einsum("ac,cb->ab", dxi, g) + np.einsum("bc,ac->ab", dxi, g)


# ---------------------------------------------------------------------------
# random closed-form expressions for the jet-vs-FD sweeps


def random_expression(rng: np.random.Generator, max_depth: int = 4):
    """A random guarded expression in (x, y, s, t), safe on the sampling box.

    Division, square roots and fractional powers only ever see arguments
    bounded away from their branch points, so both the jet and the FD
    evaluation stay well conditioned.
    """
    from geoverify.jets import sqrt as jsqrt

    def build(depth):
        roll = rng.uniform()
        if depth <= 0 or roll < 0.25:
            if rng.uniform() < 0.7:
                k = int(rng.integers(0, 4))
                return lambda x, y, s, t: (x, y, s, t)[k]
            c = float(rng.uniform(0.5, 2.0))
            return lambda x, y, s, t: c
        if roll < 0.45:
            u = build(depth - 1)
            kind = int(rng.integers(0, 4))
            if kind == 0:
                return lambda x, y, s, t: jsqrt(0.5 + u(x, y, s, t) ** 2)
            if kind == 1:
                return lambda x, y, s, t: 1.0 / (1.0 + u(x, y, s, t) ** 2)
            if kind == 2:
                r = float(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.5, 2.0, 3.0]))
                return lambda x, y, s, t: (0.5 + u(x, y, s, t) ** 2) ** r
            return lambda x, y, s, t: -u(x, y, s, t)
        a, b = build(depth - 1), build(depth - 1)
        kind = int(rng.integers(0, 4))
        if kind == 0:
            return lambda x, y, s, t: a(x, y, s, t) + b(x, y, s, t)
        if kind == 1:
            return lambda x, y, s, t: a(x, y, s, t) - b(x, y, s, t)
        if kind == 2:
            return lambda x, y, s, t: a(x, y, s, t) * b(x, y, s, t)
        return lambda x, y, s, t: a(x, y, s, t) / (1.0 + b(x, y, s, t) ** 2)

    return build(max_depth)


def tame_expression_at(rng: np.random.Generator, bound: float = 200.0):
    """(expression, point) pair with value, gradient and Hessian below ``bound``."""
    from geoverify.jets import point_jets

    while True:
        expr = random_expression(rng)
        p = rand_point(rng)
        jet = expr(*point_jets(p))
        if not hasattr(jet, "hess"):
            continue  # degenerate constant draw
        mags = (abs(jet.value), float(np.max(np.abs(jet.grad))), float(np.max(np.abs(jet.hess))))
        if math.isfinite(sum(mags)) and max(mags) <= bound:
            return expr, p, jet


def christoffel(p):
    """Metric jets g, dg and Gamma^c_ab = 1/2 g^{cd} (d_a g_bd + d_b g_ad - d_d g_ab), indexed [..., c, a, b], at a
    point or a (..., 4) batch: the chart's metric jets contracted with the independent inverse metric."""
    g, dg, _ = metric_jets(p)
    ginv = np.reshape([inverse_metric_entries(*q) for q in np.reshape(np.asarray(tuple(p)), (-1, 4))], g.shape)
    S = dg + np.swapaxes(dg, -3, -2) - np.swapaxes(dg, -3, -1)  # S[a,b,d]
    return g, dg, 0.5 * np.einsum("...cd,...abd->...cab", ginv, S)


def soliton_frame_components(params: SolitonParams):
    """The soliton family of :func:`geoverify.soliton.soliton_field` written directly in frame components."""
    c1, c2, c3, c4, c5 = params.constants()
    u = lambda x, y: c1 * x + (c2 + 12.0) * y - 2.0 * c4  # -2 xi^y
    return frame_field(
        lambda x, y, s, t: 0.5 / sqrt(t) * ((c2 - 12.0) * x + 2.0 * c3 * y + 2.0 * c5 + s * u(x, y)),
        lambda x, y, s, t: -0.5 * sqrt(t) * u(x, y),
        lambda x, y, s, t: (c1 * (s * s - t * t) + 2.0 * c2 * s + 2.0 * c3) / (4.0 * t),
        lambda x, y, s, t: 0.5 * (c1 * s + c2),
    )


def four_row_geometry(P) -> dict:
    """The geometry's arrays with every derivative index contracted over all four coordinates, zero rows included.

    The reference for :func:`geoverify.curvature._build`, which contracts the live coordinates only: the same
    formulas, from the chart's frame and coframe jets, written out here as they read before any row was dropped.
    """
    E, dE, d2E = frame_jets(P)
    T, dT, _ = coframe_jets(P)
    koszul = lambda c: 0.5 * (c - np.einsum("...ikj->...ijk", c) - np.einsum("...jki->...ijk", c))
    D = np.einsum("...ia,...ajb->...ijb", E, dE)
    dD = np.einsum("...mia,...ajb->...mijb", dE, dE) + np.einsum("...ia,...majb->...mijb", E, d2E)
    B, dB = D - np.swapaxes(D, -3, -2), dD - np.swapaxes(dD, -3, -2)
    c = np.einsum("...ijb,...kb->...ijk", B, T)
    dc = np.einsum("...mijb,...kb->...mijk", dB, T) + np.einsum("...ijb,...mkb->...mijk", B, dT)
    fc, dfc = koszul(c), koszul(dc)
    A = np.einsum("...ia,...ajkl->...ijkl", E, dfc) + np.einsum("...jkm,...iml->...ijkl", fc, fc)
    tau = np.einsum("...iim->...m", fc)
    return {
        "E": E,
        "dfc": dfc,
        "fc": fc,
        "Rfr": A - np.swapaxes(A, -4, -3) - np.einsum("...ijm,...mkl->...ijkl", c, fc),
        "G": np.swapaxes(E, -1, -2) @ E,
        "v": np.einsum("...iib->...b", D) - np.einsum("...m,...mb->...b", tau, E),
        "C": 2 * np.einsum("...ia,...ikj->...akj", E, fc),
        "M": np.einsum("...iikj->...kj", A) - np.einsum("...m,...mkj->...kj", tau, fc),
    }


def four_row_coordinate_basis(geo, P):
    """The reference for :func:`geoverify.harmonic._coordinate_basis`, which contracts the coframe's derivatives over
    the geometry's live rows only: the same formulas on the dense coframe jets at P, over all four rows, d_l's column
    first."""
    T, dT, d2T = (np.moveaxis(a, -1, 0) for a in (*geo.coframe, coframe_jets(P)[2]))
    K2 = np.einsum("...ab,l...bj->l...aj", 2 * geo.G, dT) + np.einsum("...akj,l...k->l...aj", geo.C, T)
    lap = np.einsum("...ab,l...abk->l...k", geo.G, d2T) + np.einsum("...b,l...bk->l...k", geo.v, dT)
    L = lap + np.einsum("...akj,l...ak->l...j", geo.C, dT) + np.einsum("l...k,...kj->l...j", T, geo.M)
    return T, K2, L


def single_direction_stack(rng, batch):
    """Fields f d_l as the profiles f(x, y, s, t, power) of :func:`geoverify.harmonic._form` and their directions l:
    the four families with constants per point of the batch, the witnesses' members at (c1, c2) = (1, 0) and (0, 1),
    and shifted power laws along d/ds and d/dt."""
    c = rng.uniform(-3.0, 3.0, (4, 2) + batch)
    families = [CorollaryFamily(k, *c[k - 1]) for k in (1, 2, 3, 4)]
    families += [CorollaryFamily(k, *c1c2) for c1c2 in ((1.0, 0.0), (0.0, 1.0)) for k in (1, 2, 3, 4)]
    power_law = lambda a: lambda x, y, s, t, power: power(a)
    return [_profile(f) for f in families] + [power_law(1.3), power_law(0.2)], [f.index - 1 for f in families] + [2, 3]


def stack_route(P, profiles, dirs):
    """Each stack member's rough Laplacian and horizontal tension, taken from one stack as the checks take them: its
    first-order frame-component jets from the profiles' rows, embedded in all four, and the directions' coframe
    columns."""
    geo = geometry_at(P)
    lap, (f, df), rows = _stack(geo, _form(profiles), dirs, P)
    T, dT = (np.einsum("...l->l...", a)[dirs, ..., None] for a in geo.coframe[:2])
    return lap, _horizontal_tension(geo, *_apply((T, dT), (f, _in_span(df, rows, -2))))


def as_field(f, l):
    """The single-direction field f d_l, its profile f(x, y, s, t, power) alone in a form, as a four-component
    coordinate field."""
    form = _form([f])
    return coordinate_field(*((lambda *q: form(*q)[0][0]) if k == l else (lambda x, y, s, t: 0.0) for k in range(4)))


def product_rule_fields(rng, batch=()):
    """Coordinate-basis fields, with constants per point of the batch: the four corollary families, a soliton and an
    (s, t)-quadratic field."""
    c = rng.uniform(-3.0, 3.0, batch + (2,))
    fields = [corollary_field(CorollaryFamily(k, *c.T)) for k in (1, 2, 3, 4)]
    fields.append(soliton_field(SolitonParams(*rng.uniform(-3.0, 3.0, batch + (5,)).T)))
    q = rng.uniform(-1.0, 1.0, (4, 6) + batch)
    quadratic = lambda a: lambda x, y, s, t: a[0] + a[1] * s + a[2] * t + a[3] * s * s + a[4] * s * t + a[5] * t * t
    return fields + [coordinate_field(*(quadratic(q[k]) for k in range(4)))]


def frame_hessian_laplacian(X, P):
    """The rough Laplacian by the frame route, on frame-component jets converted to second order."""
    geo = geometry_at(P)
    return _rough_laplacian(geo, *X.frame_component_jets(P))


def polynomial_field(coeffs: np.ndarray):
    """Frame field whose components are quadratic polynomials in (s, t), coeffs[..., k, :] for component k: one closed
    form per component, the reference for ``theorem3``'s one closed form over a leading component axis."""

    def make(c):
        return lambda x, y, s, t: (
            c[..., 0] + c[..., 1] * s + c[..., 2] * t + c[..., 3] * s * s + c[..., 4] * s * t + c[..., 5] * t * t
        )

    return frame_field(*(make(coeffs[..., k, :]) for k in range(4)))


def dual_one_form_jets(metric, xi, p):
    """Value w[..., b] and gradient dw[..., m, b] of the metric dual w_b = g_ba xi^a, from metric jets of any order and
    the field's coordinate jets: the reference for ``soliton._closedness_defect``, which forms only dw."""
    g, dg = metric[:2]
    v, dv = xi.coordinate_component_jets(p, order=1)
    w = np.einsum("...ba,...a->...b", g, v)
    return w, np.einsum("...mba,...a->...mb", dg, v) + np.einsum("...ma,...ba->...mb", dv, g)


def w_first_horizontal_tension(geo, val, grad):
    """sum_i R(X, nabla_{e_i} X) e_i by way of W_bik = sum_a X_a R_abik, then sum_ib A_ib W_bik: the reference for
    :func:`geoverify.harmonic._horizontal_tension`, which contracts nabla X with the curvature first."""
    A = _nabla(geo, val, grad)
    return np.einsum("...ib,...bik->...k", A, np.einsum("...a,...abik->...bik", val, geo.Rfr))
