"""A gauge-rotated frame control.

In the chart's left-invariant frame the connection coefficients are
constant, so ``dfc`` vanishes and no term that multiplies it (the
e_i(fc) term of Cartan's structure equation, the connection-derivative
term of the rough Laplacian) is ever exercised by the F4 checks.  Here the
chart's one closed form for the frame and coframe is replaced by R(p)
times its tables, where R(p) rotates the (e1, e2) and (e3, e4) planes by
point-dependent angles.  The metric is the same, ``fc`` varies, and every
frame tensor must transform by R while scalars and vanishing residuals
stay as they are.

Only batches are evaluated, so the single-point geometry cache never
holds rotated geometry.
"""

import numpy as np
import pytest

from geoverify import chart, curvature, harmonic, soliton
from geoverify.chart import _frames
from geoverify.harmonic import CorollaryFamily, corollary_field
from geoverify.jets import reciprocal
from geoverify.soliton import SolitonParams
from geoverify.tables import RICCI_FRAME, SCALAR_CURVATURE, full_curvature_tensor

from oracles import as_field, christoffel, four_row_coordinate_basis, four_row_geometry, frame_hessian_laplacian
from oracles import inverse_metric_entries, product_rule_fields, single_direction_stack, stack_route

N = 200
TOL = 1e-11


def _cayley(u):
    """Cosine and sine of the angle 2 arctan(u), from + - * and reciprocal only."""
    w = reciprocal(1.0 + u * u)
    return (1.0 - u * u) * w, 2.0 * u * w


def _rotation(x, y, s, t):
    a, b = _cayley(s * t / 3.0)
    c, d = _cayley(x * 0.5)
    return (a, -b, 0.0, 0.0), (b, a, 0.0, 0.0), (0.0, 0.0, c, -d), (0.0, 0.0, d, c)


def _rotated(frames, rotation=_rotation):
    """The closed form R(p) @ grid(p) for the frame and the coframe grids: rows are the rotated elements."""

    def rotated(x, y, s, t):
        R = rotation(x, y, s, t)
        rotate = lambda M: tuple(tuple(sum(R[i][k] * M[k][a] for k in range(4)) for a in range(4)) for i in range(4))
        return tuple(map(rotate, frames(x, y, s, t)))

    return rotated


def _twisted(x, y, s, t):
    """Angles that vary along their own planes (x along e1, s along e3), unlike :func:`_rotation`'s."""
    a, b = _cayley(0.3 * x + s * t / 3.0)
    c, d = _cayley(0.5 * x + 0.2 * s)
    return (a, -b, 0.0, 0.0), (b, a, 0.0, 0.0), (0.0, 0.0, c, -d), (0.0, 0.0, d, c)


@pytest.fixture
def rotated(monkeypatch):
    """Sampled points P and R(P), with the chart's shared frame and coframe closed form rotated by R."""
    P = np.random.default_rng(801).uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], (N, 4))
    R = chart._jets(_rotation, P)[0]
    monkeypatch.setattr(chart, "_frames", _rotated(chart._frames))
    return P, R


def test_rotated_frame_is_orthonormal_with_varying_connection(rotated):
    P, R = rotated
    E, T = chart.frame_jets(P)[0], chart.coframe_jets(P)[0]
    assert np.max(np.abs(T @ np.swapaxes(E, -1, -2) - np.eye(4))) < TOL
    assert np.max(np.abs(np.swapaxes(E, -1, -2) @ E - [inverse_metric_entries(*p) for p in P])) < TOL
    # the build reads the rotated frame, not the chart's: its E is R times the unrotated rows
    unrotated = chart._jets(lambda *q: _frames(*q)[0], P)[0]
    assert np.max(np.abs(E - R @ unrotated)) < TOL and np.max(np.abs(E - unrotated)) > 0.1
    assert np.array_equal(curvature.geometry_at(P).E, E)
    fc = curvature.frame_connection(P)
    assert np.max(np.ptp(fc, axis=0)) > 1.0  # the connection varies over the points
    # R depends on x, s and t, so the build contracts the derivative rows from x to t, y's exact zeros among them
    geo = curvature.geometry_at(P)
    assert geo._live == slice(0, 4)
    assert np.max(np.abs(geo._dfc)) > 1.0  # dfc, which the curvature and M read


def test_curvature_transforms_as_a_tensor(rotated):
    P, R = rotated
    expected = np.einsum("...ia,...jb,...kc,...ld,abcd->...ijkl", R, R, R, R, full_curvature_tensor())
    assert np.max(np.abs(curvature.riemann_frame_table(P) - expected)) < TOL
    expected = np.einsum("...ia,ab,...jb->...ij", R, RICCI_FRAME, R)
    assert np.max(np.abs(curvature.ricci_frame(P) - expected)) < TOL
    assert np.max(np.abs(curvature.scalar_curvature(P) - SCALAR_CURVATURE)) < TOL


def test_ricci_contraction_matches_the_trace_where_the_connection_varies(rotated):
    # on F4's own frame dfc = 0, so only here do the e_i(fc) terms of Ricci's own contraction count
    P, _ = rotated
    geo = curvature.geometry_at(P)
    trace = np.einsum("...iaaj->...ij", geo.Rfr)
    assert np.max(np.abs(geo._dfc)) > 5.0
    assert np.max(np.abs(geo.ric - trace)) <= 1e-13 * np.max(np.abs(trace))


def test_soliton_residual_still_vanishes(rotated):
    P, _ = rotated
    c = np.random.default_rng(802).uniform(-3.0, 3.0, (N, 5))  # one family member per point
    xi = soliton.soliton_field(SolitonParams(*c.T))
    assert np.max(np.abs(soliton.soliton_residual(xi, soliton.SOLITON_LAMBDA, P))) < TOL


def test_scalar_laplacian_coefficients_do_not_depend_on_the_frame(rotated):
    # the metric closed forms are not rotated, so the metric route gives the unrotated operator
    P, _ = rotated
    geo, ginv = curvature.geometry_at(P), np.array([inverse_metric_entries(*p) for p in P])
    assert np.max(np.abs(geo.G - ginv)) < TOL
    drift = -np.einsum("...ab,...cab->...c", ginv, christoffel(P)[2])
    assert np.max(np.abs(geo.v - drift)) < TOL


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_rough_laplacian_still_vanishes(rotated, index):
    P, _ = rotated
    c = np.random.default_rng(803).uniform(-3.0, 3.0, (N, 2))
    X = corollary_field(CorollaryFamily(index, *c.T))
    assert np.max(np.abs(harmonic.rough_laplacian(X, P))) < TOL


def test_live_direction_build_matches_the_four_row_contraction(rotated):
    P, _ = rotated
    geo, ref = curvature.geometry_at(P), four_row_geometry(P)
    for name in ("E", "fc", "Rfr", "G", "v", "C", "M"):
        assert np.max(np.abs(getattr(geo, name) - ref[name])) < 1e-13, name


@pytest.mark.parametrize("trace", ["_S"])
def test_each_koszul_trace_of_a_batchs_m_is_needed_where_the_connection_varies(trace, monkeypatch):
    # a batch's M takes S_kj = sum_i e_i(fc_ikj) = (P_kj - P_jk - Q_kj) / 2 from the traces P and Q, which vanish on
    # F4's own frame.  Q_kj = -d(tau)(e_k, e_j) for tau = tau_m th_m, and a rotation whose angles are constant along
    # their own planes, as the fixture's are, leaves tau as it is: there Q vanishes, so this frame twists both planes
    P = np.random.default_rng(806).uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], (N, 4))
    monkeypatch.setattr(chart, "_frames", _rotated(chart._frames, _twisted))
    ref, geo, mutant = four_row_geometry(P)["M"], curvature.geometry_at(P), curvature.geometry_at(P)
    assert np.max(np.abs(geo.M - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(getattr(geo, trace))) > 1.0
    vars(mutant)[trace] = 0.0 * getattr(mutant, trace)  # read before M, which then reads the zero
    assert np.max(np.abs(mutant.M - ref)) > 0.1


def test_product_rule_laplacian_matches_the_frame_hessian_route(rotated):
    P, _ = rotated
    for X in product_rule_fields(np.random.default_rng(804), (N,)):
        assert np.max(np.abs(harmonic.rough_laplacian(X, P) - frame_hessian_laplacian(X, P))) < 1e-12


def test_live_row_coordinate_basis_equals_the_four_row_contraction(rotated):
    # the live rows here are the span from x to t, all four, and y's rows are exact zeros contracted with the rest
    P, _ = rotated
    geo = curvature.geometry_at(P)
    for got, ref in zip(harmonic._coordinate_basis(geo), four_row_coordinate_basis(geo, P), strict=True):
        assert np.array_equal(got, ref)


def test_stack_members_equal_their_own_fields_bit_for_bit(rotated):
    P, _ = rotated
    profiles, dirs = single_direction_stack(np.random.default_rng(805), (N,))
    lap, tension = stack_route(P, profiles, dirs)
    for m, (f, l) in enumerate(zip(profiles, dirs)):
        X = as_field(f, l)
        assert np.array_equal(lap[m], harmonic.rough_laplacian(X, P)), m
        assert np.array_equal(tension[m], harmonic.horizontal_tension(X, P)), m
