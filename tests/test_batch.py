"""Batched evaluation: a (N, 4) batch must give what N single-point calls give.

A single point is batch shape () on the same code path, so these tests
compare the two shapes of one computation; the independent routes are
the oracles and cross-checks elsewhere in the suite.  The points come in
float64 and in longdouble, and each public function must return the
points' dtype, at one point and on the batch.
"""

import numpy as np
import pytest

from geoverify import chart, checks, curvature, harmonic, soliton
from geoverify.chart import Point, constant_frame_field, coordinate_field
from geoverify.checks import CHECK_NAMES, RunConfig, run_suite
from geoverify.harmonic import CorollaryFamily, corollary_field
from geoverify.jets import DomainError, point_jets, reciprocal, sqrt
from geoverify.soliton import SolitonParams

from oracles import rand_point

N = 50
REL = 1e-13


def assert_batch_matches(batch, singles, dtype):
    """Both in ``dtype``, and entry by entry, to REL relative to the entry's scale (at least 1)."""
    singles = np.array(singles)
    assert np.result_type(batch) == singles.dtype == dtype
    assert batch.shape == singles.shape
    assert np.all(np.abs(batch - singles) <= REL * np.maximum(np.abs(singles), 1.0))


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(501)
    pts = [rand_point(rng) for _ in range(N)]
    return pts, np.array([p.astuple() for p in pts]), rng


def in_each_dtype(P):
    """The points P as single Points and as a batch, in float64 and then in longdouble: equal values, which a geometry
    cache keyed on the values alone would confuse."""
    return [([Point(*q) for q in Q], Q) for Q in (P, P.astype(np.longdouble))]


def xy_field():
    """A coordinate-basis field depending on all four variables (exercises the coframe conversion)."""
    return coordinate_field(
        lambda x, y, s, t: x * t - y,
        lambda x, y, s, t: s + 0.5 * y * y,
        lambda x, y, s, t: t * t - s * x,
        lambda x, y, s, t: 0.3 * t * s,
    )


def test_geometry_batch_matches_single_points(batch):
    _, P, rng = batch
    vs = rng.uniform(-3.0, 3.0, (N, 4))  # float64 components, which meet the points' dtype
    for pts, P in in_each_dtype(P):
        geo = curvature.geometry_at(P)
        for name in ("E", "fc", "Rfr", "G", "v", "C", "M"):
            assert_batch_matches(getattr(geo, name), [getattr(curvature.geometry_at(p), name) for p in pts], P.dtype)
        # d_m fc over the batch's live m, s and t; a point's jets are dense, so its live m are all four
        assert_batch_matches(geo._dfc, [curvature.geometry_at(p)._dfc[geo._live] for p in pts], P.dtype)
        for k in range(2):  # the carried coframe jets
            assert_batch_matches(geo.coframe[k], [curvature.geometry_at(p).coframe[k] for p in pts], P.dtype)
        assert_batch_matches(chart.coframe_jets(P)[2], [chart.coframe_jets(p)[2] for p in pts], P.dtype)
        for fn in (
            chart.metric_at,
            chart.frame_matrix,
            curvature.frame_connection,
            curvature.ricci_frame,
            curvature.riemann_frame_table,
            lambda p: curvature.riemann_frame(p, 3, 4, 3, 4),
            curvature.scalar_curvature,
        ):
            assert_batch_matches(fn(P), [fn(p) for p in pts], P.dtype)
        assert_batch_matches(
            curvature.coercivity_check(P, vs, -6.0),
            [curvature.coercivity_check(p, v, -6.0) for p, v in zip(pts, vs)],
            P.dtype,
        )


def test_soliton_batch_matches_single_points(batch):
    _, P, rng = batch
    c = rng.uniform(-3.0, 3.0, (N, 5))  # per-point constants, one array per constant
    xi = soliton.soliton_field(SolitonParams(*c.T))
    singles = [soliton.soliton_field(SolitonParams(*ci)) for ci in c]
    for pts, P in in_each_dtype(P):
        for fn in (
            lambda f, p: soliton.soliton_residual(f, -6.0, p),
            lambda f, p: soliton.soliton_system(f, -6.0, p),
            soliton.beta_matrix,
            soliton.lie_derivative_metric,
            soliton.closedness_defect,
        ):
            assert_batch_matches(fn(xi, P), [fn(f, p) for f, p in zip(singles, pts)], P.dtype)
        for k in range(4):
            assert_batch_matches(
                soliton.scalar_laplacian(xi.components[k], P),
                [soliton.scalar_laplacian(f.components[k], p) for f, p in zip(singles, pts)],
                P.dtype,
            )


def test_harmonic_batch_matches_single_points(batch):
    _, P, rng = batch
    X, c = xy_field(), rng.uniform(-3.0, 3.0, (N, 2))
    for pts, P in in_each_dtype(P):
        for fn in (harmonic.rough_laplacian, harmonic.horizontal_tension):
            assert_batch_matches(fn(X, P), [fn(X, p) for p in pts], P.dtype)
        for jets in (X.component_jets, X.frame_component_jets, X.coordinate_component_jets):
            for part, singles in zip(jets(P), zip(*map(jets, pts)), strict=True):
                assert_batch_matches(part, singles, P.dtype)
        tension = harmonic.harmonic_map_residual(X, P)
        singles = [harmonic.harmonic_map_residual(X, p) for p in pts]
        assert_batch_matches(tension.horizontal, [s.horizontal for s in singles], P.dtype)
        assert_batch_matches(tension.vertical, [s.vertical for s in singles], P.dtype)
        assert_batch_matches(tension.max_component(), [s.max_component() for s in singles], P.dtype)
        for k in (1, 2, 3, 4):
            fam = corollary_field(CorollaryFamily(k, *c.T))
            singles = [corollary_field(CorollaryFamily(k, *ci)) for ci in c]
            for fn in (
                harmonic.harmonic_section_residual,
                harmonic.harmonic_section_equations,
                harmonic.horizontal_tension_expanded,
            ):
                assert_batch_matches(fn(fam, P), [fn(f, p) for f, p in zip(singles, pts)], P.dtype)


def test_batched_hessians_are_exactly_symmetric(batch):
    _, P, _ = batch
    for X in (xy_field(), corollary_field(CorollaryFamily(3, 1.2, -0.7))):
        _, _, hess = X.frame_component_jets(P)  # [point, a, b, component]
        assert np.array_equal(hess, np.swapaxes(hess, -3, -2))
    _, _, d2g = chart.metric_jets(P)  # [point, m, n, a, b]
    assert np.array_equal(d2g, np.swapaxes(d2g, 1, 2))


# -- Jet2 with a batch shape -------------------------------------------


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("shape", [(1,), (7,), (300,), (3, 5)])
def test_batch_rows_equal_single_point_jets_bit_for_bit(shape, order):
    # a batch's 2-jets carry only the derivatives over the variables they depend on and are scattered into the dense
    # layout at the end; a single point's jets are dense throughout, so the two routes meet only in _jets' output
    rng = np.random.default_rng(19)
    P = rng.uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], shape + (4,))
    fields = [soliton.soliton_field(SolitonParams(*rng.uniform(-3.0, 3.0, 5)))]
    fields += [corollary_field(CorollaryFamily(k, *rng.uniform(-3.0, 3.0, 2))) for k in (1, 2, 3, 4)]
    forms = [chart._frames, chart._metric]
    forms += [lambda *q, X=X: tuple(f(*q) for f in X.components) for X in fields]
    for f in forms:
        rows = chart._jets(f, P, order)
        for i in np.ndindex(shape):
            assert all(np.array_equal(a[i], b) for a, b in zip(rows, chart._jets(f, P[i], order), strict=True))


def test_array_constants_on_either_side_match_per_point_scalars(batch):
    pts, P, rng = batch
    c = rng.uniform(0.5, 2.0, N)
    exprs = [
        lambda s, t, c: c + t,
        lambda s, t, c: t + c,
        lambda s, t, c: c - t,
        lambda s, t, c: t - c,
        lambda s, t, c: c * t * s,
        lambda s, t, c: s * t * c,
        lambda s, t, c: c / t,
        lambda s, t, c: (s * s + t) / c,
        lambda s, t, c: sqrt(c * t) + reciprocal(t * c),
        lambda s, t, c: (c + t) ** 2.5 - (t * c) ** -2,
    ]
    _, _, s, t = point_jets(P)
    for f in exprs:
        got = f(s, t, c)
        for i, p in enumerate(pts):
            _, _, si, ti = point_jets(p)
            want = f(si, ti, float(c[i]))
            assert_batch_matches(got.value[i], want.value, P.dtype)
            assert_batch_matches(got.grad[i], want.grad, P.dtype)
            assert_batch_matches(got.hess[i], want.hess, P.dtype)
        assert np.array_equal(got.hess, np.swapaxes(got.hess, -1, -2))


def test_domain_errors_name_the_first_bad_index():
    P = np.array([[0.0, 0.0, s, 1.0] for s in (1.0, 2.0, -1.0, 0.0, -2.0)])
    _, _, s, t = point_jets(P)
    with pytest.raises(DomainError, match="index 2") as exc:
        sqrt(s)
    assert exc.value.index == 2
    with pytest.raises(DomainError) as exc:
        reciprocal(s)
    assert exc.value.index == 3
    with pytest.raises(DomainError) as exc:
        _ = s**0.5
    assert exc.value.index == 2
    with pytest.raises(DomainError) as exc:
        _ = s**-1
    assert exc.value.index == 3
    with pytest.raises(DomainError) as exc:
        _ = t / np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    assert exc.value.index == 4
    # the index is flat over every batch axis
    _, _, s2, _ = point_jets(np.array([[[0.0, 0.0, 1.0, 1.0]] * 3, [[0.0, 0.0, -1.0, 1.0]] * 3]))
    with pytest.raises(DomainError) as exc:
        sqrt(s2)
    assert exc.value.index == 3
    # t > 0 is checked over the whole batch too
    with pytest.raises(DomainError) as exc:
        curvature.geometry_at(np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]]))
    assert exc.value.index == 1


# -- checks ----------------------------------------------------------------


def test_frame_component_jets_convert_with_the_carried_coframe_bit_for_bit(batch, monkeypatch):
    _, P, _ = batch
    fields = [xy_field(), constant_frame_field([1.0, -2.0, 0.5, 3.0]), corollary_field(CorollaryFamily(3, 1.0, 0.5))]
    own = [X.frame_component_jets(P) for X in fields]
    carried = curvature.geometry_at(P).coframe  # first order: the second takes d2T from the chart
    second = (*carried, chart.coframe_jets(P)[2])
    calls = []
    coframe_jets = chart.coframe_jets
    monkeypatch.setattr(chart, "coframe_jets", lambda p: calls.append(np.shape(p)) or coframe_jets(p))
    # the coframe a geometry carries converts them with no coframe evaluation, to either order
    given = [X.frame_component_jets(P, second) for X in fields]
    first = [X.frame_component_jets(P, carried, order=1) for X in fields]
    assert calls == []
    for one, two, first_order in zip(own, given, first):
        assert len(one) == len(two) == 3 and len(first_order) == 2
        assert all(np.array_equal(a, b) for a, b in zip(one, two))  # the same conversion, bit for bit
        assert all(np.array_equal(a, b) for a, b in zip(one, first_order))
    fields[1].frame_component_jets(P)
    fields[0].frame_component_jets(P, order=1)
    assert calls == [P.shape]  # frame-basis fields need no coframe


@pytest.mark.parametrize("name", ["nongradient", "theorem1"])
def test_first_order_checks_never_request_a_hessian(name, monkeypatch):
    calls, packed = [], chart._packed
    record = lambda f, p, order=2, dense=False: calls.append((f, order)) or packed(f, p, order, dense)
    monkeypatch.setattr(chart, "_packed", record)  # every closed form's evaluation, dense or not
    assert run_suite(name, RunConfig(points=50)).passed
    # the metric and the fields are first-order jets; only theorem1's geometry build differentiates twice, the frame
    assert [f for f, order in calls if order != 1] == ([] if name == "nongradient" else [chart._frames])
    assert len(calls) > 1


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_checks_build_geometry_once_and_never_per_point(name, monkeypatch):
    builds, coframes, metrics, build_jets = [], [], [], []
    build, coframe_jets = curvature._build, chart.coframe_jets
    monkeypatch.setattr(curvature, "_build", lambda p: builds.append(np.shape(p)) or build(p))
    record = lambda p, f=chart.frame_jets, **kw: build_jets.append(("frame_jets", kw)) or f(p, **kw)
    monkeypatch.setattr(curvature, "frame_jets", record)
    monkeypatch.setattr(chart, "coframe_jets", lambda p: coframes.append(np.shape(p)) or coframe_jets(p))
    metric_jets = lambda p, **kw: metrics.append(np.shape(p)) or chart.metric_jets(p, **kw)
    monkeypatch.setattr(soliton, "metric_jets", metric_jets)
    monkeypatch.setattr(checks, "metric_jets", metric_jets, raising=False)
    before = curvature._geometry.cache_info()
    run_suite(name, RunConfig(points=50))
    after = curvature._geometry.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    # one build over all 50 points (nongradient needs metric jets only)
    assert [int(np.prod(shape[:-1])) for shape in builds] == ([] if name == "nongradient" else [50])
    # and no coframe outside it, however many coordinate-basis fields the check converts: they use the build's
    assert coframes == []
    # outside a geometry build, nongradient evaluates the metric once on its sampled rows and once on its grid
    assert sorted(int(np.prod(shape[:-1])) for shape in metrics) == ([50, 625] if name == "nongradient" else [])
    # the build works in the frame: one evaluation of the frame and coframe together, and it reads no metric jets
    assert build_jets == [("frame_jets", {"coframe": True})] * len(builds) and not hasattr(curvature, "metric_jets")
