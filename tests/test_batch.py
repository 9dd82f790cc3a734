"""Batched evaluation: a (N, 4) batch must give what N single-point calls give.

A single point is batch shape () on the same code path, so these tests
compare the two shapes of one computation; the independent routes are
the oracles and cross-checks elsewhere in the suite.
"""

import numpy as np
import pytest

from geoverify import chart, curvature, harmonic, soliton
from geoverify.chart import FrameVector, constant_frame_field, coordinate_field
from geoverify.checks import CHECK_NAMES, RunConfig, run_suite
from geoverify.harmonic import CorollaryFamily, corollary_field
from geoverify.jets import DomainError, point_jets, reciprocal, sqrt
from geoverify.soliton import SolitonParams

from oracles import rand_point

N = 50
REL = 1e-13


def assert_batch_matches(batch, singles):
    """Entry by entry, to REL relative to the entry's scale (at least 1)."""
    singles = np.array(singles, dtype=float)
    batch = np.asarray(batch, dtype=float)
    assert batch.shape == singles.shape
    assert np.all(np.abs(batch - singles) <= REL * np.maximum(np.abs(singles), 1.0))


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(501)
    pts = [rand_point(rng) for _ in range(N)]
    return pts, np.array([p.astuple() for p in pts]), rng


def xy_field():
    """A coordinate-basis field depending on all four variables (exercises the coframe conversion)."""
    return coordinate_field(
        lambda x, y, s, t: x * t - y,
        lambda x, y, s, t: s + 0.5 * y * y,
        lambda x, y, s, t: t * t - s * x,
        lambda x, y, s, t: 0.3 * t * s,
    )


def test_geometry_batch_matches_single_points(batch):
    pts, P, rng = batch
    geo = curvature.geometry_at(P)
    for name in ("g", "dg", "E", "dE", "Gamma", "fc", "dfc", "Rfr"):
        assert_batch_matches(getattr(geo, name), [getattr(curvature.geometry_at(p), name) for p in pts])
    for fn in (
        curvature.frame_connection,
        curvature.ricci_frame,
        curvature.riemann_frame_table,
        curvature.scalar_curvature,
    ):
        assert_batch_matches(fn(P), [fn(p) for p in pts])
    vs = rng.uniform(-3.0, 3.0, (N, 4))
    assert_batch_matches(
        curvature.coercivity_check(P, FrameVector(vs), -6.0),
        [curvature.coercivity_check(p, FrameVector(v), -6.0) for p, v in zip(pts, vs)],
    )


def test_soliton_batch_matches_single_points(batch):
    pts, P, rng = batch
    c = rng.uniform(-3.0, 3.0, (N, 5))  # per-point constants, one array per constant
    xi = soliton.soliton_field(SolitonParams(*c.T))
    singles = [soliton.soliton_field(SolitonParams(*ci)) for ci in c]
    assert_batch_matches(
        soliton.soliton_residual(xi, -6.0, P), [soliton.soliton_residual(f, -6.0, p) for f, p in zip(singles, pts)]
    )
    defects = [soliton.closedness_defect(f, p) for f, p in zip(singles, pts)]
    assert_batch_matches(soliton.closedness_defect(xi, P), defects)
    for k in range(4):
        assert_batch_matches(
            soliton.scalar_laplacian(xi.components[k], P),
            [soliton.scalar_laplacian(f.components[k], p) for f, p in zip(singles, pts)],
        )


def test_harmonic_batch_matches_single_points(batch):
    pts, P, rng = batch
    X = xy_field()
    for fn in (harmonic.rough_laplacian, harmonic.horizontal_tension):
        assert_batch_matches(fn(X, P), [fn(X, p) for p in pts])
    tension = harmonic.harmonic_map_residual(X, P)
    singles = [harmonic.harmonic_map_residual(X, p) for p in pts]
    assert_batch_matches(tension.horizontal, [s.horizontal for s in singles])
    assert_batch_matches(tension.vertical, [s.vertical for s in singles])
    assert_batch_matches(tension.max_component(), [s.max_component() for s in singles])

    c = rng.uniform(-3.0, 3.0, (N, 2))
    for k in (1, 2, 3, 4):
        fam = corollary_field(CorollaryFamily(k, *c.T))
        singles = [corollary_field(CorollaryFamily(k, *ci)) for ci in c]
        assert_batch_matches(
            harmonic.harmonic_section_residual(fam, P),
            [harmonic.harmonic_section_residual(f, p) for f, p in zip(singles, pts)],
        )


def test_batched_hessians_are_exactly_symmetric(batch):
    _, P, _ = batch
    for X in (xy_field(), corollary_field(CorollaryFamily(3, 1.2, -0.7))):
        _, _, hess = X.frame_component_jets(P)  # [point, a, b, component]
        assert np.array_equal(hess, np.swapaxes(hess, -3, -2))
    _, _, d2g = curvature.metric_jets(P)  # [point, m, n, a, b]
    assert np.array_equal(d2g, np.swapaxes(d2g, 1, 2))


# -- Jet2 with a batch shape -------------------------------------------


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
            assert_batch_matches(got.value[i], want.value)
            assert_batch_matches(got.grad[i], want.grad)
            assert_batch_matches(got.hess[i], want.hess)
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


def test_frame_jets_of_matches_each_field_and_evaluates_the_coframe_once(batch, monkeypatch):
    _, P, _ = batch
    fields = [xy_field(), constant_frame_field([1.0, -2.0, 0.5, 3.0]), corollary_field(CorollaryFamily(3, 1.0, 0.5))]
    singles = [X.frame_component_jets(P) for X in fields]
    calls = []
    coframe_jets = chart.coframe_jets
    monkeypatch.setattr(chart, "coframe_jets", lambda p: calls.append(np.shape(p)) or coframe_jets(p))
    together = list(chart.frame_jets_of(fields, P))
    assert calls == [P.shape]
    for one, many in zip(singles, together):
        assert all(np.array_equal(a, b) for a, b in zip(one, many))  # the same conversion, bit for bit
    list(chart.frame_jets_of(fields[1:2], P))
    assert calls == [P.shape]  # frame-basis fields need no coframe


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_checks_build_geometry_once_and_never_per_point(name, monkeypatch):
    builds, coframes = [], []
    build, coframe_jets = curvature._build, chart.coframe_jets
    monkeypatch.setattr(curvature, "_build", lambda p: builds.append(np.shape(p)) or build(p))
    monkeypatch.setattr(chart, "coframe_jets", lambda p: coframes.append(np.shape(p)) or coframe_jets(p))
    before = curvature._geometry.cache_info()
    run_suite(name, RunConfig(points=50))
    after = curvature._geometry.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    # one build over all 50 points (nongradient needs metric jets only)
    assert [int(np.prod(shape[:-1])) for shape in builds] == ([] if name == "nongradient" else [50])
    # and at most one coframe, however many coordinate-basis fields the check converts
    assert [int(np.prod(shape[:-1])) for shape in coframes] in ([], [50])
