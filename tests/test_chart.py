import numpy as np
import pytest

from geoverify import chart, harmonic
from geoverify.chart import (
    AnalyticVectorField,
    Point,
    coframe_jets,
    coordinate_field,
    frame_jets,
    frame_matrix,
    metric_at,
    metric_jets,
)
from geoverify.curvature import frame_connection, geometry_at, ricci_frame
from geoverify.jets import DomainError, point_jets, sqrt
from geoverify.soliton import SolitonParams, soliton_field

from oracles import (
    coframe_entries,
    fd_gradient,
    fd_hessian_richardson,
    frame_entries,
    inverse_metric_entries,
    metric_entries,
    rand_point,
    single_direction_stack,
)


def test_metric_reference_values():
    g = metric_at(Point(0.0, 0.0, 0.0, 1.0))
    np.testing.assert_allclose(g, np.diag([1.0, 1.0, 0.25, 0.25]), atol=0)

    g = metric_at(Point(0.0, 0.0, 1.0, 1.0))
    assert g[0, 1] == -1.0
    assert g[1, 1] == 2.0


def test_metric_inverse_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rand_point(rng)
        err = np.max(np.abs(metric_at(p) @ inverse_metric_entries(*p.astuple()) - np.eye(4)))
        assert err < 1e-12


def test_metric_block_structure():
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = metric_at(rand_point(rng))
        for i, j in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            assert g[i, j] == 0.0
            assert g[j, i] == 0.0


def test_frame_reference_values():
    e = frame_matrix(Point(0.0, 0.0, 0.0, 1.0))  # row i: e_{i+1} against the coordinate basis
    np.testing.assert_allclose(e[2], [0.0, 0.0, 2.0, 0.0], atol=0)
    np.testing.assert_allclose(e[3], [0.0, 0.0, 0.0, 2.0], atol=0)

    e = frame_matrix(Point(0.0, 0.0, 2.0, 4.0))
    np.testing.assert_allclose(e[1], [1.0, 0.5, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("batch", [(), (7,), (300,)])
def test_metric_and_frame_values_are_the_second_order_jets_values(batch, dtype):
    # metric_at and frame_matrix evaluate first-order jets, in the point's dtype; compare values, since a longdouble's
    # padding bytes are not part of its value
    P = np.random.default_rng(23).uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,)).astype(dtype)
    for got, want in ((metric_at(P), metric_jets(P)[0]), (frame_matrix(P), frame_jets(P)[0])):
        assert got.dtype == want.dtype == dtype and got.shape == batch + (4, 4) and np.array_equal(got, want)


def test_frame_is_orthonormal():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = rand_point(rng)
        E = frame_matrix(p)
        gram = E @ metric_at(p) @ E.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_coframe_duality():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = rand_point(rng)
        assert np.max(np.abs(coframe_jets(p)[0] @ frame_jets(p)[0].T - np.eye(4))) < 1e-12


def test_basis_conversion_examples():
    # a coordinate vector's frame components are the coframe rows applied to it, a frame vector's coordinate
    # components the frame rows combined by it
    v = coframe_jets(Point(0.0, 0.0, 0.0, 1.0))[0] @ [1.0, 0.0, 0.0, 0.0]
    np.testing.assert_allclose(v, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rand_point(rng)
        e4 = frame_matrix(p).T @ [0.0, 0.0, 0.0, 1.0]
        np.testing.assert_allclose(e4, [0.0, 0.0, 0.0, 2.0 * p.t], atol=1e-13)


def test_domain_validation():
    with pytest.raises(DomainError):
        Point(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        Point(0.0, 0.0, 0.0, -1.0)
    with pytest.raises(DomainError):
        geometry_at((0.0, 0.0, 0.0, -2.0))
    with pytest.raises(DomainError):
        metric_at((1.0, 1.0, 1.0, 0.0))


def test_a_point_of_another_length_is_an_error_naming_its_shape():
    # one point or a batch whose last axis is not 4 is neither truncated nor an IndexError
    for q in [(1.0, 2.0, 3.0, 1.0, 9.0), (1.0, 2.0, 1.0), np.ones((2, 5)), np.ones((5, 3))]:
        with pytest.raises(ValueError, match=rf"got shape \({np.shape(q)[0]},") as exc:
            frame_connection(q)
        assert not isinstance(exc.value, DomainError)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("slot", [0, 3])
def test_non_finite_coordinates_are_outside_the_domain(bad, slot):
    q = [0.5, 1.0, 0.3, 1.0]
    q[slot] = bad
    for make in (lambda: Point(*q), lambda: geometry_at(q), lambda: metric_at(q)):
        with pytest.raises(DomainError):
            make()
    # a batch names its first bad row, whether that row breaks finiteness or t > 0
    P = np.tile([0.5, 1.0, 0.3, 1.0], (5, 1))
    P[2], P[4, 3] = q, -1.0
    for batch, first in ((P, 2), (P[::-1], 0), (P.reshape(5, 1, 4), 2)):
        for evaluate in (metric_at, frame_matrix, geometry_at):
            with pytest.raises(DomainError) as exc:
                evaluate(batch)
            assert exc.value.index == first


@pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= 1024, reason="longdouble is float64 on this platform")
def test_a_finite_longdouble_beyond_float64s_range_is_in_the_domain():
    # math.isfinite reads a coordinate as a float, where 1e400 is inf; the point is finite, as it is in a batch
    big = np.longdouble("1e400")
    p = Point(0, 0, 0, big)
    ric, batch = ricci_frame(p), ricci_frame(np.array([p.astuple()]))
    assert ric.dtype == batch.dtype == np.longdouble and np.array_equal(ric, batch[0]) and np.all(np.isfinite(ric))
    for bad in (np.longdouble("inf"), np.longdouble("nan"), -big):
        with pytest.raises(DomainError):
            Point(0, 0, 0, bad)


@pytest.mark.parametrize("batch", [(), (1,), (7,), (300,), (3, 5)])
def test_packed_jets_are_the_dense_jets_on_their_variables(batch):
    # a closed form packed over the span of the variables its entries read, first to last, is the dense layout's rows
    # for them, bit for bit; the dense layout holds exact zeros in the rows of the variables no entry reads, in the
    # span or not.  A point's and a first-order batch's jets are dense: all four
    rng = np.random.default_rng(57)
    P = rng.uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,))
    soliton = soliton_field(SolitonParams(*rng.uniform(-3.0, 3.0, (5,) + batch)))
    forms = [
        (chart._frames, (2, 3)),
        (chart._metric, (2, 3)),
        (harmonic._form(single_direction_stack(rng, batch)[0]), (2, 3)),
        (lambda *q: tuple(f(*q) for f in soliton.components), (0, 1, 2, 3)),
        (lambda x, y, s, t: ((x * t, t * t), (x, 1.0)), (0, 3)),  # x and t: the span holds y and s too
    ]
    m = len(batch)  # the first derivative axis
    for f, read in forms:
        for order in (1, 2):
            packed, rows = chart._packed(f, P, order)
            dense, got = chart._jets(f, P, order), list(range(4)[rows])
            assert rows == (slice(read[0], read[-1] + 1) if batch and order == 2 else slice(0, 4))
            other = [k for k in range(4) if k not in read]
            assert np.array_equal(packed[0], dense[0])
            assert np.array_equal(packed[1], np.take(dense[1], got, axis=m))
            assert not np.any(np.take(dense[1], other, axis=m))
            if order == 2:
                assert np.array_equal(packed[2], np.take(np.take(dense[2], got, axis=m), got, axis=m + 1))
                assert not np.any(np.take(dense[2], other, axis=m)) and not np.any(np.take(dense[2], other, axis=m + 1))


def test_field_basis_tag_is_validated():
    zero = lambda x, y, s, t: 0.0
    with pytest.raises(ValueError):
        AnalyticVectorField((zero, zero, zero, zero), "mixed")


def test_coordinate_field_frame_conversion():
    # d/dy = sqrt(t) e2 - s t^(-1/2) e1
    dy = coordinate_field(*[lambda x, y, s, t, v=v: v for v in (0.0, 1.0, 0.0, 0.0)])
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = rand_point(rng)
        vals = dy.frame_component_jets(p)[0]
        expected = [-p.s / np.sqrt(p.t), np.sqrt(p.t), 0.0, 0.0]
        np.testing.assert_allclose(vals, expected, atol=1e-13)


def test_frame_component_jets_carry_derivatives():
    # coordinate field t^2 d/ds has frame component 3: none, component 2: t^2/(2t) = t/2
    f = coordinate_field(
        lambda x, y, s, t: 0.0,
        lambda x, y, s, t: 0.0,
        lambda x, y, s, t: t * t,
        lambda x, y, s, t: 0.0,
    )
    p = Point(0.3, -0.7, 1.1, 1.6)
    val, grad, hess = f.frame_component_jets(p)
    assert val[2] == pytest.approx(p.t / 2.0, rel=1e-14)
    assert grad[3, 2] == pytest.approx(0.5, abs=1e-14)
    assert hess[3, 3, 2] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "table, oracle",
    [
        (metric_jets, metric_entries),
        (frame_jets, frame_entries),
        (coframe_jets, coframe_entries),
    ],
)
def test_tables_match_independent_closed_forms(table, oracle):
    # the chart's jets of a whole batch against plain-float matrices differenced at each point
    rng = np.random.default_rng(21)
    P = np.array([rand_point(rng).astuple() for _ in range(50)])
    val, grad, hess = table(P)
    assert np.array_equal(hess, np.swapaxes(hess, 1, 2))
    for p, v, dv, d2v in zip(P, val, grad, hess):
        np.testing.assert_allclose(v, oracle(*p), rtol=1e-14, atol=0)
        fg, fh = fd_gradient(oracle, p), fd_hessian_richardson(oracle, p)
        assert np.max(np.abs(dv - fg) / np.maximum(1.0, np.abs(fg))) < 1e-6
        assert np.max(np.abs(d2v - fh) / np.maximum(1.0, np.abs(fh))) < 1e-7


@pytest.mark.parametrize("batch", [(), (7,), (300,), (3, 5)])
def test_jet_arrays_keep_their_shapes_with_the_batch_innermost_in_memory(batch):
    P = np.random.default_rng(22).uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,))
    scalar = lambda x, y, s, t: s * sqrt(t) + x * y
    vector = lambda x, y, s, t: (t * s, 1.0, x / t, scalar(x, y, s, t))
    for f, shape in ((scalar, ()), (vector, (4,)), (chart._frames, (2, 4, 4)), (chart._metric, (4, 4))):
        arrays = chart._jets(f, P)
        assert [a.shape for a in arrays] == [batch + d + shape for d in ((), (4,), (4, 4))]
        for a in arrays:  # moving the batch axes last gives the memory order, so each entry's batch is contiguous
            assert np.moveaxis(a, range(len(batch)), range(-len(batch), 0)).flags.c_contiguous
        hess = arrays[2]
        assert np.array_equal(hess, np.swapaxes(hess, len(batch), len(batch) + 1))
    jet = scalar(*point_jets(P)) / (point_jets(P)[3] ** 2 + 1.0)
    assert (jet.value.shape, jet.grad.shape, jet.hess.shape) == (batch, batch + (4,), batch + (4, 4))
    assert np.array_equal(jet.hess, np.swapaxes(jet.hess, -1, -2))
