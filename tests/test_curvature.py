import numpy as np
import pytest

from geoverify import curvature
from geoverify.chart import Point, frame_jets
from geoverify.curvature import (
    _build,
    coercivity_check,
    frame_connection,
    geometry_at,
    ricci_frame,
    riemann_frame,
    riemann_frame_table,
    scalar_curvature,
)
from geoverify.jets import DomainError
from geoverify.tables import CONNECTION_TABLE, CURVATURE_TABLE, RICCI_FRAME, full_curvature_tensor

from oracles import christoffel, fd_christoffel, four_row_geometry, inverse_metric_entries, rand_point


def test_christoffel_is_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(100):
        G = christoffel(rand_point(rng))[2]
        assert np.max(np.abs(G - G.transpose(0, 2, 1))) < 1e-12


def test_christoffel_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = rand_point(rng)
        got = christoffel(p)[2]
        ref = fd_christoffel(p.astuple())
        assert np.max(np.abs(got - ref)) < 1e-6


def test_metric_compatibility():
    rng = np.random.default_rng(13)
    for _ in range(50):
        g, dg, G = christoffel(rand_point(rng))
        nabla_g = dg - np.einsum("dab,dc->abc", G, g) - np.einsum("dac,bd->abc", G, g)
        assert np.max(np.abs(nabla_g)) < 1e-9


def test_laplacian_coefficients_match_the_metric_route():
    # Laplace-Beltrami: Lap f = g^{ab} d_a d_b f - g^{ab} Gamma^c_ab d_c f, so G = g^{-1} and v = -g^{ab} Gamma^c_ab
    rng = np.random.default_rng(16)
    P = np.array([rand_point(rng).astuple() for _ in range(100)])
    geo, ginv = geometry_at(P), np.array([inverse_metric_entries(*p) for p in P])
    assert np.all(np.abs(geo.G - ginv) <= 1e-14 * np.abs(ginv))
    # v vanishes on F4, while its frame terms e4(E_4t) and tau_4 E_4t are each 4t: it must cancel to roundoff
    ref = -np.einsum("...ab,...cab->...c", ginv, christoffel(P)[2])
    assert np.max(np.abs(geo.v - ref)) < 1e-13


GEOMETRY_ARRAYS = ("E", "fc", "Rfr", "G", "v", "C", "M")


@pytest.mark.parametrize("batch", [(), (1,), (7,), (300,), (1024,)])
def test_live_direction_build_is_bit_identical_to_the_four_row_contraction(batch):
    P = np.random.default_rng(17).uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,))
    geo, ref = _build(P), four_row_geometry(P)
    for name in GEOMETRY_ARRAYS:
        if name == "M" and batch != ():  # a batch takes M from the Koszul traces, not from dfc: a route of its own
            assert np.max(np.abs(geo.M - ref["M"])) <= 1e-13 * np.max(np.abs(ref["M"]))
        else:
            assert np.array_equal(getattr(geo, name), ref[name]), name
    # the live rows are the variables the frame and coframe jets carry: on a batch s and t, since F4's frame and
    # coframe depend on them alone, so the x and y rows, exact zeros, never form; at a point, whose jets are dense, all
    live = [0, 1, 2, 3] if batch == () else [2, 3]
    assert list(np.arange(4)[frame_jets(P, coframe=True)[1]]) == list(np.arange(4)[geo._live]) == live
    dfc = ref["dfc"]
    assert np.array_equal(geo._dfc, dfc[..., live, :, :, :]) and not np.any(dfc[..., :2, :, :, :])


@pytest.mark.parametrize("t, live", [(1e-320, [0, 1, 2, 3]), (1e-200, [0, 1, 2, 3]), (1e200, [2, 3])])
def test_nan_and_inf_derivative_rows_count_as_live(t, live):
    # where t under- or overflows a single point's dense jets, its x and y rows hold NaN or inf (0 * inf): ``live`` are
    # the point's rows with some derivative not exactly zero.  A point's live rows are all four, so those are contracted
    # like the others; a batch's jets carry s and t alone, so there the x and y rows never form
    P = np.array([[0.5, -1.0, 1.5, t], [1.0, 1.0, -0.3, 2.0 * t]])
    for points, rows in ((P[0], [0, 1, 2, 3]), (P, [2, 3])):
        with np.errstate(all="ignore"):  # the fields formed on read overflow too: read every one of them in here
            (_, dF, d2F), variables = frame_jets(points, coframe=True)
            geo, ref = _build(points), four_row_geometry(points)
            got = {name: getattr(geo, name) for name in GEOMETRY_ARRAYS + ("ric",)}
        assert list(np.arange(4)[variables]) == list(np.arange(4)[geo._live]) == rows
        if points.ndim == 1:
            nonzero = np.any(dF != 0.0, axis=(1, 2, 3)) | np.any(d2F != 0.0, axis=(1, 2, 3, 4))
            assert list(np.flatnonzero(nonzero)) == live
        for name in GEOMETRY_ARRAYS:
            if name == "M" and points.ndim == 2:  # the Koszul traces' G d2E term is non-finite where G is (t = 1e200)
                finite = np.isfinite(ref["M"]) & np.isfinite(got["G"]).all(axis=(-2, -1))[..., None, None]
                assert np.array_equal(np.isfinite(got["M"]), finite)
                scale = np.max(np.abs(ref["M"][finite]), initial=1.0)
                assert np.all(np.abs(got["M"] - ref["M"])[finite] <= 1e-13 * scale)
            else:
                assert np.array_equal(got[name], ref[name], equal_nan=True), name


@pytest.mark.parametrize("batch", [(), (7,), (300,), (3, 5)])
def test_ricci_contraction_is_the_trace_of_the_curvature_tensor(batch):
    P = np.random.default_rng(18).uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,))
    geo = _build(P)
    trace = np.einsum("...iaaj->...ij", geo.Rfr)
    assert geo.ric.shape == batch + (4, 4)
    assert np.max(np.abs(geo.ric - trace)) <= 1e-13 * np.max(np.abs(trace))


def test_readers_return_copies_of_the_cached_arrays():
    p = (0.3, -0.7, 1.1, 0.9)  # one point: its geometry stays in the cache between the calls
    for reader in (ricci_frame, frame_connection, riemann_frame_table):
        first = reader(p)
        expected = first.copy()
        first[...] = 99.0
        assert np.array_equal(reader(p), expected), reader.__name__
    # a longdouble point equals, and hashes like, the float64 point of the same value: each gets its own geometry
    q = (0.25, -0.5, 1.5, 0.75)
    curvature._geometry.cache_clear()
    for dtype in (np.longdouble, np.float64):
        assert geometry_at(Point(*np.array(q, dtype))).ric.dtype == dtype


def test_one_point_in_any_form_shares_one_memo_entry():
    # validated by _as_points and keyed on the array's values and dtype: a tuple, a Point, an array and a list of one
    # point are one entry, and its longdouble forms a second, though a longdouble's padding bytes differ among them
    q = (0.3, -0.7, 1.1, 0.9)
    wide = np.array(q, np.longdouble)
    curvature._geometry.cache_clear()
    for forms in ((q, Point(*q), np.array(q), list(q)), (wide, Point(*wide), tuple(wide), list(wide))):
        before = curvature._geometry.cache_info()
        geos = [geometry_at(p) for p in forms]
        after = curvature._geometry.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 3)
        assert all(geo is geos[0] for geo in geos)
    assert curvature._geometry.cache_info().currsize == 2 and geos[0].ric.dtype == np.longdouble


def test_connection_table_examples():
    p = Point(0.4, -0.8, 1.3, 0.9)
    fc = frame_connection(p)
    np.testing.assert_allclose(fc[0, 0], [0.0, 0.0, 0.0, 1.0], atol=1e-12)  # nabla_e1 e1 = e4
    np.testing.assert_allclose(fc[2, 3], [0.0, 0.0, -2.0, 0.0], atol=1e-12)  # nabla_e3 e4 = -2 e3
    np.testing.assert_allclose(fc[3], np.zeros((4, 4)), atol=1e-12)  # nabla_e4 . = 0


def test_connection_table_full():
    rng = np.random.default_rng(14)
    for _ in range(50):
        fc = frame_connection(rand_point(rng))
        assert np.max(np.abs(fc - CONNECTION_TABLE)) < 1e-9


def test_connection_is_point_independent():
    rng = np.random.default_rng(15)
    ref = frame_connection(rand_point(rng))
    for _ in range(100):
        assert np.max(np.abs(frame_connection(rand_point(rng)) - ref)) < 1e-9


def test_connection_metric_antisymmetry():
    rng = np.random.default_rng(16)
    for _ in range(50):
        fc = frame_connection(rand_point(rng))
        assert np.max(np.abs(fc + fc.transpose(0, 2, 1))) < 1e-9


def test_riemann_reference_entries():
    p = Point(-0.6, 0.2, 0.8, 1.7)
    assert riemann_frame(p, 1, 2, 1, 2) == pytest.approx(-2.0, abs=1e-9)
    assert riemann_frame(p, 3, 4, 3, 4) == pytest.approx(4.0, abs=1e-9)
    for k in range(1, 5):
        for l in range(1, 5):
            assert riemann_frame(p, 1, 1, k, l) == pytest.approx(0.0, abs=1e-9)


def test_riemann_index_validation():
    p = Point(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        riemann_frame(p, 0, 1, 1, 2)
    with pytest.raises(ValueError):
        riemann_frame(p, 1, 2, 3, 5)


def test_riemann_full_table():
    expected = full_curvature_tensor()
    rng = np.random.default_rng(17)
    for _ in range(50):
        R = riemann_frame_table(rand_point(rng))
        assert np.max(np.abs(R - expected)) < 1e-9


def test_riemann_symmetries_and_bianchi():
    rng = np.random.default_rng(18)
    for _ in range(100):
        R = riemann_frame_table(rand_point(rng))
        assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) < 1e-9
        assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) < 1e-9
        assert np.max(np.abs(R - R.transpose(2, 3, 0, 1))) < 1e-9
        bianchi = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
        assert np.max(np.abs(bianchi)) < 1e-9


def test_listed_curvature_values():
    p = Point(0.9, 1.1, -0.3, 1.2)
    for (i, j, k, l), value in CURVATURE_TABLE.items():
        assert riemann_frame(p, i, j, k, l) == pytest.approx(value, abs=1e-9)


def test_ricci_is_constant_diagonal():
    rng = np.random.default_rng(19)
    # on |x|, |y|, |s| <= 1000 float64 points lose about three digits to cancellation (3.3e-13); longdouble ones keep
    # them, where longdouble is wider than float64 (x86's 80-bit format, or quad precision)
    cases = [(2.0, np.float64, 1e-9)]
    if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        cases.append((1000.0, np.longdouble, 1e-15))
    for width, dtype, bound in cases:
        for _ in range(100):
            p = Point(*np.array([*rng.uniform(-width, width, 3), rng.uniform(0.5, 2.0)], dtype))
            ric = ricci_frame(p)
            assert ric.dtype == dtype and np.max(np.abs(ric - RICCI_FRAME)) < bound
            assert np.max(np.abs(ric - ric.T)) < 1e-9
            assert scalar_curvature(p) == pytest.approx(-12.0, abs=1e-9)


def test_domain_error_propagates():
    with pytest.raises(DomainError):
        frame_connection((0.0, 0.0, 0.0, -1.0))


def test_coercivity_reference_values():
    p = Point(0.1, 0.2, 0.3, 1.4)
    assert coercivity_check(p, [1, 0, 0, 0], -6.0) == pytest.approx(6.0, abs=1e-9)
    assert coercivity_check(p, [0, 0, 1, 0], -6.0) == pytest.approx(0.0, abs=1e-9)
    assert coercivity_check(p, [1, 1, 1, 1], -6.0) == pytest.approx(12.0, abs=1e-9)


def test_coercivity_nonnegative_at_soliton_constant():
    rng = np.random.default_rng(20)
    for _ in range(200):
        p = rand_point(rng)
        v = rng.uniform(-3, 3, 4)
        val = coercivity_check(p, v, -6.0)
        assert val >= -1e-9
        assert val == pytest.approx(6.0 * (v[0] ** 2 + v[1] ** 2), abs=1e-9)


def test_first_reads_of_a_cached_geometry_race_safely():
    # threads read ric, M and Rfr of freshly cached geometries in different orders, so the first reads of dfc race
    import sys
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier, BrokenBarrierError

    from geoverify import curvature

    rng = np.random.default_rng(79)
    pts = [rand_point(rng) for _ in range(256)]
    names = ("ric", "M", "Rfr")
    serial = [[getattr(_build(p), n) for n in names] for p in pts]  # uncached builds leave the cache cold
    curvature._geometry.cache_clear()
    geos = [geometry_at(p) for p in pts]  # the shared cached objects, none of their lazy fields formed yet
    start = Barrier(6)

    def read(k):
        order, out = names[k % 3 :] + names[: k % 3], []
        try:
            for geo in geos:
                start.wait()  # all threads at the same unformed geometry
                out.append({n: getattr(geo, n) for n in order})
        except BrokenBarrierError:
            return None  # another thread raised, and its error is the one reported
        except BaseException:
            start.abort()
            raise
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            runs = list(pool.map(read, range(6)))
    finally:
        sys.setswitchinterval(interval)
    for run in runs:
        for got, ref in zip(run, serial):
            assert all(np.array_equal(got[n], r) for n, r in zip(names, ref))


@pytest.mark.parametrize("batch", [None, (7,), (300,)])
def test_c_over_a_row_slice_is_those_rows_of_the_four_row_contraction(batch):
    rng = np.random.default_rng(64)
    if batch is None:  # a point's build, not the cached geometry, whose C another test may have formed
        P = np.asarray(rand_point(rng).astuple())
    else:
        P = rng.uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,))
    full = _build(P).C
    for rows in (slice(2, 4), slice(0, 2), slice(1, 3), slice(3, 4), _build(P)._live):
        geo = _build(P)  # C not yet formed: the rows alone
        got = geo._C(rows)
        assert "C" not in vars(geo)
        want = full[..., rows, :, :]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), rows
        assert geo.C[..., rows, :, :].tobytes() == got.tobytes()  # and the same bits once C is formed
    geo = _build(P)
    geo._C(slice(None))
    assert "C" in vars(geo)  # all four rows form C itself, which is kept
