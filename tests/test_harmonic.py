import numpy as np
import pytest

from geoverify import chart, checks, harmonic, soliton
from geoverify.chart import Point, constant_frame_field, coordinate_field, frame_field
from geoverify.curvature import geometry_at
from geoverify.harmonic import (
    EXPONENT_MINUS,
    EXPONENT_PLUS,
    CorollaryFamily,
    NotSTOnly,
    corollary_field,
    harmonic_map_residual,
    harmonic_section_equations,
    harmonic_section_residual,
    horizontal_tension,
    horizontal_tension_expanded,
    rough_laplacian,
)

from oracles import as_field, four_row_coordinate_basis, frame_hessian_laplacian, product_rule_fields, rand_point
from oracles import single_direction_stack, stack_route, w_first_horizontal_tension


def random_st_polynomial_field(rng):
    coeffs = rng.uniform(-1.0, 1.0, (4, 6))

    def make(c):
        return lambda x, y, s, t: c[0] + c[1] * s + c[2] * t + c[3] * s * s + c[4] * s * t + c[5] * t * t

    return frame_field(*(make(coeffs[k]) for k in range(4)))


def test_forced_exponents():
    assert EXPONENT_PLUS == pytest.approx(1.5 + np.sqrt(7.0) / 2.0)
    assert EXPONENT_MINUS == pytest.approx(1.5 - np.sqrt(7.0) / 2.0)
    with pytest.raises(ValueError):
        CorollaryFamily(5, 1.0, 0.0)


def test_rough_laplacian_constant_fields():
    rng = np.random.default_rng(41)
    p = rand_point(rng)
    e1 = constant_frame_field([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(rough_laplacian(e1, p), [-3.0, 0.0, 0.0, 0.0], atol=1e-9)

    zero = constant_frame_field([0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(rough_laplacian(zero, p), np.zeros(4), atol=0)

    e3 = constant_frame_field([0.0, 0.0, 1.0, 0.0])
    assert harmonic_section_residual(e3, p)[2] == pytest.approx(-6.0, abs=1e-9)


def test_rough_laplacian_kills_first_family():
    # t^(-1/2)(c1 + c2 t^2) e1 is the frame form of (c1 + c2 t^2) d/dx
    f = frame_field(
        lambda x, y, s, t: (2.0 - 0.7 * t * t) / t**0.5,
        lambda x, y, s, t: 0.0,
        lambda x, y, s, t: 0.0,
        lambda x, y, s, t: 0.0,
    )
    rng = np.random.default_rng(42)
    for _ in range(20):
        assert np.max(np.abs(rough_laplacian(f, rand_point(rng)))) < 1e-9


def test_corollary_field_reference_forms():
    p = Point(0.7, -0.2, 1.1, 1.6)
    f1 = corollary_field(CorollaryFamily(1, 1.0, 0.0))
    np.testing.assert_allclose(f1.coordinate_component_jets(p)[0], [1.0, 0.0, 0.0, 0.0], atol=0)

    f2 = corollary_field(CorollaryFamily(2, 1.0, 0.0))
    np.testing.assert_allclose(f2.coordinate_component_jets(p)[0], [0.0, 1.0, 0.0, 0.0], atol=0)

    f4 = corollary_field(CorollaryFamily(4, 1.0, 0.0))
    np.testing.assert_allclose(
        f4.coordinate_component_jets(p)[0], [0.0, 0.0, 0.0, p.t**EXPONENT_PLUS], atol=1e-13
    )


def test_all_families_are_harmonic_sections():
    rng = np.random.default_rng(43)
    for index in (1, 2, 3, 4):
        for _ in range(20):
            fam = CorollaryFamily(index, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            X = corollary_field(fam)
            for _ in range(5):
                r = harmonic_section_residual(X, rand_point(rng))
                assert np.max(np.abs(r)) < 1e-8


def test_perturbed_exponents_fail():
    rng = np.random.default_rng(44)
    pts = [rand_point(rng) for _ in range(50)]
    for slot in (3, 4):
        for a in (EXPONENT_PLUS, EXPONENT_MINUS):
            comps = [lambda x, y, s, t: 0.0] * 4
            comps[slot - 1] = lambda x, y, s, t, a=a: t ** (a + 0.01)
            X = coordinate_field(*comps)
            worst = max(np.max(np.abs(harmonic_section_residual(X, p))) for p in pts)
            assert worst > 1e-3


def test_st_only_guard():
    dep = frame_field(
        lambda x, y, s, t: x + t,
        lambda x, y, s, t: 0.0,
        lambda x, y, s, t: 0.0,
        lambda x, y, s, t: 0.0,
    )
    with pytest.raises(NotSTOnly):
        harmonic_section_residual(dep, Point(0.5, 0.5, 0.5, 1.0))
    with pytest.raises(NotSTOnly):
        harmonic_section_equations(dep, Point(0.5, 0.5, 0.5, 1.0))


def test_st_only_guard_rejects_a_nan_gradient():
    # NaN > tol is False, so a guard written as "fail if above" would let this field through
    nan = frame_field(
        lambda x, y, s, t: np.nan * x,
        lambda x, y, s, t: 0.0,
        lambda x, y, s, t: 0.0,
        lambda x, y, s, t: 0.0,
    )
    with pytest.raises(NotSTOnly):
        harmonic_section_residual(nan, Point(0.5, 0.5, 0.5, 1.0))
    with pytest.raises(NotSTOnly):
        horizontal_tension_expanded(nan, Point(0.5, 0.5, 0.5, 1.0))


def test_intrinsic_matches_component_system():
    rng = np.random.default_rng(45)
    weights = np.array([1.0, 1.0, 2.0, 2.0])
    for _ in range(100):
        X = random_st_polynomial_field(rng)
        p = rand_point(rng)
        lap = rough_laplacian(X, p)
        eqs = harmonic_section_equations(X, p)
        assert np.max(np.abs(lap - weights * eqs)) < 1e-9


def test_horizontal_tension_reference_values():
    rng = np.random.default_rng(46)
    p = rand_point(rng)
    e4 = constant_frame_field([0.0, 0.0, 0.0, 1.0])
    assert horizontal_tension(e4, p)[3] == pytest.approx(8.0, abs=1e-9)
    e1 = constant_frame_field([1.0, 0.0, 0.0, 0.0])
    assert horizontal_tension(e1, p)[3] == pytest.approx(2.0, abs=1e-9)
    zero = constant_frame_field([0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(horizontal_tension(zero, p), np.zeros(4), atol=0)


def test_horizontal_tension_is_quadratic():
    rng = np.random.default_rng(47)
    for _ in range(20):
        X = random_st_polynomial_field(rng)
        doubled = frame_field(*[lambda x, y, s, t, f=f: 2.0 * f(x, y, s, t) for f in X.components])
        p = rand_point(rng)
        np.testing.assert_allclose(
            horizontal_tension(doubled, p), 4.0 * horizontal_tension(X, p), atol=1e-9
        )


def test_intrinsic_matches_expanded_tension():
    rng = np.random.default_rng(48)
    for _ in range(100):
        X = random_st_polynomial_field(rng)
        p = rand_point(rng)
        np.testing.assert_allclose(
            horizontal_tension(X, p), horizontal_tension_expanded(X, p), atol=1e-9
        )


def test_expanded_line4_for_constant_fields():
    rng = np.random.default_rng(49)
    for _ in range(50):
        comp = rng.uniform(-2, 2, 4)
        X = constant_frame_field(comp)
        p = rand_point(rng)
        expected = 2 * comp[0] ** 2 + 2 * comp[1] ** 2 + 8 * comp[2] ** 2 + 8 * comp[3] ** 2
        assert horizontal_tension(X, p)[3] == pytest.approx(expected, abs=1e-9)
        assert expected > 0 or np.max(np.abs(comp)) == 0


def test_harmonic_map_residual_witnesses():
    p = Point(0.0, 0.0, 0.0, 1.0)
    zero = constant_frame_field([0.0, 0.0, 0.0, 0.0])
    tv = harmonic_map_residual(zero, p)
    assert tv.max_component() < 1e-12

    z3 = corollary_field(CorollaryFamily(3, 1.0, 0.0))
    tv = harmonic_map_residual(z3, p)
    assert np.max(np.abs(tv.vertical)) < 1e-9
    # X3 = 1/2 at t = 1, so the quadratic part contributes 8 X3^2 = 2
    assert tv.horizontal[3] == pytest.approx(2.0, abs=1e-9)
    assert tv.horizontal[3] > 1e-3

    e1 = constant_frame_field([1.0, 0.0, 0.0, 0.0])
    tv = harmonic_map_residual(e1, p)
    assert tv.vertical[0] == pytest.approx(-3.0, abs=1e-9)


def test_every_witness_fails_as_harmonic_map():
    rng = np.random.default_rng(50)
    pts = [rand_point(rng) for _ in range(30)]
    witnesses = [corollary_field(CorollaryFamily(k, 1.0, 0.0)) for k in (1, 2, 3, 4)]
    witnesses += [corollary_field(CorollaryFamily(k, 0.0, 1.0)) for k in (1, 2, 3, 4)]
    witnesses += [constant_frame_field(np.eye(4)[k]) for k in range(4)]
    for X in witnesses:
        worst = max(harmonic_map_residual(X, p).max_component() for p in pts)
        assert worst > 1e-3


def test_residual_wrappers_match_and_evaluate_the_field_once(monkeypatch):
    import geoverify.harmonic as harmonic

    rng = np.random.default_rng(51)
    fields = [random_st_polynomial_field(rng), corollary_field(CorollaryFamily(2, 0.7, -1.3))]
    pts = [rand_point(rng) for _ in range(5)]
    for X in fields:
        for p in pts:
            lap = rough_laplacian(X, p)
            assert np.array_equal(harmonic_section_residual(X, p), lap)
            tv = harmonic_map_residual(X, p)
            assert np.array_equal(tv.horizontal, horizontal_tension(X, p))
            assert np.array_equal(tv.vertical, lap)

    calls = []
    field_data = harmonic._field_data

    def counting_field_data(X, p):
        calls.append(p)
        return field_data(X, p)

    monkeypatch.setattr(harmonic, "_field_data", counting_field_data)
    for residual in (rough_laplacian, harmonic_section_residual, horizontal_tension, harmonic_map_residual):
        calls.clear()
        residual(fields[0], pts[0])
        assert len(calls) == 1, residual.__name__


def test_product_rule_laplacian_matches_the_frame_hessian_route():
    rng = np.random.default_rng(52)
    P = rng.uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], (200, 4))
    for X in product_rule_fields(rng, (len(P),)):
        assert np.max(np.abs(rough_laplacian(X, P) - frame_hessian_laplacian(X, P))) < 1e-12
    # and one point at a time, through the single-point geometry
    X = product_rule_fields(rng)[-1]
    assert np.max(np.abs(rough_laplacian(X, P[0]) - frame_hessian_laplacian(X, P[0]))) < 1e-12


def test_primary_routes_form_no_frame_component_hessian(monkeypatch):
    orders = []
    apply = chart._apply
    counted = lambda A, x: orders.append(len(x) - 1) or apply(A, x)
    monkeypatch.setattr(chart, "_apply", counted)
    monkeypatch.setattr(harmonic, "_apply", counted)
    X = product_rule_fields(np.random.default_rng(53))[-1]
    p = Point(0.3, -1.2, 0.7, 1.4)
    checks.run_suite("corollary", checks.RunConfig(points=20))
    checks.run_suite("harmonic-map-witnesses", checks.RunConfig(points=20))
    harmonic_map_residual(X, p)
    soliton.soliton_residual(soliton.soliton_field(soliton.SolitonParams(1.0, 2.0)), -6.0, p)
    assert 2 not in orders and 1 in orders  # first-order conversions only
    harmonic_section_equations(X, p)  # a cross-check route keeps the full conversion, which the count sees
    assert orders[-1] == 2


@pytest.mark.parametrize("batch", [(1,), (7,), (300,)])
def test_stack_members_equal_their_own_fields_bit_for_bit(batch):
    # a stack takes each member f d_l on its direction's columns alone: the full basis adds only exact zeros to that
    rng = np.random.default_rng(54)
    P = rng.uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,))
    profiles, dirs = single_direction_stack(rng, batch)
    lap, tension = stack_route(P, profiles, dirs)
    assert lap.shape == tension.shape == (len(dirs),) + batch + (4,)
    for m, (f, l) in enumerate(zip(profiles, dirs)):
        X = as_field(f, l)
        assert np.array_equal(lap[m], rough_laplacian(X, P)), m
        assert np.array_equal(tension[m], horizontal_tension(X, P)), m


@pytest.mark.parametrize("batch", [(), (1,), (7,), (300,)])
def test_live_row_coordinate_basis_equals_the_four_row_contraction(batch):
    P = np.random.default_rng(55).uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,))
    geo = geometry_at(P)
    for got, ref in zip(harmonic._coordinate_basis(geo), four_row_coordinate_basis(geo, P), strict=True):
        assert np.array_equal(got, ref)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("batch", [(1,), (7,), (300,)])
def test_the_witnesses_basis_profiles_are_the_members_bit_for_bit(batch):
    # 1 + 0 f = 1 and 0 + 1 f = f exactly, so the span's basis profiles are the members at (1, 0) and (0, 1)
    P = np.random.default_rng(56).uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,))
    members = [harmonic._profile(CorollaryFamily(k, *c)) for c in ((1.0, 0.0), (0.0, 1.0)) for k in (1, 2, 3, 4)]
    (basis, rows), (ref, ref_rows) = (chart._packed(harmonic._form(f), P) for f in (harmonic._BASIS, members))
    assert rows == ref_rows == slice(2, 4)  # the stack's rows: s and t
    for got, want in zip(basis, ref, strict=True):  # value, gradient and Hessian
        assert _same_bits(got, want)


def test_corollarys_profiles_keep_their_closed_forms():
    P = np.random.default_rng(57).uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], (50, 4))
    c1, c2 = np.random.default_rng(58).uniform(-3.0, 3.0, (2, 50))
    written = [
        lambda x, y, s, t, power: c1 + c2 * t * t,
        lambda x, y, s, t, power: c1 + c2 * t * t / (s * s + t * t) ** 2,
    ] + [lambda x, y, s, t, power: c1 * power(EXPONENT_PLUS) + c2 * power(EXPONENT_MINUS)] * 2
    profiles = [harmonic._profile(CorollaryFamily(k, c1, c2)) for k in (1, 2, 3, 4)]
    got, want = (chart._packed(harmonic._form(f), P)[0] for f in (profiles, written))
    assert all(_same_bits(a, b) for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize("where", ["point", (7,), (300,), "longdouble"])
def test_the_tension_contracts_nabla_x_first_as_the_w_first_reference(where):
    rng = np.random.default_rng(59)
    if where == "point":
        P = rand_point(rng)
    elif where == "longdouble":
        P = Point(*np.asarray(rand_point(rng).astuple(), np.longdouble))
    else:
        P = rng.uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], where + (4,))
    for X in product_rule_fields(rng, () if isinstance(where, str) else where):
        geo, val, grad, _ = harmonic._field_data(X, P)
        got, ref = harmonic._horizontal_tension(geo, val, grad), w_first_horizontal_tension(geo, val, grad)
        assert got.dtype == ref.dtype == (np.longdouble if where == "longdouble" else np.float64)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(got)), np.max(np.abs(ref)))
