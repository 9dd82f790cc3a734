import numpy as np
import pytest

from geoverify.chart import Point, constant_frame_field, coordinate_field, frame_field
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

from oracles import rand_point


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
    np.testing.assert_allclose(f1.coordinate_values(p), [1.0, 0.0, 0.0, 0.0], atol=0)

    f2 = corollary_field(CorollaryFamily(2, 1.0, 0.0))
    np.testing.assert_allclose(f2.coordinate_values(p), [0.0, 1.0, 0.0, 0.0], atol=0)

    f4 = corollary_field(CorollaryFamily(4, 1.0, 0.0))
    np.testing.assert_allclose(
        f4.coordinate_values(p), [0.0, 0.0, 0.0, p.t**EXPONENT_PLUS], atol=1e-13
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
