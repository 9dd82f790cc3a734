import numpy as np
import pytest

from geoverify.chart import (
    Point,
    constant_coordinate_field,
    coordinate_field,
    frame_field,
    frame_matrix,
)
from geoverify.soliton import (
    SOLITON_LAMBDA,
    SolitonParams,
    beta_matrix,
    closedness_defect,
    dual_one_form,
    lie_derivative_metric,
    scalar_laplacian,
    soliton_field,
    soliton_frame_components,
    soliton_residual,
    soliton_system,
)

from oracles import fd_laplace_beltrami, fd_lie_derivative_metric, rand_point, tame_expression_at


def rand_params(rng) -> SolitonParams:
    return SolitonParams(*rng.uniform(-3.0, 3.0, 5))


def test_field_component_values():
    # at c = 0 the family reduces to the base field -6(x d/dx + y d/dy)
    base = soliton_field(SolitonParams())
    p = Point(1.3, -0.4, 0.6, 2.0)
    np.testing.assert_allclose(
        base.coordinate_values(p), [-6.0 * p.x, -6.0 * p.y, 0.0, 0.0], atol=1e-13
    )
    # the five constants add Killing directions on top of the base field
    dx = soliton_field(SolitonParams(c5=1.0))
    np.testing.assert_allclose(dx.coordinate_values(p) - base.coordinate_values(p), [1, 0, 0, 0], atol=1e-13)
    dy = soliton_field(SolitonParams(c4=1.0))
    np.testing.assert_allclose(dy.coordinate_values(p) - base.coordinate_values(p), [0, 1, 0, 0], atol=1e-13)
    dil = soliton_field(SolitonParams(c2=1.0))
    np.testing.assert_allclose(
        dil.coordinate_values(p) - base.coordinate_values(p),
        [0.5 * p.x, -0.5 * p.y, p.s, p.t],
        atol=1e-13,
    )


def test_killing_directions_have_zero_lie_derivative():
    rng = np.random.default_rng(21)
    base = soliton_field(SolitonParams())
    p = rand_point(rng)
    base_L = lie_derivative_metric(base, p)
    for k in range(1, 6):
        member = soliton_field(SolitonParams(**{f"c{k}": 1.7}))
        diff_L = lie_derivative_metric(member, p) - base_L
        assert np.max(np.abs(diff_L)) < 1e-9


def test_frame_components_match_closed_forms():
    rng = np.random.default_rng(22)
    for _ in range(100):
        params = rand_params(rng)
        xi = soliton_field(params)
        alphas = soliton_frame_components(params)
        p = rand_point(rng)
        assert np.max(np.abs(xi.frame_values(p) - alphas.frame_values(p))) < 1e-10
        # the coordinate-to-frame conversion carries exact derivatives too
        _, grad, hess = xi.frame_component_jets(p)
        _, grad_ref, hess_ref = alphas.frame_component_jets(p)
        assert np.max(np.abs(grad - grad_ref)) < 1e-10
        assert np.max(np.abs(hess - hess_ref)) < 1e-10
        assert np.array_equal(hess, hess.transpose(1, 0, 2))


def test_beta_reference_entries():
    rng = np.random.default_rng(23)
    p = rand_point(rng)
    e4 = frame_field(*[lambda x, y, s, t, v=v: v for v in (0.0, 0.0, 0.0, 1.0)])
    b = beta_matrix(e4, p)
    assert b[0, 0] == pytest.approx(-1.0, abs=1e-9)
    assert b[2, 2] == pytest.approx(-2.0, abs=1e-9)
    assert b[2, 3] == pytest.approx(0.0, abs=1e-9)

    zero = frame_field(*[lambda x, y, s, t: 0.0] * 4)
    assert np.max(np.abs(beta_matrix(zero, p))) == 0.0


def test_translations_are_killing():
    rng = np.random.default_rng(24)
    for comp in ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]):
        f = constant_coordinate_field(comp)
        for _ in range(20):
            assert np.max(np.abs(lie_derivative_metric(f, rand_point(rng)))) < 1e-9


def test_lie_derivative_against_finite_differences():
    rng = np.random.default_rng(25)
    field = coordinate_field(
        lambda x, y, s, t: x * t - y,
        lambda x, y, s, t: s + 0.5 * y * y,
        lambda x, y, s, t: t * t - s * x,
        lambda x, y, s, t: 0.3 * t * s,
    )
    comps = field.components
    for _ in range(10):
        p = rand_point(rng)
        L_coord = fd_lie_derivative_metric(comps, p.astuple())
        E = frame_matrix(p)
        expected_frame = E @ L_coord @ E.T
        got = lie_derivative_metric(field, p)
        assert np.max(np.abs(got - expected_frame)) < 1e-6


def test_residual_vanishes_on_family():
    rng = np.random.default_rng(26)
    for _ in range(20):
        xi = soliton_field(rand_params(rng))
        for _ in range(5):
            r = soliton_residual(xi, SOLITON_LAMBDA, rand_point(rng))
            assert np.max(np.abs(r)) < 1e-9


def test_translation_member_balances_ricci():
    # the c4 member has (1/2 L g)_44 = 0, so Ric_44 alone must carry the -6
    from geoverify.curvature import ricci_frame

    xi = soliton_field(SolitonParams(c4=1.0))
    rng = np.random.default_rng(56)
    p = rand_point(rng)
    L = lie_derivative_metric(xi, p)
    total = ricci_frame(p)[3, 3] + 0.5 * L[3, 3]
    assert total == pytest.approx(-6.0, abs=1e-9)
    assert soliton_system(xi, SOLITON_LAMBDA, p)[3, 3] == pytest.approx(0.0, abs=1e-9)


def test_residual_of_zero_field_is_ricci_shift():
    zero = frame_field(*[lambda x, y, s, t: 0.0] * 4)
    rng = np.random.default_rng(27)
    r = soliton_residual(zero, 0.0, rand_point(rng))
    np.testing.assert_allclose(r, np.diag([0.0, 0.0, -6.0, -6.0]), atol=1e-9)


def test_lambda_shift_on_diagonal():
    rng = np.random.default_rng(28)
    xi = soliton_field(rand_params(rng))
    p = rand_point(rng)
    r0 = soliton_residual(xi, 0.0, p)
    assert r0[3, 3] == pytest.approx(-6.0, abs=1e-9)
    for lam in (0.0, -5.0, -7.0, 2.5):
        r = soliton_residual(xi, lam, p)
        assert np.max(np.abs(r)) >= abs(lam + 6.0) - 1e-9
        assert abs(r[3, 3]) == pytest.approx(abs(lam + 6.0), abs=1e-9)


def test_family_is_affine():
    rng = np.random.default_rng(29)
    a = rand_params(rng)
    b = rand_params(rng)
    summed = SolitonParams(*(np.array(a.constants()) + np.array(b.constants())))
    xi = soliton_field(summed)
    for _ in range(10):
        assert np.max(np.abs(soliton_residual(xi, SOLITON_LAMBDA, rand_point(rng)))) < 1e-9


def test_system_matches_residual():
    rng = np.random.default_rng(30)
    off = ~np.eye(4, dtype=bool)
    general = frame_field(
        lambda x, y, s, t: s * t + x,
        lambda x, y, s, t: t * t - y * s,
        lambda x, y, s, t: x * y + t,
        lambda x, y, s, t: s + 0.3 * t * x,
    )
    for _ in range(20):
        p = rand_point(rng)
        lam = float(rng.uniform(-8, 2))
        res = soliton_residual(general, lam, p)
        sysm = soliton_system(general, lam, p)
        assert np.max(np.abs(np.diag(sysm) - np.diag(res))) < 1e-9
        assert np.max(np.abs(sysm[off] - 2.0 * res[off])) < 1e-9

    # on the soliton family both formulations vanish together
    for _ in range(10):
        xi = soliton_field(rand_params(rng))
        p = rand_point(rng)
        res = soliton_residual(xi, SOLITON_LAMBDA, p)
        sysm = soliton_system(xi, SOLITON_LAMBDA, p)
        assert np.max(np.abs(res - sysm)) < 1e-9


def test_dual_form_closedness_of_shear_member():
    # c3 member: (d xi-flat)_st = 1/(2 t^3), value 0.5 at t = 1
    xi = soliton_field(SolitonParams(c3=1.0))
    d = closedness_defect(xi, Point(0.2, -0.4, 0.9, 1.0))
    assert d[5] == pytest.approx(0.5, abs=1e-9)
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = rand_point(rng)
        assert closedness_defect(xi, p)[5] == pytest.approx(1.0 / (2.0 * p.t**3), abs=1e-9)


def test_gradient_field_is_closed():
    # grad(t) = 4 t^2 d/dt built directly in coordinates
    gf = coordinate_field(
        lambda x, y, s, t: 0.0,
        lambda x, y, s, t: 0.0,
        lambda x, y, s, t: 0.0,
        lambda x, y, s, t: 4.0 * t * t,
    )
    rng = np.random.default_rng(32)
    for _ in range(20):
        assert np.max(np.abs(closedness_defect(gf, rand_point(rng)))) < 1e-9


def test_quadratic_member_defect_value():
    # c1 member at (0,0,1,1): (d xi-flat)_st = 1/(4t) + s^2/(4t^3) = 0.5
    xi = soliton_field(SolitonParams(c1=1.0))
    d = closedness_defect(xi, Point(0.0, 0.0, 1.0, 1.0))
    assert d[5] == pytest.approx(0.5, abs=1e-9)
    assert abs(d[5]) > 1e-3


def test_dual_form_components():
    xi = soliton_field(SolitonParams(c3=1.0))
    p = Point(0.0, 0.0, 0.0, 1.0)
    # xi = -6x dx - 6y dy + y dx + ds at this point -> flat against g(0,0,0,1)
    w = dual_one_form(xi, p).comp
    np.testing.assert_allclose(w, [0.0, 0.0, 0.25, 0.0], atol=1e-12)


def test_gradient_obstruction_on_grid():
    rng = np.random.default_rng(33)
    axes = [np.linspace(-2, 2, 5)] * 3 + [np.linspace(0.5, 2, 5)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)  # (625, 4), t fastest
    for _ in range(10):
        c = rng.uniform(-3, 3, 5)
        while np.max(np.abs(c[:3])) < 0.1:
            c = rng.uniform(-3, 3, 5)
        xi = soliton_field(SolitonParams(*c))
        worst = np.max(np.abs(closedness_defect(xi, grid)))
        assert worst > 1e-3


def test_component_functions_are_harmonic():
    rng = np.random.default_rng(34)
    for _ in range(20):
        xi = soliton_field(rand_params(rng))
        p = rand_point(rng)
        for f in xi.components:
            assert abs(scalar_laplacian(f, p)) < 1e-9


def test_laplacian_reference_values():
    rng = np.random.default_rng(35)
    p = rand_point(rng)
    assert scalar_laplacian(lambda x, y, s, t: 1.0 + s * 0, p) == pytest.approx(0.0, abs=1e-12)
    assert scalar_laplacian(lambda x, y, s, t: t, p) == pytest.approx(0.0, abs=1e-10)
    # nonzero witness: the divergence-form value of t^2 is 8 t^2
    assert scalar_laplacian(lambda x, y, s, t: t * t, p) == pytest.approx(8.0 * p.t**2, rel=1e-10)
    # harmonic component of the c1 member: s t
    assert scalar_laplacian(lambda x, y, s, t: s * t, p) == pytest.approx(0.0, abs=1e-10)


def test_laplacian_against_divergence_form_oracle():
    rng = np.random.default_rng(36)
    for _ in range(10):
        expr, p, _ = tame_expression_at(rng, bound=50.0)
        got = scalar_laplacian(expr, p)
        ref = fd_laplace_beltrami(expr, p.astuple())
        assert got == pytest.approx(ref, rel=2e-4, abs=2e-4)
