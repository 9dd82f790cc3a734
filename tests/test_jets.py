import numpy as np
import pytest

from geoverify.jets import DomainError, Jet2, constant, point_jets, reciprocal, seed, sqrt

from oracles import fd_gradient, fd_hessian, fd_hessian_richardson, tame_expression_at


def test_seed_is_coordinate_jet():
    j = seed((1.0, 2.0, 3.0, 4.0), 0)
    assert j.value == 1.0
    assert np.array_equal(j.grad, [1.0, 0.0, 0.0, 0.0])
    assert np.all(j.hess == 0.0)

    j = seed((0.0, 0.0, 0.0, 1.0), 3)
    assert j.value == 1.0
    assert np.array_equal(j.grad, [0.0, 0.0, 0.0, 1.0])

    assert np.all(seed((5.0, 5.0, 5.0, 5.0), 2).hess == 0.0)


def test_seed_index_range():
    with pytest.raises(ValueError):
        seed((0.0, 0.0, 0.0, 1.0), 4)


def test_reciprocal_second_derivative():
    # d^2/dt^2 (1/t) = 2/t^3 -> 0.25 at t = 2; cross-checked by central FD
    _, _, _, t = point_jets((0.0, 0.0, 0.0, 2.0))
    j = 1.0 / t
    assert j.hess[3, 3] == pytest.approx(0.25, abs=1e-12)
    fd = fd_hessian(lambda x, y, s, t: 1.0 / t, (0.0, 0.0, 0.0, 2.0), h=1e-4)[3, 3]
    assert j.hess[3, 3] == pytest.approx(fd, rel=1e-6)


def test_sqrt_first_derivative():
    # d/dt sqrt(t) = 1/(2 sqrt t) -> 0.25 at t = 4
    _, _, _, t = point_jets((0.0, 0.0, 0.0, 4.0))
    j = sqrt(t)
    assert j.grad[3] == pytest.approx(0.25, abs=1e-14)
    fd = fd_gradient(lambda x, y, s, t: sqrt(t), (0.0, 0.0, 0.0, 4.0))[3]
    assert j.grad[3] == pytest.approx(fd, rel=1e-8)


def test_product_is_bilinear():
    _, _, s, t = point_jets((0.0, 0.0, 3.0, 4.0))
    j = s * t
    assert j.value == 12.0
    assert j.grad[2] == 4.0
    assert j.grad[3] == 3.0
    assert j.hess[2, 3] == 1.0
    assert j.hess[3, 2] == 1.0


def test_hessian_symmetry_is_exact():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        _, _, jet = tame_expression_at(rng)
        assert np.array_equal(jet.hess, jet.hess.T)


def test_operations_do_not_mutate_operands():
    a = seed((1.0, 2.0, 0.5, 1.5), 2)
    b = seed((1.0, 2.0, 0.5, 1.5), 3)
    ga, ha = a.grad.copy(), a.hess.copy()
    _ = a * b + a / b - sqrt(b) + a**3
    assert np.array_equal(a.grad, ga)
    assert np.array_equal(a.hess, ha)


def test_domain_errors():
    x, y, s, t = point_jets((0.0, 0.0, -1.0, 2.0))
    with pytest.raises(DomainError):
        sqrt(s)  # value -1
    with pytest.raises(DomainError):
        sqrt(constant(0.0))
    with pytest.raises(DomainError):
        reciprocal(constant(0.0))
    with pytest.raises(DomainError):
        _ = x / constant(0.0)
    with pytest.raises(DomainError):
        _ = s**0.5  # non-integer power of a negative value
    with pytest.raises(DomainError):
        _ = constant(0.0) ** (-1)
    with pytest.raises(DomainError):
        sqrt(-3.0)


def test_non_finite_exponent_is_a_domain_error():
    t = seed((0.0, 0.0, 0.0, 2.0), 3)
    for r in (np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError, match="non-finite exponent"):
            _ = t**r


def test_integer_powers_at_zero():
    z = constant(0.0)
    assert (z**0).value == 1.0
    assert (z**2).value == 0.0
    j = seed((0.0, 0.0, 0.0, 1.0), 0) ** 2  # x^2 at x = 0
    assert j.grad[0] == 0.0
    assert j.hess[0, 0] == 2.0


def test_composition_consistency_product():
    rng = np.random.default_rng(99)
    for _ in range(30):
        f, p, _ = tame_expression_at(rng)
        g, _, _ = tame_expression_at(rng)
        jf = f(*point_jets(p))
        jg = g(*point_jets(p))
        combined = (lambda x, y, s, t: f(x, y, s, t) * g(x, y, s, t))(*point_jets(p))
        product = jf * jg
        assert combined.value == pytest.approx(product.value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(combined.grad, product.grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(combined.hess, product.hess, rtol=1e-12, atol=1e-12)


def test_scalar_mixing():
    _, _, _, t = point_jets((0.0, 0.0, 0.0, 2.0))
    j = 3.0 - 2.0 * t + t / 2.0 - (-t) + 4.0 / (t * t)
    expected_value = 3.0 - 4.0 + 1.0 + 2.0 + 1.0
    assert j.value == pytest.approx(expected_value, abs=1e-14)
    assert isinstance(j, Jet2)


def test_fd_agreement_sample():
    rng = np.random.default_rng(7)
    for _ in range(100):
        expr, p, jet = tame_expression_at(rng)
        fg = fd_gradient(expr, p.astuple())
        fh = fd_hessian_richardson(expr, p.astuple())
        scale_g = np.maximum(1.0, np.abs(fg))
        scale_h = np.maximum(1.0, np.abs(fh))
        assert np.max(np.abs(jet.grad - fg) / scale_g) < 1e-5
        assert np.max(np.abs(jet.hess - fh) / scale_h) < 1e-5
