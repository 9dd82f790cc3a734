import operator

import numpy as np
import pytest

from geoverify import chart
from geoverify.harmonic import CorollaryFamily, corollary_field
from geoverify.jets import NSLOTS, DomainError, Jet2, point_jets, reciprocal, sqrt
from geoverify.soliton import SolitonParams, soliton_field

from oracles import fd_gradient, fd_hessian, fd_hessian_richardson, tame_expression_at


def test_seed_is_coordinate_jet():
    j = point_jets((1.0, 2.0, 3.0, 4.0))[0]
    assert j.value == 1.0
    assert np.array_equal(j.grad, [1.0, 0.0, 0.0, 0.0])
    assert np.all(j.hess == 0.0)

    j = point_jets((0.0, 0.0, 0.0, 1.0))[3]
    assert j.value == 1.0
    assert np.array_equal(j.grad, [0.0, 0.0, 0.0, 1.0])

    assert np.all(point_jets((5.0, 5.0, 5.0, 5.0))[2].hess == 0.0)


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
    _, _, a, b = point_jets((1.0, 2.0, 0.5, 1.5))
    ga, ha = a.grad.copy(), a.hess.copy()
    _ = a * b + a / b - sqrt(b) + a**3
    assert np.array_equal(a.grad, ga)
    assert np.array_equal(a.hess, ha)


def test_domain_errors():
    x, y, s, t = point_jets((0.0, 0.0, -1.0, 2.0))  # x and y are 0
    with pytest.raises(DomainError):
        sqrt(s)  # value -1
    with pytest.raises(DomainError):
        sqrt(x)
    with pytest.raises(DomainError):
        reciprocal(x)
    with pytest.raises(DomainError):
        _ = t / y
    with pytest.raises(DomainError):
        _ = s**0.5  # non-integer power of a negative value
    with pytest.raises(DomainError):
        _ = x ** (-1)
    with pytest.raises(DomainError):
        sqrt(-3.0)


def test_non_finite_exponent_is_a_domain_error():
    t = point_jets((0.0, 0.0, 0.0, 2.0))[3]
    for r in (np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError, match="non-finite exponent"):
            _ = t**r


def test_integer_powers_at_zero():
    z = Jet2(np.zeros(NSLOTS))  # the constant 0
    assert (z**0).value == 1.0
    assert (z**2).value == 0.0
    j = point_jets((0.0, 0.0, 0.0, 1.0))[0] ** 2  # x^2 at x = 0
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


def test_single_point_jet_with_per_point_constants_broadcasts_every_part():
    # 21 constants, as many as a jet has Taylor slots: a product that paired them with the slots would keep
    # the single-point shape and pass for a correct result
    t = point_jets((0.0, 0.0, 0.0, 2.0))[3]
    x = point_jets(np.tile([0.5, 0.0, 0.0, 2.0], (21, 1)))[0]
    c = np.arange(1.0, 22.0)
    cases = [
        (lambda t, c: t * c, c),
        (lambda t, c: c * t, c),
        (lambda t, c: c + t, c),
        (lambda t, c: t + c, c),
        (lambda t, c: t - c, c),
        (lambda t, c: c - t, c),
        (lambda t, c: t / c, c),
        (lambda t, c: c / t, c),
        (lambda t, x: x * t, x),
        (lambda t, x: t * x + t, x),
        (lambda t, x: t - x, x),
    ]
    for op, other in cases:
        got = op(t, other)
        assert (got.value.shape, got.grad.shape, got.hess.shape) == ((21,), (21, 4), (21, 4, 4))
        for i in range(21):
            want = op(t, float(c[i]) if other is c else point_jets((0.5, 0.0, 0.0, 2.0))[0])
            assert got.value[i] == want.value
            assert np.array_equal(got.grad[i], want.grad)
            assert np.array_equal(got.hess[i], want.hess)


@pytest.mark.parametrize("batch", [(), (5,)])
def test_longdouble_points_give_longdouble_jets(batch):
    P = np.random.default_rng(11).uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,))
    exact, rounded = point_jets(P.astype(np.longdouble)), point_jets(P)
    assert point_jets(np.arange(1, 5))[0].J.dtype == point_jets((1, 2, 3, 4))[3].J.dtype == np.float64  # the default
    entries = lambda grid: [e for row in grid for e in row if isinstance(e, Jet2)]
    for tables in (chart._frames, lambda *q: (chart._metric(*q),)):
        for a, b in zip(*([e for grid in tables(*q) for e in entries(grid)] for q in (exact, rounded))):
            assert a.J.dtype == a.value.dtype == a.grad.dtype == a.hess.dtype == np.longdouble
            assert b.J.dtype == np.float64
            assert np.max(np.abs(a.J - b.J)) <= 1e-15 * np.max(np.abs(b.J))


FIRST_ORDER_EXPRESSIONS = [
    lambda x, y, s, t: sqrt(s * s + t),
    lambda x, y, s, t: reciprocal(x * t + 3.0),
    lambda x, y, s, t: (s - x) ** 3 * t**-2 + y**0,  # integer powers, the zeroth too
    lambda x, y, s, t: t**1.7 + (y * y + t) ** -0.5,  # non-integer powers
    lambda x, y, s, t: (x + y) * (s * t) * (x - 2.0 * t),  # jet x jet products
]


@pytest.mark.parametrize("batch", [(), (1,), (7,), (3, 5)])
def test_first_order_jets_are_the_value_and_gradient_slots_bit_for_bit(batch):
    rng = np.random.default_rng(13)
    P = rng.uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,))
    for f in FIRST_ORDER_EXPRESSIONS:
        one, two = f(*point_jets(P, 1)), f(*point_jets(P))
        assert len(one.J) == 1 + len(one.V)  # first order
        assert np.array_equal(one.value, two.value) and np.array_equal(one.grad, two.grad)
    # the closed forms, as the chart layer evaluates them, in either basis
    fields = [soliton_field(SolitonParams(*rng.uniform(-3.0, 3.0, 5)))]
    fields += [corollary_field(CorollaryFamily(k, *rng.uniform(-3.0, 3.0, 2))) for k in (1, 2, 3, 4)]
    pairs = [(chart._jets(f, P, order=1), chart._jets(f, P)) for f in (chart._frames, chart._metric)]
    pairs.append((chart.metric_jets(P, order=1), chart.metric_jets(P)))
    for X in fields:
        for jets_of in (X.component_jets, X.coordinate_component_jets, X.frame_component_jets):
            pairs.append((jets_of(P, order=1), jets_of(P)))
    for one, two in pairs:
        assert len(one) == 2 and len(two) == 3
        assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(one, two))


@pytest.mark.parametrize("batch", [(), (3,)])
def test_first_and_second_order_jets_meet_at_first_order_bit_for_bit(batch):
    P = np.random.default_rng(5).uniform([-2.0, -2.0, -2.0, 0.5], [2.0, 2.0, 2.0, 2.0], batch + (4,))
    (x2, *_, t2), (x1, y1, *_, t1) = point_jets(P), point_jets(P, 1)
    c2 = Jet2(np.eye(NSLOTS)[0] * 2.0)  # the constant 2
    c1 = Jet2(c2.J[:5])  # the same constant at first order
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for second, first, other in ((c2, c1, y1), (x2, x1, y1), (t2, t1, x1)):
            for a, b, pure in ((second, other, op(first, other)), (other, second, op(other, first))):
                got = op(a, b)
                assert len(got.J) == 1 + len(got.V)  # first order
                assert np.array_equal(got.value, pure.value) and np.array_equal(got.grad, pure.grad)


def test_a_jet_order_is_1_or_2():
    for order in (0, 3):
        with pytest.raises(KeyError):
            point_jets((0.0, 0.0, 0.0, 1.0), order)
