"""Acceptance gate: one test per published claim, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Tolerances are fixed here and nowhere else; every
expected value is either an exact integer table entry or was computed
from an independent oracle before being frozen.
"""

import time

import numpy as np
import pytest

from geoverify.chart import FrameVector, Point, constant_frame_field, coordinate_field, frame_field
from geoverify.curvature import (
    coercivity_check,
    frame_connection,
    ricci_frame,
    riemann_frame_table,
    scalar_curvature,
)
from geoverify.harmonic import (
    EXPONENT_MINUS,
    EXPONENT_PLUS,
    CorollaryFamily,
    corollary_field,
    harmonic_map_residual,
    harmonic_section_equations,
    harmonic_section_residual,
    horizontal_tension,
    rough_laplacian,
)
from geoverify.soliton import (
    SOLITON_LAMBDA,
    SolitonParams,
    closedness_defect,
    scalar_laplacian,
    soliton_field,
    soliton_residual,
)
from geoverify.tables import CONNECTION_TABLE, full_curvature_tensor, RICCI_FRAME, SCALAR_CURVATURE

from oracles import fd_gradient, fd_hessian_richardson, rand_point, tame_expression_at


def report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} ({name}): {status} - {detail}")


def grid_points():
    axes = [np.linspace(-2, 2, 5)] * 3 + [np.linspace(0.5, 2, 5)]
    return [Point(x, y, s, t) for x in axes[0] for y in axes[1] for s in axes[2] for t in axes[3]]


def test_criterion_01_connection_table():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        worst = np.maximum(worst, float(np.max(np.abs(frame_connection(rand_point(rng)) - CONNECTION_TABLE))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, "connection table", ok, f"max err {worst:.2e} (tol 1e-9), {elapsed:.2f} s (< 1 s)")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_02_ricci_matrix():
    rng = np.random.default_rng(102)
    worst = 0.0
    worst_scalar = 0.0
    for _ in range(100):
        p = rand_point(rng)
        worst = np.maximum(worst, float(np.max(np.abs(ricci_frame(p) - RICCI_FRAME))))
        worst_scalar = np.maximum(worst_scalar, abs(scalar_curvature(p) - SCALAR_CURVATURE))
    ok = worst < 1e-9 and worst_scalar < 1e-9
    report(2, "Ricci diag(0,0,-6,-6)", ok, f"matrix err {worst:.2e}, scalar err {worst_scalar:.2e} (tol 1e-9)")
    assert ok


def test_criterion_03_curvature_table():
    rng = np.random.default_rng(103)
    expected = full_curvature_tensor()
    worst = 0.0
    for _ in range(100):
        worst = np.maximum(worst, float(np.max(np.abs(riemann_frame_table(rand_point(rng)) - expected))))
    ok = worst < 1e-9
    report(3, "curvature table", ok, f"listed + vanishing components err {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_04_soliton_family():
    rng = np.random.default_rng(104)
    pts = [rand_point(rng) for _ in range(100)]
    worst = 0.0
    for _ in range(20):
        xi = soliton_field(SolitonParams(*rng.uniform(-3, 3, 5)))
        for p in pts:
            worst = np.maximum(worst, float(np.max(np.abs(soliton_residual(xi, SOLITON_LAMBDA, p)))))
    shift_err = 0.0
    xi = soliton_field(SolitonParams(*rng.uniform(-3, 3, 5)))
    for lam in (0.0, -5.0, -7.0):
        for p in pts[:10]:
            res44 = abs(soliton_residual(xi, lam, p)[3, 3])
            shift_err = np.maximum(shift_err, abs(res44 - abs(lam + 6.0)))
    ok = worst < 1e-8 and shift_err < 1e-8
    report(4, "soliton family, lambda = -6", ok, f"residual {worst:.2e} (tol 1e-8), lambda-shift err {shift_err:.2e}")
    assert ok


def test_criterion_05_non_gradient():
    rng = np.random.default_rng(105)
    xi3 = soliton_field(SolitonParams(c3=1.0))
    worst = 0.0
    for _ in range(100):
        p = rand_point(rng)
        worst = np.maximum(worst, abs(closedness_defect(xi3, p)[5] - 1.0 / (2.0 * p.t**3)))

    grid = grid_points()
    base = soliton_field(SolitonParams())
    defect0 = np.array([closedness_defect(base, p) for p in grid])
    ddefect = np.array(
        [
            [closedness_defect(soliton_field(SolitonParams(**{f"c{k}": 1.0})), p) for p in grid]
            for k in range(1, 6)
        ]
    ) - defect0[None, :, :]
    min_witness = np.inf
    for _ in range(20):
        c = rng.uniform(-3, 3, 5)
        while np.max(np.abs(c[:3])) < 0.1:
            c = rng.uniform(-3, 3, 5)
        d = defect0 + np.tensordot(c, ddefect, axes=1)
        min_witness = np.minimum(min_witness, float(np.max(np.abs(d))))
    ok = worst < 1e-9 and min_witness > 1e-3
    report(
        5,
        "non-gradient obstruction",
        ok,
        f"(d xi-flat)_st err {worst:.2e} (tol 1e-9), weakest grid witness {min_witness:.2e} (> 1e-3)",
    )
    assert ok


def test_criterion_06_harmonic_components():
    rng = np.random.default_rng(106)
    pts = [rand_point(rng) for _ in range(100)]
    worst = 0.0
    for _ in range(20):
        xi = soliton_field(SolitonParams(*rng.uniform(-3, 3, 5)))
        for p in pts:
            for f in xi.components:
                worst = np.maximum(worst, abs(scalar_laplacian(f, p)))
    ok = worst < 1e-8
    report(6, "harmonic components", ok, f"max |Lap xi_j| {worst:.2e} (tol 1e-8)")
    assert ok


def test_criterion_07_coercivity():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(1000):
        p = rand_point(rng)
        v = FrameVector(rng.uniform(-3, 3, 4))
        got = coercivity_check(p, v, -6.0)
        worst = np.maximum(worst, abs(got - 6.0 * (v.comp[0] ** 2 + v.comp[1] ** 2)))
    ok = worst < 1e-9
    report(7, "coercivity identity", ok, f"max err {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_08_harmonic_sections():
    rng = np.random.default_rng(108)
    pts = [rand_point(rng) for _ in range(50)]
    worst = 0.0
    for index in (1, 2, 3, 4):
        for _ in range(20):
            X = corollary_field(CorollaryFamily(index, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))))
            for p in pts:
                worst = np.maximum(worst, float(np.max(np.abs(harmonic_section_residual(X, p)))))

    weakest = np.inf
    for slot in (3, 4):
        for a in (EXPONENT_PLUS, EXPONENT_MINUS):
            comps = [lambda x, y, s, t: 0.0] * 4
            comps[slot - 1] = lambda x, y, s, t, a=a: t ** (a + 0.01)
            X = coordinate_field(*comps)
            best = np.max([np.max(np.abs(harmonic_section_residual(X, p))) for p in pts])
            weakest = np.minimum(weakest, best)

    weights = np.array([1.0, 1.0, 2.0, 2.0])
    eq_err = 0.0
    for _ in range(100):
        coeffs = rng.uniform(-1, 1, (4, 6))
        X = frame_field(
            *(
                lambda x, y, s, t, c=coeffs[k]: c[0] + c[1] * s + c[2] * t + c[3] * s * s + c[4] * s * t + c[5] * t * t
                for k in range(4)
            )
        )
        p = rand_point(rng)
        eq_err = np.maximum(
            eq_err,
            float(np.max(np.abs(rough_laplacian(X, p) - weights * harmonic_section_equations(X, p)))),
        )
    ok = worst < 1e-8 and weakest > 1e-3 and eq_err < 1e-9
    report(
        8,
        "harmonic sections / forced exponents",
        ok,
        f"family residual {worst:.2e} (tol 1e-8), perturbed-exponent witness {weakest:.2e} (> 1e-3), "
        f"system equivalence {eq_err:.2e} (tol 1e-9)",
    )
    assert ok


def test_criterion_09_harmonic_map_witnesses():
    rng = np.random.default_rng(109)
    pts = [rand_point(rng) for _ in range(30)]
    zero = constant_frame_field([0.0, 0.0, 0.0, 0.0])
    zero_mag = np.max([harmonic_map_residual(zero, p).max_component() for p in pts[:5]])

    witnesses = [corollary_field(CorollaryFamily(k, 1.0, 0.0)) for k in (1, 2, 3, 4)]
    witnesses += [corollary_field(CorollaryFamily(k, 0.0, 1.0)) for k in (1, 2, 3, 4)]
    witnesses += [constant_frame_field(np.eye(4)[k]) for k in range(4)]
    weakest = np.inf
    for X in witnesses:
        best = np.max([harmonic_map_residual(X, p).max_component() for p in pts])
        weakest = np.minimum(weakest, best)

    line4_err = 0.0
    for _ in range(100):
        comp = rng.uniform(-2, 2, 4)
        X = constant_frame_field(comp)
        p = rand_point(rng)
        expected = 2 * comp[0] ** 2 + 2 * comp[1] ** 2 + 8 * comp[2] ** 2 + 8 * comp[3] ** 2
        line4_err = np.maximum(line4_err, abs(horizontal_tension(X, p)[3] - expected))

    ok = zero_mag < 1e-12 and weakest > 1e-3 and line4_err < 1e-9
    report(
        9,
        "harmonic-map witness suite",
        ok,
        f"zero field {zero_mag:.2e} (tol 1e-12), weakest non-trivial witness {weakest:.2e} (> 1e-3), "
        f"quadratic identity err {line4_err:.2e} (tol 1e-9)",
    )
    assert ok


def test_criterion_10_ad_core():
    rng = np.random.default_rng(110)
    worst_rel = 0.0
    for _ in range(1000):
        expr, p, jet = tame_expression_at(rng)
        fg = fd_gradient(expr, p.astuple())
        fh = fd_hessian_richardson(expr, p.astuple())
        rel_g = np.max(np.abs(jet.grad - fg) / np.maximum(1.0, np.abs(fg)))
        rel_h = np.max(np.abs(jet.hess - fh) / np.maximum(1.0, np.abs(fh)))
        worst_rel = np.max([worst_rel, rel_g, rel_h])

    sym_err = 0.0
    for _ in range(100):
        R = riemann_frame_table(rand_point(rng))
        sym_err = np.max(
            [
                sym_err,
                np.max(np.abs(R + R.transpose(1, 0, 2, 3))),
                np.max(np.abs(R + R.transpose(0, 1, 3, 2))),
                np.max(np.abs(R - R.transpose(2, 3, 0, 1))),
                np.max(np.abs(R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3))),
            ]
        )
    ok = worst_rel < 1e-5 and sym_err < 1e-9
    report(
        10,
        "AD core vs finite differences",
        ok,
        f"1000 expressions rel err {worst_rel:.2e} (tol 1e-5), Riemann symmetry/Bianchi {sym_err:.2e} (tol 1e-9)",
    )
    assert ok
