"""Named verification checks with deterministic sampling and reports.

Each registered check samples its points once and returns its claims:
per-point residuals with the points they were measured at.  A ``zero``
claim needs every residual below the threshold; an ``exceeds`` claim (an
inequality) needs its best witness to beat a margin.  :func:`_reduce`
turns the claims into ``max_residual`` and the sampled witness point: a
failed inequality contributes 1.0 at its best witness, and any
non-finite residual decides the report (the first one, claims in
order, points in sampling order), so that the check fails.  A check
passes when its ``max_residual`` is below the threshold.

Sampling is counter-based: the stream for point ``i`` of check ``name``
is seeded by (seed, name, i), so reports are reproducible and adding a
check never perturbs another check's points.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import astuple, dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import harmonic, soliton, tables
from .chart import FrameVector, Point, constant_frame_field, coordinate_field, frame_field
from .curvature import coercivity_check, frame_connection, ricci_frame, riemann_frame_table, scalar_curvature
from .harmonic import CorollaryFamily, corollary_field
from .soliton import SolitonParams

__all__ = [
    "ConfigError",
    "UnknownCheck",
    "Box",
    "RunConfig",
    "CheckReport",
    "CHECK_NAMES",
    "run_suite",
    "run_all",
]


class ConfigError(Exception):
    """Invalid run configuration (bad box, tolerance, or point count)."""


class UnknownCheck(Exception):
    """Requested check name is not registered."""


@dataclass(frozen=True)
class Box:
    """Sampling bounds; the default keeps every expression well conditioned."""

    xmin: float = -2.0
    xmax: float = 2.0
    ymin: float = -2.0
    ymax: float = 2.0
    smin: float = -2.0
    smax: float = 2.0
    tmin: float = 0.5
    tmax: float = 2.0

    def validate(self):
        pairs = [
            (self.xmin, self.xmax),
            (self.ymin, self.ymax),
            (self.smin, self.smax),
            (self.tmin, self.tmax),
        ]
        for lo, hi in pairs:
            if not -math.inf < lo <= hi < math.inf:
                raise ConfigError(f"sampling interval [{lo}, {hi}] must be finite and non-empty")
        if not self.tmin > 0.0:
            raise ConfigError(f"sampling box must respect t > 0, got tmin = {self.tmin}")

    def lows(self):
        return np.array([self.xmin, self.ymin, self.smin, self.tmin])

    def highs(self):
        return np.array([self.xmax, self.ymax, self.smax, self.tmax])


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    points: int = 100
    tol: float = 1e-9
    box: Box = field(default_factory=Box)
    soliton_params: Optional[SolitonParams] = None
    output: Optional[str] = None  # path for reports; None means stdout

    def validate(self):
        if self.points < 1:
            raise ConfigError(f"points must be >= 1, got {self.points}")
        if not 0.0 < self.tol < math.inf:
            raise ConfigError(f"tol must be finite and > 0, got {self.tol}")
        self.box.validate()
        if self.soliton_params is not None and not np.all(np.isfinite(astuple(self.soliton_params))):
            raise ConfigError(f"soliton constants and lambda must be finite, got {self.soliton_params}")


@dataclass(frozen=True)
class CheckReport:
    check_name: str
    points_sampled: int
    max_residual: float
    threshold: float
    passed: bool
    witness_point: tuple[float, float, float, float]
    elapsed_ms: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "check_name": self.check_name,
                "points_sampled": self.points_sampled,
                "max_residual": self.max_residual,
                "threshold": self.threshold,
                "pass": self.passed,
                "witness_point": list(self.witness_point),
                "elapsed_ms": self.elapsed_ms,
            }
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.check_name}: {status}  max_residual={self.max_residual:.3e}  "
            f"threshold={self.threshold:.1e}  points={self.points_sampled}  "
            f"witness={tuple(round(c, 6) for c in self.witness_point)}"
        )


def _rng(seed: int, name: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(name.encode()), index])


def _sample_point(cfg: RunConfig, name: str, index: int) -> Point:
    u = _rng(cfg.seed, name, index).uniform(cfg.box.lows(), cfg.box.highs())
    return Point(*u)


def _sample_params(cfg: RunConfig, name: str, index: int, require_c123: bool = False) -> SolitonParams:
    rng = _rng(cfg.seed, name + "/params", index)
    c = rng.uniform(-3.0, 3.0, 5)
    while require_c123 and float(np.max(np.abs(c[:3]))) < 0.1:
        c = rng.uniform(-3.0, 3.0, 5)
    return SolitonParams(*c)


class _Claim(NamedTuple):
    """Per-point residuals of one sub-claim; ``margin`` is None for a ``zero`` claim."""

    residuals: Sequence[float]
    points: Sequence[Point]
    margin: Optional[float] = None


def _zero(residuals, points) -> _Claim:
    return _Claim(residuals, points)


def _exceeds(residuals, points, margin: float = 1e-3) -> _Claim:
    return _Claim(residuals, points, margin)


def _reduce(claims: Sequence[_Claim]) -> tuple[float, Point]:
    """The report's ``max_residual`` and the sampled point that attained it."""
    worst, witness = 0.0, claims[0].points[0]
    for c in claims:
        r = np.asarray(c.residuals, dtype=float)
        bad = np.flatnonzero(~np.isfinite(r))
        if bad.size:  # a non-finite residual decides the report
            return float(r[bad[0]]), c.points[bad[0]]
        if c.margin is None:
            i = len(r) - 1 - int(np.argmax(r[::-1]))  # the last maximum
            value = float(r[i])
        else:
            i = int(np.argmax(r))
            if r[i] > c.margin:
                continue
            value = 1.0
        if value >= worst:  # ties go to the later contribution
            worst, witness = value, c.points[i]
    return worst, witness


def _sample_points(cfg: RunConfig, name: str) -> list[Point]:
    return [_sample_point(cfg, name, i) for i in range(cfg.points)]


def _pointwise(cfg: RunConfig, name: str, residual: Callable[[int, Point], float], evals_per_point: int = 1):
    """A single ``zero`` claim: ``residual(i, p)`` at every sampled point of the check."""
    pts = _sample_points(cfg, name)
    return evals_per_point * cfg.points, [_zero([residual(i, p) for i, p in enumerate(pts)], pts)]


def _check_lemma1(cfg: RunConfig):
    return _pointwise(cfg, "lemma1", lambda i, p: np.max(np.abs(frame_connection(p) - tables.CONNECTION_TABLE)))


def _check_lemma2(cfg: RunConfig):
    def residual(i, p):
        ricci_err = np.max(np.abs(ricci_frame(p) - tables.RICCI_FRAME))
        return np.maximum(ricci_err, abs(scalar_curvature(p) - tables.SCALAR_CURVATURE))

    return _pointwise(cfg, "lemma2", residual)


def _check_riemc(cfg: RunConfig):
    expected = tables.full_curvature_tensor()
    return _pointwise(cfg, "riemc", lambda i, p: np.max(np.abs(riemann_frame_table(p) - expected)))


def _check_theorem1(cfg: RunConfig):
    def residual(i, p):
        params = cfg.soliton_params or _sample_params(cfg, "theorem1", i)
        return np.max(np.abs(soliton.soliton_residual(soliton.soliton_field(params), params.lam, p)))

    return _pointwise(cfg, "theorem1", residual)


def _grid_points(box: Box, n: int = 5):
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(box.lows(), box.highs())]
    for x in axes[0]:
        for y in axes[1]:
            for s in axes[2]:
                for t in axes[3]:
                    yield Point(x, y, s, t)


def _check_nongradient(cfg: RunConfig):
    pts = _sample_points(cfg, "nongradient")
    # exact closedness defect of the c3 member: (d xi-flat)_st = 1/(2 t^3)
    xi3 = soliton.soliton_field(SolitonParams(c3=1.0))
    claims = [_zero([abs(soliton.closedness_defect(xi3, p)[5] - 1.0 / (2.0 * p.t**3)) for p in pts], pts)]

    # every sampled member with (c1,c2,c3) != 0 must fail closedness somewhere
    # on the grid; the defect is affine in the constants, so evaluate a basis
    grid = list(_grid_points(cfg.box))
    base = soliton.soliton_field(SolitonParams())
    directions = [soliton.soliton_field(SolitonParams(**{f"c{k}": 1.0})) for k in range(1, 6)]
    defect0 = np.array([soliton.closedness_defect(base, p) for p in grid])
    ddefect = np.array(
        [[soliton.closedness_defect(f, p) for p in grid] for f in directions]
    )  # [k, point, component]
    ddefect -= defect0[None, :, :]
    n_params = 20
    for j in range(n_params):
        params = _sample_params(cfg, "nongradient", j, require_c123=True)
        d = defect0 + np.tensordot(np.array(params.constants()), ddefect, axes=1)
        claims.append(_exceeds(np.max(np.abs(d), axis=1), grid))
    return cfg.points + len(grid), claims


def _check_harmonic_components(cfg: RunConfig):
    def residual(i, p):
        params = cfg.soliton_params or _sample_params(cfg, "harmonic-components", i)
        return np.max(np.abs([soliton.scalar_laplacian(f, p) for f in soliton.soliton_field(params).components]))

    return _pointwise(cfg, "harmonic-components", residual)


def _polynomial_field(coeffs: np.ndarray):
    """Frame field whose components are quadratic polynomials in (s, t)."""

    def make(c):
        return lambda x, y, s, t: (
            c[0] + c[1] * s + c[2] * t + c[3] * s * s + c[4] * s * t + c[5] * t * t
        )

    return frame_field(*(make(coeffs[k]) for k in range(4)))


def _check_theorem3(cfg: RunConfig):
    weights = np.array([1.0, 1.0, 2.0, 2.0])

    def residual(i, p):
        X = _polynomial_field(_rng(cfg.seed, "theorem3/fields", i).uniform(-1.0, 1.0, (4, 6)))
        return np.max(np.abs(harmonic.rough_laplacian(X, p) - weights * harmonic.harmonic_section_equations(X, p)))

    return _pointwise(cfg, "theorem3", residual)


def _perturbed_power_field(slot: int, exponent: float):
    zero = lambda x, y, s, t: 0.0
    comps = [zero, zero, zero, zero]
    comps[slot - 1] = lambda x, y, s, t: t**exponent
    return coordinate_field(*comps)


def _check_corollary(cfg: RunConfig):
    pts = _sample_points(cfg, "corollary")
    # the power-law exponents are forced: a shifted exponent must leave a
    # visible residual somewhere
    shifted = [
        _perturbed_power_field(slot, exponent + 0.01)
        for slot in (3, 4)
        for exponent in (harmonic.EXPONENT_PLUS, harmonic.EXPONENT_MINUS)
    ]
    res = np.empty((4 + len(shifted), len(pts)))  # [field, point]: families 1..4, then shifted
    for i, p in enumerate(pts):
        families = [
            corollary_field(CorollaryFamily(k, *_rng(cfg.seed, f"corollary/c{k}", i).uniform(-3.0, 3.0, 2)))
            for k in (1, 2, 3, 4)
        ]
        for row, X in enumerate(families + shifted):
            res[row, i] = np.max(np.abs(harmonic.harmonic_section_residual(X, p)))
    return res.size, [_zero(r, pts) for r in res[:4]] + [_exceeds(r, pts) for r in res[4:]]


def _check_harmonic_map_witnesses(cfg: RunConfig):
    pts = _sample_points(cfg, "harmonic-map-witnesses")
    zero_field = constant_frame_field([0.0, 0.0, 0.0, 0.0])
    n_zero = min(10, len(pts))
    witnesses = [corollary_field(CorollaryFamily(k, 1.0, 0.0)) for k in (1, 2, 3, 4)]
    witnesses += [corollary_field(CorollaryFamily(k, 0.0, 1.0)) for k in (1, 2, 3, 4)]
    witnesses += [constant_frame_field(np.eye(4)[k]) for k in range(4)]

    mags = np.empty((len(witnesses), len(pts)))  # [witness, point]
    zero_res, quad_res = np.empty(n_zero), np.empty(len(pts))
    for i, p in enumerate(pts):
        if i < n_zero:
            zero_res[i] = harmonic.harmonic_map_residual(zero_field, p).max_component()
        for w, X in enumerate(witnesses):
            mags[w, i] = harmonic.harmonic_map_residual(X, p).max_component()
        # expanded quadratic identity for the last tension component
        comp = _rng(cfg.seed, "harmonic-map-witnesses/const", i).uniform(-2.0, 2.0, 4)
        t4 = harmonic.horizontal_tension(constant_frame_field(comp), p)[3]
        expected = 2 * comp[0] ** 2 + 2 * comp[1] ** 2 + 8 * comp[2] ** 2 + 8 * comp[3] ** 2
        quad_res[i] = abs(t4 - expected)

    # a witness at or below the margin would wrongly pass as a harmonic map
    claims = [_zero(zero_res, pts[:n_zero])] + [_exceeds(m, pts) for m in mags] + [_zero(quad_res, pts)]
    return n_zero + mags.size + len(pts), claims


def _check_coercivity(cfg: RunConfig):
    def residual(i, p):
        vs = _rng(cfg.seed, "coercivity/vectors", i).uniform(-3.0, 3.0, (10, 4))
        got = [coercivity_check(p, FrameVector(v), soliton.SOLITON_LAMBDA) for v in vs]
        return np.max([abs(g - 6.0 * (v[0] ** 2 + v[1] ** 2)) for g, v in zip(got, vs)])

    return _pointwise(cfg, "coercivity", residual, evals_per_point=10)


_REGISTRY: dict[str, Callable] = {
    "lemma1": _check_lemma1,
    "lemma2": _check_lemma2,
    "riemc": _check_riemc,
    "theorem1": _check_theorem1,
    "nongradient": _check_nongradient,
    "harmonic-components": _check_harmonic_components,
    "theorem3": _check_theorem3,
    "corollary": _check_corollary,
    "harmonic-map-witnesses": _check_harmonic_map_witnesses,
    "coercivity": _check_coercivity,
}

CHECK_NAMES = tuple(sorted(_REGISTRY))


def run_suite(name: str, cfg: RunConfig) -> CheckReport:
    """Run one registered check and report the worst residual found."""
    if name not in _REGISTRY:
        raise UnknownCheck(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    cfg.validate()
    start = time.perf_counter()
    sampled, claims = _REGISTRY[name](cfg)
    worst, witness = _reduce(claims)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return CheckReport(
        check_name=name,
        points_sampled=sampled,
        max_residual=worst,
        threshold=cfg.tol,
        passed=math.isfinite(worst) and worst < cfg.tol,
        witness_point=witness.astuple(),
        elapsed_ms=elapsed_ms,
    )


def run_all(cfg: RunConfig) -> list[CheckReport]:
    """Run every registered check in name order."""
    cfg.validate()
    return [run_suite(name, cfg) for name in CHECK_NAMES]
