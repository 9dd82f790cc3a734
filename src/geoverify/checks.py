"""Named verification checks with deterministic sampling and reports.

Each registered check gets its sampled points as one (N, 4) batch and
returns its claims: per-point residuals with the points they were
measured at.  A ``zero`` claim needs every residual below the threshold;
an ``exceeds`` claim (an inequality) needs its best witness to beat a
margin.  :func:`_reduce` turns the claims into ``max_residual`` and the
sampled witness point: a failed inequality contributes 1.0 at its best
witness, and any non-finite residual decides the report (the first one,
claims in order, points in sampling order), so that the check fails.  A
check passes when every inequality holds and its ``max_residual`` is
below the threshold.

Sampling is counter-based: the stream for point ``i`` of check ``name``
is seeded by (seed, name, i), so reports are reproducible and adding a
check never perturbs another check's points.  A check builds the
geometry once for its batch and evaluates each field once over it.  A
domain error at one point stops the batch, so the check fails with a NaN
``max_residual`` at that point.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import asdict, astuple, dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import harmonic, soliton, tables
from .chart import FrameVector, Point, as_point, constant_frame_field, coordinate_field, frame_field
from .curvature import coercivity_check, frame_connection, geometry_at, ricci_frame, riemann_frame_table
from .harmonic import CorollaryFamily, corollary_field
from .jets import DomainError
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
        """The fields in order, ``passed`` written as ``pass``."""
        return json.dumps({("pass" if k == "passed" else k): v for k, v in asdict(self).items()})

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
    points: Sequence  # the points the residuals were measured at: Points or (N, 4) rows
    margin: Optional[float] = None


def _zero(residuals, points) -> _Claim:
    return _Claim(residuals, points)


def _exceeds(residuals, points, margin: float = 1e-3) -> _Claim:
    return _Claim(residuals, points, margin)


def _reduce(claims: Sequence[_Claim]) -> tuple[float, object]:
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


def _sample_points(cfg: RunConfig, name: str) -> np.ndarray:
    """The check's points as an (N, 4) batch; row i is ``_sample_point(cfg, name, i)``."""
    return np.array([_sample_point(cfg, name, i).astuple() for i in range(cfg.points)])


def _uniform(cfg: RunConfig, stream: str, low: float, high: float, size) -> np.ndarray:
    """Row i is the draw from point i's own stream, shape (N, *size)."""
    return np.array([_rng(cfg.seed, stream, i).uniform(low, high, size) for i in range(cfg.points)])


def _params(cfg: RunConfig, name: str) -> SolitonParams:
    """The pinned soliton constants, else point i's sampled ones, each constant an (N,) array."""
    if cfg.soliton_params is not None:
        return cfg.soliton_params
    return SolitonParams(*np.array([_sample_params(cfg, name, i).constants() for i in range(cfg.points)]).T)


def _worst(a: np.ndarray, axes: int) -> np.ndarray:
    """max |a| over the trailing ``axes`` axes: one value per point."""
    return np.max(np.abs(a), axis=tuple(range(-axes, 0)))


def _check_lemma1(cfg: RunConfig, P: np.ndarray):
    return len(P), [_zero(_worst(frame_connection(P) - tables.CONNECTION_TABLE, 3), P)]


def _check_lemma2(cfg: RunConfig, P: np.ndarray):
    ric = ricci_frame(P)
    scalar_err = np.abs(np.trace(ric, axis1=-2, axis2=-1) - tables.SCALAR_CURVATURE)
    return len(P), [_zero(np.maximum(_worst(ric - tables.RICCI_FRAME, 2), scalar_err), P)]


def _check_riemc(cfg: RunConfig, P: np.ndarray):
    return len(P), [_zero(_worst(riemann_frame_table(P) - tables.full_curvature_tensor(), 4), P)]


def _check_theorem1(cfg: RunConfig, P: np.ndarray):
    params = _params(cfg, "theorem1")
    return len(P), [_zero(_worst(soliton.soliton_residual(soliton.soliton_field(params), params.lam, P), 2), P)]


def _grid_points(box: Box, n: int = 5) -> np.ndarray:
    """The n^4 grid over the box as rows (x, y, s, t), t varying fastest."""
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(box.lows(), box.highs())]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)


def _check_nongradient(cfg: RunConfig, P: np.ndarray):
    # exact closedness defect of the c3 member: (d xi-flat)_st = 1/(2 t^3)
    xi3 = soliton.soliton_field(SolitonParams(c3=1.0))
    claims = [_zero(np.abs(soliton.closedness_defect(xi3, P)[:, 5] - 1.0 / (2.0 * P[:, 3] ** 3)), P)]

    # every sampled member with (c1,c2,c3) != 0 must fail closedness somewhere
    # on the grid; the defect is affine in the constants, so evaluate a basis
    grid = _grid_points(cfg.box)
    basis = [SolitonParams()] + [SolitonParams(**{f"c{k}": 1.0}) for k in range(1, 6)]
    try:
        defect0, *ddefect = [soliton.closedness_defect(soliton.soliton_field(c), grid) for c in basis]
    except DomainError as exc:  # a grid point left the domain: fail there
        return len(P) + len(grid), claims + [_zero([math.nan], [grid[exc.index]])]
    ddefect = np.array(ddefect) - defect0  # [k, point, component]
    n_params = 20
    for j in range(n_params):
        params = _sample_params(cfg, "nongradient", j, require_c123=True)
        d = defect0 + np.tensordot(np.array(params.constants()), ddefect, axes=1)
        claims.append(_exceeds(np.max(np.abs(d), axis=1), grid))
    return len(P) + len(grid), claims


def _check_harmonic_components(cfg: RunConfig, P: np.ndarray):
    _, grad, hess = soliton.soliton_field(_params(cfg, "harmonic-components")).component_jets(P)
    geo = geometry_at(P)
    laplacians = [soliton._scalar_laplacian(geo, grad[..., k], hess[..., k]) for k in range(4)]
    return len(P), [_zero(np.max(np.abs(laplacians), axis=0), P)]


def _polynomial_field(coeffs: np.ndarray):
    """Frame field whose components are quadratic polynomials in (s, t); coeffs[..., k, :] for component k."""

    def make(c):
        return lambda x, y, s, t: (
            c[..., 0] + c[..., 1] * s + c[..., 2] * t + c[..., 3] * s * s + c[..., 4] * s * t + c[..., 5] * t * t
        )

    return frame_field(*(make(coeffs[..., k, :]) for k in range(4)))


def _check_theorem3(cfg: RunConfig, P: np.ndarray):
    X = _polynomial_field(_uniform(cfg, "theorem3/fields", -1.0, 1.0, (4, 6)))
    val, grad, hess = X.frame_component_jets(P)
    laplacian = harmonic._rough_laplacian(geometry_at(P), val, grad, hess)
    weights = np.array([1.0, 1.0, 2.0, 2.0])
    return len(P), [_zero(_worst(laplacian - weights * harmonic._section_equations(P[:, 3], val, grad, hess), 1), P)]


def _perturbed_power_field(slot: int, exponent: float):
    zero = lambda x, y, s, t: 0.0
    comps = [zero, zero, zero, zero]
    comps[slot - 1] = lambda x, y, s, t: t**exponent
    return coordinate_field(*comps)


def _check_corollary(cfg: RunConfig, P: np.ndarray):
    c = [_uniform(cfg, f"corollary/c{k}", -3.0, 3.0, 2) for k in (1, 2, 3, 4)]  # per point (c1, c2)
    families = [corollary_field(CorollaryFamily(k, *c[k - 1].T)) for k in (1, 2, 3, 4)]
    # the power-law exponents are forced: a shifted exponent must leave a
    # visible residual somewhere
    shifted = [
        _perturbed_power_field(slot, exponent + 0.01)
        for slot in (3, 4)
        for exponent in (harmonic.EXPONENT_PLUS, harmonic.EXPONENT_MINUS)
    ]
    geo = geometry_at(P)
    # [field, point]: families 1..4, then shifted
    res = np.array([_worst(harmonic._rough_laplacian(geo, *X.frame_component_jets(P)), 1) for X in families + shifted])
    return res.size, [_zero(r, P) for r in res[:4]] + [_exceeds(r, P) for r in res[4:]]


def _check_harmonic_map_witnesses(cfg: RunConfig, P: np.ndarray):
    geo = geometry_at(P)

    def tension(X):
        return harmonic._tension(geo, *X.frame_component_jets(P))

    n_zero = min(10, len(P))
    zero_res = tension(constant_frame_field([0.0, 0.0, 0.0, 0.0])).max_component()[:n_zero]
    witnesses = [corollary_field(CorollaryFamily(k, 1.0, 0.0)) for k in (1, 2, 3, 4)]
    witnesses += [corollary_field(CorollaryFamily(k, 0.0, 1.0)) for k in (1, 2, 3, 4)]
    witnesses += [constant_frame_field(np.eye(4)[k]) for k in range(4)]
    mags = np.array([tension(X).max_component() for X in witnesses])  # [witness, point]

    # expanded quadratic identity for the last tension component
    comp = _uniform(cfg, "harmonic-map-witnesses/const", -2.0, 2.0, 4)
    t4 = harmonic._horizontal_tension(geo, *constant_frame_field(comp).frame_component_jets(P))[:, 3]
    quad_res = np.abs(t4 - (2 * comp[:, 0] ** 2 + 2 * comp[:, 1] ** 2 + 8 * comp[:, 2] ** 2 + 8 * comp[:, 3] ** 2))

    # a witness at or below the margin would wrongly pass as a harmonic map
    claims = [_zero(zero_res, P[:n_zero])] + [_exceeds(m, P) for m in mags] + [_zero(quad_res, P)]
    return n_zero + mags.size + len(P), claims


def _check_coercivity(cfg: RunConfig, P: np.ndarray):
    vs = _uniform(cfg, "coercivity/vectors", -3.0, 3.0, (10, 4))  # [point, vector, component]
    got = coercivity_check(P[:, None], FrameVector(vs), soliton.SOLITON_LAMBDA)  # batch (N, 1) meets (N, 10)
    return 10 * len(P), [_zero(np.max(np.abs(got - 6.0 * (vs[..., 0] ** 2 + vs[..., 1] ** 2)), axis=-1), P)]


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
    P = _sample_points(cfg, name)
    try:
        sampled, claims = _REGISTRY[name](cfg, P)
    except DomainError as exc:  # one point left the domain, which stops its whole batch: fail there
        sampled, claims = len(P), [_zero([math.nan], [P[exc.index]])]
    worst, witness = _reduce(claims)
    # a failed inequality reports 1.0, which a tolerance above 1 would let pass
    held = all(np.max(c.residuals) > c.margin for c in claims if c.margin is not None)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return CheckReport(
        check_name=name,
        points_sampled=sampled,
        max_residual=worst,
        threshold=cfg.tol,
        passed=held and math.isfinite(worst) and worst < cfg.tol,
        witness_point=as_point(witness).astuple(),
        elapsed_ms=elapsed_ms,
    )


def run_all(cfg: RunConfig) -> list[CheckReport]:
    """Run every registered check in name order."""
    cfg.validate()
    return [run_suite(name, cfg) for name in CHECK_NAMES]
