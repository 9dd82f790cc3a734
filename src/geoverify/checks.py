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

Sampling is counter-based: each (seed, stream name) pair keys one Philox
stream, and row ``i`` of a check's points, or of any other per-point
draw, is row ``i`` of one draw from its stream.  It depends on (seed,
stream, i) alone, so reports are reproducible and neither more points
nor another check perturb it.  Each stream is drawn once for all N rows;
the geometry-heavy part of a check then runs over blocks of ``_CHUNK``
rows, building the geometry once per block and each field once over it,
and each claim's residuals are joined across blocks in sampling order.
So the block size bounds a check's memory but never changes its report.
A domain error stops the check, which fails with a NaN ``max_residual``
at the row it names.
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
from .chart import FrameVector, as_point, constant_frame_field, coordinate_field, frame_field, frame_jets_of
from .curvature import coercivity_check, frame_connection, geometry_at, ricci_frame, riemann_frame_table
from .harmonic import CorollaryFamily, corollary_field
from .jets import DomainError
from .soliton import SolitonParams

__all__ = ["ConfigError", "UnknownCheck", "Box", "RunConfig", "CheckReport", "CHECK_NAMES", "run_suite", "run_all"]

_CHUNK = 1024  # rows evaluated together: bounds a check's memory, never changes its report


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
        for lo, hi in zip(self.lows(), self.highs()):
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


def _chunked(P: np.ndarray, block: Callable) -> list[_Claim]:
    """The claims of ``block(P[rows], rows)`` over consecutive blocks of _CHUNK rows, each joined in row order."""
    parts = []
    for start in range(0, len(P), _CHUNK):
        rows = slice(start, start + _CHUNK)
        try:
            parts.append(block(P[rows], rows))
        except DomainError as exc:  # name the check's row, not the block's
            exc.index += start
            raise
    return [
        _Claim(np.concatenate([c.residuals for c in claim]), np.concatenate([c.points for c in claim]), claim[0].margin)
        for claim in zip(*parts)
    ]


def _stream(cfg: RunConfig, name: str) -> np.random.Generator:
    """The counter-based stream of ``name`` at the run's seed."""
    return np.random.Generator(np.random.Philox(key=[cfg.seed & 0xFFFFFFFF, zlib.crc32(name.encode())]))


def _sample_points(cfg: RunConfig, name: str) -> np.ndarray:
    """The check's points as an (N, 4) batch: row i is the i-th point drawn from the check's stream."""
    return _stream(cfg, name).uniform(cfg.box.lows(), cfg.box.highs(), (cfg.points, 4))


def _uniform(cfg: RunConfig, stream: str, low: float, high: float, size: tuple) -> np.ndarray:
    """Row i is point i's draw of shape ``size`` from the stream, shape (N, *size)."""
    return _stream(cfg, stream).uniform(low, high, (cfg.points, *size))


def _params(cfg: RunConfig, name: str) -> tuple[np.ndarray, float]:
    """Row i holds point i's soliton constants (c1..c5), pinned or drawn, beside the soliton constant lambda."""
    if cfg.soliton_params is not None:
        return np.broadcast_to(cfg.soliton_params.constants(), (cfg.points, 5)), cfg.soliton_params.lam
    return _uniform(cfg, name + "/params", -3.0, 3.0, (5,)), soliton.SOLITON_LAMBDA


def _worst(a: np.ndarray, axes: int) -> np.ndarray:
    """max |a| over the trailing ``axes`` axes: one value per point."""
    return np.max(np.abs(a), axis=tuple(range(-axes, 0)))


def _check_lemma1(cfg: RunConfig, P: np.ndarray):
    return len(P), _chunked(P, lambda Q, _: [_zero(_worst(frame_connection(Q) - tables.CONNECTION_TABLE, 3), Q)])


def _check_lemma2(cfg: RunConfig, P: np.ndarray):
    def block(Q, _):
        ric = ricci_frame(Q)
        scalar_err = np.abs(np.trace(ric, axis1=-2, axis2=-1) - tables.SCALAR_CURVATURE)
        return [_zero(np.maximum(_worst(ric - tables.RICCI_FRAME, 2), scalar_err), Q)]

    return len(P), _chunked(P, block)


def _check_riemc(cfg: RunConfig, P: np.ndarray):
    table = tables.full_curvature_tensor()
    return len(P), _chunked(P, lambda Q, _: [_zero(_worst(riemann_frame_table(Q) - table, 4), Q)])


def _check_theorem1(cfg: RunConfig, P: np.ndarray):
    c, lam = _params(cfg, "theorem1")

    def block(Q, rows):
        xi = soliton.soliton_field(SolitonParams(*c[rows].T))
        return [_zero(_worst(soliton.soliton_residual(xi, lam, Q), 2), Q)]

    return len(P), _chunked(P, block)


def _check_nongradient(cfg: RunConfig, P: np.ndarray):
    # exact closedness defect of the c3 member: (d xi-flat)_st = 1/(2 t^3)
    xi3 = soliton.soliton_field(SolitonParams(c3=1.0))
    defect = lambda Q: np.abs(soliton.closedness_defect(xi3, Q)[:, 5] - 1.0 / (2.0 * Q[:, 3] ** 3))
    claims = _chunked(P, lambda Q, _: [_zero(defect(Q), Q)])

    # every sampled member with (c1,c2,c3) != 0 must fail closedness somewhere on the
    # 5^4 grid over the box; the defect is affine in the constants, so evaluate a basis
    axes = [np.linspace(lo, hi, 5) for lo, hi in zip(cfg.box.lows(), cfg.box.highs())]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    basis = [SolitonParams()] + [SolitonParams(**{f"c{k}": 1.0}) for k in range(1, 6)]
    try:
        defect0, *ddefect = [soliton.closedness_defect(soliton.soliton_field(c), grid) for c in basis]
    except DomainError as exc:  # a grid point left the domain: fail there
        return len(P) + len(grid), claims + [_zero([math.nan], [grid[exc.index]])]
    ddefect = np.array(ddefect) - defect0  # [k, point, component]
    # the first 20 members drawn from the stream with max|c1, c2, c3| >= 0.1
    stream, c = _stream(cfg, "nongradient/params"), np.empty((0, 5))
    while len(c) < 20:
        draw = stream.uniform(-3.0, 3.0, (20, 5))
        c = np.concatenate([c, draw[np.max(np.abs(draw[:, :3]), axis=1) >= 0.1]])
    d = defect0 + np.tensordot(c[:20], ddefect, axes=1)  # [member, point, component]
    return len(P) + len(grid), claims + [_exceeds(r, grid) for r in np.max(np.abs(d), axis=-1)]


def _check_harmonic_components(cfg: RunConfig, P: np.ndarray):
    c, _ = _params(cfg, "harmonic-components")

    def block(Q, rows):
        _, grad, hess = soliton.soliton_field(SolitonParams(*c[rows].T)).component_jets(Q)
        geo = geometry_at(Q)
        laplacians = [soliton._scalar_laplacian(geo, grad[..., k], hess[..., k]) for k in range(4)]
        return [_zero(np.max(np.abs(laplacians), axis=0), Q)]

    return len(P), _chunked(P, block)


def _polynomial_field(coeffs: np.ndarray):
    """Frame field whose components are quadratic polynomials in (s, t); coeffs[..., k, :] for component k."""

    def make(c):
        return lambda x, y, s, t: (
            c[..., 0] + c[..., 1] * s + c[..., 2] * t + c[..., 3] * s * s + c[..., 4] * s * t + c[..., 5] * t * t
        )

    return frame_field(*(make(coeffs[..., k, :]) for k in range(4)))


def _check_theorem3(cfg: RunConfig, P: np.ndarray):
    coeffs = _uniform(cfg, "theorem3/fields", -1.0, 1.0, (4, 6))
    weights = np.array([1.0, 1.0, 2.0, 2.0])

    def block(Q, rows):
        val, grad, hess = _polynomial_field(coeffs[rows]).frame_component_jets(Q)
        laplacian = harmonic._rough_laplacian(geometry_at(Q), val, grad, hess)
        return [_zero(_worst(laplacian - weights * harmonic._section_equations(Q[:, 3], val, grad, hess), 1), Q)]

    return len(P), _chunked(P, block)


def _perturbed_power_field(slot: int, exponent: float):
    zero = lambda x, y, s, t: 0.0
    comps = [zero, zero, zero, zero]
    comps[slot - 1] = lambda x, y, s, t: t**exponent
    return coordinate_field(*comps)


def _check_corollary(cfg: RunConfig, P: np.ndarray):
    c = [_uniform(cfg, f"corollary/c{k}", -3.0, 3.0, (2,)) for k in (1, 2, 3, 4)]  # per point (c1, c2)
    # the power-law exponents are forced: a shifted exponent must leave a visible residual somewhere
    exponents = (harmonic.EXPONENT_PLUS, harmonic.EXPONENT_MINUS)
    shifted = [_perturbed_power_field(slot, exponent + 0.01) for slot in (3, 4) for exponent in exponents]

    def block(Q, rows):
        families = [corollary_field(CorollaryFamily(k, *c[k - 1][rows].T)) for k in (1, 2, 3, 4)]
        geo = geometry_at(Q)
        # families 1..4, then shifted
        res = [_worst(harmonic._rough_laplacian(geo, *jets), 1) for jets in frame_jets_of(families + shifted, Q)]
        return [_zero(r, Q) for r in res[:4]] + [_exceeds(r, Q) for r in res[4:]]

    return 8 * len(P), _chunked(P, block)


def _check_harmonic_map_witnesses(cfg: RunConfig, P: np.ndarray):
    comp = _uniform(cfg, "harmonic-map-witnesses/const", -2.0, 2.0, (4,))
    witnesses = [corollary_field(CorollaryFamily(k, 1.0, 0.0)) for k in (1, 2, 3, 4)]
    witnesses += [corollary_field(CorollaryFamily(k, 0.0, 1.0)) for k in (1, 2, 3, 4)]
    witnesses += [constant_frame_field(np.eye(4)[k]) for k in range(4)]
    n_zero = min(10, len(P))

    def block(Q, rows):
        geo = geometry_at(Q)
        head = Q[: max(0, n_zero - rows.start)]  # the block's rows among the check's first ten
        zero_res = np.empty(0)
        if len(head):
            zero_jets = constant_frame_field([0.0, 0.0, 0.0, 0.0]).frame_component_jets(Q)
            zero_res = harmonic._tension(geo, *zero_jets).max_component()[: len(head)]
        mags = [harmonic._tension(geo, *jets).max_component() for jets in frame_jets_of(witnesses, Q)]

        # expanded quadratic identity for the last tension component
        k = comp[rows]
        t4 = harmonic._horizontal_tension(geo, *constant_frame_field(k).frame_component_jets(Q))[:, 3]
        quad_res = np.abs(t4 - (2 * k[:, 0] ** 2 + 2 * k[:, 1] ** 2 + 8 * k[:, 2] ** 2 + 8 * k[:, 3] ** 2))

        # a witness at or below the margin would wrongly pass as a harmonic map
        return [_zero(zero_res, head)] + [_exceeds(m, Q) for m in mags] + [_zero(quad_res, Q)]

    return n_zero + len(witnesses) * len(P) + len(P), _chunked(P, block)


def _check_coercivity(cfg: RunConfig, P: np.ndarray):
    vs = _uniform(cfg, "coercivity/vectors", -3.0, 3.0, (10, 4))  # [point, vector, component]

    def block(Q, rows):
        got = coercivity_check(Q[:, None], FrameVector(vs[rows]), soliton.SOLITON_LAMBDA)  # (n, 1) meets (n, 10)
        return [_zero(np.max(np.abs(got - 6.0 * (vs[rows, :, 0] ** 2 + vs[rows, :, 1] ** 2)), axis=-1), Q)]

    return 10 * len(P), _chunked(P, block)


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
    return [run_suite(name, cfg) for name in CHECK_NAMES]
