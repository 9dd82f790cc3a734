"""Named verification checks with deterministic sampling and reports.

Each registered check gets its sampled points as one (N, 4) batch and
returns its claims: per-point residuals with the points they were
measured at.  A ``zero`` claim needs every residual below the threshold;
an ``exceeds`` claim (an inequality) needs its best witness to beat a
margin.  :func:`_reduce` turns the claims, in one pass, into
``max_residual``, the sampled witness point and whether every inequality
held: a failed inequality contributes 1.0 at its best witness, and any
non-finite residual decides the report (the first one, claims in order,
points in sampling order), so that the check fails.  A check passes when
every inequality holds and its ``max_residual`` is below the threshold.

Sampling is counter-based: each (seed, stream name) pair keys one Philox
stream, and row ``i`` of a check's points, or of any other per-point
draw, is row ``i`` of one draw from its stream.  It depends on (seed,
stream, i) alone, so reports are reproducible and neither more points
nor another check perturb it.  As the key names the stream and the
counter its position, each thread keeps one Philox and re-keys it for
every stream, with a zero counter and an empty buffer: building one per
stream would first seed it from OS entropy only to overwrite that.  Each
stream is drawn once for all N rows;
the geometry-heavy part of a check then runs over blocks of ``_CHUNK``
rows, building the geometry once per block and each field once over it,
and each claim's residuals are joined across blocks in sampling order.
So the block size bounds a check's memory but never changes its report.
A field whose components share one closed form is evaluated once over a
component axis: ``theorem3``'s four (s, t) quadratics lead with it, and
move it last, so that their jets are the per-component jets bit for bit,
with the batch innermost in memory; ``harmonic-components`` takes the
soliton components and its t^2 control as the entries of one form, and
the witnesses the families' span as eight basis profiles of one form.
A domain error stops the check, which fails with a NaN ``max_residual``
at the row it names.
"""

from __future__ import annotations

import json
import math
import threading
import time
import zlib
from dataclasses import astuple, dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import harmonic, soliton, tables
from .chart import _in_span, _jets, metric_jets
from .curvature import coercivity_check, frame_connection, geometry_at, ricci_frame, riemann_frame_table
from .harmonic import CorollaryFamily
from .jets import NVARS, DomainError, _einsum, _moved, _require
from .soliton import SolitonParams

__all__ = ["ConfigError", "UnknownCheck", "Box", "RunConfig", "CheckReport", "CHECK_NAMES", "run_suite", "run_all"]

_CHUNK = 1024  # rows evaluated together: bounds a check's memory, never changes its report
_FAMILY_MARGIN = 1e-6  # nongradient: the closest member's grid defect, relative to the base member's
_PHILOX = threading.local()  # the thread's one bit generator, made on first use
_MAX_POINTS = np.iinfo(np.intp).max // 32  # the most points whose (points, 4) float64 draw numpy can size
_CURVATURE_TENSOR = tables.full_curvature_tensor()  # riemc's reference, expanded once
_CURVATURE_TENSOR.setflags(write=False)


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
        for lo, hi in zip(self.lows().tolist(), self.highs().tolist()):  # Python floats: a width that overflows is inf
            if not (-math.inf < lo <= hi < math.inf and hi - lo < math.inf):
                raise ConfigError(f"sampling interval [{lo}, {hi}] must be non-empty, with finite bounds and width")
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

    def validate(self):
        for name, value in (("seed", self.seed), ("points", self.points)):  # a float seed would run another's streams
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.seed < 2**32:  # the Philox key holds 32 bits of seed: a wider one would repeat a stream
            raise ConfigError(f"seed must be in [0, 2**32), got {self.seed}")
        if not 1 <= self.points <= _MAX_POINTS:
            raise ConfigError(f"points must be in [1, {_MAX_POINTS}], got {self.points}")
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
        """The fields in order, ``passed`` written as ``pass``; ``vars``, as ``asdict`` deep-copies every field."""
        return json.dumps({("pass" if k == "passed" else k): v for k, v in vars(self).items()})

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


def _reduce(claims: Sequence[_Claim]) -> tuple[float, object, bool]:
    """The report's ``max_residual``, the sampled point that attained it, and whether every inequality held."""
    worst, witness, held = 0.0, claims[0].points[0], True
    for c in claims:
        r = np.asarray(c.residuals, dtype=float)
        finite = np.isfinite(r)
        if not finite.all():  # the first non-finite residual decides the report
            bad = int(finite.argmin())
            return float(r[bad]), c.points[bad], False
        if c.margin is None:
            i = len(r) - 1 - int(r[::-1].argmax())  # the last maximum
            value = float(r[i])
        else:
            i = int(r.argmax())
            if r[i] > c.margin:
                continue
            value, held = 1.0, False  # 1.0 alone would pass under a tolerance above 1
        if value >= worst:  # ties go to the later contribution
            worst, witness = value, c.points[i]
    return worst, witness, held


def _chunked(P: np.ndarray, block: Callable) -> list[_Claim]:
    """The claims of ``block(P[rows], rows)`` over consecutive blocks of _CHUNK rows, each joined in row order."""
    parts, blocks = [], []
    for start in range(0, len(P), _CHUNK):
        rows = slice(start, start + _CHUNK)
        blocks.append(P[rows])
        try:
            parts.append(block(blocks[-1], rows))
        except DomainError as exc:  # name the check's row, not the block's
            exc.index += start
            raise

    def join(arrays):  # one block's array as it is, with nothing to join
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def points(claim):  # a claim at every block's own rows shares P, not a copy of it per claim
        own = all(c.points is Q for c, Q in zip(claim, blocks))
        return P if own else join([c.points for c in claim])

    return [_Claim(join([c.residuals for c in claim]), points(claim), claim[0].margin) for claim in zip(*parts)]


def _stream(cfg: RunConfig, name: str) -> np.random.Generator:
    """The counter-based stream of ``name`` at the run's seed, valid until the thread's next ``_stream`` call.

    The thread's one Philox is re-keyed to (seed, crc32(name)), with the counter at zero, its buffer empty and no
    32-bit half kept: bit for bit a new ``Philox(key=...)``, without the OS-entropy seeding that the key would then
    overwrite.  Re-keying is safe because each caller draws everything it needs from the stream at once.
    """
    bits = getattr(_PHILOX, "bits", None)
    if bits is None:
        bits = _PHILOX.bits = np.random.Philox(0)
    zero, key = (0, 0, 0, 0), (cfg.seed, zlib.crc32(name.encode()))
    state = {"counter": zero, "key": key}
    bits.state = dict(bit_generator="Philox", state=state, buffer=zero, buffer_pos=4, has_uint32=0, uinteger=0)
    return np.random.Generator(bits)


def _sample_points(cfg: RunConfig, name: str) -> np.ndarray:
    """The check's points as an (N, 4) batch: row i is the i-th point drawn from the check's stream."""
    low, high = cfg.box.lows(), cfg.box.highs()  # what uniform(low, high) draws, bit for bit, without its broadcast
    return low + (high - low) * _stream(cfg, name).random((cfg.points, 4))


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
    return np.abs(a).max(axis=tuple(range(-axes, 0)))


def _check_lemma1(cfg: RunConfig, P: np.ndarray):
    return len(P), _chunked(P, lambda Q, _: [_zero(_worst(frame_connection(Q) - tables.CONNECTION_TABLE, 3), Q)])


def _check_lemma2(cfg: RunConfig, P: np.ndarray):
    def block(Q, _):
        ric = ricci_frame(Q)
        scalar_err = np.abs(ric.trace(axis1=-2, axis2=-1) - tables.SCALAR_CURVATURE)
        return [_zero(np.maximum(_worst(ric - tables.RICCI_FRAME, 2), scalar_err), Q)]

    return len(P), _chunked(P, block)


def _check_riemc(cfg: RunConfig, P: np.ndarray):
    return len(P), _chunked(P, lambda Q, _: [_zero(_worst(riemann_frame_table(Q) - _CURVATURE_TENSOR, 4), Q)])


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

    # no member of the family is closed on the 5^4 grid over the box: its defect D0 + dD c is affine in the
    # constants, so the least-squares member c* comes closest of all, and must stay a margin away relative to D0
    axes = [np.linspace(lo, hi, 5) for lo, hi in zip(cfg.box.lows(), cfg.box.highs())]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    basis = soliton.soliton_field(SolitonParams(*np.eye(6, 5, -1).T[..., None]))  # c = 0, then each c_k = 1 alone
    try:
        metric = metric_jets(grid, order=1)  # once for all six basis fields, which meet it as one batch
        D = soliton._closedness_defect(metric, basis, np.broadcast_to(grid, (6, *grid.shape)))
        _require(np.isfinite(D).all(axis=(0, 2)), "non-finite closedness defect")  # D[member, point, component]
    except DomainError as exc:  # a grid point left the domain, or no least squares over it means anything: fail there
        return len(P) + len(grid), claims + [_zero([math.nan], [grid[exc.index]])]
    scale = max(np.abs(D).max(), np.finfo(D.dtype).tiny)  # scale-free; unscaled, squares overflow
    D = D.transpose(_moved(-1, 1, D.ndim)) / scale
    b, A = D[0].ravel(), (D[1:] - D[0]).reshape(5, -1).T
    d = A @ np.linalg.lstsq(A, -b, rcond=None)[0] + b  # the defect of c* at every grid point and component
    norm = np.linalg.norm(b)  # zero: the base member is closed, so the claim fails
    ratio = np.linalg.norm(d) / norm if norm else 0.0
    witness = grid[np.argmax(np.abs(d.reshape(6, -1)).max(axis=0))]
    return len(P) + len(grid), claims + [_exceeds([ratio], [witness], _FAMILY_MARGIN)]


def _check_harmonic_components(cfg: RunConfig, P: np.ndarray):
    c, _ = _params(cfg, "harmonic-components")

    def block(Q, rows):
        xi = soliton.soliton_field(SolitonParams(*c[rows].T))
        # the four components, then the control t^2: Lap(t^2) = 8 t^2, which a Laplacian that reads 0 everywhere misses
        _, grad, hess = _jets(lambda *q: (*(f(*q) for f in xi.components), q[3] * q[3]), Q)
        laplacians = soliton._scalar_laplacian(geometry_at(Q), grad, hess)  # one scalar Laplacian per column
        control = laplacians[:, 4] - 8.0 * Q[:, 3] ** 2
        return [_zero(_worst(laplacians[:, :4], 1), Q), _zero(np.abs(control), Q)]

    return len(P), _chunked(P, block)


def _check_theorem3(cfg: RunConfig, P: np.ndarray):
    coeffs = _uniform(cfg, "theorem3/fields", -1.0, 1.0, (4, 6))  # point i's frame field: coeffs[i, component, term]
    weights = np.array([1.0, 1.0, 2.0, 2.0])

    def block(Q, rows):
        # c[term] is (component, point); a domain error's flat index over (component, row) is the row itself, since
        # the first component's rows come first
        c = coeffs[rows].T
        quadratic = lambda x, y, s, t: c[0] + c[1] * s + c[2] * t + c[3] * s * s + c[4] * s * t + c[5] * t * t
        jets = _jets(quadratic, np.broadcast_to(Q, (4, *Q.shape)))
        val, grad, hess = (a.transpose(_moved(0, -1, a.ndim)) for a in jets)
        laplacian = harmonic._rough_laplacian(geometry_at(Q), val, grad, hess)
        return [_zero(_worst(laplacian - weights * harmonic._section_equations(Q[:, 3], val, grad, hess), 1), Q)]

    return len(P), _chunked(P, block)


def _check_corollary(cfg: RunConfig, P: np.ndarray):
    c = [_uniform(cfg, f"corollary/c{k}", -3.0, 3.0, (2,)) for k in (1, 2, 3, 4)]  # per point (c1, c2)
    # the power-law exponents are forced: a shifted exponent must leave a visible residual somewhere
    exponents = (harmonic.EXPONENT_PLUS, harmonic.EXPONENT_MINUS)
    shifted = [lambda x, y, s, t, power, r=exponent + 0.01: power(r) for exponent in exponents] * 2  # d/ds, d/dt

    def block(Q, rows):
        # the eight fields f d_l as one stack: one evaluation of their profiles, one Laplacian for all
        profiles = [harmonic._profile(CorollaryFamily(k, *c[k - 1][rows].T)) for k in (1, 2, 3, 4)] + shifted
        res = _worst(harmonic._stack(geometry_at(Q), harmonic._form(profiles), (0, 1, 2, 3, 2, 2, 3, 3), Q)[0], 1)
        return [_zero(r, Q) for r in res[:4]] + [_exceeds(r, Q) for r in res[4:]]

    return 8 * len(P), _chunked(P, block)


def _check_harmonic_map_witnesses(cfg: RunConfig, P: np.ndarray):
    comp = _uniform(cfg, "harmonic-map-witnesses/const", -2.0, 2.0, (4,))
    # families 1-4 at (c1, c2) = (1, 0) and (0, 1), one stack of fields f d_l on the span's basis; then e1..e4 beside
    coordinate, dirs, n_zero = harmonic._form(harmonic._BASIS), [0, 1, 2, 3] * 2, min(10, len(P))

    def block(Q, rows):
        geo = geometry_at(Q)
        lap, (f, df), own = harmonic._stack(geo, coordinate, dirs, Q)
        # frame jets th_j(d_l) f on the directions' columns, over one row span to t for _nabla: on F4 s and t alike
        T, dT = (a.transpose(_moved(-1, 0, a.ndim))[dirs] for a in geo._coframe[:2])
        span = slice(min(own.start, geo._live.start), NVARS)
        df, dT = _in_span(df, own, -2, span), _in_span(dT, geo._live, -2, span)
        mags = harmonic._tension(geo, T * f, dT * f[..., None] + T[..., None, :] * df, lap).max_component()
        # constant fields e1..e4, zero and k, batch innermost (new empty arrays have no strides): no rows, Lap X = X M
        k, val, grad = comp[rows], np.zeros((6, 4, len(Q))).transpose(0, 2, 1), np.zeros((1, 4, len(Q)))[:0]
        val[:4], val[5] = np.eye(4)[:, None], k
        const = harmonic._tension(geo, val, grad.transpose(2, 0, 1), _einsum("...k,...kj->...j", val, geo.M))
        head, const_mags = Q[: max(0, n_zero - rows.start)], const.max_component()  # head: rows among the first ten
        # expanded quadratic identity for the last tension component
        t4, quad = const.horizontal[5, :, 3], 2 * k[:, 0] ** 2 + 2 * k[:, 1] ** 2 + 8 * k[:, 2] ** 2 + 8 * k[:, 3] ** 2
        # a witness at or below the margin would wrongly pass as a harmonic map
        witnesses = [_exceeds(m, Q) for m in (*mags, *const_mags[:4])]
        return [_zero(const_mags[4, : len(head)], head)] + witnesses + [_zero(np.abs(t4 - quad), Q)]

    return n_zero + 12 * len(P) + len(P), _chunked(P, block)


def _check_coercivity(cfg: RunConfig, P: np.ndarray):
    # [point, vector, component], the point axis innermost in memory, as in Ricci: the quadratic form loops over it
    vs = np.asfortranarray(_uniform(cfg, "coercivity/vectors", -3.0, 3.0, (10, 4)))

    def block(Q, rows):
        got = coercivity_check(Q[:, None], vs[rows], soliton.SOLITON_LAMBDA)  # (n, 1) meets (n, 10)
        return [_zero(np.abs(got - 6.0 * (vs[rows, :, 0] ** 2 + vs[rows, :, 1] ** 2)).max(axis=-1), Q)]

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
    worst, witness, held = _reduce(claims)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return CheckReport(
        check_name=name,
        points_sampled=sampled,
        max_residual=worst,
        threshold=cfg.tol,
        passed=held and math.isfinite(worst) and worst < cfg.tol,
        witness_point=tuple(map(float, witness)),
        elapsed_ms=elapsed_ms,
    )


def run_all(cfg: RunConfig) -> list[CheckReport]:
    """Run every registered check in name order."""
    return [run_suite(name, cfg) for name in CHECK_NAMES]
