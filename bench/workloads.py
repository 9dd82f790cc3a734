"""The benchmark's workloads and their correctness gates.

Each workload turns the run seed into a stream of requests.  A request
is a timed call into geoverify plus a gate that checks the call's output
afterwards, outside the timed region.  Every request of a run uses fresh
inputs, so no request is served from geometry cached by an earlier one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from geoverify import checks, cli, curvature, harmonic, soliton, tables
from geoverify.chart import coordinate_field
from geoverify.checks import RunConfig

TOL = 1e-9  # the CLI's default pass threshold, also applied to replay identities
HARMONIC_WEIGHTS = np.array([1.0, 1.0, 2.0, 2.0])  # rough Laplacian = weights * section equations


@dataclass
class Outcome:
    """What the gate found for one request."""

    evals: int
    residual: float  # largest residual the gate compared against zero
    ok: bool
    detail: str = ""


class _Workload:
    """A request stream: request ``k`` draws its inputs from the run seed alone."""

    name = ""
    # accuracy_digits comes from this many leading requests, so it does not
    # depend on how many requests fit in the run
    accuracy_requests = 1
    # latency_ms.tail is the highest percentile with at least ten requests
    # beyond it; a sweep fits three or four requests in a run, so none has,
    # and its tail is the median
    tail_percentile = 50
    through_checks = True  # requests go through checks.run_suite

    def __init__(self, seed: int, scratch_dir: str):
        self.seed = seed
        self.scratch_dir = scratch_dir
        self._rng = np.random.default_rng(seed)
        self._requests = 0

    def params(self) -> dict:
        raise NotImplementedError

    def request(self):
        """Draw the next request's inputs; return (timed call, gate)."""
        raise NotImplementedError

    def _next_seed(self) -> int:
        # request 0 runs at the run seed itself, so it matches `verify ... --seed S`
        self._requests += 1
        return self.seed if self._requests == 1 else int(self._rng.integers(2**31))


def _report_outcome(reports: list[dict], expected: int) -> Outcome:
    evals = sum(int(r["points_sampled"]) for r in reports)
    worst = max((float(r["max_residual"]) for r in reports), default=math.inf)
    bad = [
        r["check_name"]
        for r in reports
        if not (r["pass"] and math.isfinite(r["max_residual"]) and r["max_residual"] < r["threshold"])
    ]
    if len(reports) != expected:
        return Outcome(evals, worst, False, f"{len(reports)} reports, expected {expected}")
    return Outcome(evals, worst, not bad, f"failed: {', '.join(bad)}" if bad else "")


class VerifyAll(_Workload):
    """The CI command: `verify all --seed S --points 100 --json <file>`."""

    name = "verify-all"
    points = 100

    def __init__(self, seed, scratch_dir):
        super().__init__(seed, scratch_dir)
        self._path = os.path.join(scratch_dir, "verify-all.jsonl")

    def params(self):
        return {"points": self.points, "checks": list(checks.CHECK_NAMES), "request_seeds": "run seed, then drawn"}

    def request(self):
        argv = ["all", "--seed", str(self._next_seed()), "--points", str(self.points), "--json", self._path]
        if os.path.exists(self._path):
            os.remove(self._path)  # the gate must never read an earlier request's reports

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def gate(code):
            with open(self._path) as fh:
                reports = [json.loads(line) for line in fh]
            out = _report_outcome(reports, len(checks.CHECK_NAMES))
            if code != 0:
                out.ok, out.detail = False, f"exit code {code}; {out.detail}"
            return out

        return call, gate


class WitnessSweep(_Workload):
    """`run_suite("corollary", RunConfig(seed=S, points=300))`: more points than the geometry LRU holds."""

    name = "witness-sweep"
    points = 300

    def params(self):
        return {"check": "corollary", "points": self.points, "request_seeds": "run seed, then drawn"}

    def request(self):
        cfg = RunConfig(seed=self._next_seed(), points=self.points)

        def call():
            return checks.run_suite("corollary", cfg)

        def gate(report):
            return _report_outcome([json.loads(report.to_json())], 1)

        return call, gate


def _st_polynomial_field(coeffs: np.ndarray):
    """Coordinate-basis field whose components are quadratics in (s, t)."""

    def make(c):
        return lambda x, y, s, t: c[0] + c[1] * s + c[2] * t + c[3] * s * s + c[4] * s * t + c[5] * t * t

    return coordinate_field(*(make(coeffs[k]) for k in range(4)))


class PointwiseReplay(_Workload):
    """One fresh point per request: the five pointwise quantities, no checks, no CLI."""

    name = "pointwise-replay"
    box = checks.Box()
    accuracy_requests = 1000
    tail_percentile = 99  # thousands of points per run
    through_checks = False

    def __init__(self, seed, scratch_dir):
        super().__init__(seed, scratch_dir)
        self._curvature_table = tables.full_curvature_tensor()

    def params(self):
        return {
            "box": [list(self.box.lows()), list(self.box.highs())],
            "calls": [
                "frame_connection",
                "ricci_frame",
                "riemann_frame_table",
                "soliton_residual",
                "harmonic_map_residual",
            ],
            "soliton": "c ~ U(-3,3)^5, lambda = -6",
            "field": "coordinate-basis quadratic in (s,t), coefficients ~ U(-1,1)",
        }

    def request(self):
        rng = self._rng
        p = tuple(float(v) for v in rng.uniform(self.box.lows(), self.box.highs()))
        xi = soliton.soliton_field(soliton.SolitonParams(*rng.uniform(-3.0, 3.0, 5)))
        field = _st_polynomial_field(rng.uniform(-1.0, 1.0, (4, 6)))
        lam = soliton.SOLITON_LAMBDA

        def call():
            return (
                curvature.frame_connection(p),
                curvature.ricci_frame(p),
                curvature.riemann_frame_table(p),
                soliton.soliton_residual(xi, lam, p),
                harmonic.harmonic_map_residual(field, p),
            )

        def gate(out):
            fc, ric, riem, res, tension = out
            system = soliton.soliton_system(xi, lam, p)
            equations = harmonic.harmonic_section_equations(field, p)
            expanded = harmonic.horizontal_tension_expanded(field, p)
            residuals = {
                "connection table": fc - tables.CONNECTION_TABLE,
                "ricci table": ric - tables.RICCI_FRAME,
                "curvature table": riem - self._curvature_table,
                "soliton residual": res,
                "soliton_system diagonal": np.diag(res) - np.diag(system),
                "rough laplacian vs section equations": tension.vertical - HARMONIC_WEIGHTS * equations,
                "horizontal tension vs expanded form": tension.horizontal - expanded,
            }
            worst = {k: float(np.max(np.abs(v))) for k, v in residuals.items()}
            bad = [k for k, v in worst.items() if not (math.isfinite(v) and v < TOL)]
            return Outcome(1, max(worst.values()), not bad, f"at {p}: {', '.join(bad)}" if bad else "")

        return call, gate


WORKLOADS = {w.name: w for w in (VerifyAll, WitnessSweep, PointwiseReplay)}


def negative_control(seed: int, scratch_dir: str) -> Outcome:
    """`verify theorem1 --lambda 0` must fail: a gate that cannot fail proves nothing."""
    path = os.path.join(scratch_dir, "negative-control.jsonl")
    argv = ["theorem1", "--lambda", "0", "--points", "20", "--seed", str(seed), "--json", path]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    with open(path) as fh:
        (report,) = [json.loads(line) for line in fh]
    failed_as_expected = code == 1 and not report["pass"] and report["max_residual"] >= report["threshold"]
    return Outcome(0, report["max_residual"], failed_as_expected, "" if failed_as_expected else f"exit {code}: {report}")
