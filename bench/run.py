"""geoverify benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload verify-all --seed 0 --seconds 30 --trace 0

Workloads (closed loop, one caller, one process):

    verify-all        `verify all --points 100 --json <file>`, the CI command
    witness-sweep     `run_suite("corollary", points=300)`, past the geometry LRU
    pointwise-replay  five pointwise quantities at one fresh point per request

End-to-end times are scaled to a reference machine speed by a kernel timed
every half second of the run (see ``calibration.py``); the manifest keeps
the unscaled values.  Per-module times are not scaled.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
public functions of every geoverify module (see ``tracer.py``), prints the
per-module metrics and writes the spans to ``bench/out/``.  Every request's
output passes a correctness gate, and a negative control
(`verify theorem1 --lambda 0`) must fail.  The last line of standard
output is the JSON result; the line before it is the run manifest.
Exit code 2 means the benchmark could not run (no ``src/geoverify``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# named here, not taken from workloads.py: importing that imports numpy, which
# must not happen before the thread settings below are in the environment
WORKLOAD_NAMES = ("verify-all", "witness-sweep", "pointwise-replay")

# one numpy/BLAS thread: the load is one process on a small machine
THREAD_ENV = {
    k: "1"
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

# fresh interpreters timed before and again after the requests; setup_s is the
# median of all of them, so one moment of machine load does not decide it
SETUP_RUNS = 5
# the child reports its own finish time, so the parent's wake-up latency is not counted
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
import geoverify
from geoverify import curvature, harmonic, soliton
p = (0.3, -0.7, 1.1, 0.9)
curvature.frame_connection(p)
soliton.soliton_residual(soliton.soliton_field(soliton.SolitonParams(1, 2, 3, 4, 5)), -6.0, p)
harmonic.harmonic_map_residual(harmonic.corollary_field(harmonic.CorollaryFamily(3, 1.0, 0.5)), p)
print(time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(sys.argv[2]))
"""
TAIL_BLOCK = 1000  # requests per block for latency_ms.tail
RESIDUAL_FLOOR = 1e-17  # accuracy_digits tops out at 17 when every residual is exactly zero


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep issuing requests")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup_s(env, runs: int) -> list[float]:
    """Times from spawning a fresh interpreter to geoverify imported and one point evaluated."""

    def spawn() -> float:
        cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
        done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
        return int(done.stdout.split()[-1]) / 1e9

    return [spawn() for _ in range(runs)]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _source_digest() -> str:
    """sha256 over src/ (path and bytes of every .py), which identifies the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def manifest(args, workload, np) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_params": workload.params(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def run_requests(workload, seconds: float, tracer, calibrator):
    """Closed loop: issue requests until `seconds` have passed.

    Untraced, every request counts, and at least the workload's
    ``accuracy_requests`` run.  Traced, requests alternate traced and
    untraced (traced first, at least one of each), and the untraced ones
    give the baseline for the tracing overhead.
    """
    at_least = 2 if tracer is not None else workload.accuracy_requests
    timed = {True: [], False: []}  # traced? -> request wall times, ms
    outcomes, errors = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < at_least or time.perf_counter() < deadline:
        call, gate = workload.request()
        traced = tracer is not None and k % 2 == 0
        if traced:
            tracer.install()
            tracer.begin_request(workload.name)
        try:
            t0, paused = time.perf_counter(), calibrator.paused_s
            try:
                out = call()
            finally:
                ms = (time.perf_counter() - t0 - (calibrator.paused_s - paused)) * 1e3
                if traced:
                    tracer.end_request()
                    tracer.uninstall()
            outcome = gate(out)
        except Exception as exc:  # a request that raises is a failed request, not a crashed benchmark
            outcome = None
            errors.append(f"request {k}: {exc!r}")
        if outcome is not None and not outcome.ok:
            errors.append(f"request {k}: {outcome.detail}")
        outcomes.append(outcome)
        timed[traced].append(ms)
        k += 1
    return timed, outcomes, errors


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "geoverify" / "__init__.py").is_file():
        print(f"error: no geoverify sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    if args.trace == 0:
        measure_setup_s(dict(os.environ), 1)  # untimed: writes the bytecode caches once
        setup_times = measure_setup_s(dict(os.environ), SETUP_RUNS)

    sys.path.insert(0, str(SRC))
    import numpy as np

    import geoverify
    from calibration import REFERENCE_MS, Calibrator
    from tracer import Tracer
    from workloads import WORKLOADS, negative_control

    if Path(geoverify.__file__).resolve().parent != SRC / "geoverify":
        print(f"error: imported geoverify from {geoverify.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        control = negative_control(args.seed, scratch)
        workload = WORKLOADS[args.workload](args.seed, scratch)
        tracer = Tracer() if args.trace else None
        calibrator = Calibrator()
        with contextlib.nullcontext() if args.trace else calibrator:  # traced times stay unscaled
            timed, outcomes, errors = run_requests(workload, args.seconds, tracer, calibrator)
    if args.trace == 0:
        setup_times += measure_setup_s(dict(os.environ), SETUP_RUNS)
    if not control.ok:
        errors.append(f"negative control did not fail: {control.detail}")

    passed = [o for o in outcomes if o is not None and o.ok]
    info = manifest(args, workload, np)
    info["requests"] = {"traced": len(timed[True]), "untraced": len(timed[False])}
    latencies = timed[False]
    if args.trace:
        evals = outcomes[0].evals if outcomes[0] is not None else 0
        checks_evals = evals if workload.through_checks else 0
        metrics = tracer.layer_metrics(checks_evals, max(evals, 1), geoverify.CHECK_NAMES)
        metrics["trace.overhead_ms"] = (statistics.median(timed[True]) - statistics.median(latencies), "ms")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_path, info)
        info["spans"] = str(spans_path.relative_to(ROOT))
        result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        rates = [(0 if o is None else o.evals) / (ms / 1e3) for o, ms in zip(outcomes, latencies)]
        leading = outcomes[: workload.accuracy_requests]
        worst = max((math.inf if o is None else o.residual for o in leading), default=math.inf)
        scale = calibrator.scale()
        info["calibration"] = {
            "reference_ms": REFERENCE_MS,
            "kernel_ms_median": statistics.median(calibrator.samples),
            "samples": len(calibrator.samples),
            "scale": scale,
        }
        info["latency_samples"] = len(latencies)
        info["latency_tail_percentile"] = workload.tail_percentile
        measured = {
            "setup_s": (statistics.median(setup_times), "s"),
            "evals_per_s": (statistics.median(rates), "1/s"),
            "latency_ms.p50": (statistics.median(latencies), "ms"),
            "latency_ms.tail": (_tail(latencies, workload.tail_percentile), "ms"),
        }
        info["unscaled"] = {name: value for name, (value, _) in measured.items()}
        result = {
            name: {"value": value / scale if unit == "1/s" else value * scale, "unit": unit}
            for name, (value, unit) in measured.items()
        }
        result["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
        result["accuracy_digits"] = {"value": _digits(worst), "unit": "digits"}

    for line in errors[:20]:
        print(f"gate: {line}", file=sys.stderr)
    for name, m in result.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"manifest": info}))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": len(outcomes),
                "failed": len(outcomes) - len(passed),
                "metrics": result,
            }
        )
    )
    return 0


def _digits(residual: float) -> float:
    """-log10 of the largest residual; 0 when a residual is missing or not finite (the gate has failed)."""
    return -math.log10(max(residual, RESIDUAL_FLOOR)) if math.isfinite(residual) else 0.0


def _tail(samples, pct: int) -> float:
    """Median over blocks of TAIL_BLOCK consecutive requests of each block's pct-th percentile.

    A block of 1000 requests still has ten beyond its p99; a burst of load
    from outside the process then moves one block's p99, not the result.
    """
    blocks = max(1, len(samples) // TAIL_BLOCK)
    size = len(samples) // blocks
    return statistics.median(_percentile(samples[i * size : (i + 1) * size], pct) for i in range(blocks))


def _percentile(samples, pct: int) -> float:
    """The pct-th percentile, interpolating between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


if __name__ == "__main__":
    sys.exit(main())
