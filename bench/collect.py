"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 bench/collect.py --workloads witness-sweep --seeds 0-4
    python3 bench/collect.py --seeds 0-9 --traced-seed 0 --out bench/baseline.json

For every workload and seed this runs ``bench/run.py`` exactly as
BENCHMARK.json describes it (its ``run_seconds``, tracing off) and, with
``--traced-seed``, one traced run per workload.  For each end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median next to the metric's bound; a spread of
a third of the bound or more is flagged.  ``--out`` writes every result
and manifest, plus the summary, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)
    ]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    return {"seed": seed, "wall_s": wall_s, "manifest": json.loads(lines[-2])["manifest"], "result": result}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[m["name"]] = {
            "unit": m["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "bound": m["bound"],
            "values": values,
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"), help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--traced-seed", type=int, default=None, help="also make one traced run at this seed")
    parser.add_argument("--out", default=None, help="write runs and summary as JSON here")
    args = parser.parse_args(argv)

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(spec, workload, seed, 0))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['result'])}", file=sys.stderr, flush=True)
        entry = {"runs": runs, "summary": summarise(runs, spec["end_to_end"])}
        if args.traced_seed is not None:
            entry["traced"] = run_once(spec, workload, args.traced_seed, 1)
        report["workloads"][workload] = entry

        walls = [r["wall_s"] for r in runs]
        print(
            f"\n{workload}: {len(runs)} runs, all correct: {all(r['result']['correct'] for r in runs)}, "
            f"wall per run {min(walls):.1f}-{max(walls):.1f} s"
        )
        for name, s in entry["summary"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread >= bound/3"
            print(
                f"  {name:18s} median {s['median']:12.5g} {s['unit']:7s} q1 {s['q1']:12.5g} q3 {s['q3']:12.5g}"
                f"  spread {s['spread']:.4f} (bound {s['bound']}){flag}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
