"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py

They run ``bench/run.py`` in a subprocess, exactly as it is invoked for
a measurement, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("checks.evals", "curvature.geometry_builds", "jets.jet2_created")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1"]
    return subprocess.run(cmd + ["--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    return result["metrics"]


def test_exact_counts_repeat_at_one_seed():
    first = result_of(run("verify-all", 3, 1))
    second = result_of(run("verify-all", 3, 1))
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
        assert first[name]["value"] > 0, name


def test_metrics_are_the_ones_benchmark_json_names():
    untraced = result_of(run("pointwise-replay", 0, 0))
    traced = result_of(run("pointwise-replay", 0, 1))
    assert {n: m["unit"] for n, m in untraced.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in traced.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(m["value"] > 0 for m in untraced.values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("pointwise-replay", 0, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
