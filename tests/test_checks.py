import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from geoverify import checks
from geoverify.chart import Point
from geoverify.checks import (
    CHECK_NAMES,
    Box,
    ConfigError,
    RunConfig,
    UnknownCheck,
    _exceeds,
    _reduce,
    _sample_points,
    _uniform,
    _zero,
    run_all,
    run_suite,
)
from geoverify.cli import main
from geoverify.jets import DomainError
from geoverify.soliton import SolitonParams

FAST = RunConfig(seed=42, points=3)


def strip_timing(json_line: str) -> dict:
    d = json.loads(json_line)
    d.pop("elapsed_ms")
    return d


def test_registered_names():
    assert set(CHECK_NAMES) == {
        "coercivity",
        "corollary",
        "harmonic-components",
        "harmonic-map-witnesses",
        "lemma1",
        "lemma2",
        "nongradient",
        "riemc",
        "theorem1",
        "theorem3",
    }
    assert list(CHECK_NAMES) == sorted(CHECK_NAMES)


def test_run_suite_lemma2_passes():
    rep = run_suite("lemma2", RunConfig(seed=42, points=100))
    assert rep.passed
    assert rep.max_residual < 1e-9
    assert rep.points_sampled == 100
    assert rep.passed == (rep.max_residual < rep.threshold)


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        run_suite("unknown", FAST)


def test_config_validation():
    with pytest.raises(ConfigError):
        run_suite("lemma2", RunConfig(points=0))
    with pytest.raises(ConfigError):
        run_suite("lemma2", RunConfig(tol=0.0))
    with pytest.raises(ConfigError):
        run_suite("lemma2", RunConfig(box=Box(tmin=-0.5)))
    with pytest.raises(ConfigError):
        run_suite("lemma2", RunConfig(box=Box(xmin=2.0, xmax=-2.0)))
    # non-finite configuration is rejected before anything is sampled
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ConfigError):
            run_suite("lemma2", RunConfig(tol=bad))
        with pytest.raises(ConfigError):
            run_suite("lemma2", RunConfig(box=Box(tmax=bad)))
        with pytest.raises(ConfigError):
            run_suite("lemma2", RunConfig(box=Box(xmin=bad)))
        with pytest.raises(ConfigError):
            run_suite("theorem1", RunConfig(soliton_params=SolitonParams(c1=bad)))
        with pytest.raises(ConfigError):
            run_suite("theorem1", RunConfig(soliton_params=SolitonParams(lam=bad)))


def test_lambda_override_fails_theorem1():
    cfg = RunConfig(seed=7, points=5, soliton_params=SolitonParams(1.0, -2.0, 0.5, 0.3, 1.1, lam=0.0))
    rep = run_suite("theorem1", cfg)
    assert not rep.passed
    assert rep.max_residual >= 6.0 - 1e-9


def test_reports_are_deterministic():
    a = [strip_timing(r.to_json()) for r in run_all(FAST)]
    b = [strip_timing(r.to_json()) for r in run_all(FAST)]
    assert a == b
    # a different seed samples different points
    c = [strip_timing(r.to_json()) for r in run_all(RunConfig(seed=43, points=3))]
    assert any(x["witness_point"] != y["witness_point"] for x, y in zip(a, c))


def test_roundoff_floor_fails_at_tiny_tolerance():
    reports = run_all(RunConfig(seed=42, points=2, tol=1e-30))
    assert any(not r.passed for r in reports)


def test_json_report_schema():
    rep = run_suite("lemma1", FAST)
    d = json.loads(rep.to_json())
    assert set(d) == {
        "check_name",
        "points_sampled",
        "max_residual",
        "threshold",
        "pass",
        "witness_point",
        "elapsed_ms",
    }
    assert d["check_name"] == "lemma1"
    assert isinstance(d["pass"], bool)
    assert len(d["witness_point"]) == 4


def test_cli_single_check(capsys):
    code = main(["lemma2", "--seed", "42", "--points", "5"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 1
    d = json.loads(lines[0])
    assert d["pass"] is True


def test_cli_all(capsys):
    code = main(["all", "--seed", "42", "--points", "2"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == len(CHECK_NAMES)
    assert [json.loads(l)["check_name"] for l in lines] == list(CHECK_NAMES)


def test_cli_exit_codes(capsys):
    assert main(["unknown-check"]) == 2
    assert main(["lemma2", "--tol", "-1"]) == 2
    assert main(["lemma2", "--box", "1,2,3"]) == 2
    assert main(["theorem1", "--points", "2", "--lambda", "0"]) == 1
    assert main(["lemma1", "--box=-2,2,-2,2,-2,2,0.5,inf"]) == 2
    assert main(["theorem1", "--c", "nan,0,0,0,0"]) == 2
    assert main(["theorem1", "--lambda", "inf"]) == 2
    assert main(["lemma2", "--tol", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 7
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_residual_fails_at_first_offending_point(capsys):
    # t ~ 1e200 overflows the metric jets to NaN at every sampled point
    box = "-2,2,-2,2,-2,2,1e200,1e201"
    assert main(["lemma2", f"--box={box}", "--points", "5"]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["pass"] is False
    assert not np.isfinite(d["max_residual"])
    cfg = RunConfig(points=5, box=Box(*map(float, box.split(","))))
    assert d["witness_point"] == list(_sample_points(cfg, "lemma2")[0])
    # an overflow inside any check (e.g. a power of t) fails that check, not the run; so does a
    # domain error (t*t underflows to 0 in the metric entry 1/(4t^2)), whose residual is NaN
    for box in (box, "-2,2,-2,2,-2,2,1e-200,1e-199"):
        cfg = RunConfig(points=3, box=Box(*map(float, box.split(","))))
        assert main(["all", f"--box={box}", "--points", "3"]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        reports = [json.loads(line) for line in out.out.splitlines()]
        assert [r["check_name"] for r in reports] == list(CHECK_NAMES)
        for r in reports:
            assert r["pass"] is False and not np.isfinite(r["max_residual"])
            assert r["witness_point"] == list(_sample_points(cfg, r["check_name"])[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_domain_error_on_the_nongradient_grid_fails_at_that_grid_point():
    # the sampled points stay away from t = 1e-170, but the grid's first t-row sits on it
    rep = run_suite("nongradient", RunConfig(points=5, box=Box(tmin=1e-170)))
    assert not rep.passed and np.isnan(rep.max_residual)
    assert rep.witness_point == (-2.0, -2.0, -2.0, 1e-170)


def test_failed_inequality_fails_at_any_tolerance(capsys):
    # t in [100, 1000] leaves the shifted-exponent witnesses below their margin
    assert main(["corollary", "--box=-2,2,-2,2,-2,2,100,1000", "--points", "5", "--tol", "2"]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["pass"] is False
    assert d["max_residual"] == 1.0


def _claim_points(n, t=1.0):
    return [Point(float(i), 0.0, 0.0, t) for i in range(n)]


def test_reduce_ties_go_to_the_later_contribution():
    pts = _claim_points(4)
    worst, witness = _reduce([_zero([0.0, 3.0, 1.0, 3.0], pts)])
    assert (worst, witness) == (3.0, pts[3])
    # across claims too: an equal value in a later claim takes the witness
    later = _claim_points(2, t=2.0)
    assert _reduce([_zero([0.0, 3.0, 1.0, 3.0], pts), _zero([3.0, 2.0], later)]) == (3.0, later[0])
    assert _reduce([_zero([0.0, 0.0], pts[:2])]) == (0.0, pts[1])


def test_reduce_failed_inequality_reports_one_at_its_argmax():
    pts = _claim_points(4)
    # best witness 5e-4 does not beat the 1e-3 margin: 1.0 at the first argmax
    assert _reduce([_zero([1e-12] * 4, pts), _exceeds([1e-4, 5e-4, 2e-4, 5e-4], pts)]) == (1.0, pts[1])
    # a passed inequality contributes nothing
    assert _reduce([_zero([0.0, 2e-12, 1e-12, 0.0], pts), _exceeds([1e-4, 2.0, 0.0, 0.0], pts)]) == (2e-12, pts[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reduce_non_finite_in_zero_claim_fails_at_first_offending_point(bad):
    pts = _claim_points(5)
    worst, witness = _reduce([_exceeds([1.0] * 5, pts), _zero([1e-12, 7.0, bad, 0.0, bad], pts)])
    assert witness == pts[2]
    assert np.array_equal(worst, bad, equal_nan=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reduce_non_finite_in_exceeds_claim_fails_at_first_offending_point(bad):
    pts = _claim_points(4)
    # the finite values alone would pass the inequality
    worst, witness = _reduce([_zero([0.0] * 4, pts), _exceeds([1.0, bad, 2.0, bad], pts)])
    assert witness == pts[1]
    assert np.array_equal(worst, bad, equal_nan=True)


def test_cli_json_file(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    code = main(["lemma1", "--seed", "1", "--points", "2", "--json", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["check_name"] == "lemma1"
    # stdout carries the human summary instead
    assert "lemma1: PASS" in capsys.readouterr().out


def test_cli_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("GEOVERIFY_SEED", "123")
    main(["lemma2", "--points", "2"])
    via_env = strip_timing(capsys.readouterr().out.strip())
    monkeypatch.delenv("GEOVERIFY_SEED")
    main(["lemma2", "--points", "2", "--seed", "123"])
    via_flag = strip_timing(capsys.readouterr().out.strip())
    assert via_env == via_flag


def test_cli_custom_box(capsys):
    code = main(["lemma1", "--points", "3", "--box", "0,1,0,1,0,1,1,1.5"])
    assert code == 0
    d = json.loads(capsys.readouterr().out.strip())
    x, y, s, t = d["witness_point"]
    assert 0 <= x <= 1 and 0 <= y <= 1 and 0 <= s <= 1 and 1 <= t <= 1.5


def test_concurrent_evaluation_matches_serial():
    from concurrent.futures import ThreadPoolExecutor

    from geoverify.soliton import SOLITON_LAMBDA, soliton_field, soliton_residual
    from oracles import rand_point

    rng = np.random.default_rng(77)
    pts = [rand_point(rng) for _ in range(16)]
    xi = soliton_field(SolitonParams(1.0, -0.5, 2.0, 0.3, -1.0))
    serial = [soliton_residual(xi, SOLITON_LAMBDA, p) for p in pts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda p: soliton_residual(xi, SOLITON_LAMBDA, p), pts))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def test_counter_based_sampling_is_stable_per_point():
    cfg3 = RunConfig(seed=5, points=3)
    cfg9 = RunConfig(seed=5, points=9)
    # row i depends only on (seed, stream, i): more points keep the earlier rows
    assert np.array_equal(_sample_points(cfg3, "lemma1"), _sample_points(cfg9, "lemma1")[:3])
    coeffs3, coeffs9 = (_uniform(cfg, "theorem3/fields", -1.0, 1.0, (4, 6)) for cfg in (cfg3, cfg9))
    assert coeffs3.shape == (3, 4, 6) and np.array_equal(coeffs3, coeffs9[:3])
    # distinct checks draw distinct streams
    assert not np.any(_sample_points(cfg3, "lemma1") == _sample_points(cfg3, "lemma2"))
    c1, c2 = (_uniform(cfg3, f"corollary/c{k}", -3.0, 3.0, (2,)) for k in (1, 2))
    assert not np.any(c1 == c2)
    # and distinct seeds too
    assert not np.any(_sample_points(cfg3, "lemma1") == _sample_points(RunConfig(seed=6, points=3), "lemma1"))


def _reports_without_timing(cfg: RunConfig) -> list[str]:
    return [dataclasses.replace(rep, elapsed_ms=0.0).to_json() for rep in run_all(cfg)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    # 20 points are three blocks of 7, 7 and 6 rows; the tiny box fails every check at a domain error
    cfgs = [RunConfig(points=20), RunConfig(points=3, box=Box(-2, 2, -2, 2, -2, 2, 1e-200, 1e-199))]
    default = [_reports_without_timing(cfg) for cfg in cfgs]
    monkeypatch.setattr(checks, "_CHUNK", 7)
    assert [_reports_without_timing(cfg) for cfg in cfgs] == default


def test_domain_error_in_a_block_names_the_checks_row(monkeypatch):
    monkeypatch.setattr(checks, "_CHUNK", 7)
    blocks, frame_connection = [], checks.frame_connection

    def fails_in_third_block(Q):
        blocks.append(len(Q))
        if len(blocks) == 3:
            raise DomainError("left the domain", 4)
        return frame_connection(Q)

    monkeypatch.setattr(checks, "frame_connection", fails_in_third_block)
    cfg = RunConfig(points=20)
    rep = run_suite("lemma1", cfg)
    assert blocks == [7, 7, 6]
    assert not rep.passed and np.isnan(rep.max_residual)
    assert rep.witness_point == tuple(_sample_points(cfg, "lemma1")[2 * 7 + 4])


def test_peak_memory_is_bounded_by_the_chunk():
    def peak(points: int) -> int:
        tracemalloc.start()
        try:
            run_suite("corollary", RunConfig(points=points))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * checks._CHUNK) <= 1.5 * peak(checks._CHUNK)
