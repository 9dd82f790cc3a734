import dataclasses
import json
import math
import sys
import tracemalloc
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from geoverify import checks, cli
from geoverify.chart import Point
from geoverify.checks import (
    CHECK_NAMES,
    Box,
    CheckReport,
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
from oracles import polynomial_field

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


def test_json_bytes_are_the_asdict_serialization():
    # a passing report, a NaN report and a failed inequality, each as dataclasses.asdict serialized it
    with np.errstate(all="ignore"):
        reports = [
            run_suite("lemma1", RunConfig(points=5)),
            run_suite("lemma2", RunConfig(points=5, box=Box(tmin=1e308, tmax=1.7e308))),
            run_suite("corollary", RunConfig(points=5, box=Box(tmin=0.001, tmax=0.01))),
        ]
    assert [r.passed for r in reports] == [True, False, False]
    assert np.isnan(reports[1].max_residual) and reports[2].max_residual == 1.0
    for rep in reports:
        old = {("pass" if k == "passed" else k): v for k, v in dataclasses.asdict(rep).items()}
        assert rep.to_json() == json.dumps(old)
    rep = CheckReport("lemma2", 5, math.nan, 1e-9, False, (0.5, -1.0, 1.5, 2.0), 1.25)
    assert rep.to_json() == (
        '{"check_name": "lemma2", "points_sampled": 5, "max_residual": NaN, "threshold": 1e-09, "pass": false, '
        '"witness_point": [0.5, -1.0, 1.5, 2.0], "elapsed_ms": 1.25}'
    )


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
    # t ~ 1e308 overflows the frame entry 2t to inf at every sampled point
    box = "-2,2,-2,2,-2,2,1e308,1.7e308"
    assert main(["lemma2", f"--box={box}", "--points", "5"]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["pass"] is False
    assert not np.isfinite(d["max_residual"])
    cfg = RunConfig(points=5, box=Box(*map(float, box.split(","))))
    assert d["witness_point"] == list(_sample_points(cfg, "lemma2")[0])
    # an overflow inside any check fails that check, not the run: near 1.7e308 the frame entries, near
    # 1e-320 the coframe's 1/sqrt(t) and the frame's derivatives; the residual is NaN from its first point
    for box in (box, "-2,2,-2,2,-2,2,1e-320,1e-319"):
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


def test_nongradient_is_the_c3_claim_and_one_least_squares_claim_over_the_family(monkeypatch):
    cfg = RunConfig(points=5)
    sampled, (c3, family) = checks._check_nongradient(cfg, _sample_points(cfg, "nongradient"))
    assert sampled == 5 + 625 and c3.margin is None and len(c3.residuals) == 5
    # the closest member (c2 = -4.67) keeps 0.89 of the base member's defect on the default grid
    assert family.margin == checks._FAMILY_MARGIN and len(family.residuals) == 1
    assert 0.89 < family.residuals[0] < 0.9
    # non-finite basis defects on the grid fail at the first such grid point, before any least squares
    monkeypatch.setattr(np.linalg, "lstsq", None)
    cfg = RunConfig(points=5, box=Box(tmin=1e200, tmax=1e201))
    with np.errstate(all="ignore"):
        _, (_, nan) = checks._check_nongradient(cfg, _sample_points(cfg, "nongradient"))
    assert nan.margin is None and np.isnan(nan.residuals[0]) and tuple(nan.points[0]) == (-2.0, -2.0, -2.0, 1e200)


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
    assert _reduce([_zero([0.0, 3.0, 1.0, 3.0], pts)]) == (3.0, pts[3], True)
    # across claims too: an equal value in a later claim takes the witness
    later = _claim_points(2, t=2.0)
    assert _reduce([_zero([0.0, 3.0, 1.0, 3.0], pts), _zero([3.0, 2.0], later)]) == (3.0, later[0], True)
    assert _reduce([_zero([0.0, 0.0], pts[:2])]) == (0.0, pts[1], True)


def test_reduce_failed_inequality_reports_one_at_its_argmax():
    pts = _claim_points(4)
    # best witness 5e-4 does not beat the 1e-3 margin: 1.0 at the first argmax, and the inequality did not hold
    assert _reduce([_zero([1e-12] * 4, pts), _exceeds([1e-4, 5e-4, 2e-4, 5e-4], pts)]) == (1.0, pts[1], False)
    # a passed inequality contributes nothing
    claims = [_zero([0.0, 2e-12, 1e-12, 0.0], pts), _exceeds([1e-4, 2.0, 0.0, 0.0], pts)]
    assert _reduce(claims) == (2e-12, pts[1], True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reduce_non_finite_in_zero_claim_fails_at_first_offending_point(bad):
    pts = _claim_points(5)
    worst, witness, held = _reduce([_exceeds([1.0] * 5, pts), _zero([1e-12, 7.0, bad, 0.0, bad], pts)])
    assert witness == pts[2] and not held
    assert np.array_equal(worst, bad, equal_nan=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reduce_non_finite_in_exceeds_claim_fails_at_first_offending_point(bad):
    pts = _claim_points(4)
    # the finite values alone would pass the inequality
    worst, witness, held = _reduce([_zero([0.0] * 4, pts), _exceeds([1.0, bad, 2.0, bad], pts)])
    assert witness == pts[1] and not held
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


def test_an_unwritable_json_path_is_a_usage_error_before_any_check_runs(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
    monkeypatch.setattr(cli, "run_all", lambda *args: ran.append(args))
    for path, reason in ((tmp_path / "missing" / "r.jsonl", "No such file or directory"), (tmp_path, "Is a directory")):
        for check in ("lemma1", "all"):
            assert main([check, "--points", "5", "--json", str(path)]) == 2
            assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"
    # and the other usage errors leave an earlier report file as it was
    kept = tmp_path / "r.jsonl"
    kept.write_text("kept\n")
    assert main(["lemma", "--json", str(kept)]) == 2 and main(["lemma1", "--points", "0", "--json", str(kept)]) == 2
    assert kept.read_text() == "kept\n" and ran == []


def test_cli_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("GEOVERIFY_SEED", "123")
    main(["lemma2", "--points", "2"])
    via_env = strip_timing(capsys.readouterr().out.strip())
    monkeypatch.delenv("GEOVERIFY_SEED")
    main(["lemma2", "--points", "2", "--seed", "123"])
    via_flag = strip_timing(capsys.readouterr().out.strip())
    assert via_env == via_flag


def test_seed_outside_32_bits_is_a_config_error(monkeypatch, capsys):
    # the Philox key holds 32 bits of seed: 2**32 would repeat seed 0's streams, and -1 those of 2**32 - 1
    for bad in (-1, 2**32):
        with pytest.raises(ConfigError):
            run_suite("lemma1", RunConfig(seed=bad, points=2))
        assert main(["lemma1", "--seed", str(bad), "--points", "2"]) == 2
        monkeypatch.setenv("GEOVERIFY_SEED", str(bad))
        assert main(["lemma1", "--points", "2"]) == 2
        monkeypatch.delenv("GEOVERIFY_SEED")
    err = capsys.readouterr().err
    assert err.count("error: seed must be in [0, 2**32)") == 4 and "Traceback" not in err
    # both ends of the range run, on distinct streams
    low, high = (run_suite("lemma1", RunConfig(seed=seed, points=2)) for seed in (0, 2**32 - 1))
    assert low.passed and high.passed and low.witness_point != high.witness_point


def test_what_cannot_run_is_a_config_error(tmp_path, capsys):
    # a float seed would run its integer part's streams, a float count fails inside numpy, and a box width past
    # float64's range, or a count whose (points, 4) draw numpy cannot size, fails at the draw
    for cfg in (
        RunConfig(seed=1.5),
        RunConfig(seed=1.9),
        RunConfig(seed=True),
        RunConfig(points=2.5),
        RunConfig(points=np.float64(3.0)),
        RunConfig(points=True),
        RunConfig(points=checks._MAX_POINTS + 1),
        RunConfig(box=Box(xmin=-1e308, xmax=1e308)),
    ):
        with pytest.raises(ConfigError):
            run_suite("lemma1", cfg)
    kept = tmp_path / "r.jsonl"
    kept.write_text("kept\n")
    for args in (["--box=-1e308,1e308,-2,2,-2,2,0.5,2"], ["--points", "100000000000000000000"]):
        assert main(["lemma1", *args, "--json", str(kept)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert kept.read_text() == "kept\n"
    # numpy integers run the streams of the same Python integers, and the largest count numpy can size is valid
    RunConfig(points=checks._MAX_POINTS).validate()
    as_numpy = run_suite("lemma1", RunConfig(seed=np.uint32(1), points=np.int64(2)))
    assert as_numpy.witness_point == run_suite("lemma1", RunConfig(seed=1, points=2)).witness_point


def test_a_count_that_memory_cannot_hold_exits_2_and_keeps_an_earlier_report(tmp_path, monkeypatch, capsys):
    # numpy sizes a (2**58 - 1, 4) draw but cannot allocate it: a MemoryError from the run, not a traceback, and the
    # earlier report file stays as it was; the patched draw raises without allocating anything
    def cannot_allocate(cfg, name):
        raise MemoryError(f"Unable to allocate {cfg.points * 32} bytes")

    monkeypatch.setattr(checks, "_sample_points", cannot_allocate)
    kept = tmp_path / "r.jsonl"
    kept.write_text("kept\n")
    for check in ("lemma1", "all"):
        assert main([check, "--points", str(checks._MAX_POINTS), "--json", str(kept)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: not enough memory for --points {checks._MAX_POINTS}: Unable to allocate")
        assert err.count("\n") == 1 and "Traceback" not in err
    assert kept.read_text() == "kept\n"
    # a run that completes replaces the earlier file by its reports alone
    monkeypatch.undo()
    assert main(["lemma1", "--points", "2", "--json", str(kept)]) == 0
    assert [json.loads(line)["check_name"] for line in kept.read_text().splitlines()] == ["lemma1"]


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


# every stream the ten checks draw, as (name, low, high, per-point shape); a check's points span the box
STREAMS = [(name, None, None, (4,)) for name in CHECK_NAMES] + [
    ("theorem1/params", -3.0, 3.0, (5,)),
    ("harmonic-components/params", -3.0, 3.0, (5,)),
    ("theorem3/fields", -1.0, 1.0, (4, 6)),
    *((f"corollary/c{k}", -3.0, 3.0, (2,)) for k in (1, 2, 3, 4)),
    ("harmonic-map-witnesses/const", -2.0, 2.0, (4,)),
    ("coercivity/vectors", -3.0, 3.0, (10, 4)),
]


def _fresh_stream(seed: int, name: str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, zlib.crc32(name.encode())]))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_every_stream_is_that_of_a_freshly_keyed_philox(monkeypatch):
    drawn, stream = [], checks._stream
    with monkeypatch.context() as m:
        m.setattr(checks, "_stream", lambda cfg, name: drawn.append(name) or stream(cfg, name))
        run_all(FAST)
    assert sorted(drawn) == sorted(name for name, *_ in STREAMS)
    for seed in (0, 7, 2**31, 2**32 - 1):
        cfg = RunConfig(seed=seed, points=3)  # most draws here leave part of a Philox block buffered
        for name, low, high, size in STREAMS:
            fresh = _fresh_stream(seed, name)
            if low is None:
                assert _same_bits(_sample_points(cfg, name), fresh.uniform(cfg.box.lows(), cfg.box.highs(), (3, 4)))
            else:
                assert _same_bits(_uniform(cfg, name, low, high, size), fresh.uniform(low, high, (3, *size)))
    # a 32-bit draw keeps the other half of its 64-bit word, which no later stream may start from
    cfg, word = RunConfig(seed=7, points=3), lambda rng: rng.integers(0, 2**32 - 1, 5, dtype=np.uint32)
    checks._stream(cfg, "another").integers(0, 2**32 - 1, dtype=np.uint32)
    fresh = _fresh_stream(7, "lemma1").uniform(cfg.box.lows(), cfg.box.highs(), (3, 4))
    assert _same_bits(_sample_points(cfg, "lemma1"), fresh)
    assert _same_bits(word(checks._stream(cfg, "lemma1")), word(_fresh_stream(7, "lemma1")))


def _reports_without_timing(cfg: RunConfig) -> list[str]:
    return [dataclasses.replace(rep, elapsed_ms=0.0).to_json() for rep in run_all(cfg)]


def test_reports_depend_neither_on_threads_nor_on_the_check_order():
    # each thread re-keys its own Philox: four threads switching as often as the interpreter allows, at mixed seeds,
    # must draw what one thread draws, in the checks and in a bare stream drawn many times over
    seeds = (0, 7, 2**31, 2**32 - 1)
    jobs = [(name, RunConfig(seed=seed, points=20)) for seed in seeds for name in CHECK_NAMES]
    draws = [(RunConfig(seed=seed, points=3), name) for seed in seeds for name, *_ in STREAMS] * 10
    strip = lambda rep: dataclasses.replace(rep, elapsed_ms=0.0).to_json()
    bits = lambda cfg, name: _sample_points(cfg, name).tobytes()
    serial = [strip(run_suite(*job)) for job in jobs], [bits(*draw) for draw in draws]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run_suite, *job) for job in jobs], [pool.submit(bits, *draw) for draw in draws]
            threaded = [strip(f.result(timeout=120)) for f in futures[0]], [f.result(timeout=120) for f in futures[1]]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    cfg = RunConfig(seed=7, points=20)
    one_by_one = [strip(run_suite(name, cfg)) for name in reversed(CHECK_NAMES)]
    assert _reports_without_timing(cfg) == one_by_one[::-1]


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


@pytest.mark.parametrize("points", [1, 7, 300])
def test_theorem3s_component_axis_equals_its_per_component_fields_bit_for_bit(points, monkeypatch):
    # theorem3 evaluates its four quadratics as one closed form over a leading component axis and moves that axis
    # last: the jets its Laplacian reads equal those of four closed forms, one per component, in layout too
    from geoverify import harmonic

    seen, rough_laplacian = [], harmonic._rough_laplacian
    record = lambda geo, *jets: seen.append(jets) or rough_laplacian(geo, *jets)
    monkeypatch.setattr(harmonic, "_rough_laplacian", record)
    cfg = RunConfig(points=points)
    assert run_suite("theorem3", cfg).passed
    (jets,) = seen
    coeffs = _uniform(cfg, "theorem3/fields", -1.0, 1.0, (4, 6))
    reference = polynomial_field(coeffs).frame_component_jets(_sample_points(cfg, "theorem3"))
    for a, b in zip(jets, reference, strict=True):
        assert _same_bits(a, b) and a.strides == b.strides
        assert a.strides[0] == a.itemsize  # the batch innermost in memory


def test_harmonic_components_takes_its_laplacians_and_control_from_one_evaluation(monkeypatch):
    # the soliton field's four components and the control t^2 as one closed form, under one scalar Laplacian: equal,
    # bit for bit, to the components' own evaluation and the control's beside it
    from geoverify import soliton
    from geoverify.chart import _jets
    from geoverify.curvature import geometry_at

    seen, scalar_laplacian = [], soliton._scalar_laplacian
    monkeypatch.setattr(soliton, "_scalar_laplacian", lambda *args: seen.append(scalar_laplacian(*args)) or seen[-1])
    for points in (1, 300):
        seen.clear()
        cfg = RunConfig(points=points)
        assert run_suite("harmonic-components", cfg).passed
        (merged,) = seen
        P = _sample_points(cfg, "harmonic-components")
        geo, c = geometry_at(P), checks._params(cfg, "harmonic-components")[0]
        components = scalar_laplacian(geo, *soliton.soliton_field(SolitonParams(*c.T)).component_jets(P)[1:])
        control = scalar_laplacian(geo, *_jets(lambda x, y, s, t: (t * t,), P)[1:])
        assert _same_bits(merged[:, :4], components) and _same_bits(merged[:, 4], control[:, 0])


def test_peak_memory_is_bounded_by_the_chunk():
    def peak(points: int) -> int:
        tracemalloc.start()
        try:
            run_suite("corollary", RunConfig(points=points))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * checks._CHUNK) <= 1.5 * peak(checks._CHUNK)


def test_claims_at_every_blocks_own_rows_share_the_checks_points(monkeypatch):
    cfg = RunConfig(points=20)
    P = _sample_points(cfg, "corollary")
    for chunk in (7, checks._CHUNK):  # three blocks, then one block whose claims are kept as they are
        monkeypatch.setattr(checks, "_CHUNK", chunk)
        _, claims = checks._check_corollary(cfg, P)
        assert len(claims) == 8
        assert all(c.points is P for c in claims)  # one points array, not a copy per claim
        # a claim at only some of a block's rows is still joined in row order
        _, claims = checks._check_harmonic_map_witnesses(cfg, P)
        np.testing.assert_array_equal(claims[0].points, P[:10])
        assert all(c.points is P for c in claims[1:])


def test_only_the_curvature_claims_build_the_curvature_tensor(monkeypatch):
    from geoverify import curvature

    built, build = [], curvature._build
    monkeypatch.setattr(curvature, "_build", lambda p: built.append(build(p)) or built[-1])
    # check: (forms the 256-entry Rfr, forms the second-derivative stage dfc); nongradient builds no geometry
    forms = {
        "coercivity": (False, True),
        "corollary": (False, False),
        "harmonic-components": (False, False),
        "harmonic-map-witnesses": (True, True),
        "lemma1": (False, False),
        "lemma2": (False, True),
        "riemc": (True, True),
        "theorem1": (False, True),
        "theorem3": (False, False),
    }
    assert sorted(forms) == sorted(set(CHECK_NAMES) - {"nongradient"})
    for name, (rfr, dfc) in forms.items():
        built.clear()
        assert run_suite(name, RunConfig(points=20)).passed
        assert built, name
        assert all((("Rfr" in vars(geo)), ("_dfc" in vars(geo))) == (rfr, dfc) for geo in built), name


def test_the_witnesses_tensions_contract_arrays_with_the_batch_innermost(monkeypatch):
    # a contraction over an array whose point axis is not its fastest loops over length-4 axes instead (ten times
    # slower on the witnesses' constant stack): the connection A it forms and the gradients it is given, [..., point,
    # a, k], keep the point axis innermost in memory
    from geoverify import harmonic

    contracted, nabla = [], harmonic._nabla
    record = lambda geo, val, grad: contracted.append((nabla(geo, val, grad), grad)) or contracted[-1][0]
    monkeypatch.setattr(harmonic, "_nabla", record)
    assert run_suite("harmonic-map-witnesses", RunConfig(points=100)).passed
    assert len(contracted) == 2  # the coordinate stack, then the constant one
    for arrays in contracted:
        for a in arrays:
            assert a.shape[-3] == 100 and a.strides[-3] == a.itemsize, a.strides


@pytest.mark.parametrize("points", [1, 7, 300])
def test_the_witnesses_tensions_from_live_rows_equal_the_four_row_route(points, monkeypatch):
    # the members' frame jets on the live rows and the constant fields' gradient with no rows give the tensions of
    # the dense route bit for bit: _apply on the coframe's four rows, the profiles' rows embedded in all four, and a
    # zero four-row gradient for the constants
    from geoverify import harmonic
    from oracles import stack_route

    seen, tension = [], harmonic._tension
    monkeypatch.setattr(harmonic, "_tension", lambda *args: seen.append((args, tension(*args))) or seen[-1][1])
    cfg = RunConfig(points=points)
    assert run_suite("harmonic-map-witnesses", cfg).passed
    ((_, _, grad, _), got), ((geo, val, no_rows, _), const) = seen  # the coordinate stack, then the constant one
    assert grad.shape[-2] == 2 and no_rows.shape[-2] == 0  # s and t; none
    lap, ref = stack_route(_sample_points(cfg, "harmonic-map-witnesses"), harmonic._BASIS, [0, 1, 2, 3] * 2)
    assert _same_bits(got.horizontal, ref) and _same_bits(got.vertical, lap)
    assert _same_bits(const.horizontal, harmonic._horizontal_tension(geo, val, np.zeros((points, 4, 4))))


SEEDS = (0, 1, 2, 3, 4)
# the off-box map at 20 points: for each box, the checks that fail and the seeds among 0-4 at which they fail; every
# other check passes at all five.  A flag that moves changes this table only with its reason in CHANGES.md
OFF_BOX = {
    Box(tmin=0.001, tmax=0.01): dict.fromkeys(["corollary", "harmonic-map-witnesses", "nongradient"], SEEDS),
    Box(-1000, 1000, -1000, 1000, -1000, 1000): dict.fromkeys(["harmonic-map-witnesses", "theorem3"], SEEDS),
    Box(tmin=100, tmax=1000): {
        **dict.fromkeys(["corollary", "harmonic-map-witnesses", "theorem3"], SEEDS),
        "harmonic-components": (2, 3, 4),
    },
    Box(tmin=1e200, tmax=1e201): {c: SEEDS for c in CHECK_NAMES if c != "lemma1"},
    Box(tmin=1e-200, tmax=1e-199): {c: SEEDS for c in CHECK_NAMES if c != "harmonic-components"},
    Box(tmin=1e308, tmax=1.7e308): dict.fromkeys(CHECK_NAMES, SEEDS),
    Box(tmin=1e-320, tmax=1e-319): dict.fromkeys(CHECK_NAMES, SEEDS),
    Box(-1e7, 1e7, -1e7, 1e7, -1e7, 1e7): {
        **{c: SEEDS for c in CHECK_NAMES if c not in ("lemma1", "harmonic-components")},
        "harmonic-components": (0, 1, 2, 4),
    },
    Box(tmin=1e7, tmax=1e8): dict.fromkeys(
        ["corollary", "harmonic-components", "harmonic-map-witnesses", "nongradient", "theorem1", "theorem3"], SEEDS
    ),
}


def test_the_off_box_map():
    with warnings.catch_warnings():  # far from the default box numpy overflows on the way to the failures it maps
        warnings.simplefilter("ignore", RuntimeWarning)
        passed = {
            (box, seed, rep.check_name): rep.passed
            for box in OFF_BOX
            for seed in SEEDS
            for rep in run_all(RunConfig(seed=seed, points=20, box=box))
        }
    for box, failing in OFF_BOX.items():
        seeds = {c: tuple(seed for seed in SEEDS if not passed[box, seed, c]) for c in CHECK_NAMES}
        assert {c: s for c, s in seeds.items() if s} == failing, box
