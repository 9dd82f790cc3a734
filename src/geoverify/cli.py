"""Command-line front end: ``verify <check-name>|all [options]``.

Prints one report per check (JSON lines by default, or human-readable
summaries when the JSON goes to a file via ``--json``).  Exit code 0
when every requested check passes, 1 when any fails, 2 on usage or
configuration errors, an unwritable ``--json`` path among them, which
are reported before any check runs, and on a point count that memory
cannot hold.  An earlier ``--json`` file is replaced only once every
report is in.  ``GEOVERIFY_SEED`` supplies the seed when ``--seed`` is
absent.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .checks import CHECK_NAMES, Box, CheckReport, ConfigError, RunConfig, UnknownCheck, run_all, run_suite
from .soliton import SolitonParams


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated numbers, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


# built once per process: building it costs more than parsing
_PARSER = argparse.ArgumentParser("verify", description="Run residual checks for the F4 geometry at sampled points.")
_PARSER.add_argument("check", help="check name or 'all'; known: " + ", ".join(CHECK_NAMES))
_PARSER.add_argument("--seed", type=int, default=None, help="sampling seed (default: $GEOVERIFY_SEED or 0)")
_PARSER.add_argument("--points", type=int, default=100, help="points per check (default 100)")
_PARSER.add_argument("--tol", type=float, default=1e-9, help="pass threshold (default 1e-9)")
_PARSER.add_argument(
    "--box",
    default=None,
    metavar="xmin,xmax,ymin,ymax,smin,smax,tmin,tmax",
    help="sampling bounds (default -2,2,-2,2,-2,2,0.5,2)",
)
_PARSER.add_argument("--c", default=None, metavar="c1,c2,c3,c4,c5", help="pin the soliton constants")
_PARSER.add_argument("--lambda", dest="lam", type=float, default=None, help="pin the soliton constant lambda")
_PARSER.add_argument("--json", dest="json_path", default=None, help="write JSON-line reports to this path")


def _make_config(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        env = os.environ.get("GEOVERIFY_SEED")
        try:
            seed = int(env) if env is not None else 0
        except ValueError as exc:
            raise ConfigError(f"bad GEOVERIFY_SEED {env!r}") from exc

    box = Box()
    if args.box is not None:
        box = Box(*_parse_floats(args.box, 8, "--box"))

    params = None
    if args.c is not None or args.lam is not None:
        constants = _parse_floats(args.c, 5, "--c") if args.c is not None else [0.0] * 5
        lam = args.lam if args.lam is not None else SolitonParams().lam
        params = SolitonParams(*constants, lam=lam)

    cfg = RunConfig(seed=seed, points=args.points, tol=args.tol, box=box, soliton_params=params)
    cfg.validate()
    return cfg


def _emit(reports: list[CheckReport], fh):
    if fh is None:
        for rep in reports:
            print(rep.to_json())
    else:
        for rep in reports:
            fh.write(rep.to_json() + "\n")
        for rep in reports:
            print(rep.summary())


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:  # every usage error comes before any check runs, and none truncates an earlier report file
        cfg = _make_config(args)
        if args.check not in ("all", *CHECK_NAMES):
            raise UnknownCheck(f"unknown check {args.check!r}; known: {', '.join(CHECK_NAMES)}")
        fh = None if args.json_path is None else open(args.json_path, "a")  # writable, and not yet truncated
    except (ConfigError, UnknownCheck) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {args.json_path}: {exc.strerror}", file=sys.stderr)
        return 2
    with fh or contextlib.nullcontext():
        try:
            reports = run_all(cfg) if args.check == "all" else [run_suite(args.check, cfg)]
        except MemoryError as exc:
            print(f"error: not enough memory for --points {cfg.points}: {exc}", file=sys.stderr)
            return 2
        if fh is not None:
            fh.truncate(0)
        _emit(reports, fh)
    return 0 if all(rep.passed for rep in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
