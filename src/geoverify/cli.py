"""Command-line front end: ``verify <check-name>|all [options]``.

Prints one report per check (JSON lines by default, or human-readable
summaries when the JSON goes to a file via ``--json``).  Exit code 0
when every requested check passes, 1 when any fails, 2 on usage or
configuration errors.  ``GEOVERIFY_SEED`` supplies the seed when
``--seed`` is absent.
"""

from __future__ import annotations

import argparse
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run residual checks for the F4 geometry at sampled points.",
    )
    parser.add_argument("check", help="check name or 'all'; known: " + ", ".join(CHECK_NAMES))
    parser.add_argument("--seed", type=int, default=None, help="sampling seed (default: $GEOVERIFY_SEED or 0)")
    parser.add_argument("--points", type=int, default=100, help="points per check (default 100)")
    parser.add_argument("--tol", type=float, default=1e-9, help="pass threshold (default 1e-9)")
    parser.add_argument(
        "--box",
        default=None,
        metavar="xmin,xmax,ymin,ymax,smin,smax,tmin,tmax",
        help="sampling bounds (default -2,2,-2,2,-2,2,0.5,2)",
    )
    parser.add_argument("--c", default=None, metavar="c1,c2,c3,c4,c5", help="pin the soliton constants")
    parser.add_argument("--lambda", dest="lam", type=float, default=None, help="pin the soliton constant lambda")
    parser.add_argument("--json", dest="json_path", default=None, help="write JSON-line reports to this path")
    return parser


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

    return RunConfig(
        seed=seed,
        points=args.points,
        tol=args.tol,
        box=box,
        soliton_params=params,
        output=args.json_path,
    )


def _emit(reports: list[CheckReport], json_path: str | None):
    if json_path is None:
        for rep in reports:
            print(rep.to_json())
    else:
        with open(json_path, "w") as fh:
            for rep in reports:
                fh.write(rep.to_json() + "\n")
        for rep in reports:
            print(rep.summary())


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _make_config(args)
        if args.check == "all":
            reports = run_all(cfg)
        else:
            reports = [run_suite(args.check, cfg)]
    except (ConfigError, UnknownCheck) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(reports, cfg.output)
    return 0 if all(rep.passed for rep in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
