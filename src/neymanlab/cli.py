"""Command-line entry point.

Exit codes: 0 all gates passed, 2 one or more gates failed,
3 configuration error, 4 solver or runtime numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import engine
from .config import StudyConfig, parse_config
from .errors import NeymanlabError, ParseError, ValidationError
from .runner import run_study, write_bundle
from .scenario import validate

EXIT_PASS = 0
EXIT_GATES = 2
EXIT_CONFIG = 3
EXIT_SOLVER = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neymanlab",
        description="Covariate-stratified experiment design studies",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
        ("solve", "solve the efficient allocation and emit its certificate"),
        ("risk", "run the configured Monte Carlo risk study"),
        ("lan", "run the configured likelihood-ratio diagnostic study"),
        ("validate", "parse and validate the configuration, then exit"),
    ):
        p = sub.add_parser(verb, help=text)
        p.add_argument("--config", required=True, help="path to the JSON study config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--reps", type=int, default=None,
                       help="override the replication count")
        p.add_argument("--jobs", type=int, default=None,
                       help="number of worker processes")
    return parser


def _load_config(args) -> StudyConfig:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from exc
    cfg = parse_config(text)
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ValidationError("--seed must fit in an unsigned 64-bit integer")
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output=args.out)
    if args.jobs is not None:
        if args.jobs < 1:
            raise ValidationError("--jobs must be at least 1")
        cfg = dataclasses.replace(cfg, jobs=args.jobs)
    if args.reps is not None:
        if "reps" not in cfg.study:
            raise ValidationError(
                f"--reps does not apply to a {cfg.study['kind']!r} study"
            )
        if args.reps < 2:
            raise ValidationError("--reps must be at least 2")
        cfg = dataclasses.replace(cfg, study={**cfg.study, "reps": args.reps})
    return cfg


def _require_study(cfg: StudyConfig, verb: str) -> StudyConfig:
    if verb == "solve":
        if cfg.study["kind"] != "allocation_solve":
            cfg = dataclasses.replace(cfg, study={"kind": "allocation_solve"})
        return cfg
    expected = {"risk": "risk", "lan": "lan"}[verb]
    if cfg.study["kind"] != expected:
        raise ValidationError(
            f"verb {verb!r} needs a study of kind {expected!r}, "
            f"config has {cfg.study['kind']!r}"
        )
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.verb == "validate":
        report = validate(cfg.scenario)
        if not report.ok:  # parse_config already rejects these; belt and braces
            for problem in report.problems:
                print(f"invalid: {problem}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"config OK: study={cfg.study['kind']} seed={cfg.seed} "
              f"strata={cfg.scenario.k} arms={cfg.scenario.n_arms}")
        return EXIT_PASS

    try:
        cfg = _require_study(cfg, args.verb)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.verb in ("risk", "lan"):
        # this process is the CLI's own, so its simulation may keep its heap
        # as pool workers do (engine module docstring, "Worker heap")
        engine.keep_heap()
    try:
        bundle = run_study(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NeymanlabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    for gate in bundle.summary["gates"]:
        status = "PASS" if gate["passed"] else "FAIL"
        print(f"gate {gate['name']}: {gate['value']:.6g} {gate['op']} "
              f"{gate['threshold']:.6g}: {status}")
    for key, value in bundle.summary["headline"].items():
        print(f"{key} = {value:.12g}")

    if cfg.output is not None:
        written = write_bundle(bundle, cfg.output)
        print(f"wrote {len(written)} files to {cfg.output}/")

    if bundle.passed:
        print("summary: PASS")
        return EXIT_PASS
    print("summary: FAIL")
    return EXIT_GATES


if __name__ == "__main__":
    raise SystemExit(main())
