"""Command-line entry point.

Exit codes: 0 all gates passed, 2 one or more gates failed,
3 configuration error, 4 solver or runtime numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import StudyConfig, parse_config, serialize_config
from .errors import NeymanlabError, ParseError, ValidationError
from .runner import check_study, run_study, write_bundle

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
    """The config with the verb and the flags written into it, parsed once
    more, so that the parser checks each override and names its path: the
    verb sets the study's kind, ``--reps`` its ``reps``.  ``solve`` keeps
    only the scenario, seed, output and jobs under an ``allocation_solve``
    study, so it solves the scenario of any config, under the digest of
    that scenario and seed alone."""
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from exc
    raw = serialize_config(parse_config(text))
    for key, value in (("seed", args.seed), ("output", args.out), ("jobs", args.jobs)):
        if value is not None:
            raw[key] = value
    if args.verb == "solve":
        raw = {key: raw[key] for key in ("scenario", "seed", "output", "jobs") if key in raw}
        raw["study"] = {"kind": "allocation_solve"}
    elif args.verb != "validate":
        raw["study"]["kind"] = args.verb
    if args.reps is not None:
        raw["study"]["reps"] = args.reps
    return parse_config(json.dumps(raw))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.verb == "validate":
            check_study(cfg)
            print(f"config OK: study={cfg.study['kind']} seed={cfg.seed} "
                  f"strata={cfg.scenario.k} arms={cfg.scenario.n_arms}")
            return EXIT_PASS
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
        try:
            written = write_bundle(bundle, cfg.output)
        except OSError as exc:
            print(f"config error: output: cannot write bundle: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"wrote {len(written)} files to {cfg.output}/")

    if bundle.passed:
        print("summary: PASS")
        return EXIT_PASS
    print("summary: FAIL")
    return EXIT_GATES


if __name__ == "__main__":
    raise SystemExit(main())
