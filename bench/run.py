"""neymanlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the workload's round
of ``run_study`` calls repeats until ``--seconds`` is used up (always whole
rounds) and the end-to-end metrics are printed; with ``--trace 1`` one
untraced and one traced round run, plus a jobs=1 replay or a jobs-swapped
cell, and the per-layer metrics are printed.  Outputs are checked against
computations made apart from the program (see checks.py).  The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
PARSE_REPEATS = 5

# Gates whose verdict rests on Monte Carlo draws.  Their thresholds do not
# scale with reps, so they flip with the seed; the output checks cover the
# same properties at a fixed false-alarm rate instead.
MC_GATES = ("floor:", "attainment:", "lan_mean:", "lan_var:", "lan_ks:")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "units_per_s": "units/s",
                    "peak_rss_mb": "MB"}

RISK_DESIGNS = ("iid_propensity", "stratified_blocks", "matched_pairs")
LAN_DESIGNS = RISK_DESIGNS + ("alternation",)
RISK_N = (2000,)
LAN_N = (400, 1600, 6400)
ESTIMATORS = ("diff_means", "ipw_ht", "ipw_hajek", "aipw_oracle", "aipw_plugin",
              "stratified_means")
SOLVE_CELLS = tuple(f"K{k}_dr{d}" for d in workloads.SOLVE_DR for k in workloads.SOLVE_K)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in BENCHMARK.json order; a layer that a
    workload never calls reads 0 there."""
    units = {"lan.import_ms": "ms", "config.parse_ms": "ms"}
    units.update({f"allocation.solve_ms.{c}": "ms" for c in SOLVE_CELLS})
    units.update({f"allocation.inner_solves.{c}": "count" for c in SOLVE_CELLS})
    cells = [(d, n) for d in RISK_DESIGNS for n in RISK_N]
    cells += [(d, n) for d in LAN_DESIGNS for n in LAN_N]
    units.update({f"designs.apply_rule_us.{d}.n{n}": "us" for d, n in cells})
    units.update({f"engine.run_one_self_us.n{n}": "us" for n in sorted(RISK_N + LAN_N)})
    units.update({"engine.rep_seed_us": "us", "engine.stream_us": "us", "engine.logs": "count"})
    units.update({f"estimators.estimate_us.{e}": "us" for e in ESTIMATORS})
    units.update({f"estimators.risk_table_s.{d}": "s" for d in RISK_DESIGNS})
    units.update({f"lan.llr_us.n{n}": "us" for n in LAN_N})
    units.update({f"lan.diagnostics_s.{d}.n{n}": "s" for d in LAN_DESIGNS for n in LAN_N})
    units.update({"lan.useful_log_ratio": "ratio", "runner.pools_started": "count",
                  "runner.pool_overhead_s": "s", "runner.self_ms": "ms",
                  "bench.trace_overhead_pct": "%"})
    return units


# ----------------------------------------------------------------------
# Running and checking rounds.
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    study: workloads.Study
    bundle: object | None     # ReportBundle, None when the study raised
    failure: str | None       # why the operation counts as failed


def run_round(nl, wl, cfgs, tracer=None) -> tuple[float, list[Outcome]]:
    """One call of run_study per study; returns (wall seconds, outcomes)."""
    outcomes = []
    t0 = time.perf_counter()
    for study, cfg in zip(wl.studies, cfgs):
        try:
            if tracer:
                with tracer.span("runner.run_study", study.name):
                    bundle = nl.run_study(cfg)
            else:
                bundle = nl.run_study(cfg)
        except nl.NeymanlabError as exc:
            if type(exc).__name__ != workloads.EXPECTED_FAILURE:
                raise
            outcomes.append(Outcome(study, None, f"{type(exc).__name__}: {exc}"))
        else:
            bad = [g["name"] for g in bundle.summary["gates"]
                   if not g["passed"] and not g["name"].startswith(MC_GATES)]
            outcomes.append(Outcome(study, bundle, f"gates failed: {bad}" if bad else None))
    return time.perf_counter() - t0, outcomes


def check_outcomes(wl, outcomes: list[Outcome]) -> list[str]:
    """Independent checks on every operation that did not fail, and a
    corrupted copy of each bundle that the same check must reject."""
    check = checks.CHECKERS[wl.kind]
    problems = []
    for o in outcomes:
        if o.failure:
            continue
        raw, tables, summary = o.study.raw, o.bundle.tables, o.bundle.summary
        problems += [f"{o.study.name}: {p}" for p in check(raw, tables, summary)]
        if not check(raw, checks.corrupted(wl.kind, tables), summary):
            problems.append(f"{o.study.name}: checker accepted a corrupted bundle")
    return problems


def same_tables(a: list[Outcome], b: list[Outcome], what: str) -> list[str]:
    out = []
    for x, y in zip(a, b):
        tx = x.bundle.tables if x.bundle else None
        ty = y.bundle.tables if y.bundle else None
        if tx != ty or x.failure != y.failure:
            out.append(f"{x.study.name}: {what} changed the tables")
    return out


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its reaped children
    (the pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def fresh_python(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    return time.perf_counter() - t0, proc


SETUP_PROBE = ("import sys; sys.path.insert(0, 'src'); import neymanlab; "
               "[neymanlab.parse_config(open(p).read()) for p in sys.argv[1:]]")


def setup_seconds(wl) -> float:
    """Median wall time of a fresh interpreter that imports neymanlab and
    parses the workload's configs."""
    paths = [s.path for s in wl.studies]
    return statistics.median(fresh_python(["-c", SETUP_PROBE, *paths])[0]
                             for _ in range(SETUP_REPEATS))


def lan_import_ms() -> float:
    """Cumulative import time of neymanlab.lan, from python -X importtime."""
    probe = "import sys; sys.path.insert(0, 'src'); import neymanlab"
    values = []
    for _ in range(IMPORT_REPEATS):
        _, proc = fresh_python(["-X", "importtime", "-c", probe])
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "neymanlab.lan":
                values.append(int(fields[1]) / 1000.0)
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# The two kinds of run.
# ----------------------------------------------------------------------


def timed_run(nl, wl, cfgs, seconds: float):
    walls, problems, attempted, failed = [], [], 0, 0
    first = None
    start = time.perf_counter()
    while True:
        wall, outcomes = run_round(nl, wl, cfgs)
        walls.append(wall)
        attempted += len(outcomes)
        failed += sum(1 for o in outcomes if o.failure)
        if first is None:
            first = outcomes
            problems += check_outcomes(wl, outcomes)
        else:
            problems += same_tables(first, outcomes, "a repeated round")
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    rss = peak_rss_mb()
    wall = statistics.median(walls)
    units = sum(o.study.units for o in first if not o.failure)
    metrics = {
        "setup_s": setup_seconds(wl),
        "wall_s": wall,
        "units_per_s": units / wall,
        "peak_rss_mb": rss,
    }
    print(f"{wl.name}: {len(walls)} rounds, round walls "
          + ", ".join(f"{w:.3f}" for w in walls) + " s", file=sys.stderr)
    return metrics, END_TO_END_UNITS, problems, attempted, failed


def traced_run(nl, wl, cfgs, workdir: str):
    problems = []
    metrics = {name: 0.0 for name in per_layer_units()}
    metrics["lan.import_ms"] = lan_import_ms()
    texts = [open(s.path).read() for s in wl.studies]
    parse = []
    for _ in range(PARSE_REPEATS):
        t0 = time.perf_counter()
        for text in texts:
            nl.parse_config(text)
        parse.append(time.perf_counter() - t0)
    metrics["config.parse_ms"] = 1e3 * statistics.median(parse)

    plain_wall, plain = run_round(nl, wl, cfgs)
    problems += check_outcomes(wl, plain)
    tracer = tracing.Tracer()
    tracing.instrument(tracer, nl)
    tracer.phase = "round"
    traced_wall, traced = run_round(nl, wl, cfgs, tracer)
    problems += same_tables(plain, traced, "tracing")
    inner = "round"
    if wl.jobs > 1:
        # Pool workers keep their spans; replay every cell in-process.
        tracer.phase = inner = "replay_j1"
        j1 = [dataclasses.replace(c, jobs=1) for c in cfgs]
        _, replay = run_round(nl, wl, j1, tracer)
        problems += same_tables(plain, replay, "jobs=1")
    tracer.restore()
    if wl.kind == "risk":
        problems += jobs_swapped_cell(nl, wl, cfgs[0], plain[0])
    tracer.dump(os.path.join(workdir, "spans.json"),
                {"workload": wl.name, "untraced_wall_s": plain_wall,
                 "traced_wall_s": traced_wall})

    attempted = len(plain) + len(traced)
    failed = sum(1 for o in plain + traced if o.failure)
    # Machine noise between two rounds (5-10 % on a shared 2-core host)
    # swamps the wrappers' cost, so the overhead is the traced round's
    # wrapped calls x the measured cost of one span (an upper bound for
    # counted calls), against the untraced round; both walls go to spans.json.
    calls = sum(1 + s[6] for s in tracer.spans if s[5] == "round")
    metrics["bench.trace_overhead_pct"] = 100.0 * calls * tracing.span_cost_s() / plain_wall
    layer_metrics(tracer, wl, inner, plain, metrics)
    print(f"{wl.name}: untraced round {plain_wall:.3f} s, traced {traced_wall:.3f} s, "
          f"{len(tracer.spans)} spans", file=sys.stderr)
    return metrics, per_layer_units(), problems, attempted, failed


def jobs_swapped_cell(nl, wl, cfg, reference: Outcome) -> list[str]:
    """Recompute the first design's cell at jobs=2; its risk.csv rows must
    match the jobs=1 table byte for byte."""
    one = dataclasses.replace(cfg, designs=cfg.designs[:1], jobs=2)
    bundle = nl.run_study(one)
    label = cfg.designs[0].get("label", cfg.designs[0]["kind"])
    want = [line for line in reference.bundle.tables["risk.csv"].splitlines()[1:]
            if line.split(",")[1] == label]
    got = bundle.tables["risk.csv"].splitlines()[1:]
    return [] if got == want else [f"{label}: risk.csv rows differ between jobs=1 and jobs=2"]


def layer_metrics(tracer, wl, inner: str, plain: list[Outcome], m: dict) -> None:
    """Per-layer figures from the spans.  ``inner`` is the phase in which
    run_one and everything below it ran in this process."""
    kids = tracer.child_time()
    sel = tracer.select

    def by_tag(name, phase):
        groups: dict = {}
        for s in sel(name, phase):
            groups.setdefault(s[4], []).append(s)
        return groups

    study_of = {i: s[4] for i, s in enumerate(tracer.spans) if s[0] == "runner.run_study"}
    for s in sel("allocation.solve", "round"):
        cell = study_of.get(s[3])
        if f"allocation.solve_ms.{cell}" in m:
            m[f"allocation.solve_ms.{cell}"] = 1e3 * (s[2] - s[1])
            m[f"allocation.inner_solves.{cell}"] = s[4] if s[4] is not None else s[6]

    for (design, n), spans in by_tag("designs.apply_rule", inner).items():
        key = f"designs.apply_rule_us.{design}.n{n}"
        if key in m:
            m[key] = tracing.median_us(spans)
    run_one_self: dict = {}
    for i, s in enumerate(tracer.spans):
        if s[0] == "engine.run_one" and s[5] == inner:
            run_one_self.setdefault(s[4], []).append(
                s[2] - s[1] - kids.get(i, {}).get("designs.apply_rule", 0.0))
    for n, values in run_one_self.items():
        if f"engine.run_one_self_us.n{n}" in m:
            m[f"engine.run_one_self_us.n{n}"] = 1e6 * statistics.median(values)
    m["engine.rep_seed_us"] = tracing.median_us(sel("engine.rep_seed", inner))
    m["engine.stream_us"] = tracing.median_us(sel("engine.stream", inner))
    logs = len(sel("engine.run_one", inner))
    m["engine.logs"] = logs
    for est, spans in by_tag("estimators.estimate", inner).items():
        m[f"estimators.estimate_us.{est}"] = tracing.median_us(spans)
    for design, spans in by_tag("estimators.risk_table", "round").items():
        m[f"estimators.risk_table_s.{design}"] = tracing.total_s(spans)
    for n, spans in by_tag("lan.llr", inner).items():
        if f"lan.llr_us.n{n}" in m:
            m[f"lan.llr_us.n{n}"] = tracing.median_us(spans)
    for (design, n), spans in by_tag("lan.diagnostics", "round").items():
        m[f"lan.diagnostics_s.{design}.n{n}"] = tracing.total_s(spans)
    if sel("lan.diagnostics", "round") and logs:
        published = sum(len(checks.rows(o.bundle.tables, "lan.csv")) * o.study.raw["study"]["reps"]
                        for o in plain if o.bundle)
        m["lan.useful_log_ratio"] = published / logs

    m["runner.pools_started"] = len(sel("runner.pool", "round"))
    if wl.jobs > 1:
        cells = ("estimators.risk_table", "lan.diagnostics")
        pooled = sum(tracing.total_s(sel(c, "round")) for c in cells)
        serial = sum(tracing.total_s(sel(c, inner)) for c in cells)
        m["runner.pool_overhead_s"] = pooled - serial / wl.jobs
    m["runner.self_ms"] = 1e3 * sum(
        (s[2] - s[1]) - sum(kids.get(i, {}).values())
        for i, s in enumerate(tracer.spans)
        if s[0] == "runner.run_study" and s[5] == "round")


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="study seed of the simulation workloads (default: the config's)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import neymanlab as nl

    workdir = os.path.join(OUT_DIR, args.workload)
    wl = workloads.build(args.workload, args.seed, workdir)
    cfgs = [nl.parse_config(open(s.path).read()) for s in wl.studies]
    if args.trace:
        metrics, units, problems, attempted, failed = traced_run(nl, wl, cfgs, workdir)
    else:
        metrics, units, problems, attempted, failed = timed_run(nl, wl, cfgs, args.seconds)

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} operations attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
