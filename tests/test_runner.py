"""Study runner: bundle determinism, gate honesty, CLI exit codes."""

import csv
import dataclasses
import importlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neymanlab as nl
from conftest import CONFIGS, shipped_scenario
from neymanlab import cli, runner


def rows_of(table_text):
    rows = list(csv.reader(io.StringIO(table_text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body]


def scenario_block(scenario):
    return nl.serialize_scenario(scenario)


def solve_raw(scenario):
    return {"scenario": scenario_block(scenario),
            "study": {"kind": "allocation_solve"}, "seed": 3}


def risk_raw(**study_over):
    study = {"kind": "risk", "n": 120, "reps": 48, "theta_list": [0.0]}
    study.update(study_over)
    return {
        "scenario": scenario_block(shipped_scenario("risk_hetero")),
        "designs": [{"kind": "iid_propensity", "alloc": "neyman"},
                    {"kind": "matched_pairs"}],
        "estimators": [{"kind": "aipw_oracle", "alloc": "neyman"},
                       {"kind": "diff_means"}],
        "study": study,
        "seed": 99,
    }


def run_raw(raw, jobs=None):
    cfg = nl.parse_config(json.dumps(raw))
    return nl.run_study(cfg if jobs is None else dataclasses.replace(cfg, jobs=jobs))


def test_budget_solve_bundle():
    bundle = run_raw(solve_raw(shipped_scenario("solve_budget")))
    assert bundle.passed
    assert set(bundle.tables) == {"allocation.csv", "bounds.csv", "duals.csv"}
    (bound_row,) = rows_of(bundle.tables["bounds.csv"])
    assert float(bound_row["vStar"]) == pytest.approx(5.69832288246, rel=1e-9)
    assert float(bound_row["kktMax"]) <= 1e-8
    (dual_row,) = rows_of(bundle.tables["duals.csv"])
    assert float(dual_row["mu"]) == pytest.approx(10.0577569883, rel=1e-6)
    assert float(dual_row["usage"]) == pytest.approx(0.3, abs=1e-9)
    assert float(dual_row["budget"]) == 0.3


def test_unconstrained_solve_matches_closed_form():
    sc = shipped_scenario("risk_hetero")
    bundle = run_raw(solve_raw(sc))
    assert bundle.passed
    assert "duals.csv" not in bundle.tables
    e_star = nl.neyman_allocation(sc).treated_share
    for row in rows_of(bundle.tables["allocation.csv"]):
        k = sc.covariates.support.index(row["x"])
        want = e_star[k] if row["arm"] == "1" else 1 - e_star[k]
        assert float(row["p"]) == pytest.approx(want, rel=1e-9)


def test_run_study_byte_identical():
    raw = risk_raw()
    b1, b2 = run_raw(raw), run_raw(raw)
    assert b1.tables == b2.tables
    assert b1.summary == b2.summary
    assert b1.manifest == b2.manifest


def test_seed_changes_risk_table():
    raw1, raw2 = risk_raw(), risk_raw()
    raw2["seed"] = 100
    assert run_raw(raw1).tables["risk.csv"] != run_raw(raw2).tables["risk.csv"]


def test_jobs_do_not_change_tables():
    raw = risk_raw(reps=24)
    assert run_raw(raw, jobs=1).tables == run_raw(raw, jobs=2).tables


def test_one_worker_pool_per_study(monkeypatch):
    pools, workers = [], []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)
            workers.append(kwargs["max_workers"])

    monkeypatch.setattr(nl.engine, "ProcessPoolExecutor", CountingPool)
    lan = {
        "scenario": scenario_block(shipped_scenario("risk_hetero")),
        "designs": [{"kind": "iid_propensity", "alloc": "neyman"},
                    {"kind": "stratified_blocks", "alloc": "neyman", "block_size": 4}],
        "study": {"kind": "lan", "h": 1.0, "n_list": [32, 64], "reps": 8},
        "seed": 5,
    }
    risk = risk_raw(reps=8)
    for raw, jobs, started in ((lan, 2, 1), (risk, 2, 1), (risk, 1, 0)):
        del pools[:]
        run_raw(raw, jobs=jobs)
        assert len(pools) == started
        assert multiprocessing.active_children() == []
    # a study gives each worker at least one replication, so it starts no
    # more workers than it has replications
    del workers[:]
    run_raw(risk_raw(reps=2), jobs=3)
    assert workers == [2]
    assert multiprocessing.active_children() == []


def test_lan_study_draws_each_replication_once(monkeypatch):
    # a lan study draws every replication once, at its largest n, and reads
    # each smaller size's cells from the first n units of that draw: 12 reps
    # at n = 6400 are 3 blocks of at most 5 rows, and no draw at 400 or 1600
    drawn = []
    init = nl.engine.Draw.__init__

    def spy(self, sub, theta, n, *args, **kwargs):
        drawn.append(n)
        init(self, sub, theta, n, *args, **kwargs)

    monkeypatch.setattr(nl.engine.Draw, "__init__", spy)
    raw = json.loads((CONFIGS / "lan_hetero.json").read_text())
    raw["study"]["reps"] = 12
    assert raw["study"]["n_list"] == [400, 1600, 6400]
    bundle = run_raw(raw, jobs=1)
    assert drawn == [6400] * 3
    assert len(rows_of(bundle.tables["lan.csv"])) == 3 * len(raw["designs"])


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers see the patched keep_heap only when forked")
def test_chunk_stats_keeps_the_heap_of_the_process_it_runs_in(tmp_path, monkeypatch):
    # whichever process walks a study's blocks keeps its heap: chunk_stats
    # calls keep_heap once per chunk, here at jobs=1 and in the workers at
    # jobs=2; the pool makes no call of its own
    callers = record_heap_callers(tmp_path, monkeypatch)
    here = os.getpid()
    run_raw(risk_raw(reps=8), jobs=1)
    assert callers() == [here]
    run_raw(risk_raw(reps=8), jobs=2)  # two chunks, one chunk_stats call each
    pids = callers()
    assert len(pids) == 2 and here not in pids


def test_cli_keeps_its_own_heap(tmp_path, monkeypatch, capsys):
    # a risk or lan run at jobs=1 keeps the CLI's heap through chunk_stats
    # (test above); the CLI makes no call of its own, so a verb that
    # simulates nothing leaves the heap alone
    callers = record_heap_callers(tmp_path, monkeypatch)
    path = write_config(tmp_path, risk_raw(reps=8))
    assert cli.main(["validate", "--config", path]) == 0
    assert cli.main(["solve", "--config", path]) == 0
    assert callers() == []
    assert cli.main(["risk", "--config", path, "--jobs", "1"]) in (0, 2)
    assert callers() == [os.getpid()]
    capsys.readouterr()


def record_heap_callers(tmp_path, monkeypatch):
    # patch keep_heap to log the pid of each call, pool workers' included;
    # the returned reader hands back the pids logged since it last ran
    log = tmp_path / "pids"

    def record():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")

    def callers():
        pids = log.read_text().split() if log.exists() else []
        log.unlink(missing_ok=True)
        return [int(pid) for pid in pids]

    monkeypatch.setattr(nl.engine, "keep_heap", record)
    return callers


def test_cli_names_the_error_class(tmp_path, capsys):
    # at n = 12 some replication leaves a stratum's arm empty
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "risk_hetero.json")) as fh:
        raw = json.load(fh)
    raw["study"]["n"] = 12
    raw["output"] = str(tmp_path / "out")
    path = write_config(tmp_path, raw)
    assert cli.main(["risk", "--config", path, "--reps", "200"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("EmptyArm: ")], err


def test_cli_names_the_overfull_design(tmp_path, capsys):
    # padded to the bound itself, some iid logs at n = 400 already carry
    # more information than I*: the error names the design by its config
    # path, and the n
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "lan_hetero.json")) as fh:
        raw = json.load(fh)
    raw["study"]["augment"] = True
    raw["output"] = str(tmp_path / "out")
    path = write_config(tmp_path, raw)
    assert cli.main(["lan", "--config", path, "--reps", "50"]) == 4
    err = [line for line in capsys.readouterr().err.splitlines()
           if line.startswith("InfoExceedsTarget: ")]
    assert raw["designs"][0]["kind"] == "iid_propensity"
    assert len(err) == 1 and "designs[0] at n=400: realized information" in err[0], err


def test_design_rows_do_not_depend_on_neighbours():
    # all designs of a study share each replication's x and z, but each
    # draws its assignments from a fresh design stream: a design's rows are
    # the same alone, first or last among others, at any jobs
    designs = [{"kind": "two_stage", "pilot_fraction": 0.25},
               {"kind": "stratified_blocks", "alloc": "neyman", "block_size": 4},
               {"kind": "matched_pairs"}]
    lan = {
        "scenario": scenario_block(shipped_scenario("risk_hetero")),
        "designs": designs,
        "study": {"kind": "lan", "h": 1.0, "n_list": [40, 80], "reps": 12},
        "seed": 5,
    }
    for raw, table in ((risk_raw(reps=12), "risk.csv"), (lan, "lan.csv")):
        def rows_by_design(subset, jobs):
            bundle = run_raw({**raw, "designs": subset}, jobs=jobs)
            rows = {}
            for line in bundle.tables[table].splitlines()[1:]:
                rows.setdefault(line.split(",")[1], []).append(line)
            return rows

        alone = {d["kind"]: rows_by_design([d], 1)[d["kind"]] for d in designs}
        for subset in (designs, designs[::-1]):
            for jobs in (1, 2):
                assert rows_by_design(subset, jobs) == alone, (table, jobs)


def test_gate_honesty_from_emitted_csv():
    # every gate verdict must be recomputable from the published tables
    # alone; the runner guarantees this by formatting before comparing
    bundle = run_raw(risk_raw())
    v_star = float(rows_of(bundle.tables["bounds.csv"])[0]["vStar"])
    by_cell = {(r["design"], r["estimator"]): float(r["nVar"])
               for r in rows_of(bundle.tables["risk.csv"]) if float(r["theta"]) == 0.0}
    floor_gates = [g for g in bundle.summary["gates"] if g["name"].startswith("floor:")]
    assert len(floor_gates) == len(by_cell) == 4
    for gate in floor_gates:
        _, dlabel, elabel = gate["name"].split(":")
        ratio = float("%.12g" % (by_cell[(dlabel, elabel)] / v_star))
        assert ratio == gate["value"]
        assert (ratio >= gate["threshold"]) == gate["passed"]
    for gate in bundle.summary["gates"]:
        if gate["name"].startswith("attainment:"):
            _, dlabel, elabel = gate["name"].split(":")
            gap = float("%.12g" % abs(by_cell[(dlabel, elabel)] / v_star - 1.0))
            assert gap == gate["value"]


def test_attainment_gate_only_for_efficient_pair():
    bundle = run_raw(risk_raw())
    attain = [g["name"] for g in bundle.summary["gates"]
              if g["name"].startswith("attainment:")]
    assert attain == ["attainment:iid_propensity:aipw_oracle"]


def test_full_treatment_rejected_in_risk_study():
    raw = risk_raw()
    raw["designs"].append({"kind": "full_treatment", "arm": 1})
    with pytest.raises(nl.ValidationError, match="full_treatment"):
        run_raw(raw)


def test_duplicate_design_kinds_get_distinct_labels():
    raw = risk_raw()
    raw["designs"] = [{"kind": "iid_propensity", "alloc": "neyman"},
                      {"kind": "iid_propensity", "alloc": "uniform"}]
    bundle = run_raw(raw)
    labels = {r["design"] for r in rows_of(bundle.tables["risk.csv"])}
    assert labels == {"iid_propensity", "iid_propensity_2"}


def counted_labels(labels):
    """The n-th use of a label as ``label_n``: labels that may collide with
    a given one, such as ``["a", "a", "a_2"]``."""
    seen = {}
    out = []
    for label in labels:
        seen[label] = seen.get(label, 0) + 1
        out.append(label if seen[label] == 1 else f"{label}_{seen[label]}")
    return out


@settings(max_examples=300)
@given(st.lists(st.sampled_from(["a", "a_2", "a_3", "a_2_2", "b"]), max_size=8))
@example(["matched_pairs", "matched_pairs", "matched_pairs_2"])  # counted: a repeat
def test_design_labels_are_distinct(labels):
    # the labels key risk.csv rows and gate names, so they are distinct;
    # where counting uses already gives distinct labels, they are those, so
    # no golden moves
    out = runner._dedup_labels(labels)
    assert len(set(out)) == len(out) == len(labels)
    counted = counted_labels(labels)
    if len(set(counted)) == len(counted):
        assert out == counted



def test_table_and_scaled_allocations_resolve_to_their_tables():
    # a table allocation equal to the Neyman one, and a scaled allocation
    # equal to a table of half of it, give the same rows as those tables
    p = nl.neyman_allocation(shipped_scenario("risk_hetero")).p
    raw = risk_raw()
    raw["designs"] = [{"kind": "iid_propensity", "alloc": "neyman"},
                      {"kind": "iid_propensity", "alloc": {"kind": "table", "p": p.tolist()}},
                      {"kind": "iid_propensity",
                       "alloc": {"kind": "scaled", "factor": 0.5, "base": "neyman"}},
                      {"kind": "iid_propensity", "alloc": {"kind": "table", "p": (0.5 * p).tolist()}}]
    rows = rows_of(run_raw(raw).tables["risk.csv"])
    by_design = {}
    for row in rows:
        by_design.setdefault(row.pop("design"), []).append(row)
    neyman, table, scaled, half = by_design.values()
    assert neyman == table and scaled == half
    assert neyman != scaled

def test_lan_study_tables_and_gates():
    raw = {
        "scenario": scenario_block(shipped_scenario("risk_hetero")),
        "designs": [{"kind": "iid_propensity", "alloc": "neyman"}],
        "study": {"kind": "lan", "h": 1.0, "n_list": [64, 256], "reps": 64},
        "seed": 5,
    }
    bundle = run_raw(raw)
    rows = rows_of(bundle.tables["lan.csv"])
    assert [int(r["n"]) for r in rows] == [64, 256]
    assert all(r["augmented"] == "false" for r in rows)
    names = {g["name"] for g in bundle.summary["gates"]}
    # the reference bound is solved with certificates, so its gates ride along
    assert names == {"kkt_max", "bound_identity_gap",
                     "lan_mean:iid_propensity", "lan_var:iid_propensity",
                     "lan_ks:iid_propensity", "lan_remainder_decay"}
    sc = shipped_scenario("risk_hetero")
    v = nl.eval_bound_binary(sc, nl.neyman_allocation(sc).treated_share).v
    assert bundle.summary["headline"]["i_star"] == pytest.approx(v, rel=1e-9)



def test_lan_study_at_zero_h_is_degenerate():
    # at h = 0 every log likelihood ratio is 0: the variance gate becomes
    # lan_degenerate_var, and the remainder of every n is 0
    raw = {
        "scenario": scenario_block(shipped_scenario("risk_hetero")),
        "designs": [{"kind": "iid_propensity", "alloc": "neyman"}, {"kind": "matched_pairs"}],
        "study": {"kind": "lan", "h": 0.0, "n_list": [64, 256], "reps": 16},
        "seed": 5,
    }
    bundle = run_raw(raw)
    assert bundle.passed
    lan_gates = {g["name"]: g["value"] for g in bundle.summary["gates"]
                 if g["name"].startswith("lan_")}
    assert lan_gates == {"lan_mean:iid_propensity": 0.0,
                         "lan_degenerate_var:iid_propensity": 0.0,
                         "lan_mean:matched_pairs": 0.0,
                         "lan_degenerate_var:matched_pairs": 0.0,
                         "lan_remainder_decay": 0.0}

def test_manifest_is_timestamp_free(tmp_path):
    raw = solve_raw(shipped_scenario("solve_budget"))
    bundle = run_raw(raw)
    cfg = nl.parse_config(json.dumps(raw))
    assert bundle.manifest["config_sha256"] == nl.config_digest(cfg)
    assert bundle.manifest["seed"] == 3
    assert "time" not in json.dumps(bundle.manifest).lower()
    written = nl.write_bundle(bundle, str(tmp_path / "out"))
    assert sorted(written) == ["allocation.csv", "bounds.csv", "duals.csv",
                               "manifest.json", "summary.json"]
    on_disk = (tmp_path / "out" / "bounds.csv").read_text()
    assert on_disk == bundle.tables["bounds.csv"]
    reloaded = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert reloaded == bundle.summary


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, risk_raw())
    assert cli.main(["validate", "--config", path]) == 0
    assert "config OK" in capsys.readouterr().out


SHIPPED = sorted(CONFIGS.glob("*.json"))


@pytest.mark.parametrize("config", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_cli_validates_each_shipped_config(tmp_path, capsys, config):
    # every shipped config validates; a lan config given the estimators list,
    # which lan studies do not read, is a config error at that list
    assert cli.main(["validate", "--config", str(config)]) == 0
    assert "config OK" in capsys.readouterr().out
    raw = json.loads(config.read_text())
    if raw["study"]["kind"] == "lan":
        raw["estimators"] = ["diff_means"]
        assert cli.main(["validate", "--config", write_config(tmp_path, raw)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: estimators: "), err


def test_cli_unknown_key_exit(tmp_path, capsys):
    raw = risk_raw()
    raw["desings"] = []
    path = write_config(tmp_path, raw)
    assert cli.main(["risk", "--config", path]) == 3
    assert "designs" in capsys.readouterr().err


def test_cli_verb_must_match_study(tmp_path, capsys):
    path = write_config(tmp_path, risk_raw())
    assert cli.main(["lan", "--config", path]) == 3
    capsys.readouterr()


def test_cli_bad_allocation_table_exit(tmp_path, capsys):
    # AllocationMap's own checks reach the CLI as configuration errors
    for p in ([[0.75, 0.5], [0.5, 0.5], [0.5, 0.5]],
              [[-0.25, 0.5], [0.5, 0.5], [0.5, 0.5]]):
        raw = risk_raw()
        raw["designs"] = [{"kind": "iid_propensity", "alloc": {"kind": "table", "p": p}}]
        with pytest.raises(nl.ValidationError, match="allocation table"):
            run_raw(raw)
        path = write_config(tmp_path, raw)
        for verb in ("validate", "risk"):
            assert cli.main([verb, "--config", path]) == 3
            assert "allocation table" in capsys.readouterr().err


@pytest.mark.parametrize("where, path", [
    ("design", "designs[0].alloc.p"), ("estimator", "estimators[0].alloc.p"),
    ("scaled", "designs[0].alloc.base.p"),
])
def test_cli_validate_names_an_invalid_allocation_table(tmp_path, capsys, where, path):
    # parsing checks a table against AllocationMap's rules, so validate
    # fails where a run would, at the table's path
    table = {"kind": "table", "p": [[0.9, 0.5], [0.5, 0.5], [0.5, 0.5]]}  # row mass 1.4
    raw = risk_raw()
    if where == "design":
        raw["designs"][0]["alloc"] = table
    elif where == "estimator":
        raw["estimators"][0]["alloc"] = table
    else:
        raw["designs"][0]["alloc"] = {"kind": "scaled", "base": table, "factor": 0.5}
    config = write_config(tmp_path, raw)
    assert cli.main(["validate", "--config", config]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: must be an allocation table"), err


def test_cli_validate_names_a_misshapen_table(tmp_path, capsys):
    # a table of the wrong shape is a configuration error before any run
    raw = risk_raw()
    raw["estimators"] = [{"kind": "aipw_oracle", "alloc": {"kind": "table", "p": [[0.5, 0.5]]}}]
    path = write_config(tmp_path, raw)
    for verb in ("validate", "risk"):
        assert cli.main([verb, "--config", path]) == 3
        err = capsys.readouterr().err
        assert "estimators[0].alloc.p: expected 3 rows, got 1" in err, err


@pytest.mark.parametrize("case, at", [
    ("table", "estimators[0] on designs[0]"), ("solved", "estimators[0] on designs[0]"),
    ("own", "estimators[0].alloc"),
])
def test_cli_validate_names_an_estimator_below_its_floor(tmp_path, capsys, case, at):
    # ipw_ht reads an allocation that puts p = 0 on an arm: its design's,
    # given as a table or solved by "neyman" on a stratum whose control arm
    # has no variance, or its own.  Parsing cannot see a solved one, so
    # validate builds the study's estimators as a run does, and both exit 3
    # before the first replication
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "risk_hetero.json")) as fh:
        raw = json.load(fh)
    raw["study"]["reps"] = 20
    raw["output"] = str(tmp_path / "out")
    table = {"kind": "table", "p": [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]]}
    raw["designs"] = [{"kind": "iid_propensity", "alloc": table if case == "table" else "neyman"}]
    raw["estimators"] = [{"kind": "ipw_ht", "alloc": table} if case == "own" else "ipw_ht"]
    if case == "solved":
        raw["scenario"]["sigma2"][0] = [0.0, 0.25]
    arm = 0 if case == "solved" else 1
    path = write_config(tmp_path, raw)
    for verb in ("validate", "risk"):
        assert cli.main([verb, "--config", path]) == 3
        err = capsys.readouterr().err
        assert err == (f"config error: {at}: ipw_ht: allocation entry "
                       f"p[0,{arm}] = 0.0 is below the floor 0.001\n"), err
    assert not (tmp_path / "out").exists()


def test_cli_solver_failure_exit(tmp_path, capsys):
    sc = shipped_scenario("solve_budget")
    raw = solve_raw(sc)
    raw["scenario"]["constraint"]["c"] = [0.0]
    path = write_config(tmp_path, raw)
    assert cli.main(["solve", "--config", path]) == 4
    capsys.readouterr()


def test_cli_solve_hashes_only_what_it_reads(tmp_path, capsys):
    # solve keeps the scenario and seed of any config and drops its designs,
    # estimators and study, so its digest is that of the scenario and seed alone
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "risk_hetero.json")) as fh:
        raw = json.load(fh)
    alone = {"scenario": raw["scenario"], "seed": raw["seed"],
             "study": {"kind": "allocation_solve"}}
    digests = []
    for name, config in (("full", raw), ("alone", alone)):
        out = tmp_path / name
        path = write_config(tmp_path, config, f"{name}.json")
        assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
        digests.append(json.loads((out / "manifest.json").read_text())["config_sha256"])
    capsys.readouterr()
    assert digests[0] == digests[1]


def test_cli_solve_writes_bundle_and_passes(tmp_path, capsys):
    raw = solve_raw(shipped_scenario("solve_budget"))
    out = tmp_path / "bundle"
    path = write_config(tmp_path, raw)
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "summary: PASS" in text
    assert "gate kkt_max" in text
    assert (out / "manifest.json").exists()


def test_cli_reps_override(tmp_path, capsys):
    path = write_config(tmp_path, risk_raw())
    assert cli.main(["risk", "--config", path, "--reps", "12"]) in (0, 2)
    capsys.readouterr()
    # solve studies have no reps knob
    path2 = write_config(tmp_path, solve_raw(shipped_scenario("solve_budget")), "s.json")
    assert cli.main(["solve", "--config", path2, "--reps", "12"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("flags, path", [
    (["--reps", "1"], "study.reps"), (["--jobs", "0"], "jobs"), (["--seed", "-1"], "seed"),
    (["--seed", str(2**64)], "seed"),
], ids=["reps", "jobs", "seed-negative", "seed-too-large"])
def test_cli_bad_override_names_its_config_path(tmp_path, capsys, flags, path):
    # the CLI writes its flags into the config and parses it again, so a bad
    # override is a config error at the key it overrides
    config = write_config(tmp_path, risk_raw())
    for verb in ("validate", "risk"):
        assert cli.main([verb, "--config", config, *flags]) == 3
        assert capsys.readouterr().err.startswith(f"config error: {path}: "), (verb, flags)


@pytest.mark.parametrize("block, key, value, message", [
    ("constraint", "r", [[[0.0], [-1.0]], [[0.0], [1.0]]],
     "scenario.constraint: r[0][1][0] must be finite and >= 0, got -1.0"),
    ("constraint", "c", [-0.1], "scenario.constraint: c[0] must be finite and >= 0, got -0.1"),
    ("covariates", "probs", [0.6, 0.5],
     "scenario.covariates: probs must sum to 1 within 1e-12, got 1.1"),
    ("covariates", "probs", [0.0, 1.0],
     "scenario.covariates: probs[0] must be finite and > 0, got 0.0"),
    ("covariates", "support", ["lo", "lo"], "scenario.covariates: support[1] repeats the label 'lo'"),
    (None, "sigma2", [[1.0, 0.64], [-1.44, 2.25]],
     "scenario: sigma2[1][0] must be finite and >= 0, got -1.44"),
], ids=["r-negative", "c-negative", "probs-sum", "probs-zero", "support-repeated",
        "sigma2-negative"])
def test_cli_names_a_scenario_value_out_of_range(tmp_path, capsys, block, key, value, message):
    # each value type checks its own values, and parsing builds it at its
    # block's path, so validate and the study's verb both exit 3 naming the
    # field and its entry
    raw = json.loads((CONFIGS / "solve_budget.json").read_text())
    (raw["scenario"][block] if block else raw["scenario"])[key] = value
    path = write_config(tmp_path, raw)
    for verb in ("validate", "solve"):
        assert cli.main([verb, "--config", path, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"config error: {message}\n", verb
    assert not (tmp_path / "out").exists()


def test_cli_unwritable_output_is_a_config_error(tmp_path, capsys):
    # --out names an existing file, so the bundle's directory cannot be made
    out = tmp_path / "taken"
    out.write_text("")
    path = write_config(tmp_path, solve_raw(shipped_scenario("solve_budget")))
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: output: cannot write bundle: "), err
    assert out.read_text() == ""


def test_cli_validate_rejects_full_treatment_in_risk_study(tmp_path, capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "risk_hetero.json")) as fh:
        raw = json.load(fh)
    raw["designs"].append({"kind": "full_treatment", "arm": 1})
    path = write_config(tmp_path, raw)
    assert cli.main(["validate", "--config", path]) == 3
    err = capsys.readouterr().err
    assert f"designs[{len(raw['designs']) - 1}].kind: design 'full_treatment'" in err, err


@pytest.mark.parametrize("config, key, value", [
    ("risk_hetero", "theta_list", []), ("risk_hetero", "theta_list", [0.0, 0.0]),
    ("lan_hetero", "i_star", -1.0), ("lan_hetero", "i_star", 0.0),
], ids=["theta_list-empty", "theta_list-repeated", "i_star-negative", "i_star-zero"])
def test_cli_names_a_study_value_out_of_range(tmp_path, capsys, config, key, value):
    # parsing rejects these, so validate and the study's verb both exit 3
    raw = json.loads((CONFIGS / f"{config}.json").read_text())
    raw["study"][key] = value
    path = write_config(tmp_path, raw)
    for verb in ("validate", raw["study"]["kind"]):
        assert cli.main([verb, "--config", path]) == 3
        assert capsys.readouterr().err.startswith(f"config error: study.{key}: "), verb


def jobs_study(name):
    """The verb and config of a --jobs invariance study, built from a shipped
    config at its own n and reps:
    - "risk" and "lan": risk_hetero and lan_hetero as shipped;
    - "aug": lan_hetero padded to i_star = 5, whose augmentation normals, one
      per replication, are drawn in the main process after the workers return;
    - "adaptive": risk_hetero's two-stage design alone, the one rule that reads
      outcomes: each row's post-pilot shares come from its own pilot cells,
      whichever rows share its block;
    - "lan_adaptive": lan_hetero with two-stage added, the one rule assigned
      once per size (its pilot is a share of n) while the others read every
      size from the prefix of one draw at the largest n;
    - "many_strata": risk_hetero's designs and estimators on 60 strata, where
      about 6 % of units find their stratum by the guide table's binary
      search fallback; n = 6000 keeps every arm of every stratum filled."""
    risk, lan = (json.loads((CONFIGS / f"{c}.json").read_text())
                 for c in ("risk_hetero", "lan_hetero"))
    two_stage = {"kind": "two_stage", "pilot_fraction": 0.1}
    k = 60
    if name == "aug":
        lan["study"].update(augment=True, i_star=5.0)
    elif name == "adaptive":
        risk["designs"] = [two_stage]
    elif name == "lan_adaptive":
        lan["designs"].append(two_stage)
    elif name == "many_strata":
        risk["scenario"].update(
            label="many_strata",
            covariates={"support": [f"s{i}" for i in range(k)],
                        "probs": [(i % 3 + 2) / 180 for i in range(k)]},
            mu=[[i % 3 / 2, 1 + i % 5 / 4] for i in range(k)],
            sigma2=[[0.5 + i % 3 / 2, 1.5 - i % 4 / 4] for i in range(k)])
        risk["study"].update(n=6000, reps=400)
    return ("lan", lan) if name in ("lan", "aug", "lan_adaptive") else ("risk", risk)


@pytest.mark.parametrize("name", ["risk", "lan", "aug", "adaptive", "lan_adaptive",
                                  "many_strata"])
def test_cli_tables_do_not_depend_on_jobs(tmp_path, capsys, name):
    # stream keys are derived once per chunk of seeds, and chunks, and the
    # blocks of rows within them, differ between --jobs settings: at a seed
    # with no golden, every table and summary.json (gates and headline, no
    # timing) must match byte for byte at --jobs 1 and --jobs 2, with one
    # exit code; exit 2 (a Monte Carlo gate failed) still writes them
    verb, raw = jobs_study(name)
    path = write_config(tmp_path, raw)
    codes = []
    for jobs in (1, 2):
        codes.append(cli.main([verb, "--config", path, "--seed", "13", "--jobs", str(jobs),
                               "--out", str(tmp_path / f"j{jobs}")]))
        assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert codes[0] == codes[1] and codes[0] in (0, 2), (codes, err)
    files = [sorted(f.name for f in (tmp_path / f"j{jobs}").iterdir()
                    if f.suffix == ".csv" or f.name == "summary.json") for jobs in (1, 2)]
    assert files[0] == files[1] and "summary.json" in files[0], files
    for fname in files[0]:
        one, two = ((tmp_path / f"j{jobs}" / fname).read_bytes() for jobs in (1, 2))
        assert one == two, fname


def test_lan_remainder_gate_once_per_study():
    # the remainder depends on (submodel, n, h) only, so one gate serves every design
    raw = {
        "scenario": scenario_block(shipped_scenario("risk_hetero")),
        "designs": [{"kind": "iid_propensity", "alloc": "neyman"}, {"kind": "alternation"}],
        "study": {"kind": "lan", "h": 1.0, "n_list": [64, 256], "reps": 8},
        "seed": 5,
    }
    gates = [g["name"] for g in run_raw(raw).summary["gates"] if "remainder" in g["name"]]
    assert gates == ["lan_remainder_decay"]


def test_console_script_is_cli_main():
    # the installed `neymanlab` command is the entry point pyproject.toml
    # names: it must import, and be cli.main, which a rename would break
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(CONFIGS.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["neymanlab"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main, target


def test_cli_missing_file(tmp_path, capsys):
    assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 3
    capsys.readouterr()


def test_cli_seed_override_changes_output(tmp_path, capsys):
    path = write_config(tmp_path, risk_raw(reps=16))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["risk", "--config", path, "--out", str(out1)])
    cli.main(["risk", "--config", path, "--out", str(out2), "--seed", "7"])
    capsys.readouterr()
    t1 = (out1 / "risk.csv").read_text()
    t2 = (out2 / "risk.csv").read_text()
    assert t1 != t2
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["seed"] == 7


def test_out_and_jobs_leave_manifest_unchanged(tmp_path, capsys):
    raw = risk_raw(reps=8)
    raw["output"] = str(tmp_path / "from_config")
    path = write_config(tmp_path, raw)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["risk", "--config", path]) in (0, 2)
    assert cli.main(["risk", "--config", path, "--out", str(out1)]) in (0, 2)
    assert cli.main(["risk", "--config", path, "--out", str(out2), "--jobs", "2"]) in (0, 2)
    capsys.readouterr()
    manifests = {(d / "manifest.json").read_text()
                 for d in (tmp_path / "from_config", out1, out2)}
    assert len(manifests) == 1


def test_summary_reports_solver_work():
    bundle = run_raw(solve_raw(shipped_scenario("solve_budget")))
    solver = bundle.summary["diagnostics"]["solver"]
    assert solver["solver"] == "dual-newton"
    assert solver["outer_iterations"] >= 1
    assert solver["inner_solves"] > solver["outer_iterations"]


def test_studies_load_no_scipy_submodule():
    # scipy is a test dependency only: no study imports it (the LAN KS
    # distance is computed in numpy, and the manifest records numpy alone),
    # and scipy.stats and scipy.special cost about a second and 70 MB, so
    # solve, risk and lan runs must not load scipy, in-process or with a pool
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(nl.__file__)))
    with open(os.path.join(root, "configs", "lan_hetero.json")) as fh:
        lan = json.load(fh)
    lan["study"]["reps"] = 8
    code = "\n".join([
        "import dataclasses",
        "import sys",
        "import neymanlab as nl",
        f"nl.run_study(nl.parse_config(open({os.path.join(root, 'configs', 'solve_budget.json')!r}).read()))",
        f"nl.run_study(nl.parse_config({json.dumps(risk_raw(reps=8))!r}))",
        f"lan = nl.parse_config({json.dumps(lan)!r})",
        "nl.run_study(dataclasses.replace(lan, jobs=1))",
        "nl.run_study(dataclasses.replace(lan, jobs=2))",
        "loaded = sorted({'scipy', 'scipy.stats', 'scipy.special'} & set(sys.modules))",
        "assert not loaded, f'{loaded} imported'",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
