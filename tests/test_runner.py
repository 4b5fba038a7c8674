"""Study runner: bundle determinism, gate honesty, CLI exit codes."""

import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import neymanlab as nl
from conftest import shipped_scenario
from neymanlab import cli


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
    return nl.run_study(nl.parse_config(json.dumps(raw)), jobs=jobs)


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


def test_only_pool_workers_set_the_heap(monkeypatch):
    # keep_heap starts each worker of a pool; a jobs=1 study runs in this
    # process and leaves its heap alone
    inits, calls = [], []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            inits.append(kwargs.get("initializer"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(nl.engine, "ProcessPoolExecutor", RecordingPool)
    run_raw(risk_raw(reps=8), jobs=2)
    assert inits == [nl.engine.keep_heap]
    del inits[:]
    monkeypatch.setattr(nl.engine, "keep_heap", lambda: calls.append(1))
    run_raw(risk_raw(reps=8), jobs=1)
    assert inits == [] and calls == []


def test_cli_keeps_its_own_heap(tmp_path, monkeypatch, capsys):
    # the CLI owns its process, so a risk or lan run keeps its heap there;
    # the library never touches its caller's (test above)
    calls = []
    monkeypatch.setattr(nl.engine, "keep_heap", lambda: calls.append(1))
    path = write_config(tmp_path, risk_raw(reps=8))
    assert cli.main(["validate", "--config", path]) == 0
    assert cli.main(["solve", "--config", path]) == 0
    assert calls == []
    assert cli.main(["risk", "--config", path, "--jobs", "1"]) in (0, 2)
    assert calls == [1]
    capsys.readouterr()


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
                     "lan_ks:iid_propensity", "lan_remainder_decay:iid_propensity"}
    sc = shipped_scenario("risk_hetero")
    v = nl.eval_bound_binary(sc, nl.neyman_allocation(sc).treated_share).v
    assert bundle.summary["headline"]["i_star"] == pytest.approx(v, rel=1e-9)


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
        assert cli.main(["risk", "--config", path]) == 3
        assert "allocation table" in capsys.readouterr().err


def test_cli_solver_failure_exit(tmp_path, capsys):
    sc = shipped_scenario("solve_budget")
    raw = solve_raw(sc)
    raw["scenario"]["constraint"]["c"] = [0.0]
    path = write_config(tmp_path, raw)
    assert cli.main(["solve", "--config", path]) == 4
    capsys.readouterr()


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
    # no study needs scipy.stats or scipy.special (the LAN KS distance is
    # computed in numpy), and importing them costs about a second and
    # 70 MB, so solve, risk and lan runs must not load them, in-process
    # or with a pool
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(nl.__file__)))
    with open(os.path.join(root, "configs", "lan_hetero.json")) as fh:
        lan = json.load(fh)
    lan["study"]["reps"] = 8
    code = "\n".join([
        "import sys",
        "import neymanlab as nl",
        f"nl.run_study(nl.parse_config(open({os.path.join(root, 'configs', 'solve_budget.json')!r}).read()))",
        f"nl.run_study(nl.parse_config({json.dumps(risk_raw(reps=8))!r}))",
        f"lan = nl.parse_config({json.dumps(lan)!r})",
        "nl.run_study(lan, jobs=1)",
        "nl.run_study(lan, jobs=2)",
        "loaded = sorted({'scipy.stats', 'scipy.special'} & set(sys.modules))",
        "assert not loaded, f'{loaded} imported'",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
