"""Every kind of every config block, read from the registries.

For each kind a minimal spec (its required keys only, each at the first
candidate value its check accepts) must parse and round-trip through
``serialize_config`` with the same digest.  A design or estimator kind
must also run a tiny study: ``lan`` for a design, ``risk`` under
``iid_propensity`` for an estimator.  A new registry entry is covered here
without editing this file, and the README's tables of kinds must list the
registry's kinds and keys, and the lists each study kind reads.  The
runner must run every study kind.
"""

import csv
import io
import json
import os
import re

import numpy as np
import pytest

import neymanlab as nl
from neymanlab.config import ALLOCATIONS, FUNCTIONALS, STUDIES
from neymanlab.designs import DESIGNS
from neymanlab.estimators import ESTIMATORS

SCENARIO = {
    "covariates": {"support": ["a", "b"], "probs": [0.5, 0.5]},
    "arms": 2,
    "mu": [[0.0, 1.0], [0.5, 2.0]],
    "sigma2": [[1.0, 0.64], [1.44, 2.25]],
    "functional": {"kind": "ate"},
}
CANDIDATES = {nl.AllocationMap: ["uniform"], int: range(8), float: [0.5, 0.25],
              list[int]: [[40, 80]], np.ndarray: [[[0.5, 0.5], [0.25, 0.75]]]}


def minimal_spec(kind, entry):
    scenario = nl.parse_scenario(SCENARIO)
    spec = {"kind": kind}
    for name, key in entry.keys.items():
        if key.required:
            spec[name] = next(v for v in CANDIDATES[key.type]
                              if key.check is None or key.check(v, scenario))
    return spec


def parse_and_round_trip(raw):
    cfg = nl.parse_config(json.dumps(raw))
    again = nl.parse_config(json.dumps(nl.serialize_config(cfg)))
    assert nl.config_digest(again) == nl.config_digest(cfg)
    assert again.designs == cfg.designs and again.estimators == cfg.estimators
    assert again.study == cfg.study
    return cfg


def rows_of(table_text):
    return list(csv.DictReader(io.StringIO(table_text)))


@pytest.mark.parametrize("kind", sorted(DESIGNS))
def test_every_design_kind_parses_round_trips_and_runs(kind):
    raw = {"scenario": SCENARIO, "designs": [minimal_spec(kind, DESIGNS[kind])],
           "study": {"kind": "lan", "h": 1.0, "n_list": [40, 80], "reps": 4}, "seed": 5}
    bundle = nl.run_study(parse_and_round_trip(raw))
    rows = rows_of(bundle.tables["lan.csv"])
    assert [(r["design"], r["n"]) for r in rows] == [(kind, "40"), (kind, "80")]


@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
def test_every_estimator_kind_parses_round_trips_and_runs(kind):
    raw = {"scenario": SCENARIO, "designs": [{"kind": "iid_propensity", "alloc": "neyman"}],
           "estimators": [minimal_spec(kind, ESTIMATORS[kind])],
           "study": {"kind": "risk", "n": 200, "reps": 4}, "seed": 5}
    bundle = nl.run_study(parse_and_round_trip(raw))
    rows = rows_of(bundle.tables["risk.csv"])
    assert [(r["design"], r["estimator"]) for r in rows] == [("iid_propensity", kind)]


@pytest.mark.parametrize("block, kind", [
    *(("study", kind) for kind in sorted(STUDIES)),
    *(("alloc", kind) for kind in sorted(ALLOCATIONS)),
    *(("functional", kind) for kind in sorted(FUNCTIONALS)),
])
def test_every_block_kind_parses_and_round_trips(block, kind):
    raw = {"scenario": dict(SCENARIO), "designs": [{"kind": "alternation"}],
           "estimators": ["aipw_oracle"], "study": {"kind": "allocation_solve"}, "seed": 5}
    if block == "study":
        raw["study"] = minimal_spec(kind, STUDIES[kind])
    elif block == "alloc":
        raw["study"] = minimal_spec("risk", STUDIES["risk"])  # a study that reads designs
        raw["designs"] = [{"kind": "iid_propensity",
                           "alloc": minimal_spec(kind, ALLOCATIONS[kind])}]
    else:
        raw["scenario"]["functional"] = minimal_spec(kind, FUNCTIONALS[kind])
    for name in ("designs", "estimators"):  # only the lists the study reads
        if name not in STUDIES[raw["study"]["kind"]].lists:
            del raw[name]
    parse_and_round_trip(raw)


def test_runner_dispatches_every_study_kind():
    assert set(nl.runner._STUDY_RUNS) == set(STUDIES)


def readme_table(heading, column=1):
    """Kind -> the backquoted names in ``column`` of its row (its keys by
    default), in the README table whose header row starts with ``heading``."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {heading} |"))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = set(re.findall(r"`(\w+)`", cells[column]))
    return rows


@pytest.mark.parametrize("heading, registry", [("Design kind", DESIGNS),
                                               ("Estimator kind", ESTIMATORS),
                                               ("Study kind", STUDIES)])
def test_readme_tables_list_every_kind_and_its_keys(heading, registry):
    assert readme_table(heading) == {kind: set(entry.keys) for kind, entry in registry.items()}


def test_readme_study_table_lists_what_each_kind_reads():
    assert readme_table("Study kind", 2) == {kind: set(entry.lists)
                                            for kind, entry in STUDIES.items()}
