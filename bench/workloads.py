"""Workload inputs: the study configs each workload hands to ``parse_config``.

Every workload is a fixed list of study configs (one *round*); one
operation is one ``run_study`` call on one of them.  The configs are
generated here and written to disk, so the program only ever sees
generated inputs:

* ``risk_hetero_j1`` and ``lan_hetero_j2`` copy the shipped configs and
  override ``seed`` (the benchmark's ``--seed``, else the config's own),
  ``reps`` and ``jobs``.
* ``solve_sweep`` draws nine budget-constrained scenarios from a fixed
  generator seed.  Solve time differs by orders of magnitude between
  scenarios of the same shape, so the set must not move with ``--seed``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Replication counts.  Chosen so one round of each simulation workload
# takes a few seconds on 2 cores, letting a run repeat it and report a
# median; the output checks scale their tolerances with reps.
RISK_REPS = 800
LAN_REPS = 400

SOLVE_SEED = 0
SOLVE_K = (2, 20, 200)
SOLVE_DR = (0, 1, 2)
BUDGET_FRACTION = 0.7

# The K=200, d_r=2 scenario is feasible, but the solver's cap on stratum
# solves shrinks its outer budget as 1/K and it raises SolverDiverged.
EXPECTED_FAILURE = "SolverDiverged"


@dataclass(frozen=True)
class Study:
    """One operation of a round: a config on disk and what to check it against."""

    name: str          # cell name used in metric names, e.g. "K20_dr1"
    path: str          # config file handed to parse_config
    raw: dict          # the same config as written, for the checks
    units: int         # simulated units in published tables (strata for solves)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # study kind: "risk", "lan" or "solve"
    jobs: int
    studies: tuple[Study, ...]


WORKLOADS = ("risk_hetero_j1", "lan_hetero_j2", "solve_sweep")


def _write(path: str, raw: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1)
        fh.write("\n")


def _shipped(name: str, seed: int | None, reps: int, jobs: int) -> dict:
    with open(os.path.join("configs", name)) as fh:
        raw = json.load(fh)
    raw.pop("output", None)
    if seed is not None:
        raw["seed"] = int(seed)
    raw["study"]["reps"] = reps
    raw["jobs"] = jobs
    return raw


def solve_scenario(k: int, d_r: int) -> dict:
    """Random feasible two-arm ATE scenario with d_r budget rows.

    Each (K, d_r) cell has its own stream of the fixed generator seed, so
    cells do not shift when others change.  Budgets are 0.7 x the usage
    of the uniform allocation: binding, and feasible by scaling p down.
    """
    rng = np.random.default_rng([SOLVE_SEED, k, d_r])
    raw_q = rng.uniform(0.2, 1.0, k)
    q = raw_q / raw_q.sum()
    mu = rng.normal(0.0, 2.0, (k, 2))
    sigma2 = rng.uniform(0.05, 4.0, (k, 2))
    scenario = {
        "label": f"sweep_K{k}_dr{d_r}",
        "covariates": {"support": [f"s{i}" for i in range(k)], "probs": q.tolist()},
        "arms": 2,
        "mu": mu.tolist(),
        "sigma2": sigma2.tolist(),
        "functional": {"kind": "ate"},
    }
    if d_r:
        r = rng.uniform(0.0, 1.0, (k, 2, d_r))
        c = BUDGET_FRACTION * np.einsum("x,xwd->d", q, r * 0.5)
        scenario["constraint"] = {"r": r.tolist(), "c": c.tolist()}
    return scenario


def build(name: str, seed: int | None, workdir: str) -> Workload:
    """Generate the workload's configs under ``workdir`` and describe them."""
    if name == "risk_hetero_j1":
        raw = _shipped("risk_hetero.json", seed, RISK_REPS, 1)
        study = raw["study"]
        units = len(raw["designs"]) * len(study.get("theta_list", [0.0])) * study["n"] * study["reps"]
        path = os.path.join(workdir, "risk_hetero.json")
        _write(path, raw)
        return Workload(name, "risk", 1, (Study("risk", path, raw, units),))
    if name == "lan_hetero_j2":
        raw = _shipped("lan_hetero.json", seed, LAN_REPS, 2)
        study = raw["study"]
        units = len(raw["designs"]) * sum(study["n_list"]) * study["reps"]
        path = os.path.join(workdir, "lan_hetero.json")
        _write(path, raw)
        return Workload(name, "lan", 2, (Study("lan", path, raw, units),))
    if name == "solve_sweep":
        studies = []
        for d_r in SOLVE_DR:
            for k in SOLVE_K:
                raw = {
                    "scenario": solve_scenario(k, d_r),
                    "study": {"kind": "allocation_solve"},
                    "seed": SOLVE_SEED,
                }
                cell = f"K{k}_dr{d_r}"
                path = os.path.join(workdir, f"solve_{cell}.json")
                _write(path, raw)
                studies.append(Study(cell, path, raw, k))
        return Workload(name, "solve", 1, tuple(studies))
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
