"""Config-driven batch runner producing deterministic CSV/JSON report bundles.

Determinism contract: identical (config, seed) on one platform reproduces
byte-identical tables.  All floats are written with 12 significant digits,
and every pass/fail gate is computed from the *formatted* values, so a
verdict recomputed from the emitted CSV matches the in-process verdict
exactly.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from concurrent.futures import Executor
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ._version import __version__
from .allocation import (
    AllocationMap,
    bound_from_duals,
    eval_bound_general,
    kkt_residuals,
    solve_constrained,
)
from .config import StudyConfig, config_digest
from .designs import DESIGNS, FullTreatment, IidPropensity
from .engine import worker_pool
from .errors import ValidationError
from .estimators import ESTIMATORS, AipwOracle, risk_by_design
from .lan import lan_by_design
from .scenario import Scenario, least_favorable_submodel

KKT_GATE = 1e-8
IDENTITY_GATE = 1e-8
FLOOR_FACTOR = 0.95
ATTAIN_REL = 0.05
VAR_REL_GATE = 0.08
KS_GATE = 0.05
MEAN_SIGMAS = 3.0

RISK_HEADER = ("scenario", "design", "estimator", "n", "reps", "theta",
               "bias", "nVar", "nMSE", "mcSE")
LAN_HEADER = ("scenario", "design", "h", "n", "reps", "meanEll", "varEll",
              "targetMean", "targetVar", "ks", "meanAbsRemainder", "augmented")
ALLOCATION_HEADER = ("scenario", "x", "arm", "q", "sigma2Tilde", "p", "lambda")
DUALS_HEADER = ("scenario", "row", "mu", "usage", "budget")
BOUNDS_HEADER = ("scenario", "vStar", "varOfMeans", "infoTerm", "fromDuals",
                 "identityGap", "kktMax")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    return str(value)


def _reparse(value):
    """Round a number through its CSV representation (gate-honesty anchor)."""
    return float(_fmt(float(value)))


def _csv_text(header: tuple[str, ...], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


@dataclass(frozen=True)
class Gate:
    name: str
    value: float
    threshold: float
    op: str  # "<=" or ">=" or "<"
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "op": self.op,
            "passed": self.passed,
        }


def _gate(name: str, value: float, threshold: float, op: str) -> Gate:
    value = _reparse(value)
    if op == "<=":
        ok = value <= threshold
    elif op == ">=":
        ok = value >= threshold
    elif op == "<":
        ok = value < threshold
    else:
        raise ValueError(f"unknown gate op {op!r}")
    return Gate(name, value, threshold, op, bool(ok))


@dataclass(frozen=True)
class ReportBundle:
    """A finished study: metadata, named CSV tables, and the gate summary."""

    manifest: dict
    tables: dict[str, str]
    summary: dict

    @property
    def passed(self) -> bool:
        return bool(self.summary["passed"])


# ----------------------------------------------------------------------
# Allocation resolution.
# ----------------------------------------------------------------------


class _AllocResolver:
    """Resolves allocation specs to probability tables, caching solver runs.
    ``reference``, the allocation a study's bound is evaluated at, is the
    "constrained" one."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._cache: dict[bool, AllocationMap] = {}
        self.reference = self.solved("constrained")

    def solved(self, name: str) -> AllocationMap:
        """The "neyman" allocation (budget rows dropped) or the "constrained"
        one, certified by the dual solver; without budget rows both are the
        Neyman one, which for two arms matches the closed form to machine
        precision."""
        constrained = name == "constrained" and self.scenario.constraint is not None
        if constrained not in self._cache:
            scenario = self.scenario if constrained else replace(self.scenario, constraint=None)
            self._cache[constrained] = solve_constrained(scenario)
        return self._cache[constrained]

    def resolve(self, spec) -> AllocationMap:
        scenario = self.scenario
        if spec == "uniform":
            p = np.full((scenario.k, scenario.n_arms), 1.0 / scenario.n_arms)
            return AllocationMap(p, meta={"solver": "uniform"})
        if spec in ("neyman", "constrained"):
            return self.solved(spec)
        kind = spec["kind"]
        if kind == "table":
            p = np.asarray(spec["p"], dtype=float)
            if p.shape != (scenario.k, scenario.n_arms):
                raise ValidationError(
                    f"allocation table shape {p.shape} does not match "
                    f"(strata, arms) = ({scenario.k}, {scenario.n_arms})"
                )
            try:
                return AllocationMap(p, meta={"solver": "table"})
            except ValueError as exc:
                raise ValidationError(f"allocation table: {exc}") from None
        if kind == "scaled":
            base = self.resolve(spec["base"])
            return AllocationMap(float(spec["factor"]) * base.p,
                                 meta={"solver": "scaled", "base": base.meta})
        raise ValidationError(f"unresolvable allocation spec {spec!r}")


# ----------------------------------------------------------------------
# Design / estimator construction.
# ----------------------------------------------------------------------


def _dedup_labels(labels: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for label in labels:
        seen[label] = seen.get(label, 0) + 1
        out.append(label if seen[label] == 1 else f"{label}_{seen[label]}")
    return out


def _designs(cfg: StudyConfig, resolver: _AllocResolver) -> list[tuple]:
    """(label, rule, nominal allocation) of each configured design."""
    labels = _dedup_labels([d.get("label", d["kind"]) for d in cfg.designs])
    return [(label, *DESIGNS[d["kind"]].build(d, resolver))
            for d, label in zip(cfg.designs, labels)]


# ----------------------------------------------------------------------
# Study execution.
# ----------------------------------------------------------------------


def _allocation_tables(cfg: StudyConfig,
                       resolver: _AllocResolver) -> tuple[dict[str, str], list[Gate], dict]:
    scenario = cfg.scenario
    amap = resolver.reference
    bound = eval_bound_general(scenario, amap.p)
    labels = scenario.covariates.support

    alloc_rows = []
    lam = amap.duals.lam
    for i in range(scenario.k):
        for w in range(scenario.n_arms):
            alloc_rows.append((
                cfg.scenario_label, labels[i], w,
                float(scenario.covariates.probs[i]),
                float(scenario.sigma2_tilde[i, w]),
                float(amap.p[i, w]),
                float(lam[i]),
            ))
    tables = {"allocation.csv": _csv_text(ALLOCATION_HEADER, alloc_rows)}

    kkt_max = kkt_residuals(scenario, amap)["max"]
    gates: list[Gate] = []
    headline: dict[str, Any] = {}
    from_duals = bound_from_duals(scenario, amap)
    gap = abs(from_duals - bound.v)
    info_term = bound.v - bound.var_of_means
    bounds_rows = [(
        cfg.scenario_label, bound.v, bound.var_of_means, info_term,
        from_duals, gap, kkt_max,
    )]
    tables["bounds.csv"] = _csv_text(BOUNDS_HEADER, bounds_rows)

    if scenario.constraint is not None:
        mu = amap.duals.mu
        usage = np.einsum(
            "k,kwr,kw->r", scenario.covariates.probs, scenario.constraint.r, amap.p
        )
        dual_rows = [
            (cfg.scenario_label, j, float(mu[j]), float(usage[j]),
             float(scenario.constraint.c[j]))
            for j in range(len(mu))
        ]
        tables["duals.csv"] = _csv_text(DUALS_HEADER, dual_rows)

    gates.append(_gate("kkt_max", kkt_max, KKT_GATE, "<="))
    gates.append(_gate("bound_identity_gap", gap, IDENTITY_GATE, "<="))
    headline["v_star"] = _reparse(bound.v)
    headline["kkt_max"] = _reparse(kkt_max)
    return tables, gates, headline


def _run_risk(cfg: StudyConfig, resolver: _AllocResolver, pool: Executor | None):
    scenario = cfg.scenario
    tables, gates, headline = _allocation_tables(cfg, resolver)
    ref = resolver.reference
    v_star = eval_bound_general(scenario, ref.p).v
    sub = least_favorable_submodel(scenario, ref.p)

    study = cfg.study
    est_labels = _dedup_labels([e["kind"] for e in cfg.estimators])

    def at_ref(alloc: AllocationMap) -> bool:
        return np.allclose(alloc.p, ref.p, rtol=0, atol=1e-12)

    designs = []  # (label, rule, estimators, iid at the reference allocation)
    for dlabel, rule, nominal in _designs(cfg, resolver):
        if isinstance(rule, FullTreatment):
            raise ValidationError(
                f"design {dlabel!r}: {rule.describe()} leaves the other arm empty "
                "and cannot be scored in a risk study"
            )
        ests = [ESTIMATORS[e["kind"]].build(e, resolver, nominal) for e in cfg.estimators]
        designs.append((dlabel, rule, ests,
                        isinstance(rule, IidPropensity) and at_ref(rule.alloc)))
    by_theta = [
        risk_by_design([(rule, ests) for _, rule, ests, _ in designs], sub, theta,
                       study["n"], study["reps"], cfg.seed, pool=pool)
        for theta in study["theta_list"]
    ]

    rows = []
    for d, (dlabel, _, ests, iid_at_ref) in enumerate(designs):
        for theta, reports in zip(study["theta_list"], by_theta):
            for est, elabel, report in zip(ests, est_labels, reports[d]):
                rows.append((
                    cfg.scenario_label, dlabel, elabel, study["n"], study["reps"],
                    theta, report.bias, report.variance_times_n,
                    report.mse_times_n, report.mc_std_error,
                ))
                if theta != 0.0:
                    continue
                ratio = _reparse(report.variance_times_n) / _reparse(v_star)
                gates.append(_gate(f"floor:{dlabel}:{elabel}", ratio, FLOOR_FACTOR, ">="))
                if isinstance(est, AipwOracle) and iid_at_ref and at_ref(est.alloc):
                    gates.append(_gate(f"attainment:{dlabel}:{elabel}",
                                       abs(ratio - 1.0), ATTAIN_REL, "<="))
    tables["risk.csv"] = _csv_text(RISK_HEADER, rows)
    headline["v_star"] = _reparse(v_star)
    return tables, gates, headline


def _run_lan(cfg: StudyConfig, resolver: _AllocResolver, pool: Executor | None):
    scenario = cfg.scenario
    tables, gates, headline = _allocation_tables(cfg, resolver)
    sub = least_favorable_submodel(scenario, resolver.reference.p)

    study = cfg.study
    source = study["i_star"]
    i_star = (eval_bound_general(scenario, resolver.solved(source).p).v
              if isinstance(source, str) else float(source))

    designs = _designs(cfg, resolver)
    rules = [rule for _, rule, _ in designs]
    by_n = [
        lan_by_design(sub, rules, study["h"], n, study["reps"], cfg.seed,
                      i_star=i_star, augment=study["augment"], pool=pool)
        for n in study["n_list"]
    ]
    rows = []
    for j, (dlabel, _, _) in enumerate(designs):
        reports = [at_n[j] for at_n in by_n]
        rows += [(
            cfg.scenario_label, dlabel, study["h"], n, study["reps"],
            report.mean_ell, report.var_ell, report.target_mean,
            report.target_var, report.ks_distance,
            report.mean_abs_remainder, report.augmented,
        ) for n, report in zip(study["n_list"], reports)]
        last = reports[-1]
        mean_tol = MEAN_SIGMAS * np.sqrt(_reparse(last.var_ell) / last.reps)
        gates.append(_gate(
            f"lan_mean:{dlabel}",
            abs(_reparse(last.mean_ell) - _reparse(last.target_mean)),
            _reparse(mean_tol), "<=",
        ))
        if _reparse(last.target_var) > 0:
            gates.append(_gate(
                f"lan_var:{dlabel}",
                abs(_reparse(last.var_ell) / _reparse(last.target_var) - 1.0),
                VAR_REL_GATE, "<=",
            ))
            gates.append(_gate(f"lan_ks:{dlabel}", last.ks_distance, KS_GATE, "<="))
        else:
            gates.append(_gate(f"lan_degenerate_var:{dlabel}",
                               abs(last.var_ell), 1e-12, "<="))
        if len(reports) > 1:
            decs = [_reparse(r.mean_abs_remainder) for r in reports]
            worst = max(b / a if a > 0 else np.inf for a, b in zip(decs, decs[1:]))
            if all(d == 0 for d in decs):
                worst = 0.0
            gates.append(_gate(f"lan_remainder_decay:{dlabel}", worst, 1.0, "<"))
    tables["lan.csv"] = _csv_text(LAN_HEADER, rows)
    headline["i_star"] = _reparse(i_star)
    return tables, gates, headline


def run_study(cfg: StudyConfig, jobs: int | None = None) -> ReportBundle:
    """Execute the configured study and assemble the deterministic bundle;
    at ``jobs > 1`` all its cells share one pool, joined before returning."""
    jobs = cfg.jobs if jobs is None else jobs
    resolver = _AllocResolver(cfg.scenario)
    kind = cfg.study["kind"]
    if kind == "allocation_solve":
        tables, gates, headline = _allocation_tables(cfg, resolver)
    elif kind in ("risk", "lan"):
        # map_reps hands out at most one chunk per replication
        with worker_pool(min(jobs, cfg.study["reps"])) as pool:
            run = _run_risk if kind == "risk" else _run_lan
            tables, gates, headline = run(cfg, resolver, pool)
    else:  # unreachable for parsed configs
        raise ValidationError(f"unknown study kind {kind!r}")

    manifest = {
        "config_sha256": config_digest(cfg),
        "seed": cfg.seed,
        "study": kind,
        "package": {"name": "neymanlab", "version": __version__},
        "libraries": {"numpy": np.__version__, "scipy": _scipy_version()},
        "python": ".".join(map(str, sys.version_info[:3])),
        "tables": sorted(tables),
    }
    summary = {
        "study": kind,
        "seed": cfg.seed,
        "headline": headline,
        "gates": [g.to_json() for g in gates],
        "passed": all(g.passed for g in gates),
        "diagnostics": {
            "solver": {key: resolver.reference.meta[key]
                       for key in ("solver", "outer_iterations", "inner_solves")},
        },
    }
    return ReportBundle(manifest, tables, summary)


def _scipy_version() -> str:
    import scipy

    return scipy.__version__


def write_bundle(bundle: ReportBundle, out_dir: str) -> list[str]:
    """Write tables plus manifest.json/summary.json; returns relative paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name in sorted(bundle.tables):
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="") as fh:
            fh.write(bundle.tables[name])
        written.append(name)
    for name, payload in (("manifest.json", bundle.manifest),
                          ("summary.json", bundle.summary)):
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(name)
    return written
