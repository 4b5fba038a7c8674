"""Config-driven batch runner producing deterministic CSV/JSON report bundles.

Determinism contract: identical (config, seed) on one platform reproduces
byte-identical tables.  All floats are written with 12 significant digits,
and every pass/fail gate is computed from the *formatted* values, so a
verdict recomputed from the emitted CSV matches the in-process verdict
exactly.

One dispatch.  :func:`run_study` builds a study's allocation tables, its
least-favorable submodel and its worker pool (``cfg.jobs`` workers) once,
then runs its kind's function from ``_STUDY_RUNS``, keyed by the
``config.STUDIES`` kinds.  It runs what parsing accepted and checks none of
it again: every allocation spec resolves to a table (``_AllocResolver``)
that parsing has checked against ``AllocationMap``'s rules.  Two checks
need what parsing does not see: an estimator must accept the solved
allocation it reads, and ``output`` must be able to hold a bundle (the
file system).  :func:`check_study` (``neymanlab validate``) and a run make
them in the same functions, before the first replication, and raise the
same ``ValidationError``.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
import sys
from concurrent.futures import Executor
from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from ._version import __version__
from .allocation import AllocationMap, bound_from_duals, eval_bound_general, solve_constrained
from .config import StudyConfig, config_digest
from .designs import DESIGNS, IidPropensity
from .engine import worker_pool
from .errors import PropensityOutOfRange, ValidationError
from .estimators import ESTIMATORS, AipwOracle, risk_by_design
from .lan import lan_by_design
from .scenario import Scenario, Submodel, least_favorable_submodel

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
    op: str  # a key of _OPS
    passed: bool


_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}


def _gate(name: str, value: float, threshold: float, op: str) -> Gate:
    value = _reparse(value)
    return Gate(name, value, threshold, op, bool(_OPS[op](value, threshold)))


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
        """The table of a parsed allocation spec; parsing checked its shape
        and ``AllocationMap``'s rules."""
        if spec == "uniform":
            return AllocationMap(np.full((self.scenario.k, self.scenario.n_arms),
                                         1.0 / self.scenario.n_arms))
        if isinstance(spec, str):
            return self.solved(spec)
        if spec["kind"] == "table":
            return AllocationMap(spec["p"])
        return AllocationMap(spec["factor"] * self.resolve(spec["base"]).p)


# ----------------------------------------------------------------------
# Design / estimator construction.
# ----------------------------------------------------------------------


def _dedup_labels(labels: list[str]) -> list[str]:
    """Each label, or, where an earlier one holds it, the first of
    ``label_2``, ``label_3``, ... that none holds: distinct labels."""
    out: list[str] = []
    for label in labels:  # one of these len(out) + 1 names is free
        names = (f"{label}_{i}" if i > 1 else label for i in range(1, len(out) + 2))
        out.append(next(name for name in names if name not in out))
    return out


def _designs(cfg: StudyConfig, resolver: _AllocResolver) -> list[tuple]:
    """(label, rule, estimators) of each configured design, its estimators
    built on its nominal allocation where they have no ``alloc`` of their
    own.  An estimator that refuses the allocation it reads (below the
    propensity floor) is a ``ValidationError`` naming its entry, and the
    design whose allocation it reads."""
    labels = _dedup_labels([d.get("label", d["kind"]) for d in cfg.designs])
    designs = []
    for i, (spec, label) in enumerate(zip(cfg.designs, labels)):
        rule, nominal = DESIGNS[spec["kind"]].build(spec, resolver)
        ests = []
        for j, e in enumerate(cfg.estimators):
            try:
                ests.append(ESTIMATORS[e["kind"]].build(e, resolver, nominal))
            except PropensityOutOfRange as exc:
                where = ".alloc" if "alloc" in e else f" on designs[{i}]"
                raise ValidationError(f"estimators[{j}]{where}: {exc}") from exc
        designs.append((label, rule, ests))
    return designs


def _check_output(output: str | None) -> None:
    """Raise a ``ValidationError`` if ``output`` cannot hold a bundle: its
    nearest existing path, itself or a parent, is not a directory.  Creates
    nothing; what only writing shows (permissions, a full disk) stays the
    writer's ``OSError``."""
    if output is None:
        return
    path = os.path.abspath(output)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValidationError(f"output: cannot write bundle: {path} is not a directory")


def check_study(cfg: StudyConfig) -> None:
    """Raise the ``ValidationError`` that a run of ``cfg`` raises before its
    first replication, for a config that parsing accepts: an ``output`` that
    cannot hold a bundle (:func:`_check_output`), or an estimator that
    refuses its allocation (:func:`_designs`).  Solves the allocations only
    when the study reads estimators."""
    _check_output(cfg.output)
    if cfg.estimators:
        _designs(cfg, _AllocResolver(cfg.scenario))


# ----------------------------------------------------------------------
# Study execution.
# ----------------------------------------------------------------------


def _allocation_tables(cfg: StudyConfig,
                       resolver: _AllocResolver) -> tuple[dict[str, str], list[Gate], dict]:
    scenario = cfg.scenario
    amap = resolver.reference
    bound = eval_bound_general(scenario, amap.p)
    labels = scenario.covariates.support

    # each table read once, as Python floats: sigma2_tilde rebuilds its table on every read
    probs, s2t = scenario.covariates.probs.tolist(), scenario.sigma2_tilde.tolist()
    p, lam = amap.p.tolist(), amap.duals.lam.tolist()
    alloc_rows = [(cfg.scenario_label, labels[i], w, probs[i], s2t[i][w], p[i][w], lam[i])
                  for i in range(scenario.k) for w in range(scenario.n_arms)]
    tables = {"allocation.csv": _csv_text(ALLOCATION_HEADER, alloc_rows)}

    kkt_max = amap.meta["kkt"]["max"]  # solve_constrained's certificate check
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
        dual_rows = [
            (cfg.scenario_label, j, float(mu), usage, float(c))
            for j, (mu, usage, c) in enumerate(zip(amap.duals.mu, amap.meta["usage"],
                                                   scenario.constraint.c))
        ]
        tables["duals.csv"] = _csv_text(DUALS_HEADER, dual_rows)

    gates.append(_gate("kkt_max", kkt_max, KKT_GATE, "<="))
    gates.append(_gate("bound_identity_gap", gap, IDENTITY_GATE, "<="))
    headline["v_star"] = _reparse(bound.v)
    headline["kkt_max"] = _reparse(kkt_max)
    return tables, gates, headline


def _run_risk(cfg: StudyConfig, resolver: _AllocResolver, sub: Submodel,
              pool: Executor | None, headline: dict) -> tuple[dict[str, str], list[Gate]]:
    ref = resolver.reference
    v_star = headline["v_star"]  # already rounded through its CSV form
    gates: list[Gate] = []
    study = cfg.study
    est_labels = _dedup_labels([e["kind"] for e in cfg.estimators])

    def at_ref(alloc: AllocationMap) -> bool:
        return np.allclose(alloc.p, ref.p, rtol=0, atol=1e-12)

    designs = [(dlabel, rule, ests, isinstance(rule, IidPropensity) and at_ref(rule.alloc))
               for dlabel, rule, ests in _designs(cfg, resolver)]
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
                ratio = _reparse(report.variance_times_n) / v_star
                gates.append(_gate(f"floor:{dlabel}:{elabel}", ratio, FLOOR_FACTOR, ">="))
                if isinstance(est, AipwOracle) and iid_at_ref and at_ref(est.alloc):
                    gates.append(_gate(f"attainment:{dlabel}:{elabel}",
                                       abs(ratio - 1.0), ATTAIN_REL, "<="))
    return {"risk.csv": _csv_text(RISK_HEADER, rows)}, gates


def _run_lan(cfg: StudyConfig, resolver: _AllocResolver, sub: Submodel,
             pool: Executor | None, headline: dict) -> tuple[dict[str, str], list[Gate]]:
    gates: list[Gate] = []
    study = cfg.study
    source = study["i_star"]
    i_star = (eval_bound_general(cfg.scenario, resolver.solved(source).p).v
              if isinstance(source, str) else float(source))

    designs = _designs(cfg, resolver)
    rules = [rule for _, rule, _ in designs]
    by_n = lan_by_design(sub, rules, study["h"], study["n_list"], study["reps"], cfg.seed,
                         i_star=i_star, augment=study["augment"], pool=pool)
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
    if len(by_n) > 1:
        # the remainder is a closed form of (submodel, n, h): every design reports the same
        decs = [_reparse(at_n[0].mean_abs_remainder) for at_n in by_n]
        worst = max(b / a if a > 0 else np.inf for a, b in zip(decs, decs[1:]))
        if all(d == 0 for d in decs):
            worst = 0.0
        gates.append(_gate("lan_remainder_decay", worst, 1.0, "<"))
    headline["i_star"] = _reparse(i_star)
    return {"lan.csv": _csv_text(LAN_HEADER, rows)}, gates


# the tables and gates of each study kind (config.STUDIES) beyond the
# allocation's; a study function may add to the headline
_STUDY_RUNS = {"allocation_solve": lambda *args: ({}, []), "risk": _run_risk, "lan": _run_lan}


def run_study(cfg: StudyConfig) -> ReportBundle:
    """Execute the configured study and assemble the deterministic bundle:
    the allocation tables, then its kind's own (``_STUDY_RUNS``), on the
    least-favorable submodel at the reference allocation; at ``cfg.jobs >
    1`` all its cells share one pool, joined before returning.  An
    ``output`` that cannot hold a bundle is refused first (:func:`_check_output`)."""
    kind = cfg.study["kind"]
    _check_output(cfg.output)
    resolver = _AllocResolver(cfg.scenario)
    tables, gates, headline = _allocation_tables(cfg, resolver)
    sub = least_favorable_submodel(cfg.scenario, resolver.reference.p)
    # map_reps hands out at most one chunk per replication
    with worker_pool(min(cfg.jobs, cfg.study.get("reps", 1))) as pool:
        study_tables, study_gates = _STUDY_RUNS[kind](cfg, resolver, sub, pool, headline)
    tables.update(study_tables)
    gates += study_gates

    manifest = {
        "config_sha256": config_digest(cfg),
        "seed": cfg.seed,
        "study": kind,
        "package": {"name": "neymanlab", "version": __version__},
        "libraries": {"numpy": np.__version__},
        "python": ".".join(map(str, sys.version_info[:3])),
        "tables": sorted(tables),
    }
    summary = {
        "study": kind,
        "seed": cfg.seed,
        "headline": headline,
        "gates": [asdict(g) for g in gates],
        "passed": all(g.passed for g in gates),
        "diagnostics": {
            "solver": {key: resolver.reference.meta[key]
                       for key in ("solver", "outer_iterations", "inner_solves")},
        },
    }
    return ReportBundle(manifest, tables, summary)


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
