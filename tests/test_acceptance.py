"""Acceptance battery: ten numbered criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; the whole file is sized for a plain laptop core.  Monte Carlo
criteria use fixed seeds, so reruns are bit-identical, and every
tolerance is stated inline next to the check it guards.
"""

import contextlib
import io
import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

import neymanlab as nl
from conftest import (
    CONFIGS,
    closed_form_remainder,
    project_feasible,
    random_binary_scenario,
    random_constrained_scenario,
    ref_lr_terms,
    replication,
    shipped_scenario,
)
from neymanlab import cli
from neymanlab.engine import chunk_stats
from neymanlab.lan import LrTerms

REL = 1e-12  # a per-unit reference's rounding, relative to the summed size of its terms

GOLDEN = Path(__file__).resolve().parent / "golden"

GRID = np.arange(0.01, 1.00, 0.01)


def verdict(num, slug, ok, detail=""):
    print(f"criterion {num:02d} {slug}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num:02d} {slug}: {detail}"


def hetero_reference():
    sc = shipped_scenario("risk_hetero")
    alloc = nl.neyman_allocation(sc)
    v = nl.eval_bound_binary(sc, alloc.treated_share).v
    return sc, alloc, v


def budget_reference():
    sc = shipped_scenario("solve_budget")
    alloc = nl.solve_constrained(sc)
    v = nl.eval_bound_general(sc, alloc).v
    return sc, alloc, v


def moment_gates(report, v):
    checks = {
        "mean": abs(report.mean_ell - report.target_mean)
        <= 3.0 * np.sqrt(report.var_ell / report.reps),
        "var": abs(report.var_ell / v - 1.0) <= 0.08,
        "ks": report.ks_distance <= 0.05,
    }
    assert report.target_var == pytest.approx(v)
    return checks


def test_criterion_01_neyman_grid_dominance():
    rng = np.random.default_rng(101)
    worst_gap, worst_resid = -np.inf, 0.0
    for _ in range(50):
        sc = random_binary_scenario(rng, max_k=5)
        alloc = nl.neyman_allocation(sc)
        e_star = alloc.treated_share
        v_star = nl.eval_bound_binary(sc, e_star).v
        s2 = sc.outcomes.sigma2
        # the within part separates over strata, so stratumwise grid
        # minima bound every product-grid allocation from below
        grid_best = 0.0
        for k in range(sc.k):
            terms = s2[k, 0] / (1 - GRID) + s2[k, 1] / GRID
            grid_best += sc.covariates.probs[k] * terms.min()
        grid_v = nl.eval_bound_binary(sc, e_star).var_of_means + grid_best
        worst_gap = max(worst_gap, v_star - grid_v)
        resid = np.max(np.abs(s2[:, 0] / (1 - e_star) ** 2 - s2[:, 1] / e_star**2))
        scale = np.max(s2[:, 1] / e_star**2)
        worst_resid = max(worst_resid, resid / scale)
    ok = worst_gap <= 1e-12 and worst_resid <= 1e-12
    verdict(1, "neyman-grid-dominance", ok,
            f"max(v* - grid min)={worst_gap:.3e}, balance residual={worst_resid:.3e}")


def test_criterion_02_kkt_certificates():
    rng = np.random.default_rng(202)
    worst_kkt, worst_drop = 0.0, np.inf
    for _ in range(25):
        sc = random_constrained_scenario(rng, max_arms=3, max_dr=2)
        alloc = nl.solve_constrained(sc)
        worst_kkt = max(worst_kkt, nl.kkt_residuals(sc, alloc)["max"])
        v_star = nl.eval_bound_general(sc, alloc).v
        for _ in range(200):
            delta = rng.normal(scale=3e-3, size=alloc.p.shape)
            p_pert = project_feasible(sc, alloc.p + delta)
            worst_drop = min(worst_drop, nl.eval_bound_general(sc, p_pert).v - v_star)
    ok = worst_kkt <= 1e-8 and worst_drop >= -1e-10
    verdict(2, "kkt-certificates", ok,
            f"max KKT residual={worst_kkt:.3e}, min perturbation gap={worst_drop:.3e}")


def test_criterion_03_bound_identity_from_duals():
    rng = np.random.default_rng(303)
    scenarios = [random_binary_scenario(rng, max_k=5) for _ in range(50)]
    scenarios += [random_constrained_scenario(rng) for _ in range(25)]
    scenarios += [shipped_scenario("risk_hetero"), shipped_scenario("solve_budget")]
    worst = 0.0
    for sc in scenarios:
        alloc = nl.solve_constrained(sc)
        v_eval = nl.eval_bound_general(sc, alloc).v
        gap = abs(nl.bound_from_duals(sc, alloc) - v_eval) / max(1.0, abs(v_eval))
        worst = max(worst, gap)
    ok = worst <= 1e-8
    verdict(3, "bound-identity-from-duals", ok, f"max relative gap={worst:.3e}")


def test_criterion_04_derivative_identity():
    rng = np.random.default_rng(404)
    cases = [hetero_reference(), budget_reference()]
    for _ in range(5):
        sc = random_binary_scenario(rng, max_k=4)
        alloc = nl.neyman_allocation(sc)
        cases.append((sc, alloc, nl.eval_bound_binary(sc, alloc.treated_share).v))
    for _ in range(3):
        sc = random_constrained_scenario(rng)
        alloc = nl.solve_constrained(sc)
        cases.append((sc, alloc, nl.eval_bound_general(sc, alloc).v))
    worst = 0.0
    for sc, alloc, v in cases:
        sub = nl.least_favorable_submodel(sc, alloc.p)
        t = 1e-4
        d1 = (nl.tau_at(sub, t) - nl.tau_at(sub, -t)) / (2 * t)
        d2 = (nl.tau_at(sub, t / 2) - nl.tau_at(sub, -t / 2)) / t
        deriv = (4 * d2 - d1) / 3  # Richardson step halving
        worst = max(worst, abs(deriv - v) / abs(v))
    ok = worst <= 1e-6
    verdict(4, "derivative-equals-bound", ok, f"max relative error={worst:.3e}")


def test_criterion_05_lan_moments_four_rules():
    sc, alloc, v = hetero_reference()
    sub = nl.least_favorable_submodel(sc, alloc.p)
    rules = {
        "iid": nl.IidPropensity(alloc),
        "blocks": nl.StratifiedBlocks(alloc, 8),
        "pairs": nl.MatchedPairs(),
        "alternation": nl.DeterministicAlternation(),
    }
    [reports] = nl.lan_by_design(sub, list(rules.values()), h=1.0, n_list=[4000], reps=4000,
                                 seed_base=505, i_star=v)
    failures, details = [], []
    for name, report in zip(rules, reports):
        checks = moment_gates(report, v)
        details.append(f"{name}: var ratio {report.var_ell / v:.3f}, ks {report.ks_distance:.3f}")
        failures += [f"{name}:{c}" for c, good in checks.items() if not good]
    verdict(5, "lan-moments", not failures,
            "; ".join(details) + (f"; failed {failures}" if failures else ""))


def test_criterion_06_remainder_decay():
    sc, alloc, v = hetero_reference()
    sub = nl.least_favorable_submodel(sc, alloc.p)
    rule = nl.IidPropensity(alloc)
    sizes = (400, 1600, 6400)
    means = [report.mean_abs_remainder for [report] in
             nl.lan_by_design(sub, [rule], h=1.0, n_list=sizes, reps=2000, seed_base=606,
                              i_star=v)]
    # every log of size n has the same remainder, known in closed form
    exact = [closed_form_remainder(sub, 1.0, n) for n in sizes]
    # a study reports that closed form, so the independent evidence is each
    # log's remainder under each rule: the exact ratio a study computes from
    # its cells minus the four expansion terms summed unit by unit.  (rule,
    # n) -> (|remainder|, summed size of its terms) of three logs
    rules = [rule, nl.StratifiedBlocks(alloc, 8), nl.MatchedPairs(),
             nl.DeterministicAlternation()]
    terms = [(r, [LrTerms(sub, 1.0)]) for r in rules]
    logs = {}
    for n in sizes:
        for seed in (61, 62, 63):
            ells = chunk_stats(sub, 0.0, [n], terms, [seed])[0, 0::2]
            for r, ell in zip(rules, ells):
                ref = ref_lr_terms(sub, *replication(sub, 0.0, r, n, seed), 1.0)
                parts = [ref[name] for name in ("lin_x", "lin_y", "quad_x", "quad_y")]
                logs.setdefault((r, n), []).append(
                    (abs(ell - sum(v for v, _ in parts)), abs(ell) + sum(m for _, m in parts)))
    worst = max(abs(m / e - 1.0) for m, e in zip(means, exact))
    worst_log = max(abs(x / e - 1.0) for r in rules for n, e in zip(sizes, exact)
                    for x, _ in logs[r, n])
    within = all(abs(x - e) <= REL * size for r in rules for n, e in zip(sizes, exact)
                 for x, size in logs[r, n])
    decays = all(min(x for x, _ in logs[r, a]) > max(x for x, _ in logs[r, b]) for r in rules
                 for a, b in zip(sizes, sizes[1:]))
    ok = means[0] > means[1] > means[2] and decays and worst <= 1e-9 and within
    verdict(6, "remainder-decay", ok,
            "mean |remainder| at n=400,1600,6400: " + ", ".join(f"{m:.2e}" for m in means)
            + f"; max relative gap to closed form {worst:.1e}, of a log under four rules "
            f"{worst_log:.1e} (bound: {REL:.0e} of its terms' summed size)")


def test_criterion_07_information_indifference():
    sc, alloc, v = hetero_reference()
    sub = nl.least_favorable_submodel(sc, alloc.p)
    rules = [nl.IidPropensity(alloc), nl.StratifiedBlocks(alloc, 8),
             nl.MatchedPairs(), nl.DeterministicAlternation(), nl.FullTreatment(1)]
    rows = chunk_stats(sub, 0.0, [600], [(rule, [LrTerms(sub, 1.0)]) for rule in rules],
                       [70, 71, 72])
    infos = rows[:, 1::2]  # each rule's realized information, one row per seed
    spreads = (infos.max(axis=1) - infos.min(axis=1)).tolist()
    ok = max(spreads) <= 1e-12
    verdict(7, "information-indifference", ok, f"max spread={max(spreads):.2e}")


def test_criterion_08_z_augmentation():
    sc, alloc, v = budget_reference()
    sub = nl.least_favorable_submodel(sc, alloc.p)
    half = nl.AllocationMap(alloc.p * 0.5)  # leaves about half the units unassigned
    [[report]] = nl.lan_by_design(sub, [nl.IidPropensity(half)], h=1.0, n_list=[4000],
                                  reps=4000, seed_base=808, i_star=v, augment=True)
    checks = moment_gates(report, v)
    _, w, _ = replication(sub, 0.0, nl.IidPropensity(half), 4000, 1)
    share = float((w < 0).mean())
    ok = all(checks.values()) and 0.4 <= share <= 0.6
    verdict(8, "z-augmentation", ok,
            f"unassigned share {share:.2f}, var ratio {report.var_ell / v:.3f}, "
            f"ks {report.ks_distance:.3f}, failed "
            f"{[c for c, good in checks.items() if not good]}")


def test_criterion_09_attainment_and_floor():
    sc, alloc, v = hetero_reference()
    sub = nl.least_favorable_submodel(sc, alloc.p)
    uniform = nl.AllocationMap(np.full((sc.k, 2), 0.5))

    def battery(est_alloc):
        return [
            nl.DiffMeans(),
            nl.IpwHT(est_alloc),
            nl.IpwHajek(est_alloc),
            nl.AipwOracle(sc, est_alloc),
            nl.StratifiedMeans(),
        ]

    designs = {
        "iid": (nl.IidPropensity(alloc), alloc),
        "blocks": (nl.StratifiedBlocks(alloc, 8), alloc),
        "pairs": (nl.MatchedPairs(), uniform),
        "two_stage": (nl.TwoStageAdaptive(0.1, uniform), alloc),
        "alternation": (nl.DeterministicAlternation(), uniform),
    }
    n, reps = 2000, 10_000
    runs = [(rule, battery(est_alloc)) for rule, est_alloc in designs.values()]
    ratios = {}
    for name, (_, ests), reports in zip(designs, runs,
                                        nl.risk_by_design(runs, sub, 0.0, n, reps, seed_base=909)):
        for est, rep in zip(ests, reports):
            ratios[(name, est.kind)] = rep.variance_times_n / v
    attain = ratios[("iid", "aipw_oracle")]
    floor_breaches = {k: r for k, r in ratios.items() if r < 0.95}
    ok = abs(attain - 1.0) <= 0.05 and not floor_breaches
    low = min(ratios.values())
    verdict(9, "attainment-and-floor", ok,
            f"aipw_oracle/iid ratio={attain:.4f}, min ratio over "
            f"{len(ratios)} pairs={low:.4f}"
            + (f", breaches={floor_breaches}" if floor_breaches else ""))


def test_criterion_10_reproducibility(tmp_path):
    # each shipped config through the CLI at jobs=1 and jobs=2, the files it
    # writes against the committed bundles in tests/golden/ (written at
    # jobs=1): replications run in blocks of rows, which align differently
    # in the CLI's process than in pool workers, and a bundle read back from
    # disk catches drift across processes, worker counts and versions, not
    # only between two runs in one process
    mismatched = []
    for verb, name in (("solve", "solve_budget"), ("risk", "risk_hetero"), ("lan", "lan_hetero")):
        golden_dir = GOLDEN / name
        golden = sorted(p.name for p in golden_dir.iterdir())
        for jobs in (1, 2):
            out, where = tmp_path / f"j{jobs}" / name, f"{name} at --jobs {jobs}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([verb, "--config", str(CONFIGS / f"{name}.json"),
                                 "--out", str(out), "--jobs", str(jobs)])
            assert multiprocessing.active_children() == [], where
            written = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
            if code != cli.EXIT_PASS or written != golden:
                mismatched.append(f"{where}: exit {code}, files {written}")
                continue
            for fname in golden:
                fresh, kept = (out / fname).read_bytes(), (golden_dir / fname).read_bytes()
                if fname == "manifest.json":
                    # the study's identity (config_sha256 among it); the library
                    # and Python versions describe the machine, not the study
                    fresh, kept = ({k: v for k, v in json.loads(m).items()
                                    if k not in ("libraries", "python")} for m in (fresh, kept))
                if fresh != kept:
                    mismatched.append(f"{where}: {fname}")
    verdict(10, "golden-bundles", not mismatched,
            f"mismatches: {mismatched}" if mismatched else
            "3 configs through the CLI at jobs=1 and jobs=2, every CSV, summary.json and "
            "manifest (less versions) identical to tests/golden/")
