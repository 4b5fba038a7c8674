"""Acceptance battery: ten numbered criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; the whole file is sized for a plain laptop core.  Monte Carlo
criteria use fixed seeds, so reruns are bit-identical, and every
tolerance is stated inline next to the check it guards.
"""

import json
import os

import numpy as np
import pytest

import neymanlab as nl
from conftest import (
    closed_form_remainder,
    project_feasible,
    random_binary_scenario,
    random_constrained_scenario,
    shipped_scenario,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

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
    reports = nl.lan_by_design(sub, list(rules.values()), h=1.0, n=4000, reps=4000,
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
    means = [
        nl.lan_by_design(sub, [rule], h=1.0, n=n, reps=2000, seed_base=606,
                         i_star=v)[0].mean_abs_remainder
        for n in sizes
    ]
    # every log of size n has the same remainder, known in closed form
    exact = [closed_form_remainder(sub, 1.0, n) for n in sizes]
    worst = max(abs(m / e - 1.0) for m, e in zip(means, exact))
    ok = means[0] > means[1] > means[2] and worst <= 1e-9
    verdict(6, "remainder-decay", ok,
            "mean |remainder| at n=400,1600,6400: " + ", ".join(f"{m:.2e}" for m in means)
            + f"; max relative gap to closed form {worst:.1e}")


def test_criterion_07_information_indifference():
    sc, alloc, v = hetero_reference()
    sub = nl.least_favorable_submodel(sc, alloc.p)
    rules = [nl.IidPropensity(alloc), nl.StratifiedBlocks(alloc, 8),
             nl.MatchedPairs(), nl.DeterministicAlternation(), nl.FullTreatment(1)]
    spreads = []
    for seed in (70, 71, 72):
        infos = [
            nl.log_likelihood_ratio(sub, nl.run_one(sub, 0.0, rule, 600, seed), 1.0).info_tilde_n
            for rule in rules
        ]
        spreads.append(max(infos) - min(infos))
    ok = max(spreads) <= 1e-12
    verdict(7, "information-indifference", ok, f"max spread={max(spreads):.2e}")


def test_criterion_08_z_augmentation():
    sc, alloc, v = budget_reference()
    sub = nl.least_favorable_submodel(sc, alloc.p)
    half = nl.AllocationMap(alloc.p * 0.5)  # leaves about half the units unassigned
    [report] = nl.lan_by_design(sub, [nl.IidPropensity(half)], h=1.0, n=4000,
                                reps=4000, seed_base=808, i_star=v, augment=True)
    checks = moment_gates(report, v)
    log = nl.run_one(sub, 0.0, nl.IidPropensity(half), 4000, 1)
    share = float((log.w < 0).mean())
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
            ratios[(name, nl.describe_estimator(est))] = rep.variance_times_n / v
    attain = ratios[("iid", "aipw_oracle")]
    floor_breaches = {k: r for k, r in ratios.items() if r < 0.95}
    ok = abs(attain - 1.0) <= 0.05 and not floor_breaches
    low = min(ratios.values())
    verdict(9, "attainment-and-floor", ok,
            f"aipw_oracle/iid ratio={attain:.4f}, min ratio over "
            f"{len(ratios)} pairs={low:.4f}"
            + (f", breaches={floor_breaches}" if floor_breaches else ""))


def test_criterion_10_reproducibility():
    # one run per shipped config, at jobs=2, against the committed bundles
    # in tests/golden/ (written at jobs=1): catches drift across processes,
    # worker counts and versions, not only between two runs in one process
    mismatched = []
    for name in ("solve_budget", "risk_hetero", "lan_hetero"):
        with open(f"configs/{name}.json") as fh:
            cfg = nl.parse_config(fh.read())
        bundle = nl.run_study(cfg, jobs=2)
        golden_dir = os.path.join(GOLDEN, name)
        golden_csvs = sorted(f for f in os.listdir(golden_dir) if f.endswith(".csv"))
        if golden_csvs != sorted(bundle.tables):
            mismatched.append(f"{name}: tables {sorted(bundle.tables)} != {golden_csvs}")
        fresh = {**bundle.tables,
                 "summary.json": json.dumps(bundle.summary, indent=2, sort_keys=True) + "\n"}
        for fname, text in fresh.items():
            with open(os.path.join(golden_dir, fname), newline="") as fh:
                if fh.read() != text:
                    mismatched.append(f"{name}/{fname}")
        # the study's identity (config_sha256 among it); the library and
        # Python versions describe the machine, not the study
        with open(os.path.join(golden_dir, "manifest.json")) as fh:
            golden_manifest = json.load(fh)
        identity = [{k: v for k, v in m.items() if k not in ("libraries", "python")}
                    for m in (bundle.manifest, golden_manifest)]
        if identity[0] != identity[1]:
            mismatched.append(f"{name}/manifest.json")
    verdict(10, "golden-bundles", not mismatched,
            f"mismatches: {mismatched}" if mismatched else
            "3 configs at jobs=2, every CSV, summary.json and manifest (less versions) "
            "identical to tests/golden/")
