"""Point estimators on hand-built cell tables plus replication-level risk checks."""

import numpy as np
import pytest

import neymanlab as nl
from conftest import shipped_scenario
from neymanlab.engine import Cells, Draw, chunk_stats, rep_seeds

HETERO = shipped_scenario("risk_hetero")
NEYMAN = nl.neyman_allocation(HETERO)
SUB = nl.least_favorable_submodel(HETERO, NEYMAN.p)


def hand_cells(count, total, unassigned=0):
    """A one-log cell table: units and outcome sums per (stratum, arm), plus
    ``unassigned`` units per stratum."""
    count = np.asarray(count, dtype=np.int64)
    strata = count.sum(axis=1) + unassigned
    return Cells(int(strata.sum()), count, np.asarray(total, dtype=float), strata)


def half_alloc(k=1):
    return nl.AllocationMap(np.full((k, 2), 0.5))


def test_ipw_ht_hand_value():
    # units (x, w, y): (0, 1, 2.0), (0, 0, 1.0)
    cells = hand_cells([[1, 1]], [[1.0, 2.0]])
    assert nl.IpwHT(half_alloc()).from_cells(cells) == pytest.approx(1.0, abs=1e-15)


def test_ipw_hajek_hand_value():
    cells = hand_cells([[1, 1]], [[1.0, 2.0]])
    est = nl.IpwHajek(nl.AllocationMap(np.array([[0.75, 0.25]])))
    assert est.from_cells(cells) == pytest.approx(1.0, abs=1e-15)


def test_diff_means_hand_value():
    # units: (0, 1, 3.0), (0, 0, 1.0), (0, 1, 5.0)
    cells = hand_cells([[1, 2]], [[1.0, 8.0]])
    assert nl.DiffMeans().from_cells(cells) == pytest.approx(3.0, abs=1e-15)


def test_stratified_means_hand_value():
    # units: (0, 0, 1.0), (0, 1, 3.0), (1, 0, 2.0), (1, 1, 6.0)
    cells = hand_cells([[1, 1], [1, 1]], [[1.0, 3.0], [2.0, 6.0]])
    assert nl.StratifiedMeans().from_cells(cells) == pytest.approx(3.0, abs=1e-15)


def test_aipw_oracle_constant_outcomes():
    m = 2.5
    law = nl.CovariateLaw(["a"], [1.0])
    sc = nl.Scenario(law, nl.OutcomeModel(np.full((1, 2), m), np.ones((1, 2))),
                     nl.TreatmentFunctional.ate(1))
    est = nl.AipwOracle(sc, half_alloc())
    # units: (0, 1, m), (0, 0, m), and one unassigned
    cells = hand_cells([[1, 1]], [[m, m]], unassigned=1)
    assert est.from_cells(cells) == pytest.approx(0.0, abs=1e-15)


def test_empty_arm_errors():
    # units: (0, 1, 1.0), (0, 1, 2.0)
    cells = hand_cells([[0, 2]], [[0.0, 3.0]])
    with pytest.raises(nl.EmptyArm):
        nl.DiffMeans().from_cells(cells)
    with pytest.raises(nl.EmptyArm):
        nl.IpwHajek(half_alloc()).from_cells(cells)
    with pytest.raises(nl.EmptyArm):
        nl.StratifiedMeans().from_cells(cells)


def test_floor_enforced_at_construction():
    thin = nl.AllocationMap(np.array([[0.9995, 0.0005]]))
    with pytest.raises(nl.PropensityOutOfRange):
        nl.IpwHT(thin)
    with pytest.raises(nl.PropensityOutOfRange):
        nl.AipwOracle(HETERO, nl.AllocationMap(np.full((3, 2), 0.0004)))


def test_aipw_oracle_unbiased_mc():
    [[report]] = nl.risk_by_design([(nl.IidPropensity(NEYMAN), [nl.AipwOracle(HETERO, NEYMAN)])],
                                   SUB, 0.0, 200, 3000, seed_base=77)
    se_mean = np.sqrt(report.variance_times_n / (200 * 3000))
    assert abs(report.bias) <= 4 * se_mean


def test_translation_equivariance():
    kappa = 1.7
    mu2 = HETERO.outcomes.mu.copy()
    mu2[:, 1] += kappa
    shifted = nl.Scenario(HETERO.covariates, nl.OutcomeModel(mu2, HETERO.outcomes.sigma2),
                          nl.TreatmentFunctional.ate(3))
    sub2 = nl.least_favorable_submodel(shifted, NEYMAN.p)
    exact = [
        (nl.DiffMeans(), nl.DiffMeans()),
        (nl.IpwHajek(NEYMAN), nl.IpwHajek(NEYMAN)),
        (nl.AipwOracle(HETERO, NEYMAN), nl.AipwOracle(shifted, NEYMAN)),
        (nl.StratifiedMeans(), nl.StratifiedMeans()),
    ]
    rule = nl.IidPropensity(NEYMAN)
    seeds = rep_seeds(555, 20)
    # shared design stream
    assert np.array_equal(Draw(SUB, 0.0, 400, seeds, 400).assign(rule),
                          Draw(sub2, 0.0, 400, seeds, 400).assign(rule))
    rows1 = chunk_stats(SUB, 0.0, [400], [(rule, [est1 for est1, _ in exact])], seeds)
    rows2 = chunk_stats(sub2, 0.0, [400], [(rule, [est2 for _, est2 in exact])], seeds)
    assert np.allclose(rows2 - rows1, kappa, rtol=0, atol=1e-10)
    # Horvitz-Thompson shifts by kappa * mean(w/e), exact only in expectation
    seeds = rep_seeds(556, 400)
    diffs = (chunk_stats(sub2, 0.0, [400], [(rule, [nl.IpwHT(NEYMAN)])], seeds)
             - chunk_stats(SUB, 0.0, [400], [(rule, [nl.IpwHT(NEYMAN)])], seeds))[:, 0]
    assert abs(diffs.mean() - kappa) <= 4 * diffs.std(ddof=1) / np.sqrt(len(diffs))


def test_risk_report_invariants():
    [[report]] = nl.risk_by_design([(nl.IidPropensity(NEYMAN), [nl.DiffMeans()])],
                                   SUB, 0.0, 100, 200, seed_base=5)
    assert report.mse_times_n >= report.variance_times_n - 1e-12
    assert report.mc_std_error == pytest.approx(
        report.variance_times_n * np.sqrt(2 / 199))


def test_single_rep_is_degenerate():
    with pytest.raises(nl.DegenerateReps):
        nl.risk_by_design([(nl.IidPropensity(NEYMAN), [nl.DiffMeans()])],
                          SUB, 0.0, 100, 1, seed_base=5)


def test_estimator_columns_do_not_depend_on_neighbours():
    # an estimator's report is the one it gets alone, whichever estimators
    # and designs share its pass over the draws
    iid, pairs = nl.IidPropensity(NEYMAN), nl.MatchedPairs()
    table = nl.risk_by_design([(pairs, [nl.DiffMeans()]),
                               (iid, [nl.DiffMeans(), nl.StratifiedMeans()])],
                              SUB, 0.0, 150, 80, seed_base=9)
    [[solo]] = nl.risk_by_design([(iid, [nl.StratifiedMeans()])], SUB, 0.0, 150, 80,
                                 seed_base=9)
    [[solo_pairs]] = nl.risk_by_design([(pairs, [nl.DiffMeans()])], SUB, 0.0, 150, 80,
                                       seed_base=9)
    assert table[1][1].mean == solo.mean
    assert table[1][1].variance_times_n == solo.variance_times_n
    assert table[0][0].mean == solo_pairs.mean
    assert table[0][0].variance_times_n == solo_pairs.variance_times_n


def test_absolute_loss_of_efficient_estimator():
    # E |N(0, v)| = sqrt(2 v / pi): absolute loss as a second subconvex instance
    n, reps = 2000, 1200
    v = nl.eval_bound_binary(HETERO, NEYMAN.treated_share).v
    truth = HETERO.tau_true()
    est = nl.AipwOracle(HETERO, NEYMAN)
    rule = nl.IidPropensity(NEYMAN)
    estimates = chunk_stats(SUB, 0.0, [n], [(rule, [est])], rep_seeds(31, reps))[:, 0]
    vals = np.sqrt(n) * np.abs(estimates - truth)
    want = np.sqrt(2 * v / np.pi)
    assert abs(vals.mean() - want) <= 4 * vals.std(ddof=1) / np.sqrt(reps)

