"""Point estimators on hand-built logs plus replication-level risk checks."""

import numpy as np
import pytest

import neymanlab as nl
from conftest import shipped_scenario

HETERO = shipped_scenario("risk_hetero")
NEYMAN = nl.neyman_allocation(HETERO)
SUB = nl.least_favorable_submodel(HETERO, NEYMAN.p)


def hand_log(x, w, y):
    x = np.asarray(x, dtype=np.int64)
    return nl.ExperimentLog(n=len(x), x=x, w=np.asarray(w, dtype=np.int64),
                            y=np.asarray(y, dtype=float), theta=0.0, seed=0, rule="hand")


def half_alloc(k=1):
    return nl.AllocationMap(np.full((k, 2), 0.5))


def test_ipw_ht_hand_value():
    log = hand_log([0, 0], [1, 0], [2.0, 1.0])
    est = nl.IpwHT(half_alloc())
    assert nl.estimate(est, log) == pytest.approx(1.0, abs=1e-15)


def test_ipw_hajek_hand_value():
    log = hand_log([0, 0], [1, 0], [2.0, 1.0])
    est = nl.IpwHajek(nl.AllocationMap(np.array([[0.75, 0.25]])))
    assert nl.estimate(est, log) == pytest.approx(1.0, abs=1e-15)


def test_diff_means_hand_value():
    log = hand_log([0, 0, 0], [1, 0, 1], [3.0, 1.0, 5.0])
    assert nl.estimate(nl.DiffMeans(), log) == pytest.approx(3.0, abs=1e-15)


def test_stratified_means_hand_value():
    log = hand_log([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 3.0, 2.0, 6.0])
    assert nl.estimate(nl.StratifiedMeans(), log) == pytest.approx(3.0, abs=1e-15)


def test_aipw_oracle_constant_outcomes():
    m = 2.5
    law = nl.CovariateLaw(["a"], [1.0])
    sc = nl.Scenario(law, nl.OutcomeModel(np.full((1, 2), m), np.ones((1, 2))),
                     nl.TreatmentFunctional.ate(1))
    est = nl.AipwOracle(sc, half_alloc())
    log = hand_log([0, 0, 0], [1, 0, -1], [m, m, 0.0])
    assert nl.estimate(est, log) == pytest.approx(0.0, abs=1e-15)


def test_empty_arm_errors():
    log = hand_log([0, 0], [1, 1], [1.0, 2.0])
    with pytest.raises(nl.EmptyArm):
        nl.estimate(nl.DiffMeans(), log)
    with pytest.raises(nl.EmptyArm):
        nl.estimate(nl.IpwHajek(half_alloc()), log)
    with pytest.raises(nl.EmptyArm):
        nl.estimate(nl.StratifiedMeans(), log)


def test_log_must_fit_the_cell_table():
    # an arm-2 or stratum-1 unit has no cell in a one-stratum two-arm table
    for x, w in (([0, 0], [1, 2]), ([0, 1], [1, 0])):
        log = hand_log(x, w, [1.0, 2.0])
        with pytest.raises(ValueError, match="outside"):
            nl.estimate(nl.IpwHT(half_alloc()), log)
        with pytest.raises(ValueError, match="outside"):
            nl.log_likelihood_ratio(nl.Submodel(
                nl.Scenario(nl.CovariateLaw(["a"], [1.0]),
                            nl.OutcomeModel(np.zeros((1, 2)), np.ones((1, 2))),
                            nl.TreatmentFunctional.ate(1)),
                s_x=[0.0], c_shift=np.zeros((1, 2))), log, 1.0)
    # below the table: a w = -2 unit would be filed under the previous
    # stratum's last arm, and a negative stratum has no cell at all
    for x, w, bad in (([0, 1, 1, 2], [0, -2, 1, 0], "arm -2"),
                      ([0, -1, 1, 2], [0, 1, 1, 0], "stratum -1")):
        log = hand_log(x, w, [1.0, 5.0, 2.0, 3.0])
        for est in (nl.DiffMeans(), nl.StratifiedMeans(), nl.IpwHT(half_alloc(3))):
            with pytest.raises(ValueError, match=f"{bad}, outside"):
                nl.estimate(est, log)


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
    for rep in range(20):
        seed = nl.rep_seed(555, rep)
        log1 = nl.run_one(SUB, 0.0, rule, 400, seed)
        log2 = nl.run_one(sub2, 0.0, rule, 400, seed)
        assert np.array_equal(log1.w, log2.w)  # shared design stream
        for est1, est2 in exact:
            d = nl.estimate(est2, log2) - nl.estimate(est1, log1)
            assert d == pytest.approx(kappa, abs=1e-10)
    # Horvitz-Thompson shifts by kappa * mean(w/e), exact only in expectation
    diffs = []
    for rep in range(400):
        seed = nl.rep_seed(556, rep)
        log1 = nl.run_one(SUB, 0.0, rule, 400, seed)
        log2 = nl.run_one(sub2, 0.0, rule, 400, seed)
        diffs.append(nl.estimate(nl.IpwHT(NEYMAN), log2)
                     - nl.estimate(nl.IpwHT(NEYMAN), log1))
    diffs = np.asarray(diffs)
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
    vals = [np.sqrt(n) * abs(nl.estimate(est, log) - truth)
            for log in nl.run_many(SUB, 0.0, rule, n, reps, seed_base=31)]
    vals = np.asarray(vals)
    want = np.sqrt(2 * v / np.pi)
    assert abs(vals.mean() - want) <= 4 * vals.std(ddof=1) / np.sqrt(reps)


def test_describe_estimator_names():
    assert nl.describe_estimator(nl.DiffMeans()) == "diff_means"
    assert nl.describe_estimator(nl.StratifiedMeans()) == "stratified_means"
