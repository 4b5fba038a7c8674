"""Scenario validation, least-favorable submodels, informations, tau path."""

import numpy as np
import pytest

import neymanlab as nl
from conftest import random_binary_scenario, shipped_scenario


def two_stratum(mu=None, sigma2=None, probs=(0.5, 0.5)):
    mu = np.array([[0.0, 1.0], [0.0, 1.0]]) if mu is None else np.asarray(mu, float)
    sigma2 = np.ones((2, 2)) if sigma2 is None else np.asarray(sigma2, float)
    law = nl.CovariateLaw(["a", "b"], list(probs))
    return nl.Scenario(law, nl.OutcomeModel(mu, sigma2), nl.TreatmentFunctional.ate(2))


def test_validate_passes_on_well_formed():
    report = nl.validate(two_stratum())
    assert report.ok
    assert report.problems == ()


def test_validate_flags_bad_prob_sum():
    sc = two_stratum(probs=(0.6, 0.6))
    report = nl.validate(sc)
    assert not report.ok
    assert any("probs" in p for p in report.problems)


def test_validate_flags_negative_variance():
    sc = two_stratum(sigma2=[[1.0, -1.0], [1.0, 1.0]])
    report = nl.validate(sc)
    assert not report.ok
    assert any("sigma2" in p for p in report.problems)


def test_validate_flags_duplicate_labels():
    law = nl.CovariateLaw(["a", "a"], [0.5, 0.5])
    sc = nl.Scenario(law, nl.OutcomeModel(np.zeros((2, 2)), np.ones((2, 2))),
                     nl.TreatmentFunctional.ate(2))
    report = nl.validate(sc)
    assert not report.ok
    assert any("support" in p for p in report.problems)


def test_shape_mismatch_rejected_at_construction():
    law = nl.CovariateLaw(["a", "b", "c"], [0.3, 0.3, 0.4])
    with pytest.raises(ValueError):
        nl.Scenario(law, nl.OutcomeModel(np.zeros((2, 2)), np.ones((2, 2))),
                    nl.TreatmentFunctional.ate(3))


def test_scenario_arrays_are_immutable():
    sc = two_stratum()
    with pytest.raises(ValueError):
        sc.outcomes.mu[0, 0] = 5.0
    with pytest.raises(ValueError):
        sc.covariates.probs[0] = 0.9


def test_least_favorable_half_unit_variance():
    # e = 1/2, sigma2 = 1 on both arms: |c_w| = 2, conditional info 4.
    sc = two_stratum()
    sub = nl.least_favorable_submodel(sc, np.full((2, 2), 0.5))
    assert np.allclose(sub.c_shift[:, 1], 2.0)
    # control shift is negative so that d tau / d theta equals the bound
    assert np.allclose(sub.c_shift[:, 0], -2.0)
    _, i_cond = nl.informations(sub)
    assert np.allclose(i_cond, 4.0)


def test_degenerate_arm_gets_zero_shift():
    sc = two_stratum(sigma2=[[1.0, 0.0], [1.0, 1.0]])
    sub = nl.least_favorable_submodel(sc, np.full((2, 2), 0.5))
    assert sub.c_shift[0, 1] == 0.0
    _, i_cond = nl.informations(sub)
    assert i_cond[0, 1] == 0.0


def test_zero_propensity_on_live_arm_raises():
    sc = two_stratum()
    p = np.array([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(nl.DivisionByZeroPropensity, match=r"p\[0,1\] = 0\.0 on an arm"):
        nl.least_favorable_submodel(sc, p)


def test_neyman_balance_exact():
    # at e* the two arms are equally informative, stratum by stratum
    rng = np.random.default_rng(11)
    for _ in range(20):
        sc = random_binary_scenario(rng)
        alloc = nl.neyman_allocation(sc)
        sub = nl.least_favorable_submodel(sc, alloc.p)
        _, i_cond = nl.informations(sub)
        assert np.all(np.abs(i_cond[:, 0] - i_cond[:, 1]) <= 1e-12 * (1 + i_cond.max()))


def test_informations_zero_score():
    sc = two_stratum()
    sub = nl.Submodel(sc, np.zeros(2), np.zeros((2, 2)))
    i_x, i_cond = nl.informations(sub)
    assert i_x == 0.0
    assert np.all(i_cond == 0.0)


def test_informations_symmetric_two_point():
    sc = two_stratum()
    sub = nl.Submodel(sc, np.array([1.0, -1.0]), np.zeros((2, 2)))
    i_x, _ = nl.informations(sub)
    assert i_x == pytest.approx(1.0, abs=1e-15)


def test_info_sums_to_bound_at_neyman():
    rng = np.random.default_rng(12)
    for _ in range(10):
        sc = random_binary_scenario(rng)
        alloc = nl.neyman_allocation(sc)
        sub = nl.least_favorable_submodel(sc, alloc.p)
        i_x, i_cond = nl.informations(sub)
        total = i_x + float(sc.covariates.probs @ (alloc.p * i_cond).sum(axis=1))
        v = nl.eval_bound_binary(sc, alloc.treated_share).v
        assert total == pytest.approx(v, rel=1e-10)


def test_submodel_density_normalization():
    rng = np.random.default_rng(13)
    sc = random_binary_scenario(rng)
    sub = nl.least_favorable_submodel(sc, nl.neyman_allocation(sc).p)
    for theta in (-2.0, -0.3, 0.0, 0.5, 3.0):
        assert sub.tilted_probs(theta).sum() == pytest.approx(1.0, abs=1e-12)
    assert abs(float(sc.covariates.probs @ sub.s_x)) <= 1e-12


def test_tau_at_zero_is_plain_ate():
    sc = two_stratum(mu=[[0.0, 1.0], [1.0, 3.0]])
    sub = nl.least_favorable_submodel(sc, np.full((2, 2), 0.5))
    assert nl.tau_at(sub, 0.0) == pytest.approx(1.5, abs=1e-14)
    assert sc.tau_true() == pytest.approx(1.5, abs=1e-14)


def test_tau_symmetric_scenario_is_zero():
    sc = two_stratum(mu=[[0.7, 0.7], [-0.2, -0.2]])
    sub = nl.Submodel(sc, np.zeros(2), np.full((2, 2), 0.0))
    assert nl.tau_at(sub, 0.0) == 0.0


def test_tau_derivative_equals_bound():
    # Richardson-extrapolated central differences against the bound value.
    rng = np.random.default_rng(14)
    scenarios = [shipped_scenario("risk_hetero"), shipped_scenario("solve_budget")]
    scenarios += [random_binary_scenario(rng) for _ in range(5)]
    for sc in scenarios:
        if sc.constraint is not None:
            alloc = nl.solve_constrained(sc)
        else:
            alloc = nl.neyman_allocation(sc)
        sub = nl.least_favorable_submodel(sc, alloc.p)
        v = nl.eval_bound_general(sc, alloc.p).v
        t = 1e-4
        d1 = (nl.tau_at(sub, t) - nl.tau_at(sub, -t)) / (2 * t)
        d2 = (nl.tau_at(sub, t / 2) - nl.tau_at(sub, -t / 2)) / t
        deriv = (4 * d2 - d1) / 3
        assert deriv == pytest.approx(v, rel=1e-6)


def test_first_difference_approaches_bound():
    sc = shipped_scenario("risk_hetero")
    alloc = nl.neyman_allocation(sc)
    sub = nl.least_favorable_submodel(sc, alloc.p)
    v = nl.eval_bound_binary(sc, alloc.treated_share).v
    t = 1e-4
    one_sided = (nl.tau_at(sub, t) - nl.tau_at(sub, 0.0)) / t
    assert one_sided == pytest.approx(v, rel=1e-3)  # O(t) accuracy only
