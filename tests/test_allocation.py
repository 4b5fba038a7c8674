"""Bound evaluators, Neyman closed form, constrained KKT solver."""

import numpy as np
import pytest

import neymanlab as nl
from conftest import (
    project_feasible,
    random_binary_scenario,
    random_constrained_scenario,
    shipped_scenario,
)


def single_x(sigma2=(1.0, 1.0), mu=(0.0, 0.0)):
    law = nl.CovariateLaw(["only"], [1.0])
    out = nl.OutcomeModel(np.array([list(mu)]), np.array([list(sigma2)]))
    return nl.Scenario(law, out, nl.TreatmentFunctional.ate(1))


def test_bound_binary_unit_variances_half():
    bound = nl.eval_bound_binary(single_x(), np.array([0.5]))
    assert bound.v == pytest.approx(4.0, abs=1e-12)
    assert bound.var_of_means == 0.0
    assert np.allclose(bound.per_arm, [2.0, 2.0])


def test_bound_binary_degenerate_outcomes():
    sc = single_x(sigma2=(0.0, 0.0))
    assert nl.eval_bound_binary(sc, np.array([0.5])).v == 0.0


def test_bound_binary_two_point_cate():
    law = nl.CovariateLaw(["a", "b"], [0.5, 0.5])
    out = nl.OutcomeModel(np.array([[0.0, 0.0], [0.0, 2.0]]), np.ones((2, 2)))
    sc = nl.Scenario(law, out, nl.TreatmentFunctional.ate(2))
    bound = nl.eval_bound_binary(sc, np.full(2, 0.5))
    assert bound.v == pytest.approx(5.0, abs=1e-12)
    assert bound.var_of_means == pytest.approx(1.0, abs=1e-12)


def test_bound_decomposition_identity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        sc = random_binary_scenario(rng)
        e = rng.uniform(0.05, 0.95, sc.k)
        bound = nl.eval_bound_binary(sc, e)
        assert bound.v == pytest.approx(bound.var_of_means + bound.per_arm.sum(), abs=1e-12)


def test_general_bound_matches_binary_encoding():
    rng = np.random.default_rng(22)
    for _ in range(20):
        sc = random_binary_scenario(rng)
        e = rng.uniform(0.05, 0.95, sc.k)
        p = np.column_stack([1 - e, e])
        vb = nl.eval_bound_binary(sc, e).v
        vg = nl.eval_bound_general(sc, p).v
        assert abs(vb - vg) <= 1e-12 * max(1.0, vb)


def test_general_bound_singleton_full_sampling():
    law = nl.CovariateLaw(["a", "b"], [0.5, 0.5])
    out = nl.OutcomeModel(np.array([[1.0], [3.0]]), np.array([[2.0], [0.5]]))
    fn = nl.TreatmentFunctional(np.ones((2, 1)), np.zeros((2, 1)), kind="general")
    sc = nl.Scenario(law, out, fn)
    bound = nl.eval_bound_general(sc, np.ones((2, 1)))
    assert bound.v == pytest.approx(1.0 + 1.25, abs=1e-12)  # var {1,3} + E sigma2


def test_halving_p_doubles_arm_terms():
    rng = np.random.default_rng(23)
    sc = random_binary_scenario(rng)
    e = rng.uniform(0.2, 0.8, sc.k)
    p = np.column_stack([1 - e, e])
    full = nl.eval_bound_general(sc, p)
    half = nl.eval_bound_general(sc, p / 2)
    assert np.allclose(half.per_arm, 2 * full.per_arm, rtol=1e-12)


def test_bound_propensity_range_errors():
    sc = single_x()
    with pytest.raises(nl.PropensityOutOfRange):
        nl.eval_bound_binary(sc, np.array([1.5]))
    with pytest.raises(nl.PropensityOutOfRange):
        nl.eval_bound_binary(sc, np.array([0.0]))  # starved arm has variance
    with pytest.raises(nl.DivisionByZeroPropensity, match=r"^p\[0,1\] = 0\.0 but "):
        nl.eval_bound_general(sc, np.array([[1.0, 0.0]]))


def test_allocation_map_rejects_bad_tables():
    # a row may not carry more than all of its stratum's units
    with pytest.raises(ValueError, match="row mass"):
        nl.AllocationMap(np.array([[0.75, 0.5]]))
    for bad in ([[-0.1, 0.5]], [[np.nan, 0.5]]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            nl.AllocationMap(np.array(bad))
    # round-off above mass 1 is tolerated up to 1e-9
    nl.AllocationMap(np.array([[0.5, 0.5 + 5e-10], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="row mass"):
        nl.AllocationMap(np.array([[0.5, 0.5 + 2e-9]]))


def test_neyman_symmetry_and_two_to_one():
    sc = single_x(sigma2=(1.0, 1.0))
    assert nl.neyman_allocation(sc).treated_share[0] == pytest.approx(0.5)
    sc = single_x(sigma2=(1.0, 4.0))  # sd ratio 2:1
    assert nl.neyman_allocation(sc).treated_share[0] == pytest.approx(2.0 / 3.0)


def test_neyman_balance_residual():
    rng = np.random.default_rng(24)
    for _ in range(20):
        sc = random_binary_scenario(rng)
        e = nl.neyman_allocation(sc).treated_share
        s2 = sc.outcomes.sigma2
        lhs = s2[:, 0] / (1 - e) ** 2
        rhs = s2[:, 1] / e**2
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(lhs)))


def test_neyman_grid_dominance():
    rng = np.random.default_rng(25)
    grid = np.arange(0.01, 1.0, 0.01)
    for _ in range(5):
        sc = random_binary_scenario(rng)
        alloc = nl.neyman_allocation(sc)
        best = nl.eval_bound_binary(sc, alloc.treated_share).v
        for i in range(sc.k):
            e = alloc.treated_share.copy()
            for g in grid:
                e[i] = g
                assert nl.eval_bound_binary(sc, e).v >= best - 1e-12 * max(1.0, best)
            e[i] = alloc.treated_share[i]


def test_neyman_degenerate_strata():
    sc = single_x(sigma2=(0.0, 0.0))
    alloc = nl.neyman_allocation(sc)
    assert alloc.treated_share[0] == 0.5
    assert alloc.meta["degenerate_strata"] == (0,)
    sc = single_x(sigma2=(0.0, 1.0))
    alloc = nl.neyman_allocation(sc)
    assert alloc.treated_share[0] == 1.0 - nl.CLIP_EPS
    assert alloc.meta["clipped_strata"] == (0,)


def test_solver_matches_neyman_without_constraint():
    rng = np.random.default_rng(26)
    for _ in range(10):
        sc = random_binary_scenario(rng)
        closed = nl.neyman_allocation(sc)
        solved = nl.solve_constrained(sc)
        assert np.all(np.abs(solved.p - closed.p) <= 1e-9)
        assert solved.duals.lam.min() > 0  # sum constraint binds everywhere


def test_solver_singleton_budget_closed_form():
    # one arm, unit cost, budget 0.5, sd 1 vs 2: p* proportional to sd
    law = nl.CovariateLaw(["a", "b"], [0.5, 0.5])
    out = nl.OutcomeModel(np.zeros((2, 1)), np.array([[1.0], [4.0]]))
    fn = nl.TreatmentFunctional(np.ones((2, 1)), np.zeros((2, 1)), kind="general")
    con = nl.ConstraintSpec(np.ones((2, 1, 1)), [0.5])
    sc = nl.Scenario(law, out, fn, con)
    alloc = nl.solve_constrained(sc)
    assert np.allclose(alloc.p[:, 0], [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)
    assert np.allclose(alloc.duals.lam, 0.0, atol=1e-9)
    usage = 0.5 * alloc.p[0, 0] + 0.5 * alloc.p[1, 0]
    assert usage == pytest.approx(0.5, abs=1e-9)
    assert alloc.duals.mu[0] == pytest.approx(9.0, rel=1e-6)


def test_solver_budget_binary_preset():
    sc = shipped_scenario("solve_budget")
    alloc = nl.solve_constrained(sc)
    res = nl.kkt_residuals(sc, alloc)
    assert res["max"] <= 1e-8
    usage = np.einsum("k,kwr,kw->r", sc.covariates.probs, sc.constraint.r, alloc.p)
    assert usage[0] == pytest.approx(0.3, abs=1e-8)  # budget binds
    assert alloc.duals.mu[0] > 0


def test_solver_kkt_certificates_random():
    rng = np.random.default_rng(27)
    for _ in range(8):
        sc = random_constrained_scenario(rng)
        alloc = nl.solve_constrained(sc)
        assert nl.kkt_residuals(sc, alloc)["max"] <= 1e-8


def test_bound_identity_from_duals():
    rng = np.random.default_rng(28)
    for _ in range(8):
        sc = random_constrained_scenario(rng)
        alloc = nl.solve_constrained(sc)
        v = nl.eval_bound_general(sc, alloc.p).v
        assert abs(nl.bound_from_duals(sc, alloc) - v) <= 1e-8 * max(1.0, v)


def test_perturbation_local_optimality():
    rng = np.random.default_rng(29)
    for _ in range(3):
        sc = random_constrained_scenario(rng)
        alloc = nl.solve_constrained(sc)
        v_star = nl.eval_bound_general(sc, alloc.p).v
        for _ in range(50):
            delta = rng.uniform(-1, 1, alloc.p.shape)
            delta *= 1e-2 / max(np.linalg.norm(delta), 1e-12)
            p = project_feasible(sc, alloc.p + delta)
            assert nl.eval_bound_general(sc, p).v >= v_star - 1e-10


def test_zero_variance_arm_gets_zero_mass():
    law = nl.CovariateLaw(["a"], [1.0])
    out = nl.OutcomeModel(np.array([[0.0, 1.0, 2.0]]), np.array([[1.0, 0.0, 4.0]]))
    a = np.array([[1.0, 1.0, 1.0]])
    fn = nl.TreatmentFunctional(a, np.zeros((1, 3)), kind="general")
    sc = nl.Scenario(law, out, fn)
    alloc = nl.solve_constrained(sc)
    assert alloc.p[0, 1] == 0.0
    assert np.allclose(alloc.p[0, [0, 2]], [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)


def test_zero_budget_reports_unbounded_dual():
    law = nl.CovariateLaw(["a"], [1.0])
    out = nl.OutcomeModel(np.array([[0.0, 1.0]]), np.ones((1, 2)))
    con = nl.ConstraintSpec(np.ones((1, 2, 1)), [0.0])
    sc = nl.Scenario(law, out, nl.TreatmentFunctional.ate(1), con)
    with pytest.raises(nl.UnboundedDual):
        nl.solve_constrained(sc)


def test_solver_meta_has_certificate():
    sc = shipped_scenario("solve_budget")
    alloc = nl.solve_constrained(sc)
    assert alloc.meta["kkt"]["max"] <= 1e-8
    assert alloc.meta["inner_solves"] >= 1


def sweep_scenario(k, d_r):
    """Two-arm ATE scenario with d_r budget rows at 0.7 x uniform usage."""
    rng = np.random.default_rng([0, k, d_r])
    raw = rng.uniform(0.2, 1.0, k)
    q = raw / raw.sum()
    mu = rng.normal(0.0, 2.0, (k, 2))
    sigma2 = rng.uniform(0.05, 4.0, (k, 2))
    r = rng.uniform(0.0, 1.0, (k, 2, d_r))
    c = 0.7 * np.einsum("x,xwd->d", q, r * 0.5)
    law = nl.CovariateLaw([f"s{i}" for i in range(k)], q)
    return nl.Scenario(law, nl.OutcomeModel(mu, sigma2), nl.TreatmentFunctional.ate(k),
                       nl.ConstraintSpec(r, c))


@pytest.mark.parametrize("d_r", [1, 2, 5])
def test_solver_certifies_many_strata_and_budget_rows(d_r):
    # d_r = 2 is the feasible scenario on which coordinate bisection gave up
    sc = sweep_scenario(200, d_r)
    alloc = nl.solve_constrained(sc)
    assert nl.kkt_residuals(sc, alloc)["max"] <= 1e-8
    assert np.all(alloc.duals.mu > 0)  # 0.7 x uniform usage binds every row


def test_solver_certifies_zero_curvature_dual():
    # three one-arm strata, two budget rows: while lam binds, the dual is
    # flat in mu and its Hessian vanishes
    rng = np.random.default_rng(0)
    for _ in range(3):
        sc = random_constrained_scenario(rng)
    assert (sc.k, sc.n_arms, sc.constraint.d_r) == (3, 1, 2)
    alloc = nl.solve_constrained(sc)
    assert nl.kkt_residuals(sc, alloc)["max"] <= 1e-8


def test_solver_matches_slsqp_reference():
    from scipy.optimize import minimize

    rng = np.random.default_rng(30)
    for _ in range(6):
        sc = random_constrained_scenario(rng)
        alloc = nl.solve_constrained(sc)
        v_star = nl.eval_bound_general(sc, alloc.p).v
        q, r, c = sc.covariates.probs, sc.constraint.r, sc.constraint.c
        shape = alloc.p.shape
        cons = [
            {"type": "ineq", "fun": lambda x: 1.0 - x.reshape(shape).sum(axis=1)},
            {"type": "ineq",
             "fun": lambda x: c - np.einsum("k,kwr,kw->r", q, r, x.reshape(shape))},
        ]
        start = project_feasible(sc, np.full(shape, 0.5 / shape[1]))
        ref = minimize(lambda x: nl.eval_bound_general(sc, x.reshape(shape)).v,
                       start.ravel(), method="SLSQP", constraints=cons,
                       bounds=[(1e-6, 1.0)] * start.size,
                       options={"ftol": 1e-12, "maxiter": 500})
        assert ref.success
        assert v_star <= ref.fun * (1.0 + 1e-6)
