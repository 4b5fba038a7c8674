"""Value-type checks, least-favorable submodels, informations, tau path."""

import inspect
import re

import numpy as np
import pytest

import neymanlab as nl
from conftest import random_binary_scenario, shipped_scenario


def two_stratum(mu=None, sigma2=None, probs=(0.5, 0.5)):
    mu = np.array([[0.0, 1.0], [0.0, 1.0]]) if mu is None else np.asarray(mu, float)
    sigma2 = np.ones((2, 2)) if sigma2 is None else np.asarray(sigma2, float)
    law = nl.CovariateLaw(["a", "b"], list(probs))
    return nl.Scenario(law, nl.OutcomeModel(mu, sigma2), nl.TreatmentFunctional.ate(2))


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


# Each value type: its constructor's parameters (name, default), a valid call
# whose array arguments are integer-valued, the fields that hold a read-only
# float copy of an argument, each shape or value check as (arguments,
# message), and each conversion as (arguments, field, value).
CONSTRUCTORS = {
    "CovariateLaw": (
        nl.CovariateLaw, [("support", None), ("probs", None)],
        lambda: dict(support=["a"], probs=np.array([1])), ["probs"],
        [(dict(probs=np.ones(3)), "probs must be a vector of length 1, got shape (3,)"),
         (dict(probs=np.ones((1, 2))), "probs must be a vector of length 1, got shape (1, 2)"),
         (dict(support=["a", "b", "a"], probs=np.full(3, 1 / 3)),
          "support[2] repeats the label 'a'"),
         (dict(support=["a", "b"], probs=np.array([1.0, 0.0])),
          "probs[1] must be finite and > 0, got 0.0"),
         (dict(support=["a", "b"], probs=np.array([0.6, 0.5])),
          "probs must sum to 1 within 1e-12, got 1.1")],
        [(dict(support=[1]), "support", ("1",))]),
    "OutcomeModel": (
        nl.OutcomeModel, [("mu", None), ("sigma2", None)],
        lambda: dict(mu=np.array([[0, 1], [2, 3]]), sigma2=np.array([[1, 2], [3, 4]])),
        ["mu", "sigma2"],
        [(dict(mu=np.ones(2)), "mu must be a K x n_arms table, got shape (2,)"),
         (dict(sigma2=np.ones((2, 1))), "sigma2 shape (2, 1) does not match mu shape (2, 2)"),
         (dict(mu=np.array([[0.0, 1.0], [np.nan, 3.0]])), "mu[1][0] must be finite, got nan"),
         (dict(sigma2=np.array([[1.0, 2.0], [-1.0, 4.0]])),
          "sigma2[1][0] must be finite and >= 0, got -1.0")],
        []),
    "TreatmentFunctional": (
        nl.TreatmentFunctional, [("a_tilde", None), ("b_tilde", None), ("kind", "general")],
        lambda: dict(a_tilde=np.array([[-1, 1], [-1, 2]]), b_tilde=np.array([[0, 1], [1, 0]])),
        ["a_tilde", "b_tilde"],
        [(dict(a_tilde=np.ones(2), b_tilde=np.ones(2)),
          "a_tilde and b_tilde must be matching K x n_arms tables"),
         (dict(b_tilde=np.ones((2, 3))), "a_tilde and b_tilde must be matching K x n_arms tables"),
         (dict(a_tilde=np.array([[-1.0, np.inf], [-1.0, 1.0]])),
          "a_tilde[0][1] must be finite, got inf"),
         (dict(b_tilde=np.array([[0.0, 0.0], [0.0, -np.inf]])),
          "b_tilde[1][1] must be finite, got -inf"),
         (dict(kind="ate"),
          "kind 'ate' requires a_tilde = (-1, 1) and b_tilde = 0 in every stratum")],
        [(dict(), "kind", "general"), (dict(kind=7), "kind", "7"),
         (dict(a_tilde=np.array([[-1, 1]]), b_tilde=np.zeros((1, 2)), kind="ate"),
          "kind", "ate")]),
    "ConstraintSpec": (
        nl.ConstraintSpec, [("r", None), ("c", None)],
        lambda: dict(r=np.array([[[1], [2]], [[3], [0]]]), c=np.array([2])), ["r", "c"],
        [(dict(r=np.ones(2)), "r must have shape (K, n_arms, d_r), got (2,)"),
         (dict(r=np.ones((2, 2, 1, 1))), "r must have shape (K, n_arms, d_r), got (2, 2, 1, 1)"),
         (dict(c=np.ones(2)), "c has length 2 but r provides 1 constraint rows"),
         (dict(r=np.array([[[1.0], [2.0]], [[-0.5], [0.0]]])),
          "r[1][0][0] must be finite and >= 0, got -0.5"),
         (dict(c=np.array([-0.1])), "c[0] must be finite and >= 0, got -0.1")],
        [(dict(r=[[1, 2], [3, 0]]), "r", np.array([[[1.0], [2.0]], [[3.0], [0.0]]])),
         (dict(c=2), "c", np.array([2.0]))]),
    "Submodel": (
        nl.Submodel, [("base", None), ("s_x", None), ("c_shift", None)],
        lambda: dict(base=two_stratum(), s_x=np.array([-1, 1]), c_shift=np.array([[1, 2], [3, 4]])),
        ["s_x", "c_shift"],
        [(dict(s_x=np.ones(3)), "s_x must have shape (2,), got (3,)"),
         (dict(c_shift=np.ones((2, 3))), "c_shift must match the outcome tables in shape")],
        []),
    "DualCertificate": (
        nl.DualCertificate, [("lam", None), ("mu", None)],
        lambda: dict(lam=np.array([1, 2]), mu=np.array([0, 3])), ["lam", "mu"],
        [],
        [(dict(mu=3), "mu", np.array([3.0]))]),
    "BoundValue": (
        nl.BoundValue, [("v", None), ("var_of_means", None), ("per_arm", None)],
        lambda: dict(v=np.float32(1.5), var_of_means=1, per_arm=np.array([0, 1])), ["per_arm"],
        [],
        [(dict(), "v", 1.5), (dict(), "var_of_means", 1.0)]),
}


@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_value_type_constructors(name):
    cls, params, valid, arrays, checks, conversions = CONSTRUCTORS[name]
    sig = inspect.signature(cls)
    assert [(p.name, None if p.default is p.empty else p.default)
            for p in sig.parameters.values()] == params
    args = valid()
    for obj in (cls(*args.values()), cls(**args)):
        for field in arrays:
            given, held = args[field], getattr(obj, field)
            assert held.dtype == np.float64 and not held.flags.writeable
            assert given.flags.writeable and not np.shares_memory(given, held)
            assert np.array_equal(held, given)
    # a float argument is copied too, not wrapped
    floats = {key: np.asarray(val, dtype=float) if key in arrays else val
              for key, val in args.items()}
    obj = cls(**floats)
    for field in arrays:
        assert not np.shares_memory(floats[field], getattr(obj, field))
        assert floats[field].flags.writeable
    for bad, message in checks:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**{**valid(), **bad})
    for change, field, value in conversions:
        held = getattr(cls(**{**valid(), **change}), field)
        assert type(held) is type(value)
        if isinstance(value, np.ndarray):
            assert held.shape == value.shape and np.array_equal(held, value)
            assert held.dtype == np.float64 and not held.flags.writeable
        else:
            assert held == value


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
