"""Strict JSON config parsing: error paths, round trips, digests."""

import json

import pytest

import neymanlab as nl
from conftest import shipped_scenario


def minimal_raw(**study):
    return {
        "scenario": {
            "covariates": {"support": ["a", "b"], "probs": [0.5, 0.5]},
            "arms": 2,
            "mu": [[0.0, 1.0], [0.5, 2.0]],
            "sigma2": [[1.0, 0.64], [1.44, 2.25]],
            "functional": {"kind": "ate"},
        },
        "study": study or {"kind": "allocation_solve"},
        "seed": 11,
    }


def parse(raw):
    return nl.parse_config(json.dumps(raw))


def test_minimal_config_parses():
    cfg = parse(minimal_raw())
    assert cfg.seed == 11
    assert cfg.scenario.k == 2
    assert cfg.jobs == 1
    assert cfg.output is None
    assert cfg.scenario_label == "scenario"


def test_invalid_json_is_parse_error():
    with pytest.raises(nl.ParseError):
        nl.parse_config("{not json")


def test_unknown_key_suggests_correction():
    raw = minimal_raw(kind="risk", n=100, reps=10)
    raw["desings"] = []
    with pytest.raises(nl.ParseError, match="designs"):
        parse(raw)


def test_probs_must_sum_to_one_with_path():
    raw = minimal_raw()
    raw["scenario"]["covariates"]["probs"] = [0.5, 0.4]
    with pytest.raises(nl.ValidationError, match="probs"):
        parse(raw)


def test_matrix_shape_error_names_field():
    raw = minimal_raw()
    raw["scenario"]["mu"] = [[0.0, 1.0], [0.5]]
    with pytest.raises(nl.ValidationError, match="mu"):
        parse(raw)


def test_seed_bounds():
    raw = minimal_raw()
    raw["seed"] = -1
    with pytest.raises(nl.ValidationError):
        parse(raw)
    raw["seed"] = 2**64
    with pytest.raises(nl.ValidationError):
        parse(raw)
    raw["seed"] = 2**64 - 1
    assert parse(raw).seed == 2**64 - 1


def test_risk_study_requires_designs_and_estimators():
    raw = minimal_raw(kind="risk", n=100, reps=10)
    with pytest.raises(nl.ValidationError, match="design"):
        parse(raw)
    raw["designs"] = [{"kind": "iid_propensity", "alloc": "neyman"}]
    with pytest.raises(nl.ValidationError, match="estimator"):
        parse(raw)
    raw["estimators"] = [{"kind": "diff_means"}]
    cfg = parse(raw)
    assert cfg.study["theta_list"] == [0.0]


def test_theta_must_be_finite():
    raw = minimal_raw(kind="risk", n=100, reps=10, theta_list=[0.0, float("nan")])
    raw["designs"] = [{"kind": "iid_propensity", "alloc": "neyman"}]
    raw["estimators"] = [{"kind": "diff_means"}]
    with pytest.raises(nl.ValidationError, match="theta"):
        parse(raw)


def test_lan_sizes_must_ascend():
    raw = minimal_raw(kind="lan", h=1.0, n_list=[400, 400], reps=10)
    raw["designs"] = [{"kind": "iid_propensity", "alloc": "neyman"}]
    with pytest.raises(nl.ValidationError, match="n_list"):
        parse(raw)


def test_unknown_estimator_kind_suggestion():
    raw = minimal_raw(kind="risk", n=100, reps=10)
    raw["designs"] = [{"kind": "iid_propensity", "alloc": "neyman"}]
    raw["estimators"] = [{"kind": "hajek"}]
    with pytest.raises(nl.ValidationError, match="ipw_hajek"):
        parse(raw)
    raw["estimators"] = [{"kind": "aipw_plugin"}]
    with pytest.raises(nl.ValidationError, match="unknown estimator 'aipw_plugin'"):
        parse(raw)


def test_alloc_spec_forms():
    raw = minimal_raw(kind="risk", n=100, reps=10)
    raw["estimators"] = [{"kind": "diff_means"}]
    raw["designs"] = [
        {"kind": "iid_propensity", "alloc": "uniform"},
        {"kind": "iid_propensity", "alloc": {"kind": "table", "p": [[0.5, 0.5], [0.3, 0.7]]}},
        {"kind": "iid_propensity", "alloc": {"kind": "scaled", "base": "neyman", "factor": 0.5}},
    ]
    cfg = parse(raw)
    assert len(cfg.designs) == 3
    bad = dict(raw)
    bad["designs"] = [{"kind": "iid_propensity",
                       "alloc": {"kind": "scaled", "base": "neyman", "factor": 0.0}}]
    with pytest.raises(nl.ValidationError, match="factor"):
        parse(bad)


def test_block_size_minimum():
    raw = minimal_raw(kind="risk", n=100, reps=10)
    raw["estimators"] = [{"kind": "diff_means"}]
    raw["designs"] = [{"kind": "stratified_blocks", "alloc": "neyman", "block_size": 1}]
    with pytest.raises(nl.ValidationError, match="block_size"):
        parse(raw)


@pytest.mark.parametrize("design, estimator, path", [
    ({"kind": "iid_propensity", "alloc": "neyman", "block_size": 8}, "diff_means",
     r"designs\[0\]\.block_size: not a key of design 'iid_propensity'"),
    ({"kind": "iid_propensity", "alloc": "neyman"}, {"kind": "diff_means", "alloc": "constrained"},
     r"estimators\[0\]\.alloc: not a key of estimator 'diff_means'"),
    ({"kind": "full_treatment", "arm": 5}, "diff_means", r"designs\[0\]\.arm"),
    ({"kind": "full_treatment", "arm": -1}, "diff_means", r"designs\[0\]\.arm"),
], ids=["design_key", "estimator_key", "arm_above", "arm_below"])
def test_specs_are_checked_against_their_kind(design, estimator, path):
    # every key must belong to the spec's kind, and an arm must be one of
    # the scenario's (two here), with the error naming the field
    raw = minimal_raw(kind="risk", n=100, reps=10)
    raw["designs"], raw["estimators"] = [design], [estimator]
    with pytest.raises((nl.ParseError, nl.ValidationError), match=path):
        parse(raw)


def three_arm_raw(**study):
    raw = minimal_raw(**study)
    raw["scenario"].update(arms=3, mu=[[0.0, 1.0, 2.0], [0.5, 2.0, 1.0]],
                           sigma2=[[1.0, 0.64, 1.0], [1.44, 2.25, 1.0]],
                           functional={"kind": "general", "a": [[-1, 1, 0], [-1, 1, 0]]})
    return raw


@pytest.mark.parametrize("design, estimator, path", [
    ({"kind": "matched_pairs"}, None, r"designs\[0\]\.kind: design 'matched_pairs'"),
    ({"kind": "two_stage", "pilot_fraction": 0.2}, None,
     r"designs\[0\]\.kind: design 'two_stage'"),
    ({"kind": "iid_propensity", "alloc": "uniform"}, "ipw_ht",
     r"estimators\[0\]\.kind: estimator 'ipw_ht'"),
    ({"kind": "iid_propensity", "alloc": "uniform"}, "ipw_hajek",
     r"estimators\[0\]\.kind: estimator 'ipw_hajek'"),
], ids=["matched_pairs", "two_stage", "ipw_ht", "ipw_hajek"])
def test_two_arm_kinds_reject_other_arm_counts(design, estimator, path):
    # a kind that needs two arms fails at parse time, naming its field,
    # not when the study runs
    if estimator is None:
        raw = three_arm_raw(kind="lan", h=1.0, n_list=[40], reps=4)
        raw["designs"] = [design]
    else:
        raw = three_arm_raw(kind="risk", n=100, reps=10)
        raw["designs"], raw["estimators"] = [design], [estimator]
    with pytest.raises(nl.ValidationError, match=path + " needs exactly 2 arms; the scenario has 3"):
        parse(raw)
    raw["designs"], raw["estimators"] = [{"kind": "alternation"}], ["aipw_oracle"]
    parse(raw)


def functional_raw(a):
    raw = (three_arm_raw if len(a) == 3 else minimal_raw)(kind="risk", n=100, reps=10)
    raw["scenario"]["functional"] = {"kind": "general", "a": [a, a]}
    raw["designs"] = [{"kind": "iid_propensity", "alloc": "uniform"}]
    return raw


@pytest.mark.parametrize("a, estimator", [
    ([0, -1, 1], "diff_means"),
    ([0, -1, 1], "stratified_means"),
    ([1, 1], "diff_means"),
    ([1, 1], "stratified_means"),
    ([1, 1], "ipw_ht"),
    ([1, 1], "ipw_hajek"),
], ids=["3arm-diff_means", "3arm-stratified_means", "2arm-diff_means",
        "2arm-stratified_means", "2arm-ipw_ht", "2arm-ipw_hajek"])
def test_ate_kinds_reject_other_functionals(a, estimator):
    # these kinds compute arm 1 - arm 0 whatever the functional, so any
    # other target fails at parse time, naming the field
    raw = functional_raw(a)
    raw["estimators"] = [estimator]
    with pytest.raises(nl.ValidationError,
                       match=rf"estimators\[0\]\.kind: estimator '{estimator}' estimates the ATE"):
        parse(raw)
    raw["estimators"] = ["aipw_oracle"]
    parse(raw)


def test_ate_kinds_accept_the_ate_as_a_general_functional():
    raw = functional_raw([-1, 1])
    raw["estimators"] = ["diff_means", "stratified_means", "ipw_ht", "ipw_hajek"]
    parse(raw)


def test_round_trip_preserves_digest():
    raw = minimal_raw(kind="risk", n=100, reps=10, theta_list=[0.0, 0.5])
    raw["designs"] = [{"kind": "matched_pairs"},
                      {"kind": "two_stage", "pilot_fraction": 0.2}]
    raw["estimators"] = [{"kind": "aipw_oracle", "alloc": "neyman"}]
    raw["output"] = "out/somewhere"
    raw["jobs"] = 2
    cfg1 = parse(raw)
    cfg2 = nl.parse_config(json.dumps(nl.serialize_config(cfg1)))
    assert nl.config_digest(cfg1) == nl.config_digest(cfg2)


def test_round_trip_constrained_general_scenario():
    sc = shipped_scenario("solve_budget")
    block = nl.serialize_scenario(sc)
    back = nl.parse_scenario(block)
    assert nl.config_digest(
        nl.StudyConfig(back, (), (), {"kind": "allocation_solve"}, 1)
    ) == nl.config_digest(
        nl.StudyConfig(sc, (), (), {"kind": "allocation_solve"}, 1)
    )
    assert back.constraint is not None
    assert back.functional.kind == sc.functional.kind


def test_shipped_configs_parse():
    for name in ("solve_budget", "risk_hetero", "lan_hetero"):
        with open(f"configs/{name}.json") as fh:
            cfg = nl.parse_config(fh.read())
        assert cfg.seed == 20260816


def test_five_budget_rows_parse():
    raw = minimal_raw()
    raw["scenario"]["constraint"] = {
        "r": [[[1.0, 0.5, 0.2, 0.0, 1.0]] * 2, [[0.3, 1.0, 0.7, 0.4, 0.0]] * 2],
        "c": [0.5, 0.6, 0.3, 0.2, 0.4],
    }
    cfg = parse(raw)
    assert cfg.scenario.constraint.d_r == 5
    raw["scenario"]["constraint"] = {"r": [[[], []], [[], []]], "c": []}
    with pytest.raises(nl.ValidationError, match="constraint.c"):
        parse(raw)
