"""Assignment rules: exactness invariants, the prefix property, realized shares."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neymanlab as nl
from conftest import random_binary_scenario, shipped_scenario

HETERO = shipped_scenario("risk_hetero")
NEYMAN = nl.neyman_allocation(HETERO)
UNIFORM = nl.AllocationMap(np.full((3, 2), 0.5))


def rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def draw_x(seed, n, scenario=HETERO):
    g = np.random.default_rng(seed)
    return g.choice(scenario.k, size=n, p=scenario.covariates.probs).astype(np.int64)


def all_rules(scenario=HETERO):
    alloc = nl.neyman_allocation(scenario)
    uni = nl.AllocationMap(np.full((scenario.k, 2), 0.5))
    return [
        nl.IidPropensity(alloc),
        nl.StratifiedBlocks(alloc, 6),
        nl.MatchedPairs(),
        nl.TwoStageAdaptive(0.25, uni),
        nl.DeterministicAlternation(),
        nl.FullTreatment(1),
    ]


def test_iid_degenerate_propensity_always_treats():
    alloc = nl.AllocationMap(np.column_stack([np.zeros(3), np.ones(3)]))
    w = nl.apply_rule(nl.IidPropensity(alloc), draw_x(1, 50), 2, rng_for(1))
    assert np.all(w == 1)


def test_matched_pairs_pair_invariant():
    x = np.zeros(2, dtype=np.int64)
    for seed in range(40):
        w = nl.apply_rule(nl.MatchedPairs(), x, 2, rng_for(seed))
        assert sorted(w.tolist()) == [0, 1]


def test_matched_pairs_full_log_scan():
    x = draw_x(7, 501)
    w = nl.apply_rule(nl.MatchedPairs(), x, 2, rng_for(7))
    for s in range(HETERO.k):
        ws = w[x == s]
        pairs = len(ws) // 2
        body = ws[: 2 * pairs].reshape(pairs, 2)
        assert np.all(body.sum(axis=1) == 1)  # exactly one treated per pair
        if len(ws) % 2:
            assert ws[-1] in (0, 1)  # dangling unit keeps its coin


def test_blocks_half_gives_exact_split():
    x = np.zeros(4, dtype=np.int64)
    alloc = nl.AllocationMap(np.full((3, 2), 0.5))
    for seed in range(30):
        w = nl.apply_rule(nl.StratifiedBlocks(alloc, 4), x, 2, rng_for(seed))
        assert w.sum() == 2


def test_blocks_counts_within_floor_ceil():
    x = draw_x(9, 600)
    rule = nl.StratifiedBlocks(NEYMAN, 5)
    w = nl.apply_rule(rule, x, 2, rng_for(9))
    for s in range(HETERO.k):
        ws = w[x == s]
        e = NEYMAN.p[s, 1]
        for b in range(len(ws) // 5):
            count = ws[5 * b : 5 * (b + 1)].sum()
            assert np.floor(5 * e) <= count <= np.ceil(5 * e)


def reference_blocks(p, block, x, n_arms, rng):
    """Unit-by-unit stratified blocks: largest-remainder counts per stratum,
    one scalar Fisher-Yates shuffle per block when its first unit arrives."""
    codes = list(range(n_arms)) + [-1]
    bases = {}
    for s, row in enumerate(p):
        targets = [block * q for q in row] + [block * max(0.0, 1.0 - row.sum())]
        counts = [int(np.floor(t)) for t in targets]
        by_remainder = sorted(range(len(targets)), key=lambda c: (counts[c] - targets[c], c))
        for c in by_remainder[: block - sum(counts)]:
            counts[c] += 1
        bases[s] = [code for code, c in zip(codes, counts) for _ in range(c)]
    seen = {}
    current = {}
    w = []
    for s in x.tolist():
        pos = seen.get(s, 0)
        seen[s] = pos + 1
        if pos % block == 0:
            tmpl = list(bases[s])
            u = rng.random(block - 1)
            for j in range(block - 1, 0, -1):
                k = min(int(u[block - 1 - j] * (j + 1)), j)
                tmpl[j], tmpl[k] = tmpl[k], tmpl[j]
            current[s] = tmpl
        w.append(current[s][pos % block])
    return np.array(w, dtype=np.int64)


@st.composite
def block_cases(draw):
    k = draw(st.integers(1, 6))
    n_arms = draw(st.integers(2, 4))
    rows = []
    for _ in range(k):
        # small integer weights make exact ties in the rounding common
        weights = draw(st.lists(st.integers(0, 40), min_size=n_arms + 1,
                                max_size=n_arms + 1).filter(lambda v: sum(v[:-1]) > 0))
        leftover = draw(st.booleans())
        total = sum(weights) if leftover else sum(weights[:-1])
        rows.append([v / total for v in weights[:-1]])
    block = draw(st.integers(2, 16))
    n = draw(st.integers(0, 3000))
    seed = draw(st.integers(0, 2**32 - 1))
    limit = draw(st.integers(0, n))
    return np.array(rows), block, n_arms, n, seed, limit


@settings(max_examples=150, deadline=None)
@given(block_cases())
def test_blocks_match_scalar_reference(case):
    p, block, n_arms, n, seed, limit = case
    k = len(p)
    x = np.random.default_rng(seed).integers(0, k, size=n).astype(np.int64)
    rule = nl.StratifiedBlocks(nl.AllocationMap(p), block)
    w = nl.apply_rule(rule, x, n_arms, rng_for(seed))
    assert np.array_equal(w, reference_blocks(p, block, x, n_arms, rng_for(seed)))
    assert np.array_equal(nl.apply_rule(rule, x, n_arms, rng_for(seed), limit=limit),
                          w[:limit])
    for s in range(k):
        ws = w[x == s]
        targets = block * np.append(p[s], max(0.0, 1.0 - p[s].sum()))
        for b in range(len(ws) // block):
            chunk = ws[block * b: block * (b + 1)]
            counts = np.array([np.sum(chunk == a) for a in range(n_arms)]
                              + [np.sum(chunk == -1)])
            assert np.all(np.floor(targets) <= counts)
            assert np.all(counts <= np.ceil(targets))


def test_alternation_cycles_arms():
    x = draw_x(3, 10)
    w = nl.apply_rule(nl.DeterministicAlternation(), x, 2, rng_for(3))
    assert w.tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_full_treatment_constant():
    w = nl.apply_rule(nl.FullTreatment(0), draw_x(4, 25), 2, rng_for(4))
    assert np.all(w == 0)


def test_rule_scenario_mismatch_errors():
    x = draw_x(5, 12)
    with pytest.raises(nl.RuleScenarioMismatch):
        nl.apply_rule(nl.MatchedPairs(), x, 3, rng_for(5))
    with pytest.raises(nl.RuleScenarioMismatch):
        nl.apply_rule(nl.FullTreatment(4), x, 2, rng_for(5))


def test_stream_determinism():
    x = draw_x(6, 80)
    y_full = np.random.default_rng(3).normal(size=80)

    def observe(w_prefix):
        return y_full[: len(w_prefix)]

    for rule in all_rules():
        w1 = nl.apply_rule(rule, x, 2, rng_for(42), observe)
        w2 = nl.apply_rule(rule, x, 2, rng_for(42), observe)
        assert np.array_equal(w1, w2)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), n=st.integers(1, 400), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_truncation_is_prefix_stable(k, n, data, seed):
    # every kind assigns its first `limit` units as the full run does, and
    # reads no outcome past them
    limit = data.draw(st.integers(0, n), label="limit")
    rng = np.random.default_rng(seed)
    scenario = random_binary_scenario(rng, k=k)
    x = rng.integers(0, k, size=n).astype(np.int64)
    y_full = rng.normal(size=n)

    def observe(w_prefix):
        return y_full[: len(w_prefix)]

    def observe_prefix(w_prefix):
        assert len(w_prefix) <= limit
        return y_full[: len(w_prefix)]

    rules = all_rules(scenario)
    assert {type(rule).kind for rule in rules} == set(nl.designs.DESIGNS)
    for rule in rules:
        w_full = nl.apply_rule(rule, x, 2, rng_for(seed), observe)
        w_part = nl.apply_rule(rule, x, 2, rng_for(seed), observe_prefix, limit=limit)
        assert len(w_part) == limit
        assert np.array_equal(w_part, w_full[:limit])


def test_two_stage_converges_to_neyman_shares():
    sub = nl.least_favorable_submodel(HETERO, NEYMAN.p)
    rule = nl.TwoStageAdaptive(0.1, UNIFORM)
    log = nl.run_one(sub, 0.0, rule, 10_000, 77)
    pilot = 1000
    x, w = log.x[pilot:], log.w[pilot:]
    for s in range(HETERO.k):
        share = (w[x == s] == 1).mean()
        assert abs(share - NEYMAN.p[s, 1]) < 0.05


def test_two_stage_thin_pilot_falls_back():
    # a 2-unit pilot cannot estimate variances: post-pilot keeps the fallback
    fallback = nl.AllocationMap(np.column_stack([np.full(3, 0.9), np.full(3, 0.1)]))
    sub = nl.least_favorable_submodel(HETERO, NEYMAN.p)
    rule = nl.TwoStageAdaptive(0.001, fallback)
    log = nl.run_one(sub, 0.0, rule, 3000, 31)
    share = (log.w[2:] == 1).mean()
    assert abs(share - 0.1) < 0.03


def cells(log, scenario):
    return nl.engine.cell_table(log.x, log.w, log.y, scenario.k, scenario.n_arms)


def realized_shares(log, scenario):
    """The share of each stratum's units on each arm, and the share left
    unassigned, from the log's cells."""
    c = cells(log, scenario)
    denom = np.maximum(c.strata, 1)
    return c.count / denom[:, None], (c.strata - c.count.sum(axis=1)) / denom


def test_realized_shares_full_treatment():
    sub = nl.least_favorable_submodel(HETERO, NEYMAN.p)
    log = nl.run_one(sub, 0.0, nl.FullTreatment(1), 10, 5)
    shares, unassigned = realized_shares(log, HETERO)
    present = np.bincount(log.x, minlength=3) > 0
    assert np.all(shares[present, 1] == 1.0)
    assert np.all(unassigned == 0.0)


def test_realized_shares_iid_mc():
    sub = nl.least_favorable_submodel(HETERO, np.full((3, 2), 0.5))
    log = nl.run_one(sub, 0.0, nl.IidPropensity(UNIFORM), 10_000, 6)
    shares, _ = realized_shares(log, HETERO)
    assert np.all(np.abs(shares[:, 1] - 0.5) < 0.02)


def test_realized_usage_against_budget():
    sc = shipped_scenario("solve_budget")
    alloc = nl.solve_constrained(sc)
    sub = nl.least_favorable_submodel(sc, alloc.p)
    log = nl.run_one(sub, 0.0, nl.IidPropensity(alloc), 20_000, 8)
    usage = np.einsum("xwr,xw->r", sc.constraint.r, cells(log, sc).count) / log.n
    assert usage.shape == (1,)
    assert abs(usage[0] - 0.3) < 0.01


def test_partial_assignment_leaves_minus_one():
    half = nl.AllocationMap(NEYMAN.p / 2)
    x = draw_x(11, 2000)
    w = nl.apply_rule(nl.IidPropensity(half), x, 2, rng_for(11))
    frac = (w == -1).mean()
    assert 0.4 < frac < 0.6
