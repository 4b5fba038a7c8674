"""Assignment rules: exactness invariants, the prefix property, realized shares."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neymanlab as nl
from conftest import random_binary_scenario, replication, shipped_scenario
from neymanlab.designs import Strata
from neymanlab.engine import Draw

HETERO = shipped_scenario("risk_hetero")
NEYMAN = nl.neyman_allocation(HETERO)
UNIFORM = nl.AllocationMap(np.full((3, 2), 0.5))


def rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def draw_x(seed, n, scenario=HETERO):
    g = np.random.default_rng(seed)
    return g.choice(scenario.k, size=n, p=scenario.covariates.probs).astype(np.int64)


def assign_at(rule, x, k, u, observe=None, n=None, n_arms=2):
    """Every row's arms from a run of size n (all of x by default): the
    kernel on the first n units of each row's strata."""
    return nl.designs.assign_block(rule, Strata(x[:, :n], k), n_arms, u, observe)


def one_row(rule, x, seed, k=HETERO.k, n_arms=2, observe=None):
    """Arms of the one experiment with strata ``x``, on the uniforms of
    ``rng_for(seed)``; ``observe`` maps a (1, m) block of assignments to
    their outcomes."""
    u = rng_for(seed).random((1, rule.uniforms_read(len(x), k)))
    return assign_at(rule, x[None], k, u, observe, n_arms=n_arms)[0]


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
    w = one_row(nl.IidPropensity(alloc), draw_x(1, 50), 1)
    assert np.all(w == 1)


def test_matched_pairs_pair_invariant():
    x = np.zeros(2, dtype=np.int64)
    for seed in range(40):
        w = one_row(nl.MatchedPairs(), x, seed)
        assert sorted(w.tolist()) == [0, 1]


def test_matched_pairs_full_log_scan():
    x = draw_x(7, 501)
    w = one_row(nl.MatchedPairs(), x, 7)
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
        w = one_row(nl.StratifiedBlocks(alloc, 4), x, seed)
        assert w.sum() == 2


def test_blocks_counts_within_floor_ceil():
    x = draw_x(9, 600)
    rule = nl.StratifiedBlocks(NEYMAN, 5)
    w = one_row(rule, x, 9)
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
    w = one_row(rule, x, seed, k, n_arms)
    assert np.array_equal(w, reference_blocks(p, block, x, n_arms, rng_for(seed)))
    # the kernel on the first `limit` units of n assigns them as the full run does
    u = rng_for(seed).random((1, rule.uniforms_read(n, k)))
    assert np.array_equal(rule.kernel(Strata(x[None, :limit], k), n_arms, u, None, n)[0],
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
    w = one_row(nl.DeterministicAlternation(), x, 3)
    assert w.tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_full_treatment_constant():
    w = one_row(nl.FullTreatment(0), draw_x(4, 25), 4)
    assert np.all(w == 0)


def test_rule_scenario_mismatch_errors():
    x = draw_x(5, 12)
    with pytest.raises(nl.RuleScenarioMismatch):
        one_row(nl.MatchedPairs(), x, 5, n_arms=3)
    with pytest.raises(nl.RuleScenarioMismatch):
        one_row(nl.FullTreatment(4), x, 5)


def test_stream_determinism():
    x = draw_x(6, 80)
    y_full = np.random.default_rng(3).normal(size=(1, 80))

    def observe(w_prefix):
        return y_full[:, : w_prefix.shape[-1]]

    for rule in all_rules():
        w1 = one_row(rule, x, 42, observe=observe)
        w2 = one_row(rule, x, 42, observe=observe)
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
    y_full = rng.normal(size=(1, n))

    def observe(w_prefix):
        return y_full[:, : w_prefix.shape[-1]]

    def observe_prefix(w_prefix):
        assert w_prefix.shape[-1] <= limit
        return observe(w_prefix)

    rules = all_rules(scenario)
    assert {type(rule).kind for rule in rules} == set(nl.designs.DESIGNS)
    for rule in rules:
        w_full = one_row(rule, x, seed, k, observe=observe)
        # the kernel on the first `limit` units of n, as a truncated run sees them
        u = rng_for(seed).random((1, rule.uniforms_read(n, k)))
        w_part = rule.kernel(Strata(x[None, :limit], k), 2, u, observe_prefix, n)[0]
        assert len(w_part) == limit
        assert np.array_equal(w_part, w_full[:limit])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), n_max=st.integers(1, 400), rows=st.integers(1, 3), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_rules_that_do_not_read_n_assign_prefixes(k, n_max, rows, data, seed):
    # a kind that declares its assignments free of n assigns the first n
    # units of a run of size n_max as a run of size n does, so a study may
    # assign it once, at its largest n
    n = data.draw(st.integers(1, n_max), label="n")
    rng = np.random.default_rng(seed)
    scenario = random_binary_scenario(rng, k=k)
    x = rng.integers(0, k, size=(rows, n_max)).astype(np.int64)
    y_full = rng.normal(size=(rows, n_max))
    observe = lambda w: y_full[:, : w.shape[-1]]  # noqa: E731
    rules = all_rules(scenario)
    assert {type(rule).kind for rule in rules} == set(nl.designs.DESIGNS)
    for rule in rules:
        if rule.reads_n:
            continue
        u = rng_for(seed).random((rows, rule.uniforms_read(n_max, k)))
        assert np.array_equal(assign_at(rule, x, k, u, observe, n),
                              assign_at(rule, x, k, u, observe, n_max)[:, :n])


def test_two_stage_reads_n():
    # the one kind that declares it reads n: its pilot is the first
    # floor(f n) units, so the first 200 units of a 2000-unit run (all
    # pilot, under the uniform fallback) are not the 200-unit run (60 pilot
    # units, then plug-in shares near 10/11 for arm 1, whose outcomes have
    # ten times the spread of arm 0's)
    kinds = {kind for kind, cls in nl.designs.DESIGNS.items() if cls.reads_n}
    assert kinds == {"two_stage"}
    x = draw_x(5, 2000)[None]
    z = np.random.default_rng(5).normal(size=(1, 2000))
    observe = lambda w: z[:, : w.shape[-1]] * np.where(w == 1, 10.0, 1.0)  # noqa: E731
    rule = nl.TwoStageAdaptive(0.3, UNIFORM)
    u = rng_for(5).random((1, 2000))
    assert not np.array_equal(assign_at(rule, x, 3, u, observe, 200),
                              assign_at(rule, x, 3, u, observe, 2000)[:, :200])


def test_two_stage_converges_to_neyman_shares():
    sub = nl.least_favorable_submodel(HETERO, NEYMAN.p)
    rule = nl.TwoStageAdaptive(0.1, UNIFORM)
    x, w, _ = replication(sub, 0.0, rule, 10_000, 77)
    pilot = 1000
    x, w = x[pilot:], w[pilot:]
    for s in range(HETERO.k):
        share = (w[x == s] == 1).mean()
        assert abs(share - NEYMAN.p[s, 1]) < 0.05


def test_two_stage_thin_pilot_falls_back():
    # a 2-unit pilot cannot estimate variances: post-pilot keeps the fallback
    fallback = nl.AllocationMap(np.column_stack([np.full(3, 0.9), np.full(3, 0.1)]))
    sub = nl.least_favorable_submodel(HETERO, NEYMAN.p)
    rule = nl.TwoStageAdaptive(0.001, fallback)
    _, w, _ = replication(sub, 0.0, rule, 3000, 31)
    share = (w[2:] == 1).mean()
    assert abs(share - 0.1) < 0.03



def reference_iid(p, x, u):
    """Unit by unit: arms in index order, leftover mass -> -1."""
    w = []
    for s, v in zip(x.tolist(), u.tolist()):
        cum = np.cumsum(p[s])
        if p[s].sum() >= 1.0 - 1e-12:
            cum[-1] = 1.0
        arm = int(np.sum(v >= cum))
        w.append(-1 if arm == len(cum) else arm)
    return np.array(w, dtype=np.int64)


def reference_pilot_neyman(x_pilot, w_pilot, y_pilot, k):
    """Per-stratum plug-in shares from one row's pilot; NaN marks fallback strata."""
    ehat = np.full(k, np.nan)
    for s in range(k):
        in_s = x_pilot == s
        y0 = y_pilot[in_s & (w_pilot == 0)]
        y1 = y_pilot[in_s & (w_pilot == 1)]
        if len(y0) < 2 or len(y1) < 2:
            continue
        s0 = float(np.sqrt(np.var(y0, ddof=1)))
        s1 = float(np.sqrt(np.var(y1, ddof=1)))
        if s0 + s1 == 0:
            ehat[s] = 0.5
        else:
            ehat[s] = float(np.clip(s1 / (s0 + s1), nl.CLIP_EPS, 1.0 - nl.CLIP_EPS))
    return ehat


def reference_two_stage(rule, x, u, observe_row, n):
    """The two-stage rule row by row: each row's pilot under the fallback,
    one observe call per row, per-stratum variances by ``np.var``, then the
    rest under the plug-in shares, or the whole fallback row where a pilot
    arm has fewer than two units."""
    fallback = rule.fallback.p
    rows, m = x.shape
    n_pilot = min(n, max(1, int(np.floor(rule.pilot_fraction * n))))
    out = np.empty((rows, m), dtype=np.int64)
    for r in range(rows):
        pilot = x[r, :n_pilot]
        w = reference_iid(fallback, pilot, u[r, :len(pilot)])
        out[r, :len(pilot)] = w
        if m <= n_pilot:
            continue
        ehat = reference_pilot_neyman(pilot, w, np.asarray(observe_row(w, r), dtype=float),
                                      len(fallback))
        p_post = np.where(np.isnan(ehat)[:, None], fallback, np.column_stack([1.0 - ehat, ehat]))
        out[r, n_pilot:] = reference_iid(p_post, x[r, n_pilot:], u[r, n_pilot:m])
    return out


@st.composite
def two_stage_cases(draw):
    k = draw(st.integers(1, 4))
    fallback = []
    for _ in range(k):
        # arms that are rarely or never drawn make thin pilots; a leftover
        # weight makes unassigned units
        weights = draw(st.lists(st.sampled_from([0, 1, 3, 10, 30]), min_size=3, max_size=3)
                       .filter(lambda v: sum(v) > 0))
        fallback.append([v / sum(weights) for v in weights[:2]])
    # per stratum, at most one arm whose outcomes are all equal
    flat = draw(st.lists(st.sampled_from([None, 0, 1]), min_size=k, max_size=k))
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(1, 300))
    limit = draw(st.integers(0, n))
    pilot = draw(st.sampled_from([0.005, 0.05, 0.2, 0.5, 0.9]))
    return k, np.array(fallback), flat, rows, n, limit, pilot, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(two_stage_cases())
@example((2, np.array([[0.3, 0.4], [0.02, 0.5]]), [None, 0], 3, 300, 300, 0.3, 1))  # leftover
@example((3, np.full((3, 2), 0.5), [None, 1, None], 2, 200, 200, 0.005, 2))  # thin pilot
@example((2, np.full((2, 2), 0.5), [None, None], 2, 100, 20, 0.5, 3))  # m <= n_pilot
def test_two_stage_matches_per_row_reference(case):
    k, fallback, flat, rows, n, limit, pilot, seed = case
    rng = np.random.default_rng(seed)
    x = rng.integers(0, k, size=(rows, n))
    u = rng.random((rows, n))
    mu = rng.normal(0.0, 2.0, (k, 2)).round(1)  # decimals: a flat cell's mean may not round back
    sd = rng.uniform(0.1, 2.0, (k, 2))
    for s, arm in enumerate(flat):
        if arm is not None:
            sd[s, arm] = 0.0
    z = rng.normal(size=(rows, n))

    def outcomes(w, x, z):
        arm = np.maximum(w, 0)
        return np.where(w >= 0, mu[x, arm] + sd[x, arm] * z, 0.0)

    def observe(w):
        return outcomes(w, x[:, :w.shape[-1]], z[:, :w.shape[-1]])

    def observe_row(w, r):
        return outcomes(w, x[r, :len(w)], z[r, :len(w)])

    rule = nl.TwoStageAdaptive(pilot, nl.AllocationMap(fallback))
    got = rule.kernel(Strata(x[:, :limit], k), 2, u, observe, n)
    assert np.array_equal(got, reference_two_stage(rule, x[:, :limit], u, observe_row, n))


def test_two_stage_thin_stratum_keeps_its_leftover_mass():
    # arm 0 is never drawn in stratum 1, so its pilot is thin: the rest of
    # its units keep the fallback row [0, 0.5], half of them unassigned
    fallback = nl.AllocationMap(np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.5]]))
    sub = nl.least_favorable_submodel(HETERO, NEYMAN.p)
    x, w, _ = replication(sub, 0.0, nl.TwoStageAdaptive(0.2, fallback), 5000, 12)
    w = w[1000:][x[1000:] == 1]
    assert not np.any(w == 0)
    assert abs((w == -1).mean() - 0.5) < 0.05


def test_two_stage_flat_stratum_splits_evenly():
    # both arms of stratum 0 have zero variance: its pilot outcomes are all
    # equal per arm, so it takes 1/2, not a share made of rounding noise
    law = nl.CovariateLaw(["a", "b"], np.array([0.5, 0.5]))
    sc = nl.Scenario(law, nl.OutcomeModel(np.array([[0.1, 0.3], [0.0, 1.0]]),
                                          np.array([[0.0, 0.0], [1.0, 4.0]])),
                     nl.TreatmentFunctional.ate(2))
    sub = nl.least_favorable_submodel(sc, np.full((2, 2), 0.5))
    for seed in range(6):
        x, w, _ = replication(sub, 0.0, nl.TwoStageAdaptive(0.2, nl.AllocationMap(
            np.full((2, 2), 0.5))), 2000, seed)
        w = w[400:][x[400:] == 0]
        assert abs((w == 1).mean() - 0.5) < 0.08, seed


def cells(sub, rule, n, seed):
    """The cells of one replication under ``rule``, as a study reads them."""
    [c] = Draw(sub, 0.0, n, [seed], rule.uniforms_read(n, sub.base.k)).cells(rule, [n])
    return c.n, c.count[0], c.strata[0]


def realized_shares(sub, rule, n, seed):
    """The share of each stratum's units on each arm, and the share left
    unassigned, from the replication's cells."""
    _, count, strata = cells(sub, rule, n, seed)
    denom = np.maximum(strata, 1)
    return count / denom[:, None], (strata - count.sum(axis=1)) / denom


def test_realized_shares_full_treatment():
    sub = nl.least_favorable_submodel(HETERO, NEYMAN.p)
    shares, unassigned = realized_shares(sub, nl.FullTreatment(1), 10, 5)
    x, _, _ = replication(sub, 0.0, nl.FullTreatment(1), 10, 5)
    present = np.bincount(x, minlength=3) > 0
    assert np.all(shares[present, 1] == 1.0)
    assert np.all(unassigned == 0.0)


def test_realized_shares_iid_mc():
    sub = nl.least_favorable_submodel(HETERO, np.full((3, 2), 0.5))
    shares, _ = realized_shares(sub, nl.IidPropensity(UNIFORM), 10_000, 6)
    assert np.all(np.abs(shares[:, 1] - 0.5) < 0.02)


def test_realized_usage_against_budget():
    sc = shipped_scenario("solve_budget")
    alloc = nl.solve_constrained(sc)
    sub = nl.least_favorable_submodel(sc, alloc.p)
    n, count, _ = cells(sub, nl.IidPropensity(alloc), 20_000, 8)
    usage = np.einsum("xwr,xw->r", sc.constraint.r, count) / n
    assert usage.shape == (1,)
    assert abs(usage[0] - 0.3) < 0.01


def test_partial_assignment_leaves_minus_one():
    half = nl.AllocationMap(NEYMAN.p / 2)
    x = draw_x(11, 2000)
    w = one_row(nl.IidPropensity(half), x, 11)
    frac = (w == -1).mean()
    assert 0.4 < frac < 0.6
