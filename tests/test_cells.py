"""Cell-table maths against per-unit reference formulas.

Every estimator and the likelihood-ratio terms read a replication only
through its (stratum, arm) cell table.  The references below walk the
replication's units one by one, the way the definitions read.  Random
scenarios with up to five strata, unassigned units (w = -1) and, for the
oracle AIPW, three arms must give the same numbers to 1e-12 of the size of
the summed terms, and the same ``EmptyArm`` raises.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neymanlab as nl
from conftest import CellColumns, fresh_stream, ref_cells, ref_lr_terms, replication
from neymanlab.engine import BLOCK_UNITS, Draw, chunk_stats, rep_seeds
from neymanlab.lan import LrTerms, _augment, _augment_normals

REL = 1e-12


@st.composite
def cell_cases(draw):
    k = draw(st.integers(1, 5))
    n_arms = draw(st.integers(2, 3))
    n = draw(st.integers(1, 60))
    unassigned = draw(st.sampled_from([0.0, 0.2, 1.0]))
    theta = draw(st.sampled_from([0.0, 0.4]))
    seed = draw(st.integers(0, 2**32 - 1))
    return k, n_arms, n, unassigned, theta, seed


def make_case(k, n_arms, unassigned, seed):
    """A random scenario, an estimator allocation, a submodel, and an iid
    design that leaves a share ``unassigned`` of each stratum's mass out."""
    g = np.random.default_rng(seed)
    raw = g.uniform(0.2, 1.0, k)
    p = g.uniform(0.05, 1.0, (k, n_arms))
    p *= g.uniform(0.6, 1.0, (k, 1)) / p.sum(axis=1, keepdims=True)  # leftover mass
    a = g.normal(0.0, 1.5, (k, n_arms)) * (g.random((k, n_arms)) < 0.8)  # some inactive
    scenario = nl.Scenario(
        nl.CovariateLaw([f"s{i}" for i in range(k)], raw / raw.sum()),
        nl.OutcomeModel(g.normal(0.0, 2.0, (k, n_arms)), g.uniform(0.1, 4.0, (k, n_arms))),
        nl.TreatmentFunctional(a, g.normal(0.0, 1.0, (k, n_arms))),
    )
    c_shift = g.normal(0.0, 1.0, (k, n_arms)) * (g.random((k, n_arms)) < 0.7)
    sub = nl.Submodel(scenario, g.normal(0.0, 1.0, k), c_shift)
    shares = g.uniform(0.05, 1.0, (k, n_arms))
    design = nl.AllocationMap(shares * (1.0 - unassigned) / shares.sum(axis=1, keepdims=True))
    return scenario, nl.AllocationMap(p), sub, nl.IidPropensity(design)


def units(rep, arm=None):
    """(x, y) of the units assigned ``arm`` (any arm when None), in order."""
    x, w, y = rep
    return [(xi, yi) for xi, wi, yi in zip(x.tolist(), w.tolist(), y.tolist())
            if (wi >= 0 if arm is None else wi == arm)]


def ref_diff_means(rep):
    t, c = units(rep, 1), units(rep, 0)
    if not t or not c:
        raise nl.EmptyArm("reference")
    return sum(y for _, y in t) / len(t) - sum(y for _, y in c) / len(c), 1.0


def ref_ipw_ht(rep, e):
    n = len(rep[0])
    terms = [y / e[x] for x, y in units(rep, 1)] + [-y / (1 - e[x]) for x, y in units(rep, 0)]
    return sum(terms) / n, sum(map(abs, terms)) / n


def ref_ipw_hajek(rep, e):
    t, c = units(rep, 1), units(rep, 0)
    if not t or not c:
        raise nl.EmptyArm("reference")
    mean_t = sum(y / e[x] for x, y in t) / sum(1 / e[x] for x, _ in t)
    mean_c = sum(y / (1 - e[x]) for x, y in c) / sum(1 / (1 - e[x]) for x, _ in c)
    return mean_t - mean_c, 1.0


def ref_aipw_oracle(rep, scenario, p):
    x, w, y = rep
    a, b, mu_t = scenario.functional.a_tilde, scenario.functional.b_tilde, scenario.mu_tilde
    terms = []
    for xi, wi, yi in zip(x.tolist(), w.tolist(), y.tolist()):
        terms.append(sum(mu_t[xi]))
        if wi >= 0 and a[xi, wi] != 0:
            terms.append((a[xi, wi] * yi + b[xi, wi] - mu_t[xi, wi]) / p[xi, wi])
    return sum(terms) / len(x), sum(map(abs, terms)) / len(x)


def ref_stratified_means(rep):
    x = rep[0]
    total = 0.0
    for s in sorted(set(x.tolist())):
        t = [y for xi, y in units(rep, 1) if xi == s]
        c = [y for xi, y in units(rep, 0) if xi == s]
        if not t or not c:
            raise nl.EmptyArm("reference")
        total += (x == s).sum() / len(x) * (sum(t) / len(t) - sum(c) / len(c))
    return total, 1.0


def agree(got_fn, want_fn):
    """Same value to REL of the summed magnitude, or the same EmptyArm."""
    try:
        want, size = want_fn()
    except nl.EmptyArm:
        with pytest.raises(nl.EmptyArm):
            got_fn()
        return
    got = got_fn()
    assert abs(got - want) <= REL * max(1.0, size, abs(want)), (got, want)


@settings(max_examples=200, deadline=None)
@given(cell_cases())
def test_cell_code_matches_per_unit_reference(case):
    k, n_arms, n, unassigned, theta, seed = case
    scenario, alloc, sub, rule = make_case(k, n_arms, unassigned, seed)
    rep = replication(sub, theta, rule, n, seed)

    def study(stat):
        """The statistic's row of a one-replication study."""
        return chunk_stats(sub, theta, [n], [(rule, [stat])], [seed])[0]

    # diff_means and stratified_means read arms 0 and 1 and ignore any others
    agree(lambda: study(nl.DiffMeans())[0], lambda: ref_diff_means(rep))
    agree(lambda: study(nl.StratifiedMeans())[0], lambda: ref_stratified_means(rep))
    aipw = nl.AipwOracle(scenario, alloc)
    agree(lambda: study(aipw)[0], lambda: ref_aipw_oracle(rep, scenario, alloc.p))
    if alloc.p.shape[1] == 2:
        e = alloc.p[:, 1]
        agree(lambda: study(nl.IpwHT(alloc))[0], lambda: ref_ipw_ht(rep, e))
        agree(lambda: study(nl.IpwHajek(alloc))[0], lambda: ref_ipw_hajek(rep, e))
    for h in (0.0, 1.3):
        ell, info = study(LrTerms(sub, h))
        ref = ref_lr_terms(sub, *rep, h)
        for name, got in (("ell", ell), ("info_tilde_n", info)):
            want, size = ref[name]
            assert abs(got - want) <= REL * max(1.0, size), (name, got, want)


# ----------------------------------------------------------------------
# Row-block invariance: a study simulates its replications in blocks of
# rows; every row must equal, bit for bit, the replication drawn alone,
# and numpy's own streams and the per-unit references.
# ----------------------------------------------------------------------


@st.composite
def block_cases(draw):
    k = draw(st.integers(1, 40))
    n_arms = draw(st.integers(2, 3))
    # above BLOCK_UNITS // 2 a study's block holds a single row
    n = draw(st.integers(1, 2999) | st.integers(BLOCK_UNITS // 2 + 1, BLOCK_UNITS))
    block = draw(st.integers(2, 16))
    reps = draw(st.integers(1, 6))
    cuts = sorted(draw(st.sets(st.integers(1, max(1, reps - 1)), max_size=reps - 1)))
    theta = draw(st.sampled_from([0.0, 0.4]))
    seed = draw(st.integers(0, 2**32 - 1))
    return k, n_arms, n, block, reps, [c for c in cuts if c < reps], theta, seed


def block_scenario(k, n_arms, seed):
    g = np.random.default_rng(seed)
    raw = g.uniform(0.2, 1.0, k)
    p = g.uniform(0.05, 1.0, (k, n_arms))
    p *= g.uniform(0.6, 1.0, (k, 1)) / p.sum(axis=1, keepdims=True)  # leftover mass
    full = g.random(k) < 0.3  # and some rows assign everyone
    p[full] /= p[full].sum(axis=1, keepdims=True)
    alloc = nl.AllocationMap(p)
    a = g.normal(0.0, 1.5, (k, n_arms)) * (g.random((k, n_arms)) < 0.8)
    scenario = nl.Scenario(
        nl.CovariateLaw([f"s{i}" for i in range(k)], raw / raw.sum()),
        nl.OutcomeModel(g.normal(0.0, 2.0, (k, n_arms)), g.uniform(0.1, 4.0, (k, n_arms))),
        nl.TreatmentFunctional(a, g.normal(0.0, 1.0, (k, n_arms))),
    )
    c_shift = g.normal(0.0, 1.0, (k, n_arms)) * (g.random((k, n_arms)) < 0.7)
    return scenario, alloc, nl.Submodel(scenario, g.normal(0.0, 1.0, k), c_shift)


def same_or_empty_arm(block_fn, row_fns):
    """The block's values equal each row's bit for bit; the block raises
    EmptyArm exactly when some row does."""
    row_values = []
    for fn in row_fns:
        try:
            row_values.append(fn())
        except nl.EmptyArm:
            row_values.append(None)
    if any(v is None for v in row_values):
        with pytest.raises(nl.EmptyArm):
            block_fn()
        return
    assert np.array_equal(block_fn(), np.concatenate(row_values))


@settings(max_examples=120, deadline=None)
@given(block_cases())
def test_row_blocks_match_one_row_path(case):
    k, n_arms, n, block, reps, cuts, theta, seed = case
    scenario, alloc, sub = block_scenario(k, n_arms, seed)
    rules = [nl.IidPropensity(alloc), nl.StratifiedBlocks(alloc, block),
             nl.DeterministicAlternation(), nl.FullTreatment(seed % n_arms)]
    estimators = [nl.AipwOracle(scenario, alloc), nl.DiffMeans(), nl.StratifiedMeans()]
    if n_arms == 2:
        fallback = nl.AllocationMap(np.full((k, 2), 0.5))
        rules += [nl.MatchedPairs(), nl.TwoStageAdaptive(0.3, fallback)]
        estimators += [nl.IpwHT(alloc), nl.IpwHajek(alloc)]
    seeds = rep_seeds(seed, reps)
    n_uniforms = max(rule.uniforms_read(n, k) for rule in rules)
    cum = np.cumsum(sub.tilted_probs(theta))
    cum[-1] = 1.0
    mu, sd = sub.shifted_mu(theta), np.sqrt(sub.base.outcomes.sigma2)
    terms, h, i_star = LrTerms(sub, 1.3), 1.3, 1e6
    for a, b in zip([0] + cuts, cuts + [reps]):
        draw = Draw(sub, theta, n, seeds[a:b], n_uniforms)
        alone = [Draw(sub, theta, n, [s], n_uniforms) for s in draw.seeds]
        z = _augment_normals(draw.seeds)
        noise = []
        for r, s in enumerate(draw.seeds):  # numpy's own streams of each seed
            u = fresh_stream(s, "covariates").random(n)
            assert np.array_equal(draw.x[r], np.searchsorted(cum, u, side="right"))
            assert np.array_equal(draw.uniforms[r], fresh_stream(s, "design").random(n_uniforms))
            assert z[r] == fresh_stream(s, "augment").standard_normal()
            noise.append(fresh_stream(s, "outcomes").standard_normal(n))
        for rule in rules:
            w = draw.assign(rule)
            y = draw.materialize(w)
            [cells] = draw.cells(rule, [n])
            alone_cells = [one.cells(rule, [n])[0] for one in alone]
            for r, (one, one_cells) in enumerate(zip(alone, alone_cells)):
                one_w = one.assign(rule)
                assert np.array_equal(w[r], one_w[0])
                # outcomes and totals by bytes: -0.0 == 0.0, but they print apart
                assert y[r].tobytes() == one.materialize(one_w)[0].tobytes()
                x, arm = draw.x[r], np.maximum(w[r], 0)
                want = np.where(w[r] >= 0, mu[x, arm] + sd[x, arm] * noise[r], 0.0)
                assert y[r].tobytes() == want.tobytes()
                for got, ref in zip((cells.count, cells.total, cells.strata),
                                    ref_cells(x, w[r], y[r], k, n_arms)):
                    assert got[r].tobytes() == ref.tobytes()
                for field in ("count", "total", "strata"):
                    assert (getattr(cells, field)[r].tobytes()
                            == getattr(one_cells, field)[0].tobytes())
            for est in estimators:
                same_or_empty_arm(lambda: est.from_cells(cells),
                                  [lambda c=c: est.from_cells(c) for c in alone_cells])
            rows = terms.from_cells(cells)
            assert np.array_equal(rows, np.vstack([terms.from_cells(c) for c in alone_cells]))
            padded = _augment(h, i_star, *rows.T, z, rule.kind)
            for r, c in enumerate(alone_cells):
                one = _augment(h, i_star, *terms.from_cells(c).T, z[r: r + 1], rule.kind)
                assert padded[0][r] == one[0][0] and padded[1][r] == one[1][0]


# ----------------------------------------------------------------------
# Groups of blocks: a chunk's statistics, estimators or LR terms, run once
# per group of draw blocks, and chunks differ between --jobs settings, so a
# seed list split anywhere must give the same rows as the list passed whole.
# ----------------------------------------------------------------------


@st.composite
def chunk_cases(draw):
    k = draw(st.sampled_from([1, 3, 40]))
    n_arms = draw(st.integers(2, 3))
    # At K = 40 a group's cap is BLOCK_UNITS // 120 rows with two arms,
    # BLOCK_UNITS // 160 with three.  At n <= BLOCK_UNITS // 300 a block holds
    # at least 300 rows, more than that cap, so every group is one block, and
    # up to 400 seeds span two blocks; at n = BLOCK_UNITS // 130 .. BLOCK_UNITS
    # // 80 a block holds 80-130 rows and a group 1-3 blocks.  Up to four
    # blocks' worth of seeds split a chunk into groups.
    n = draw(st.integers(1, BLOCK_UNITS // 300)
             | st.integers(BLOCK_UNITS // 130, BLOCK_UNITS // 80))
    reps = draw(st.integers(2, min(400, 4 * (BLOCK_UNITS // n))))
    cuts = sorted(draw(st.sets(st.integers(1, reps - 1), max_size=4)))
    block = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    return k, n_arms, n, reps, cuts, block, seed


def split_like_whole(fn, seeds, cuts, error):
    """fn on the whole seed list equals, bit for bit, fn stacked over the
    parts that ``cuts`` gives; the whole raises ``error`` exactly when a
    part does."""
    parts = lambda: np.vstack([fn(seeds[a:b]) for a, b in  # noqa: E731
                               zip([0] + cuts, cuts + [len(seeds)])])
    try:
        whole = fn(seeds)
    except error:
        with pytest.raises(error):
            parts()
        return
    assert np.array_equal(parts(), whole)


def padded_lan_rows(sub, rules, h, n, i_star, augment, seeds):
    """A lan study's rows: each rule's (ell, info) from the chunk, padded to
    ``i_star`` by each seed's augmentation normal if ``augment``."""
    rows = chunk_stats(sub, 0.0, [n], [(rule, [LrTerms(sub, h)]) for rule in rules], seeds)
    assert rows.shape == (len(seeds), 2 * len(rules))
    if not augment:
        return rows
    z = _augment_normals(seeds)
    cols = []
    for j in range(len(rules)):
        ell, info = _augment(h, i_star, *rows[:, 2 * j: 2 * j + 2].T, z, f"designs[{j}]")
        cols += [ell, info]
    return np.column_stack(cols)


@settings(max_examples=40, deadline=None)
@given(chunk_cases())
@example((40, 2, BLOCK_UNITS // 327, 400, [5, 330], 8, 11))  # one-block groups, 2 blocks
@example((40, 2, 300, 400, [60, 61], 3, 12))  # 2-block groups
def test_cell_groups_match_whole_chunk(case):
    k, n_arms, n, reps, cuts, block, seed = case
    scenario, alloc, sub = block_scenario(k, n_arms, seed)
    rules = [nl.IidPropensity(alloc), nl.StratifiedBlocks(alloc, block),
             nl.DeterministicAlternation()]
    steady = [nl.AipwOracle(scenario, alloc)]  # never raises
    if n_arms == 2:
        rules.append(nl.MatchedPairs())
        steady.append(nl.IpwHT(alloc))
    seeds = rep_seeds(seed, reps)
    theta = 0.4 if seed % 2 else 0.0
    for ests in (steady, [nl.DiffMeans()], [nl.StratifiedMeans()]):
        designs = [(rule, ests) for rule in rules]
        split_like_whole(lambda s: chunk_stats(sub, theta, [n], designs, s), seeds, cuts,
                         nl.EmptyArm)
    i_x, i_cond = nl.informations(sub)
    h = 1.3
    # a target that some logs' realized information exceeds, and one none does
    for i_star in (i_x + 0.5 * float(i_cond.max()), 1e6):
        for augment in (False, True):
            split_like_whole(lambda s: padded_lan_rows(sub, rules, h, n, i_star, augment, s),
                             seeds, cuts, nl.InfoExceedsTarget)


@settings(max_examples=25, deadline=None)
@given(chunk_cases())
def test_statistics_share_one_chunk(case):
    """Estimators and LR terms mixed in one call give each statistic's
    columns in order, each equal bit for bit to the statistic alone."""
    k, n_arms, n, reps, _, block, seed = case
    scenario, alloc, sub = block_scenario(k, n_arms, seed)
    rules = [nl.IidPropensity(alloc), nl.StratifiedBlocks(alloc, block)]
    terms = LrTerms(sub, 1.3)
    designs = [(rules[0], [nl.AipwOracle(scenario, alloc), terms]),
               (rules[1], [terms, nl.AipwOracle(scenario, alloc), terms])]
    seeds = rep_seeds(seed, reps)
    rows = chunk_stats(sub, 0.0, [n], designs, seeds)
    alone = [chunk_stats(sub, 0.0, [n], [(rule, [stat])], seeds)
             for rule, stats in designs for stat in stats]
    assert rows.shape == (reps, 1 + 2 + 2 + 1 + 2)  # an estimate is one column, LR terms two
    assert np.array_equal(rows, np.hstack(alone))


@pytest.mark.parametrize("n", [100, 2000])
def test_cell_groups_respect_the_cap(monkeypatch, n):
    """At K = 200 a group's cells are capped: an estimator never sees more
    rows than one block holds or BLOCK_UNITS // (K (n_arms + 1)), whichever
    is larger, and a group's tables across several sizes stay within that
    bound times the number of sizes."""
    k, n_arms = 200, 2
    scenario, alloc, sub = block_scenario(k, n_arms, 7)
    seen = []
    from_cells = nl.AipwOracle.from_cells

    def spy(self, c):
        seen.append(c.count.shape[0])
        return from_cells(self, c)

    monkeypatch.setattr(nl.AipwOracle, "from_cells", spy)
    reps = 70
    seeds = rep_seeds(3, reps)
    designs = [(nl.IidPropensity(alloc), [nl.AipwOracle(scenario, alloc)])]
    chunk_stats(sub, 0.0, [n], designs, seeds)
    assert sum(seen) == reps
    assert max(seen) <= max(BLOCK_UNITS // n, BLOCK_UNITS // (k * (n_arms + 1)))
    sizes = [n // 4, n // 2, n]
    seen.clear()
    chunk_stats(sub, 0.0, sizes, designs, seeds)
    assert sum(seen) == len(sizes) * reps
    assert max(seen) * len(sizes) <= max(len(sizes) * (BLOCK_UNITS // n),
                                         BLOCK_UNITS // (k * (n_arms + 1)))


# ----------------------------------------------------------------------
# One pass over sizes: a study draws each replication once, at its largest
# n, and reads every size's cells from the first n units of that draw, so
# each size's columns must be the ones a study of that size alone gives,
# byte for byte, in this process and across pool workers.
# ----------------------------------------------------------------------


class NFreeTwoStage(nl.TwoStageAdaptive):
    """``two_stage`` declaring, wrongly, that its assignments do not read n."""

    reads_n = False


@st.composite
def size_cases(draw):
    k = draw(st.sampled_from([1, 2, 5, 200]))
    # up to 600 units, blocks of 54 rows or more: every chunk is one block;
    # from BLOCK_UNITS // 6, blocks of 2-6 rows: a chunk spans several
    n_max = draw(st.integers(2, 600) | st.integers(BLOCK_UNITS // 6, BLOCK_UNITS // 2))
    smaller = draw(st.lists(st.integers(1, n_max - 1), unique=True, max_size=3))
    reps = draw(st.integers(2, 12))
    block = draw(st.integers(2, 8))
    theta = draw(st.sampled_from([0.0, 0.4]))
    seed = draw(st.integers(0, 2**32 - 1))
    return k, sorted(smaller) + [n_max], reps, block, theta, seed


def size_designs(k, block, seed, two_stage=nl.TwoStageAdaptive):
    """A two-arm scenario's submodel and one design of every registered kind,
    each with the cell table as its statistic."""
    scenario, alloc, sub = block_scenario(k, 2, seed)
    rules = [nl.IidPropensity(alloc), nl.StratifiedBlocks(alloc, block), nl.MatchedPairs(),
             two_stage(0.3, nl.AllocationMap(np.full((k, 2), 0.5))),
             nl.DeterministicAlternation(), nl.FullTreatment(seed % 2)]
    assert {rule.kind for rule in rules} == set(nl.designs.DESIGNS)
    return sub, [(rule, [CellColumns()]) for rule in rules]


def one_pass_matches(sub, theta, sizes, designs, seeds, pool=None):
    """Whether each size's columns of the one pass over ``sizes`` equal, byte
    for byte, the pass at that size alone."""
    whole = nl.engine.map_reps(chunk_stats, (sub, theta, sizes, designs), seeds, pool)
    alone = [nl.engine.map_reps(chunk_stats, (sub, theta, [n], designs), seeds, pool)
             for n in sizes]
    return whole.tobytes() == np.hstack(alone).tobytes()


@pytest.fixture(scope="module")
def pool():
    with nl.worker_pool(2) as workers:
        yield workers


@settings(max_examples=40, deadline=None)
@given(size_cases())
@example((3, [40, 400, BLOCK_UNITS // 2], 9, 8, 0.0, 3))  # blocks of 2 rows, 5 in this process
def test_one_pass_gives_each_size_its_own_cells(pool, case):
    k, sizes, reps, block, theta, seed = case
    sub, designs = size_designs(k, block, seed)
    seeds = rep_seeds(seed, reps)
    assert one_pass_matches(sub, theta, sizes, designs, seeds)
    assert one_pass_matches(sub, theta, sizes, designs, seeds, pool)


def test_mis_declared_two_stage_fails_the_one_pass():
    # two_stage assigned once at the largest n, as if its pilot did not
    # grow with n, gives the smaller sizes the wrong cells
    sub, designs = size_designs(3, 8, 3, two_stage=NFreeTwoStage)
    seeds = rep_seeds(3, 6)
    assert not one_pass_matches(sub, 0.0, [200, 2000], designs, seeds)
    sub, designs = size_designs(3, 8, 3)
    assert one_pass_matches(sub, 0.0, [200, 2000], designs, seeds)
