"""Simulation engine: determinism, stream separation, distributional checks."""

import ctypes
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neymanlab as nl
from conftest import (CellColumns, fresh_stream, random_binary_scenario, ref_cells, replication,
                      shipped_scenario)
from neymanlab import engine
from neymanlab.lan import _augment_normals

HETERO = shipped_scenario("risk_hetero")
NEYMAN = nl.neyman_allocation(HETERO)
SUB = nl.least_favorable_submodel(HETERO, NEYMAN.p)


def neyman_submodel(k):
    """The least favorable submodel of a random k-stratum binary scenario at
    its Neyman allocation, and that allocation."""
    scenario = random_binary_scenario(np.random.default_rng(k), k=k)
    alloc = nl.neyman_allocation(scenario)
    return nl.least_favorable_submodel(scenario, alloc.p), alloc


SUBS = {3: SUB, 1: neyman_submodel(1)[0], 200: neyman_submodel(200)[0]}


def many_units(theta, rule, n, reps, seed_base):
    """(x, w, y) of replications 0..reps-1 under ``seed_base``, one row
    each, drawn block by block."""
    blocks = []
    for _, draw in engine.draws(SUB, theta, n, engine.rep_seeds(seed_base, reps), [rule]):
        w = draw.assign(rule)
        blocks.append((draw.x, w, draw.materialize(w)))
    return [np.vstack(part) for part in zip(*blocks)]


def test_same_seed_bit_identical():
    a = replication(SUB, 0.3, nl.IidPropensity(NEYMAN), 500, 123)
    b = replication(SUB, 0.3, nl.IidPropensity(NEYMAN), 500, 123)
    for part_a, part_b in zip(a, b):
        assert np.array_equal(part_a, part_b)


def test_single_unit_full_treatment():
    x, w, y = replication(SUB, 0.0, nl.FullTreatment(0), 1, 9)
    assert len(x) == 1
    assert w.tolist() == [0]
    assert np.isfinite(y[0])


def test_unassigned_outcomes_are_zero():
    half = nl.AllocationMap(NEYMAN.p / 2)
    _, w, y = replication(SUB, 0.0, nl.IidPropensity(half), 4000, 17)
    assert np.any(w == -1)
    assert np.all(y[w == -1] == 0.0)


def test_theta_zero_reproduces_base_cell_means():
    # pool reps until every (stratum, arm) cell holds ~2500 draws
    x, w, y = many_units(0.0, nl.IidPropensity(NEYMAN), 5000, 6, seed_base=42)
    for s in range(HETERO.k):
        for arm in range(2):
            cell = y[(x == s) & (w == arm)]
            m = len(cell)
            assert m > 1500
            tol = 4 * np.sqrt(HETERO.outcomes.sigma2[s, arm] / m)
            assert abs(cell.mean() - HETERO.outcomes.mu[s, arm]) < tol


def test_theta_shifts_cell_means_by_c():
    theta = 0.25
    x, w, y = many_units(theta, nl.IidPropensity(NEYMAN), 5000, 6, seed_base=43)
    for s in range(HETERO.k):
        for arm in range(2):
            cell = y[(x == s) & (w == arm)]
            want = HETERO.outcomes.mu[s, arm] + theta * SUB.c_shift[s, arm]
            tol = 4 * np.sqrt(HETERO.outcomes.sigma2[s, arm] / len(cell))
            assert abs(cell.mean() - want) < tol


def test_covariate_frequencies():
    x, _, _ = many_units(0.0, nl.DeterministicAlternation(), 100, 10_000, seed_base=7)
    freq = np.bincount(x.ravel(), minlength=HETERO.k) / 1_000_000
    q = HETERO.covariates.probs
    assert np.all(np.abs(freq - q) < 4 * np.sqrt(q * (1 - q) / 1_000_000))


def test_rep_seed_derivation():
    # forcing equal derived seeds is the negative control for independence
    s0, s1 = engine.rep_seeds(99, 2)
    assert s0 != s1
    _, _, a = replication(SUB, 0.0, nl.MatchedPairs(), 100, s0)
    _, _, b = replication(SUB, 0.0, nl.MatchedPairs(), 100, s0)
    _, _, c = replication(SUB, 0.0, nl.MatchedPairs(), 100, s1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


SEEDS = st.integers(0, 2**64 - 1)


def spawned(seed, word):
    return np.random.SeedSequence(seed, spawn_key=(word,))


@settings(max_examples=200, deadline=None)
@given(st.lists(SEEDS, min_size=1, max_size=6))
@example([0, 2**32 - 1, 2**32, 2**64 - 1])
def test_stream_keys_match_seed_sequence(seeds):
    keys = engine.seed_words(seeds, [0, 1, 2, 3], 2)
    assert keys.shape == (len(seeds), 4, 2) and keys.dtype == np.uint64
    for row, seed in zip(keys, seeds):
        for word in range(4):
            assert np.array_equal(row[word], spawned(seed, word).generate_state(2, np.uint64))


@settings(max_examples=50, deadline=None)
@given(SEEDS, st.integers(1, 5000))
def test_rep_seeds_match_seed_sequence(base, reps):
    want = [int(spawned(base, r).generate_state(1, np.uint64)[0]) for r in range(reps)]
    assert engine.rep_seeds(base, reps) == want


def test_spawn_words_beyond_32_bits_raise():
    # numpy hashes such a word as two pool words; the batched hash has one
    with pytest.raises(ValueError, match="spawn words"):
        engine.seed_words([7], [2**32], 1)
    with pytest.raises(ValueError, match="spawn words"):
        engine.seed_words([7], [0, 2**63], 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(SEEDS, min_size=1, max_size=4), st.integers(1, 300), st.integers(0, 400),
       st.sampled_from([0.0, 0.3]), st.sampled_from(sorted(SUBS)))
@example([5, 6], 300, 0, 0.3, 200)
@example([5, 6], 300, 0, 0.0, 1)
def test_draw_rows_match_fresh_streams(seeds, n, n_uniforms, theta, k):
    sub = SUBS[k]
    draw = engine.Draw(sub, theta, n, seeds, n_uniforms)
    cum = np.cumsum(sub.tilted_probs(theta))
    cum[-1] = 1.0
    for r, seed in enumerate(seeds):
        fresh = {name: fresh_stream(seed, name) for name in nl.STREAMS}
        u = fresh["covariates"].random(n)
        assert np.array_equal(draw.x[r], np.searchsorted(cum, u, side="right"))
        assert np.array_equal(draw._z[r], fresh["outcomes"].standard_normal(n))
        assert np.array_equal(draw.uniforms[r], fresh["design"].random(n_uniforms))
        assert _augment_normals([seed])[0] == fresh["augment"].standard_normal()


@st.composite
def guide_cases(draw):
    k = draw(st.integers(1, 300))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.9]))  # share of zero-probability strata
    snapped = draw(st.sampled_from([0.0, 0.5, 1.0]))  # share of cum values on bucket edges
    return k, zeros, snapped, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(guide_cases())
@example((1, 0.0, 0.0, 0))
@example((300, 0.9, 1.0, 1))
@example((3, 0.3, 0.5, 2))
def test_guide_table_strata_match_searchsorted(case):
    # cum: sorted, ending at 1.0, with repeats (zero-probability strata,
    # first and last ones included) and values on bucket edges
    k, zeros, snapped, seed = case
    g = np.random.default_rng(seed)
    p = g.uniform(0.0, 1.0, k) * (g.random(k) >= zeros)
    p[g.integers(k)] += 0.5
    cum = np.minimum(np.cumsum(p / p.sum()), 1.0)
    size = engine._Guide(cum).size
    assert 16 * k <= size < 32 * k and size & (size - 1) == 0
    snap = g.random(k) < snapped
    cum[snap] = np.round(cum[snap] * size) / size
    cum = np.maximum.accumulate(cum)
    cum[-1] = 1.0
    guide = engine._Guide(cum)
    # u at every bucket edge and every cum value, their neighbours, 0 and
    # the largest double below 1, and uniforms
    at = np.concatenate([np.arange(size) / size, cum, g.random(1000)])
    u = np.concatenate([at, np.nextafter(at, 0.0), np.nextafter(at, 1.0), [0.0, 1.0 - 2.0**-53]])
    u = u[u < 1.0]
    assert np.array_equal(guide.strata(u), np.searchsorted(cum, u, side="right"))
    u2 = u[: len(u) // 2 * 2].reshape(2, -1)  # a block of two rows
    assert np.array_equal(guide.strata(u2), np.searchsorted(cum, u2, side="right"))


def test_chunks_at_many_strata_give_the_same_cells():
    # at K = 200 about 5 % of units fall back from the guide table to
    # searchsorted; blocks of 81 rows align differently in each split of
    # the chunk, and every row's cells must not change
    sub, alloc = neyman_submodel(200)
    rules = [nl.IidPropensity(alloc), nl.StratifiedBlocks(alloc, 8), nl.MatchedPairs(),
             nl.TwoStageAdaptive(0.2, alloc)]
    designs = [(rule, [CellColumns()]) for rule in rules]
    seeds = engine.rep_seeds(24, 800)
    split = []
    for parts in (1, 2, 7):
        bounds = np.linspace(0, len(seeds), parts + 1).astype(int)
        split.append(np.vstack([engine.chunk_stats(sub, 0.2, [400], designs, seeds[a:b])
                                for a, b in zip(bounds[:-1], bounds[1:])]).tobytes())
    assert split[0] == split[1] == split[2]


def test_prefix_observe_matches_each_unit():
    # two_stage's observe path: a block's first m < n assignments in, each
    # unit's mu[x, w] + sd[x, w] z out (0.0 where w = -1), and the cells of
    # each row from its own units
    k, arms, n, m, theta = 3, 2, 300, 123, 0.3
    draw = engine.Draw(SUB, theta, n, engine.rep_seeds(5, 4), 0)
    w = np.random.default_rng(5).integers(-1, arms, (4, m))
    y = draw.materialize(w)
    x, z = draw.x[:, :m], draw._z[:, :m]
    mu, sd = SUB.shifted_mu(theta), np.sqrt(SUB.base.outcomes.sigma2)
    arm = np.maximum(w, 0)
    assert np.array_equal(y, np.where(w < 0, 0.0, mu[x, arm] + sd[x, arm] * z))
    [cells] = engine._reduce_cells(*draw._observe(w), k, arms, [m])
    for r in range(len(w)):
        count, total, strata = ref_cells(x[r], w[r], y[r], k, arms)
        assert np.array_equal(cells.count[r], count)
        assert cells.total[r].tobytes() == total.tobytes()
        assert np.array_equal(cells.strata[r], strata)


def test_arms_must_fit_the_cells():
    # a design's arms must have cells: arm 2 has none in a two-arm table,
    # and a w = -2 unit would be filed under the previous stratum's last arm
    draw = engine.Draw(SUB, 0.0, 4, [3], 0)
    for w, bad in (([0, 2, 1, 0], "arm 2"), ([0, -2, 1, 0], "arm -2")):
        with pytest.raises(ValueError, match=f"{bad}, outside"):
            draw.materialize(np.array([w]))


def test_streams_are_separated():
    # same seed, different rules: identical covariates, coupled outcomes
    xa, wa, ya = replication(SUB, 0.0, nl.IidPropensity(NEYMAN), 300, 55)
    xb, wb, yb = replication(SUB, 0.0, nl.DeterministicAlternation(), 300, 55)
    assert np.array_equal(xa, xb)
    same = (wa == wb) & (wa >= 0)
    assert np.any(same)
    assert np.array_equal(ya[same], yb[same])  # one z draw per unit


def test_reps_independent_of_generation_order():
    # each replication is seeded on its own, so running rep 37 alone must
    # reproduce rep 37 of the streamed batch bit for bit
    _, w, y = many_units(0.0, nl.MatchedPairs(), 200, 50, seed_base=13)
    seeds = engine.rep_seeds(13, 50)
    for r in (0, 37, 49):
        _, solo_w, solo_y = replication(SUB, 0.0, nl.MatchedPairs(), 200, seeds[r])
        assert np.array_equal(solo_y, y[r])
        assert np.array_equal(solo_w, w[r])


def _chunk_faults(n, reps, seeds):
    """Minor page faults this process takes over one ``chunk_stats`` call
    on ``reps`` replications of size n, each assigned by two designs and
    reduced to cells; one row per seed of its chunk, for ``map_reps``."""
    import resource  # POSIX only

    aipw = [nl.AipwOracle(HETERO, NEYMAN)]
    designs = [(nl.StratifiedBlocks(NEYMAN, 8), aipw), (nl.MatchedPairs(), aipw)]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    engine.chunk_stats(SUB, 0.0, [n], designs, engine.rep_seeds(seeds[0], reps))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return np.full((len(seeds), 1), faults)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_pool_workers_reuse_block_memory():
    # a fresh worker walks 50 blocks of 16 rows at n = 2000; chunk_stats
    # raises its heap thresholds first, so it reuses each block's arrays
    # (about 1.5k faults) instead of faulting them in again at glibc's
    # defaults (about 17k)
    with nl.worker_pool(2) as pool:
        faults = engine.map_reps(_chunk_faults, (2000, 800), [0, 1], pool)
    assert faults.max() < 5000


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_in_process_study_reuses_block_memory():
    # a library caller at jobs = 1 walks the blocks in its own process,
    # which chunk_stats gives the same heap as a pool worker's.  A fresh
    # interpreter, so that no earlier test has raised this one's thresholds:
    # after a warm-up study, an 800-rep risk_hetero study takes a few
    # faults (about 23k at glibc's defaults)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(nl.__file__)))
    code = "\n".join([
        "import json, resource",
        "import neymanlab as nl",
        f"raw = json.load(open({os.path.join(root, 'configs', 'risk_hetero.json')!r}))",
        "raw['study']['reps'] = 800",
        "cfg = nl.parse_config(json.dumps(raw))",
        "nl.run_study(cfg)",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "nl.run_study(cfg)",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) <= 1000


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc],
                         ids=["no_mallopt", "no_libc"])
def test_keep_heap_is_quiet_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert engine.keep_heap() is None
