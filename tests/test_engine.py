"""Simulation engine: determinism, stream separation, distributional checks."""

import ctypes
import platform

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neymanlab as nl
from conftest import shipped_scenario
from neymanlab import engine

HETERO = shipped_scenario("risk_hetero")
NEYMAN = nl.neyman_allocation(HETERO)
SUB = nl.least_favorable_submodel(HETERO, NEYMAN.p)


def test_same_seed_bit_identical():
    a = nl.run_one(SUB, 0.3, nl.IidPropensity(NEYMAN), 500, 123)
    b = nl.run_one(SUB, 0.3, nl.IidPropensity(NEYMAN), 500, 123)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.y, b.y)


def test_single_unit_full_treatment():
    log = nl.run_one(SUB, 0.0, nl.FullTreatment(0), 1, 9)
    assert log.n == 1
    assert log.w.tolist() == [0]
    assert np.isfinite(log.y[0])


def test_unassigned_outcomes_are_zero():
    half = nl.AllocationMap(NEYMAN.p / 2)
    log = nl.run_one(SUB, 0.0, nl.IidPropensity(half), 4000, 17)
    assert np.any(log.w == -1)
    assert np.all(log.y[log.w == -1] == 0.0)


def test_theta_zero_reproduces_base_cell_means():
    # pool reps until every (stratum, arm) cell holds ~2500 draws
    logs = list(nl.run_many(SUB, 0.0, nl.IidPropensity(NEYMAN), 5000, 6, seed_base=42))
    x = np.concatenate([log.x for log in logs])
    w = np.concatenate([log.w for log in logs])
    y = np.concatenate([log.y for log in logs])
    for s in range(HETERO.k):
        for arm in range(2):
            cell = y[(x == s) & (w == arm)]
            m = len(cell)
            assert m > 1500
            tol = 4 * np.sqrt(HETERO.outcomes.sigma2[s, arm] / m)
            assert abs(cell.mean() - HETERO.outcomes.mu[s, arm]) < tol


def test_theta_shifts_cell_means_by_c():
    theta = 0.25
    logs = list(nl.run_many(SUB, theta, nl.IidPropensity(NEYMAN), 5000, 6, seed_base=43))
    x = np.concatenate([log.x for log in logs])
    w = np.concatenate([log.w for log in logs])
    y = np.concatenate([log.y for log in logs])
    for s in range(HETERO.k):
        for arm in range(2):
            cell = y[(x == s) & (w == arm)]
            want = HETERO.outcomes.mu[s, arm] + theta * SUB.c_shift[s, arm]
            tol = 4 * np.sqrt(HETERO.outcomes.sigma2[s, arm] / len(cell))
            assert abs(cell.mean() - want) < tol


def test_covariate_frequencies():
    logs = nl.run_many(SUB, 0.0, nl.DeterministicAlternation(), 100, 10_000, seed_base=7)
    counts = np.zeros(HETERO.k)
    for log in logs:
        counts += np.bincount(log.x, minlength=HETERO.k)
    freq = counts / 1_000_000
    q = HETERO.covariates.probs
    assert np.all(np.abs(freq - q) < 4 * np.sqrt(q * (1 - q) / 1_000_000))


def test_rep_seed_derivation():
    # forcing equal derived seeds is the negative control for independence
    s0, s1 = nl.rep_seed(99, 0), nl.rep_seed(99, 1)
    assert s0 != s1
    a = nl.run_one(SUB, 0.0, nl.MatchedPairs(), 100, s0)
    b = nl.run_one(SUB, 0.0, nl.MatchedPairs(), 100, s0)
    c = nl.run_one(SUB, 0.0, nl.MatchedPairs(), 100, s1)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


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
    assert [nl.rep_seed(base, r) for r in (0, reps - 1)] == [want[0], want[-1]]


def test_streams_are_keyed_directly():
    # a stream's generator is given its key, not a SeedSequence: it builds
    # none from OS entropy, and it cannot spawn children
    gen = nl.stream(11, "design")
    assert isinstance(gen.bit_generator.seed_seq, np.random.bit_generator.ISeedSequence)
    with pytest.raises(TypeError, match="spawn"):
        gen.spawn(1)


def test_spawn_words_beyond_32_bits_raise():
    # numpy hashes such a word as two pool words; the batched hash has one
    with pytest.raises(ValueError, match="spawn words"):
        engine.seed_words([7], [2**32], 1)
    with pytest.raises(ValueError, match="spawn words"):
        engine.seed_words([7], [0, 2**63], 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(SEEDS, min_size=1, max_size=4), st.integers(1, 300), st.integers(0, 400),
       st.sampled_from([0.0, 0.3]))
def test_draw_rows_match_fresh_streams(seeds, n, n_uniforms, theta):
    draw = engine.Draw(SUB, theta, n, seeds, n_uniforms)
    cum = np.cumsum(SUB.tilted_probs(theta))
    cum[-1] = 1.0
    for r, seed in enumerate(seeds):
        fresh = {name: np.random.Generator(np.random.Philox(spawned(seed, word)))
                 for name, word in nl.STREAMS.items()}
        u = fresh["covariates"].random(n)
        assert np.array_equal(draw.x[r], np.searchsorted(cum, u, side="right"))
        assert np.array_equal(draw._z[r], fresh["outcomes"].standard_normal(n))
        assert np.array_equal(draw.uniforms[r], fresh["design"].random(n_uniforms))
        assert np.array_equal(nl.stream(seed, "augment").random(9), fresh["augment"].random(9))


def test_streams_are_separated():
    # same seed, different rules: identical covariates, coupled outcomes
    a = nl.run_one(SUB, 0.0, nl.IidPropensity(NEYMAN), 300, 55)
    b = nl.run_one(SUB, 0.0, nl.DeterministicAlternation(), 300, 55)
    assert np.array_equal(a.x, b.x)
    same = (a.w == b.w) & (a.w >= 0)
    assert np.any(same)
    assert np.array_equal(a.y[same], b.y[same])  # one z draw per unit


def test_reps_independent_of_generation_order():
    # each replication is seeded on its own, so running rep 37 alone must
    # reproduce rep 37 of the streamed batch bit for bit
    logs = list(nl.run_many(SUB, 0.0, nl.MatchedPairs(), 200, 50, seed_base=13))
    for r in (0, 37, 49):
        solo = nl.run_one(SUB, 0.0, nl.MatchedPairs(), 200, nl.rep_seed(13, r))
        assert np.array_equal(solo.y, logs[r].y)
        assert np.array_equal(solo.w, logs[r].w)


def test_log_lengths_validated():
    with pytest.raises(ValueError):
        nl.ExperimentLog(n=3, x=np.zeros(2, dtype=np.int64), w=np.zeros(3, dtype=np.int64),
                         y=np.zeros(3), theta=0.0, seed=1, rule="t")


def _block_faults(n, rows, blocks, seeds):
    """Minor page faults this process takes over ``blocks`` draws of
    ``rows`` x ``n`` units, each assigned by two designs and reduced to
    cells; one row per seed, for ``map_reps``."""
    import resource  # POSIX only

    rules = [nl.StratifiedBlocks(NEYMAN, 8), nl.MatchedPairs()]
    n_uniforms = max(rule.uniforms_read(n, HETERO.k) for rule in rules)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for b in range(blocks):
        draw = engine.Draw(SUB, 0.0, n, [nl.rep_seed(b, r) for r in range(rows)], n_uniforms)
        for rule in rules:
            draw.cells(rule)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return np.full((len(seeds), 1), faults)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_pool_workers_reuse_block_memory():
    # with glibc's default thresholds a worker trims its heap after each
    # block and faults the next block's arrays in again (about 13k faults
    # here); keep_heap lets it reuse them (about 1.8k)
    with nl.worker_pool(2) as pool:
        faults = engine.map_reps(_block_faults, (2000, 8, 50), [0, 1], pool)
    assert faults.max() < 5000


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc],
                         ids=["no_mallopt", "no_libc"])
def test_keep_heap_is_quiet_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert engine.keep_heap() is None
