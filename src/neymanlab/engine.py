"""Experiment simulation: covariates in, assignments and outcomes out.

Reproducibility contract.  All randomness flows through named substreams
of a 64-bit seed: the stream ``name`` of ``seed`` is

    Generator(Philox(SeedSequence(seed, spawn_key=(STREAMS[name],))))

with stream ids ``covariates=0, design=1, outcomes=2, augment=3``.  A
replication index is folded in first: replication ``rep`` under
``seed_base`` has the seed

    uint64 drawn from SeedSequence(seed_base, spawn_key=(rep,))

so any replication can be regenerated in isolation and replication loops
may run in any order or in parallel without changing results.  The design
stream is separate from the outcome stream, which has two consequences
used heavily by the verification suites: different rules see identical
covariate draws under the same seed, and a run with Gaussian augmentation
enabled produces exactly the same log as one without.

Neither formula builds a ``SeedSequence``.  A Philox stream is fixed by its
key and counter (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11), and ``Philox(ss)`` takes its key from
``ss.generate_state(2, uint64)`` and starts at counter 0.  That state is a
fixed hash of the seed's words, zero-padded to the pool size of 4, followed
by the spawn word, which numpy documents (``hashmix``/``mix`` with the
``INIT_A``/``MULT_A``/``INIT_B``/``MULT_B`` constants of
``numpy/random/bit_generator.pyx``).  :func:`seed_words` computes it in
numpy uint32 arithmetic for a whole list of seeds and spawn words at once,
the 4 pool words of every seed as one array, bit for bit the values
``SeedSequence`` gives; replication seeds (:func:`rep_seeds`) and every
stream key come from it, so there is one derivation.  The hash is about 60
numpy operations per call, whatever the number of seeds, so it is paid once
per list of seeds, never once per seed.

Outcomes are materialized through a single standard-normal draw per unit:
``y_i = mu(x_i, w_i) + theta * c_shift(x_i, w_i) + sd(x_i, w_i) * z_i``.
Logs and rules see only the observed arm's outcome, and truncating the
experiment at any unit leaves all earlier assignments and outcomes
untouched (rules see outcomes only through the engine's observe callback,
which exposes nothing beyond the prefix already assigned).

Shared draws.  A :class:`Draw` holds the x and z of a block of
replications, one row per seed, drawn once per (theta, seed); every design
of a study runs on it.  Each seed's design stream is drawn once, as many
uniforms as the most any design of the study reads (``uniforms_read``),
and every design reads a prefix of that one sequence (``designs`` module
docstring): the sequence a fresh design stream of the seed gives.  A
design's assignments are therefore the ones a draw of its seed alone gives
it, whichever designs and seeds share the draw.  :func:`draws` derives the
covariate, outcome and design keys of all its seeds in one
:func:`seed_words` call, so the hash is paid once per chunk, not once per
block of a few rows.  A Draw fills
each row from one Philox generator of its own, set to the row's key at
counter 0 before each fill (:func:`keyed`).  The values are the ones three
fresh streams give.  The guide table that turns covariate uniforms
into strata and the per-row tiles of the outcome tables ("Cell tables")
are built once per chunk too, as the keys are (:func:`_tables`).
Each per-unit pass runs once per draw: the strata, their (row, stratum)
key (``Strata.key``) and each unit's cell code but its arm; a design adds
only its arms.

A study of several sizes (a lan study's ``n_list``) draws each seed once,
at its largest n, and reads every size's cells from the first n units of
that draw.  The tables are those of a draw at that size alone: a Philox
fill of m values starts with the fill of fewer, strata and outcomes are
unit by unit, every design but ``two_stage`` assigns a run's first n units
as a run of size n does (``designs`` module docstring), and a cell sums
its units in arrival order, so a prefix's sums are the ones a size-n draw
computes.  A larger size's sums are never the smaller's plus a segment
sum, which would round differently.  ``two_stage``, whose pilot is a share
of n (``DesignRule.reads_n``), is assigned once per size, on that size's
prefix of the draw; every other design once per block.

Blocks of rows.  A study walks its seeds in consecutive blocks
(:func:`draws`), and only the per-seed stream fills run in a Python loop;
covariates, outcomes, every design's kernel (``DesignRule.kernel``) and
the cell tables are computed for the whole block at once.  A study's
statistics, its estimators or its likelihood-ratio terms, run once per
group of blocks (:func:`chunk_stats`): each (size, design)'s cells of
successive blocks are copied into one table, and every statistic's
``from_cells`` runs on it once.  A group holds as many whole blocks as keep
its rows x K x (n_arms + 1) cells, times the number of sizes, within
``BLOCK_UNITS``, and at least one, so its cells take no more memory than
one block's unit arrays: with one size, 3,640 rows at K = 3 and two arms
(an 800-seed chunk at n = 2000 is one group of 50 blocks), 54 rows at K =
200.  A row's values do not depend on which rows share its
block or its group, which differ between ``--jobs`` settings: each row's
cells sum its own units in arrival order, and every sum over strata or
cells reduces an axis of that row's elementwise products, never a matrix
product (whose rounding varies with the number of rows).  A one-seed
:class:`Draw` is the one-row case: a replication's units alone.

One study pipeline.  Risk and lan studies both run :func:`simulate`:
replication seeds (:func:`rep_seeds`), the replication map
(:func:`map_reps`) over :func:`chunk_stats`, one row per replication and
one column per statistic value of each size.  Before the map it fits each
rule to the scenario (``DesignRule.fit``), once, in the caller's process,
so no worker and no block checks it again.  A risk study passes its one
n; a lan study its ``n_list``, in one pass over draws at the largest n
("Shared draws"), so each replication is drawn once and a pool serves the
study in one round trip.  The pipeline holds no study-specific step: a lan
study's augmentation normal depends on the seed alone, so
``lan.lan_by_design`` draws it after the pass, once for every size
(``lan`` module docstring).

A block holds ``BLOCK_UNITS // n`` rows (at least one).  The size is a
constant, not an option, because it changes only speed and memory, never
a result.  Peak resident memory bounds it: the ``risk_hetero_j1``
benchmark workload (n = 2000, 3 designs, jobs = 1) may grow its peak by at
most 10 %.  Every block pays a fixed cost in Python and numpy calls, so
the size is the largest one measured within that bound (``CHANGES.md``
holds the sizing table).

Heap.  A block allocates and frees dozens of arrays of its units (u, z,
uniforms, strata, outcomes, cell codes), 256 KB each at ``BLOCK_UNITS``,
past glibc's default 128 KB mmap threshold.  With glibc's default settings
the heap top is trimmed after each block and the next block faults the
same pages in again.  So whichever process walks a study's blocks keeps
its heap: :func:`chunk_stats` first calls :func:`keep_heap`, in the
caller's process at jobs = 1 and in each pool worker otherwise.  It sets
glibc's ``M_MMAP_THRESHOLD`` to ``HEAP_MMAP_BYTES`` (32 MB, the largest
value glibc's own dynamic threshold reaches on 64-bit hosts) and
``M_TRIM_THRESHOLD`` to ``HEAP_TRIM_BYTES`` (64 MB, twice that, the ratio
glibc keeps when it adapts them itself); smaller thresholds send large
arrays back to mmap on every block (``CHANGES.md`` holds the fault
counts).  Nothing happens at import.  Where the C library has no
``mallopt`` (macOS, Windows) the defaults stay.  The thresholds change
where memory comes from, never a value computed in it.

Cell tables.  A log's cells are N[x, w] (units per stratum and arm),
S[x, w] (their outcome sum) and N[x] (units per stratum, unassigned
included).  The shipped estimators are functions of these cells, and so is
the exact likelihood ratio: with Gaussian outcomes of fixed variance, a
unit's log density ratio is linear in y_i plus a constant of its cell, so
its sum over a cell depends on the y_i only through S[x, w].

:meth:`Draw.cells` reduces each design's units to cells in one pass.  Each
unit gets one row-offset code, ``(r K + x)(n_arms + 1) + w + 1`` for a unit
of row r, whose column 0 holds the unassigned units.  A draw builds its
part but w, ``(r K + x)(n_arms + 1) + 1``, once from the strata's (row,
stratum) key, and a design adds its w.  The code looks up the unit's
outcome in tables of mu and sd, one (K, n_arms + 1) tile per row (a
block reads the first tiles of its chunk's tables) whose column 0 is 0, ``y = mu[code] + sd[code] z``: an assigned unit gets the
same floating-point operations as the formula above, and an unassigned
one 0.0 + 0.0 z = 0.0, with no clip and no select.  The same code array
feeds the two bincounts of N[x, w] and S[x, w] of each size, which read
its first n columns; row r's bins lie in its own span of the table.  N[x]
is a size's count table summed over all n_arms + 1 columns, the unassigned
one included.  Each design's w is checked against the arms.
:meth:`Draw.materialize`, the ``observe`` callback of ``two_stage`` (a
block of every row's first m assignments in, their outcomes out), is the
same outcome lookup.

A draw's strata are ``searchsorted(cum, u, side="right")`` on a cumulative
table that ends at 1.0, with every uniform below 1, so they lie in 0..K-1
unchecked, but they come from a guide table (Chen & Asau, "On generating
random variates from an empirical distribution", 1974) instead of a binary
search per unit.  G, the least power of two of at least 16 K, splits [0, 1)
into equal buckets, and a unit's bucket is g = floor(u G), exact because G
is a power of two.  Bucket g holds lo = #{cum <= g/G} and hi = #{cum <
(g+1)/G}, and every u in it has a stratum between the two, so where lo =
hi that is the stratum.  Only units in buckets that hold a cumulative value
fall back to ``searchsorted``: about 1.6 % of units for ``risk_hetero``
(K = 3, G = 64), 6 % at K = 60 and 5 % at K = 200.  Their ``Strata``
serve the block rules' sort.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .designs import DesignRule, Strata
from .errors import DegenerateReps
from .scenario import Submodel

STREAMS = {"covariates": 0, "design": 1, "outcomes": 2, "augment": 3}
BLOCK_UNITS = 32768  # units per Draw block; see the module docstring
HEAP_TRIM_BYTES = 64 << 20  # glibc heap settings of a process that simulates; module docstring
HEAP_MMAP_BYTES = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h> mallopt parameters
# numpy's SeedSequence pool hashing (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_DRAW_STREAMS = [STREAMS[name] for name in ("covariates", "outcomes", "design")]


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constants of ``count`` successive hashes:
    numpy's hash constant before and after each step ``const *= mult``."""
    const = [init]
    for _ in range(count):
        const.append(const[-1] * mult & _MASK32)
    const = np.array(const, dtype=np.uint32).reshape(-1, 1, 1)
    return const[:-1], const[1:]


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> 16)


def seed_words(seeds, spawn, words: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(s,)).generate_state(words, np.uint64)``
    for every seed in [0, 2**64) (axis 0) and spawn word s in [0, 2**32)
    (axis 1), in numpy uint32 arithmetic; see the module docstring."""
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    spawn = np.asarray(spawn, dtype=np.uint64).reshape(-1)
    if spawn.size and int(spawn.max()) > _MASK32:
        raise ValueError("spawn words must lie in [0, 2**32)")
    xor, mult = _hash_consts(_INIT_A, _MULT_A, 20)
    # the 4 pool words of every seed, (4, seeds, 1): the run entropy (the
    # seed's low and high words) zero-padded to the pool size, hashed
    pool = np.zeros((4, len(seeds), 1), dtype=np.uint32)
    pool[0], pool[1] = seeds & _MASK32, seeds >> 32
    pool = _hash(pool, xor[:4], mult[:4])
    for src in range(4):  # each word, hashed, mixes into the other three
        dst, k = [d for d in range(4) if d != src], 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k: k + 3], mult[k: k + 3]))
    # then the spawn word, into every pool word: (4, seeds, spawn words)
    pool = _mix(pool, _hash(spawn.astype(np.uint32), xor[16:, 0], mult[16:, 0])[:, None])
    xor, mult = _hash_consts(_INIT_B, _MULT_B, 2 * words)
    out = _hash(pool[np.arange(2 * words) % 4], xor, mult).astype(np.uint64)
    return np.moveaxis(out[0::2] | out[1::2] << np.uint64(32), 0, -1)


def rep_seeds(seed_base: int, reps: int) -> list[int]:
    """Derived 64-bit seeds of replications 0..reps-1 under ``seed_base``."""
    return seed_words([seed_base], np.arange(reps), 1)[0, :, 0].tolist()


def keyed(gen: np.random.Generator, key: list[int]) -> np.random.Generator:
    """Philox generator ``gen`` set to the start of the stream with ``key``
    (two ints, a row of :func:`seed_words`): the stream of the module
    docstring's formula, without building a generator."""
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": [0, 0, 0, 0], "key": key},
                               "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return gen


@dataclass(frozen=True, eq=False)
class Cells:
    """Logs seen through their (stratum, arm) cells: all that every shipped
    estimator and the likelihood-ratio decomposition read of them.  One
    log's table has the shapes below; a block or group of rows adds a
    leading axis."""

    n: int
    count: np.ndarray   # (K, n_arms) units per cell
    total: np.ndarray   # (K, n_arms) outcome sum per cell
    strata: np.ndarray  # (K,) units per stratum, unassigned ones included


def _check_range(values: np.ndarray, low: int, high: int, what: str, k: int,
                 n_arms: int) -> None:
    for bad in (int(values.min()), int(values.max())):
        if not low <= bad < high:
            raise ValueError(f"log has {what} {bad}, outside a {k} x {n_arms} cell table")


def _reduce_cells(code: np.ndarray, y: np.ndarray, k: int, n_arms: int,
                  sizes: list[int]) -> list[Cells]:
    """Cells of a block of logs, one per row, from each unit's row-offset
    cell code (:meth:`Draw._observe`) and its outcome: one table per n of
    ``sizes``, of each row's first n units.

    Two bincounts per size cover every row: row r's codes lie in its own
    span of r times the table size on, and each cell sums its units in
    arrival order, so a row's table does not depend on the rows that share
    its block, and a size's table is the one a log of that size gives
    alone.  N[x] sums a stratum's counts over all n_arms + 1 columns, the
    unassigned one included.
    """
    lead = code.shape[:-1]
    shape = lead + (k, n_arms + 1)
    bins = int(np.prod(shape, dtype=np.int64))
    tables = []
    for n in sizes:
        flat, weights = code[..., :n].ravel(), np.ravel(y[..., :n])
        count = np.bincount(flat, minlength=bins).reshape(shape)
        total = np.bincount(flat, weights=weights, minlength=bins).reshape(shape)
        tables.append(Cells(n, count[..., 1:], total[..., 1:], count.sum(axis=-1)))
    return tables


def cell_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the (K, n_arms) cells of each row, in one reduction."""
    return a.reshape(a.shape[:-2] + (-1,)).sum(axis=-1)


class _Guide:
    """Strata of uniforms in [0, 1) by inversion of a cumulative table that
    ends at 1.0, ``searchsorted(cum, u, side="right")``, through a guide
    table (Chen & Asau 1974): G, the least power of two of at least 16 K,
    equal buckets, each holding the strata of its two edges (module
    docstring, "Cell tables")."""

    def __init__(self, cum: np.ndarray) -> None:
        self.cum = cum
        self.size = 1 << (16 * len(cum) - 1).bit_length()
        edges = np.arange(self.size + 1) / self.size
        lo = np.searchsorted(cum, edges[:-1], side="right")  # #{cum <= g/G}
        hi = np.searchsorted(cum, edges[1:], side="left")    # #{cum < (g+1)/G}
        self.table = np.where(lo == hi, lo, -1)  # -1: a cumulative value inside

    def strata(self, u: np.ndarray) -> np.ndarray:
        # u G is exact, G being a power of two, so each unit's bucket is too
        x = self.table.take((u * self.size).astype(np.intp))
        at = np.flatnonzero(x < 0)
        np.put(x, at, np.searchsorted(self.cum, u.take(at), side="right"))
        return x


def _tables(sub: Submodel, theta: float, rows: int) -> tuple[_Guide, np.ndarray, np.ndarray]:
    """What the draws of a chunk at ``theta`` share, for blocks of up to
    ``rows`` rows: the guide table of their strata, and the mu and sd tables
    of their outcomes, each one (K, n_arms + 1) tile per row with 0 in
    column 0 (unassigned), so an unassigned unit's outcome is 0.0 + 0.0 z
    = 0.0."""
    cum = np.cumsum(sub.tilted_probs(theta))
    cum[-1] = 1.0  # u < 1 = cum[-1], so every stratum lies in 0..K-1
    mu, sd = (np.tile(np.pad(t, ((0, 0), (1, 0))).ravel(), rows)
              for t in (sub.shifted_mu(theta), np.sqrt(sub.base.outcomes.sigma2)))
    return _Guide(cum), mu, sd


class Draw:
    """The units of a block of replications, one row per seed: covariates and
    outcome noise at parameter ``theta``, drawn once and shared by every
    design run on them and by every smaller size, which reads their prefix,
    and each seed's first ``n_uniforms`` design uniforms.

    Every design reads a prefix of its row's uniforms, the sequence a fresh
    design stream of the seed would give it, so its assignments do not
    depend on which other designs or rows share the draw.
    """

    def __init__(self, sub: Submodel, theta: float, n: int, seeds: list[int],
                 n_uniforms: int, keys: np.ndarray | None = None,
                 tables: tuple | None = None) -> None:
        if n < 1:
            raise ValueError("n must be at least 1")
        self.sub, self.theta, self.n = sub, float(theta), n
        self.seeds = [int(s) for s in seeds]
        if keys is None:  # (rows, 3, 2): the covariate, outcome and design keys
            keys = seed_words(self.seeds, _DRAW_STREAMS, 2)
        rows = len(self.seeds)
        u, z = np.empty((rows, n)), np.empty((rows, n))
        self.uniforms = np.empty((rows, n_uniforms))
        gen = np.random.Generator(np.random.Philox(0))  # keyed before each fill
        for r, (covariates, outcomes, design) in enumerate(keys.tolist()):
            keyed(gen, covariates).random(out=u[r])
            keyed(gen, outcomes).standard_normal(out=z[r])
            if n_uniforms:
                keyed(gen, design).random(out=self.uniforms[r])
        guide, self._mu, self._sd = tables or _tables(sub, theta, rows)
        self.strata = Strata(guide.strata(u), sub.base.k)
        self.x = self.strata.x
        self.x.setflags(write=False)
        self._z = z
        # each unit's row-offset cell code but its arm, (r K + x)(n_arms + 1)
        # + 1: with its arm, its index in the outcome tables
        self._base = self.strata.key * (sub.base.n_arms + 1)
        self._base += 1

    def _observe(self, w) -> tuple[np.ndarray, np.ndarray]:
        """Row-offset cell codes ``(r K + x)(n_arms + 1) + w + 1`` (module
        docstring, "Cell tables") and outcomes ``mu[code] + sd[code] z`` of
        the first ``w.shape[-1]`` units of every row, in three new arrays.  IEEE sums and products commute, so the order of
        the operands changes no bit."""
        w = np.asarray(w, dtype=np.int64)
        k, arms = self.sub.base.k, self.sub.base.n_arms
        if w.size:
            _check_range(w, -1, arms, "arm", k, arms)
        code = self._base[:, :w.shape[-1]] + w
        y = self._sd.take(code)
        y *= self._z[:, :w.shape[-1]]
        y += self._mu.take(code)
        return code, y

    def materialize(self, w) -> np.ndarray:
        """Observed outcomes of the first ``w.shape[-1]`` units of every row,
        0.0 where w = -1: each unit's outcome is looked up by its cell code
        (:meth:`_observe`)."""
        return self._observe(w)[1]

    def assign(self, rule: DesignRule, n: int | None = None) -> np.ndarray:
        """Arms of every row's first n units (all of them by default) under
        ``rule``, which :meth:`~DesignRule.fit` the scenario: its kernel run on
        that prefix of the strata, with :meth:`materialize` to observe."""
        strata = self.strata if n in (None, self.n) else Strata(self.x[:, :n], self.sub.base.k)
        n = strata.x.shape[1]
        # a short row would let a block rule read the next row's uniforms
        if self.uniforms.shape[1] < rule.uniforms_read(n, self.sub.base.k):
            raise ValueError("design stream holds too few uniforms for this rule")
        return rule.kernel(strata, self.sub.base.n_arms, self.uniforms, self.materialize, n)

    def cells(self, rule: DesignRule, sizes: list[int]) -> list[Cells]:
        """Every row's cells under ``rule`` of its first n units, for each n
        of ``sizes`` (at most the draw's n), in one pass over the units: each
        unit's row-offset cell code gives its outcome (:meth:`_observe`) and
        its bin (:func:`_reduce_cells`).  The sizes form runs: one of them all,
        or one per size for a rule that reads n.  A rule is assigned once per
        run, at its largest n, and each size of the run reads a prefix of its
        codes (``designs`` module docstring)."""
        k, arms = self.sub.base.k, self.sub.base.n_arms
        runs = [[n] for n in sizes] if rule.reads_n else [sizes]
        return [cells for run in runs for cells in
                _reduce_cells(*self._observe(self.assign(rule, max(run))), k, arms, run)]


def draws(sub: Submodel, theta: float, n: int, seeds: list[int],
          rules: list[DesignRule]) -> Iterator[tuple[slice, Draw]]:
    """Consecutive blocks of ``seeds`` as draws holding every uniform that
    ``rules`` read, each with the slice of ``seeds`` it covers."""
    n_uniforms = max((rule.uniforms_read(n, sub.base.k) for rule in rules), default=0)
    step = max(1, BLOCK_UNITS // n)  # see the module docstring
    # keys and tables once for every block: see the module docstring
    keys, tables = seed_words(seeds, _DRAW_STREAMS, 2), _tables(sub, theta, min(step, len(seeds)))
    for a in range(0, len(seeds), step):
        yield slice(a, a + step), Draw(sub, theta, n, seeds[a: a + step], n_uniforms,
                                       keys[a: a + step], tables)


def chunk_stats(sub: Submodel, theta: float, sizes: list[int],
                designs: list[tuple[DesignRule, list]], seeds: list[int]) -> np.ndarray:
    """One row per seed: for each n of ``sizes`` in order, the statistics of
    every (rule, statistics) pair of ``designs`` on the first n units of that
    seed's draw, in order.  Each seed is drawn once, at the largest n (module
    docstring, "Shared draws").  A statistic is any picklable object whose
    ``from_cells`` gives one value per row of a cell table, or a few columns
    per row; it reads n from the table.  Statistics run once per group of
    whole :func:`draws` blocks, each (size, rule)'s cells of the group copied
    into one table; a group holds as many blocks as keep its rows x K x
    (n_arms + 1) x len(sizes) within ``BLOCK_UNITS``, and at least one
    (module docstring, "Blocks of rows").  It first raises this process's
    heap thresholds (:func:`keep_heap`)."""
    keep_heap()
    k, arms = sub.base.k, sub.base.n_arms
    rules = [rule for rule, _ in designs]
    step = max(1, BLOCK_UNITS // max(sizes))
    group_rows = step * max(1, BLOCK_UNITS // (k * (arms + 1) * len(sizes) * step))
    blocks = draws(sub, theta, max(sizes), seeds, rules)
    parts = []
    for a in range(0, len(seeds), group_rows):
        m = min(group_rows, len(seeds) - a)
        group = [[Cells(n, np.empty((m, k, arms), dtype=np.int64), np.empty((m, k, arms)),
                        np.empty((m, k), dtype=np.int64)) for n in sizes] for _ in rules]
        for rows, draw in islice(blocks, -(-m // step)):
            at = slice(rows.start - a, rows.start - a + len(draw.seeds))
            for tables, rule in zip(group, rules):
                for cells, block in zip(tables, draw.cells(rule, sizes)):
                    cells.count[at], cells.total[at], cells.strata[at] = (
                        block.count, block.total, block.strata)
        parts.append(np.column_stack([stat.from_cells(tables[i]) for i in range(len(sizes))
                                      for (_, stats), tables in zip(designs, group)
                                      for stat in stats]))
    return np.vstack(parts)


def simulate(sub: Submodel, theta: float, sizes: list[int],
             designs: list[tuple[DesignRule, list]], reps: int, seed_base: int,
             pool: Executor | None = None) -> np.ndarray:
    """:func:`chunk_stats` of replications 0..reps-1 under ``seed_base`` at
    each n of ``sizes``, one row each, over the workers of ``pool`` if one
    is given.  Each rule is first :meth:`~DesignRule.fit` to the scenario,
    in this process, so a misfit raises its ``ValueError`` before any
    replication."""
    if reps < 2:
        raise DegenerateReps("Monte Carlo summaries need at least two replications")
    for rule, _ in designs:  # here, once, not in a worker on every block
        rule.fit(sub.base)
    return map_reps(chunk_stats, (sub, theta, sizes, designs), rep_seeds(seed_base, reps), pool)


def keep_heap() -> None:
    """Raise this process's glibc heap trim and mmap thresholds, so that it
    reuses each block's arrays from its heap instead of faulting them in
    again (module docstring, "Heap"); :func:`chunk_stats` calls it.  Does
    nothing where the C library has no ``mallopt``; no result depends on it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no libc handle, or no mallopt in it
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_BYTES)
    mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_BYTES)


@contextmanager
def worker_pool(jobs: int) -> Iterator[Executor | None]:
    """``jobs`` worker processes for every :func:`map_reps` call of a study,
    joined on exit; ``None`` (run in this process) at ``jobs <= 1``."""
    if jobs <= 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool


def map_reps(fn: Callable[..., np.ndarray], args: tuple, seeds: list[int],
             pool: Executor | None = None) -> np.ndarray:
    """Stack ``fn(*args, chunk)`` over contiguous chunks of ``seeds``.

    ``fn`` returns one row per seed of its chunk.  Without a pool it runs
    here on all seeds; with one from :func:`worker_pool` each worker gets
    one chunk.  Every row depends on its own seed alone, so the result
    does not depend on the pool.  ``fn`` and ``args`` must be picklable.
    """
    if pool is None:
        return fn(*args, seeds)
    # stdlib executors keep their worker count here; there is no accessor
    bounds = np.linspace(0, len(seeds), pool._max_workers + 1).astype(int)
    chunks = [seeds[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    return np.vstack(list(pool.map(partial(fn, *args), chunks)))
