"""Experiment simulation: covariates in, assignments and outcomes out.

Reproducibility contract.  All randomness flows through named substreams
of a 64-bit seed:

    stream(seed, name) = Generator(Philox(SeedSequence(seed, spawn_key=(STREAMS[name],))))

with stream ids ``covariates=0, design=1, outcomes=2, augment=3``.  A
replication index is folded in first:

    rep_seed(seed_base, rep) = uint64 drawn from SeedSequence(seed_base, spawn_key=(rep,))

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
``SeedSequence`` gives; :func:`rep_seeds`, :func:`rep_seed` and
:func:`stream` are its calls, so there is one derivation.  The hash is
about 60 numpy operations per call, whatever the number of seeds, so one
seed costs about half as much as the 3 keys of each of 800 seeds.  A
:func:`stream` generator is given its key directly, so it cannot
``spawn()``; :func:`seed_words` derives any further stream.

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
docstring): the sequence a fresh ``stream(seed, "design")`` gives.  A
design's log is therefore the one :func:`run_one` gives it alone, whichever
designs share the draw.  :func:`draws` derives the covariate, outcome and
design keys of all its seeds in one :func:`seed_words` call (the lan
augmentation keys come the same way, once per chunk of seeds), so the hash
is paid once per chunk, not once per block of a few rows.  A Draw fills
each row from one Philox generator of its own, set to the row's key at
counter 0 before each fill (:func:`keyed`).  The values are the ones three
fresh streams give; only the per-seed ``SeedSequence`` and ``Philox``
constructions are gone.

Blocks of rows.  A study walks its seeds in consecutive blocks
(:func:`draws`), and only the per-seed stream fills run in a Python loop;
covariates, outcomes, every design's kernel (``designs.assign_block``) and
the cell tables are computed for the whole block at once.  Estimators and
likelihood-ratio terms run once per group of blocks (:func:`cell_groups`):
each design's cells of successive blocks are copied into one table, and
every estimator's ``from_cells`` and every likelihood-ratio term run on it
once.  A group holds as many whole blocks as keep its rows x K x
(n_arms + 1) cells within ``BLOCK_UNITS``, and at least one, so its cells
take no more memory than one block's unit arrays: 1,820 rows at K = 3 and
two arms (an 800-seed chunk at n = 2000 is one group of 100 blocks), 27
rows at K = 200.  A row's values do not depend on which rows share its
block or its group, which differ between ``--jobs`` settings: each row's
cells sum its own units in arrival order, and every sum over strata or
cells reduces an axis of that row's elementwise products, never a matrix
product (whose rounding varies with the number of rows).  The per-log
functions (``apply_rule``, :func:`cell_table`, ``estimate``,
``log_likelihood_ratio``, :func:`run_one`) are the one-row case of the
same code.

A block holds ``BLOCK_UNITS // n`` rows (at least one).  The size is a
constant, not an option, because it changes only speed and memory, never
a result.  It was sized by the peak resident memory of the
``risk_hetero_j1`` benchmark workload (n = 2000, 3 designs, jobs = 1;
bound +10 %), when every block ran its own estimators: 16,384 units took
43.4 MB against 41.4 MB for one seed at a time, and 32,768 went over the
bound.  With estimators run once per group of blocks, five 10 s runs at
each size, interleaved, on a shared 2-core Linux host:

    units per block    peak RSS (MB)    wall per round (s), median (range)
    4,096              42.1 - 42.2      0.66 (0.60 - 0.68)
    8,192              42.5 - 42.7      0.57 (0.49 - 0.61)
    16,384             43.3 - 43.4      0.52 (0.47 - 0.59)
    32,768             44.8 - 44.9      0.46 (0.40 - 0.58)

Worker heap.  A block allocates and frees dozens of arrays of about
128 KB (u, z, uniforms, strata, outcome temporaries, cell codes).  With
glibc's default settings the heap top is trimmed after each block and the
next block faults the same pages in again: a ``lan_hetero`` study at 400
reps and ``--jobs 2`` took about 90k minor faults in its workers, with
0.13 - 0.20 s of system time in 1.0 - 1.3 s of worker CPU (2-core Linux
host).  So :func:`worker_pool` starts each worker with :func:`keep_heap`,
which sets glibc's ``M_MMAP_THRESHOLD`` to ``HEAP_MMAP_BYTES`` (32 MB, the
largest value glibc's own dynamic threshold reaches on 64-bit hosts) and
``M_TRIM_THRESHOLD`` to ``HEAP_TRIM_BYTES`` (64 MB, twice that, the ratio
glibc keeps when it adapts them itself).  The same study then takes about
3.6k faults and 0.01 - 0.02 s of system time.  Minor faults per worker
over blocks that each run ``stratified_blocks`` and ``matched_pairs`` on
one draw and reduce them to cells (one run each; a small mmap threshold
sends large arrays back to mmap on every block):

    thresholds (trim / mmap)   50 blocks, n=2000 x 8   10 blocks, n=100,000   5 blocks, n=400,000
    glibc defaults                   20.5k                  34.1k                 73.4k
    4 MB / 1 MB                       1.7k                  25.0k                195.4k
    16 MB / 4 MB                      1.7k                   4.4k                 54.3k
    64 MB / 32 MB                     1.7k                   4.4k                 14.2k

The library changes only workers that :func:`worker_pool` starts and
joins: nothing happens at import, and at ``--jobs 1`` the study runs in the
caller's process with its heap untouched.  The command line owns its
process, so ``neymanlab risk`` and ``neymanlab lan`` call :func:`keep_heap`
there once before the study.  Where the C library has no ``mallopt``
(macOS, Windows) the defaults stay.  The thresholds change
where memory comes from, never a value computed in it.

Cell tables.  :func:`cell_table` reduces a log to N[x, w] (units per
stratum and arm), S[x, w] (their outcome sum) and N[x] (units per
stratum, unassigned included).  The shipped estimators are functions of
these cells, and so is the exact likelihood ratio: with Gaussian outcomes
of fixed variance, a unit's log density ratio is linear in y_i plus a
constant of its cell, so its sum over a cell depends on the y_i only
through S[x, w].
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

from .designs import DesignRule, Strata, assign_block
from .scenario import Submodel

STREAMS = {"covariates": 0, "design": 1, "outcomes": 2, "augment": 3}
BLOCK_UNITS = 16384  # units per Draw block; see the module docstring
HEAP_TRIM_BYTES = 64 << 20  # pool workers' glibc heap settings; see the module docstring
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


def rep_seed(seed_base: int, rep: int) -> int:
    """Derived 64-bit seed of replication ``rep`` under ``seed_base``."""
    return int(seed_words([seed_base], [rep], 1)[0, 0, 0])


class _Key(np.random.bit_generator.ISeedSequence):
    """A Philox key in place of a seed: ``Philox(_Key(key))`` starts the
    stream with that key at counter 0.  It cannot spawn."""

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.asarray(self.key, dtype=np.uint64)


def stream(seed: int, name: str) -> np.random.Generator:
    """Named substream of a run seed; see the module docstring.  Its key is
    set directly, so the generator cannot ``spawn()`` (TypeError); derive
    further streams with :func:`seed_words`."""
    return np.random.Generator(np.random.Philox(_Key(seed_words([seed], [STREAMS[name]], 2)[0, 0])))


def keyed(gen: np.random.Generator, key: list[int]) -> np.random.Generator:
    """Philox generator ``gen`` set to the start of the stream with ``key``
    (two ints, a row of :func:`seed_words`): the stream :func:`stream` gives
    for that key, without building a generator."""
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": [0, 0, 0, 0], "key": key},
                               "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return gen


@dataclass(frozen=True, eq=False)
class ExperimentLog:
    """One simulated experiment: strata, assignments, observed outcomes.

    ``w`` uses -1 for units the rule chose not to sample; their ``y`` is
    fixed at 0.0 and must never be read as data.
    """

    n: int
    x: np.ndarray  # (n,) stratum indices
    w: np.ndarray  # (n,) arm indices, -1 = unassigned
    y: np.ndarray  # (n,) observed outcomes, 0.0 where unassigned
    theta: float
    seed: int
    rule: str

    def __post_init__(self) -> None:
        for name in ("x", "w", "y"):
            arr = getattr(self, name)
            if len(arr) != self.n:
                raise ValueError(f"log field {name} has length {len(arr)}, expected {self.n}")
            arr.setflags(write=False)


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


def cell_table(x: np.ndarray, w: np.ndarray, y: np.ndarray, k: int, n_arms: int) -> Cells:
    """Reduce a log, or a block of logs one per row, with strata in 0..k-1
    and arms in -1..n_arms-1 to its cells.

    One bincount covers every row: row r's codes are offset by r times the
    table size, and each cell sums its units in arrival order, so a row's
    table does not depend on the rows that share its block.
    """
    x, w = np.asarray(x), np.asarray(w)
    if x.size:
        _check_range(x, 0, k, "stratum", k, n_arms)
        _check_range(w, -1, n_arms, "arm", k, n_arms)
    lead = x.shape[:-1]
    size = k * (n_arms + 1)
    rows = int(np.prod(lead, dtype=np.int64))
    # column 0 holds the unassigned units
    code = x * (n_arms + 1) + (w + 1) + (np.arange(rows) * size).reshape(lead + (1,))
    count = np.bincount(code.ravel(), minlength=rows * size).reshape(lead + (k, n_arms + 1))
    total = np.bincount(code.ravel(), weights=np.ravel(y),
                        minlength=rows * size).reshape(lead + (k, n_arms + 1))
    return Cells(x.shape[-1], count[..., 1:], total[..., 1:], count.sum(axis=-1))


def cell_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the (K, n_arms) cells of each row, in one reduction."""
    return a.reshape(a.shape[:-2] + (-1,)).sum(axis=-1)


class Draw:
    """The units of a block of replications, one row per seed: covariates and
    outcome noise at parameter ``theta``, drawn once and shared by every
    design run on them, and each seed's first ``n_uniforms`` design uniforms.

    Every design reads a prefix of its row's uniforms, the sequence a fresh
    design stream of the seed would give it, so its assignments do not
    depend on which other designs or rows share the draw.
    """

    def __init__(self, sub: Submodel, theta: float, n: int, seeds: list[int],
                 n_uniforms: int, keys: np.ndarray | None = None) -> None:
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
        cum = np.cumsum(sub.tilted_probs(theta))
        cum[-1] = 1.0
        self.strata = Strata(np.searchsorted(cum, u, side="right"))
        self.x = self.strata.x
        self.x.setflags(write=False)
        self._z = z
        self._mu = sub.shifted_mu(theta).ravel()
        self._sd = np.sqrt(sub.base.outcomes.sigma2).ravel()

    def materialize(self, w, row=slice(None)) -> np.ndarray:
        """Observed outcomes of the first ``w.shape[-1]`` units of ``row``
        (every row by default), 0.0 where w = -1."""
        w = np.asarray(w, dtype=np.int64)
        m = w.shape[-1]
        cell = self.x[row, :m] * self.sub.base.n_arms + np.maximum(w, 0)
        y = self._mu.take(cell) + self._sd.take(cell) * self._z[row, :m]
        return np.where(w >= 0, y, 0.0)

    def assign(self, rule: DesignRule) -> np.ndarray:
        return assign_block(rule, self.strata, self.sub.base.n_arms, self.uniforms,
                            self.materialize)

    def logs(self, rule: DesignRule) -> list[ExperimentLog]:
        w = self.assign(rule)
        y = self.materialize(w)
        label = rule.describe()
        return [ExperimentLog(n=self.n, x=self.x[r], w=w[r], y=y[r], theta=self.theta,
                              seed=seed, rule=label) for r, seed in enumerate(self.seeds)]

    def cells(self, rule: DesignRule) -> Cells:
        w = self.assign(rule)
        return cell_table(self.x, w, self.materialize(w), self.sub.base.k,
                          self.sub.base.n_arms)


def draws(sub: Submodel, theta: float, n: int, seeds: list[int],
          rules: list[DesignRule]) -> Iterator[tuple[slice, Draw]]:
    """Consecutive blocks of ``seeds`` as draws holding every uniform that
    ``rules`` read, each with the slice of ``seeds`` it covers."""
    n_uniforms = max((rule.uniforms_read(n, sub.base.k) for rule in rules), default=0)
    keys = seed_words(seeds, _DRAW_STREAMS, 2)  # once for every block: see the module docstring
    step = max(1, BLOCK_UNITS // n)  # see the module docstring
    for a in range(0, len(seeds), step):
        yield slice(a, a + step), Draw(sub, theta, n, seeds[a: a + step], n_uniforms,
                                       keys[a: a + step])


def cell_groups(sub: Submodel, theta: float, n: int, seeds: list[int],
                rules: list[DesignRule]) -> Iterator[tuple[slice, list[Cells]]]:
    """Consecutive groups of whole :func:`draws` blocks, each with every
    rule's cells of its rows and the slice of ``seeds`` it covers.  A group
    holds as many blocks as keep its rows x K x (n_arms + 1) within
    ``BLOCK_UNITS``, and at least one (module docstring, "Blocks of rows")."""
    k, arms = sub.base.k, sub.base.n_arms
    step = max(1, BLOCK_UNITS // n)
    size = step * max(1, BLOCK_UNITS // (k * (arms + 1) * step))
    blocks = draws(sub, theta, n, seeds, rules)
    for a in range(0, len(seeds), size):
        m = min(size, len(seeds) - a)
        group = [Cells(n, np.empty((m, k, arms), dtype=np.int64), np.empty((m, k, arms)),
                       np.empty((m, k), dtype=np.int64)) for _ in rules]
        for rows, draw in islice(blocks, -(-m // step)):
            at = slice(rows.start - a, rows.start - a + len(draw.seeds))
            for cells, rule in zip(group, rules):
                block = draw.cells(rule)
                cells.count[at], cells.total[at], cells.strata[at] = (
                    block.count, block.total, block.strata)
        yield slice(a, a + m), group


def run_one(sub: Submodel, theta: float, rule: DesignRule, n: int, seed: int) -> ExperimentLog:
    """Simulate one experiment of size n on the submodel at parameter theta."""
    return Draw(sub, theta, n, [seed], rule.uniforms_read(n, sub.base.k)).logs(rule)[0]


def run_many(sub: Submodel, theta: float, rule: DesignRule, n: int,
             reps: int, seed_base: int) -> Iterator[ExperimentLog]:
    """Independent replications; replication r uses rep_seed(seed_base, r)."""
    for _, draw in draws(sub, theta, n, rep_seeds(seed_base, reps), [rule]):
        yield from draw.logs(rule)


def keep_heap() -> None:
    """Pool worker initializer: raise glibc's heap trim and mmap thresholds so
    that a worker reuses each block's arrays from its heap instead of faulting
    them in again (module docstring, "Worker heap").  Does nothing where the
    C library has no ``mallopt``; no result depends on it."""
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
    each started by :func:`keep_heap`, joined on exit; ``None`` (run in this
    process, whose heap is left alone) at ``jobs <= 1``."""
    if jobs <= 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=jobs, initializer=keep_heap) as pool:
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
