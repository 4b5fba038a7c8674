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

Outcomes are materialized through a single standard-normal draw per unit:
``y_i = mu(x_i, w_i) + theta * c_shift(x_i, w_i) + sd(x_i, w_i) * z_i``.
Logs and rules see only the observed arm's outcome, and truncating the
experiment at any unit leaves all earlier assignments and outcomes
untouched (rules see outcomes only through the engine's observe callback,
which exposes nothing beyond the prefix already assigned).

Shared draws.  A :class:`Draw` holds one replication's x and z, drawn once
per (theta, seed); every design of a study runs on it, each with a fresh
``stream(seed, "design")``.  A design's log is therefore the one
:func:`run_one` gives it alone, whichever designs share the draw.

Cell tables.  :func:`cell_table` reduces a log to N[x, w] (units per
stratum and arm), S[x, w] (their outcome sum) and N[x] (units per
stratum, unassigned included).  The shipped estimators are functions of
these cells, and so is the exact likelihood ratio: with Gaussian outcomes
of fixed variance, a unit's log density ratio is linear in y_i plus a
constant of its cell, so its sum over a cell depends on the y_i only
through S[x, w].
"""

from __future__ import annotations

import csv
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .designs import DesignRule, apply_rule
from .scenario import Submodel

STREAMS = {"covariates": 0, "design": 1, "outcomes": 2, "augment": 3}


def rep_seed(seed_base: int, rep: int) -> int:
    """Derived 64-bit seed of replication ``rep`` under ``seed_base``."""
    ss = np.random.SeedSequence(int(seed_base), spawn_key=(int(rep),))
    return int(ss.generate_state(1, np.uint64)[0])


def stream(seed: int, name: str) -> np.random.Generator:
    """Named substream of a run seed; see the module docstring."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(STREAMS[name],))
    return np.random.Generator(np.random.Philox(ss))


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
    """A log seen through its (stratum, arm) cells: all that every shipped
    estimator and the likelihood-ratio decomposition read of it."""

    n: int
    count: np.ndarray   # (K, n_arms) units per cell
    total: np.ndarray   # (K, n_arms) outcome sum per cell
    strata: np.ndarray  # (K,) units per stratum, unassigned ones included


def cell_table(x: np.ndarray, w: np.ndarray, y: np.ndarray, k: int, n_arms: int) -> Cells:
    """Reduce a log with strata below ``k`` and arms below ``n_arms`` to its cells."""
    if len(x) and (x.max() >= k or w.max() >= n_arms):
        raise ValueError(f"log has strata or arms outside a {k} x {n_arms} cell table")
    code = x * (n_arms + 1) + (w + 1)  # column 0 holds the unassigned units
    size = k * (n_arms + 1)
    count = np.bincount(code, minlength=size).reshape(k, n_arms + 1)
    total = np.bincount(code, weights=y, minlength=size).reshape(k, n_arms + 1)
    return Cells(len(x), count[:, 1:], total[:, 1:], count.sum(axis=1))


@dataclass(frozen=True, eq=False)
class RealizedShares:
    """Empirical assignment table of a log.

    ``shares[x, w]`` is the fraction of stratum-x units assigned arm w
    (zero for strata that never appeared); ``unassigned[x]`` the fraction
    left out; ``usage[j]`` the per-unit average of budget row j, with
    unassigned units contributing zero.
    """

    counts: np.ndarray      # (K, n_arms)
    shares: np.ndarray      # (K, n_arms)
    unassigned: np.ndarray  # (K,)
    usage: np.ndarray       # (d_r,)


def realized_shares(log: ExperimentLog, scenario) -> RealizedShares:
    c = cell_table(log.x, log.w, log.y, scenario.k, scenario.n_arms)
    denom = np.maximum(c.strata, 1)
    usage = (np.einsum("xwr,xw->r", scenario.constraint.r, c.count) / log.n
             if scenario.constraint is not None else np.zeros(0))
    return RealizedShares(c.count, c.count / denom[:, None],
                          (c.strata - c.count.sum(axis=1)) / denom, usage)


class Draw:
    """The units of one replication: covariates and outcome noise of ``seed``
    at parameter ``theta``, drawn once and shared by every design run on them.

    Each design gets a fresh design stream of the same seed, so its
    assignments do not depend on which other designs share the draw.
    """

    def __init__(self, sub: Submodel, theta: float, n: int, seed: int) -> None:
        if n < 1:
            raise ValueError("n must be at least 1")
        cum = np.cumsum(sub.tilted_probs(theta))
        cum[-1] = 1.0
        x = np.searchsorted(cum, stream(seed, "covariates").random(n), side="right")
        z = stream(seed, "outcomes").standard_normal(n)
        self.sub, self.theta, self.n, self.seed = sub, float(theta), n, int(seed)
        self.x = x.astype(np.int64, copy=False)
        self.x.setflags(write=False)
        # y of every arm of every unit, flat; a design reads one per unit
        sd = np.sqrt(sub.base.outcomes.sigma2)
        mu = sub.shifted_mu(theta).take(self.x, axis=0)
        self._outcomes = (mu + sd.take(self.x, axis=0) * z[:, None]).ravel()
        self._rows = np.arange(n) * sub.base.n_arms

    def materialize(self, w) -> np.ndarray:
        """Observed outcomes of the first ``len(w)`` units, 0.0 where w = -1."""
        w = np.asarray(w, dtype=np.int64)
        y = self._outcomes.take(self._rows[: len(w)] + np.maximum(w, 0))
        return np.where(w >= 0, y, 0.0)

    def assign(self, rule: DesignRule) -> np.ndarray:
        return apply_rule(rule, self.x, self.sub.base.n_arms, stream(self.seed, "design"),
                          self.materialize)

    def log(self, rule: DesignRule) -> ExperimentLog:
        w = self.assign(rule)
        return ExperimentLog(n=self.n, x=self.x, w=w, y=self.materialize(w),
                             theta=self.theta, seed=self.seed, rule=rule.describe())

    def cells(self, rule: DesignRule) -> Cells:
        w = self.assign(rule)
        return cell_table(self.x, w, self.materialize(w), self.sub.base.k,
                          self.sub.base.n_arms)


def run_one(sub: Submodel, theta: float, rule: DesignRule, n: int, seed: int) -> ExperimentLog:
    """Simulate one experiment of size n on the submodel at parameter theta."""
    return Draw(sub, theta, n, seed).log(rule)


def run_many(sub: Submodel, theta: float, rule: DesignRule, n: int,
             reps: int, seed_base: int) -> Iterator[ExperimentLog]:
    """Independent replications; replication r uses rep_seed(seed_base, r)."""
    for r in range(reps):
        yield run_one(sub, theta, rule, n, rep_seed(seed_base, r))


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


def dump_logs_csv(logs, path) -> None:
    """Write logs as rows (rep, unit, x, w, y) in replication then unit order."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "unit", "x", "w", "y"])
        for r, log in enumerate(logs):
            for i in range(log.n):
                writer.writerow(
                    [r, i, int(log.x[i]), int(log.w[i]), f"{log.y[i]:.12g}"]
                )
