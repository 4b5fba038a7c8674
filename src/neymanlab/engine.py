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
Only the observed arm's outcome is ever constructed, and truncating the
experiment at any unit leaves all earlier assignments and outcomes
untouched (rules see outcomes only through the engine's observe callback,
which exposes nothing beyond the prefix already assigned).
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


def run_one(sub: Submodel, theta: float, rule: DesignRule, n: int, seed: int) -> ExperimentLog:
    """Simulate one experiment of size n on the submodel at parameter theta."""
    if n < 1:
        raise ValueError("n must be at least 1")
    scenario = sub.base
    probs = sub.tilted_probs(theta)
    cum = np.cumsum(probs)
    cum[-1] = 1.0

    x = np.searchsorted(cum, stream(seed, "covariates").random(n), side="right").astype(np.int64)
    z = stream(seed, "outcomes").standard_normal(n)

    mu_eff = sub.shifted_mu(theta)
    sd = np.sqrt(scenario.outcomes.sigma2)

    def materialize(w: np.ndarray, upto: int) -> np.ndarray:
        safe = np.maximum(w, 0)
        vals = mu_eff[x[:upto], safe] + sd[x[:upto], safe] * z[:upto]
        return np.where(w >= 0, vals, 0.0)

    def observe(w_prefix: np.ndarray) -> np.ndarray:
        return materialize(np.asarray(w_prefix, dtype=np.int64), len(w_prefix))

    w = apply_rule(rule, x, scenario.n_arms, stream(seed, "design"), observe)
    y = materialize(w, n)
    return ExperimentLog(n=n, x=x, w=w, y=y, theta=float(theta),
                         seed=int(seed), rule=rule.describe())


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
