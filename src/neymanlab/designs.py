"""Sequential assignment rules for stratified experiments.

Each rule maps arriving units to arms (or to -1, "not sampled") using a
dedicated stream of uniform variates.  The stream is consumed in a fixed
documented order so that runs are reproducible and prefixes of a run are
unaffected by anything that happens later:

* one variate per assignment decision for propensity-style draws, in unit
  order (a decision that can end in "unassigned" still costs one variate);
* ``block_size - 1`` variates per block for :class:`StratifiedBlocks`: one
  ``(n_blocks, block_size - 1)`` draw, rows in the order blocks open;
* one variate per matched pair, drawn when the pair opens.

Rules never look at outcomes except :class:`TwoStageAdaptive`, which reads
the pilot outcomes once, at the pilot boundary, through the ``observe``
callback supplied by the caller.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .allocation import AllocationMap
from .errors import RuleScenarioMismatch
from .scenario import CLIP_EPS

ObserveFn = Callable[[np.ndarray], np.ndarray]


def _alloc_tag(alloc: AllocationMap) -> str:
    digest = hashlib.sha1(np.ascontiguousarray(alloc.p).tobytes()).hexdigest()
    return digest[:8]


@dataclass(frozen=True, eq=False)
class IidPropensity:
    """Independent draws from p(x, .); leftover mass means unassigned."""

    alloc: AllocationMap

    def describe(self) -> str:
        return f"iid_propensity(p#{_alloc_tag(self.alloc)})"


@dataclass(frozen=True, eq=False)
class StratifiedBlocks:
    """Exact within-block counts per stratum, shuffled block by block.

    Within each stratum, consecutive arrivals form blocks of
    ``block_size``; each complete block realizes arm counts obtained by
    largest-remainder rounding of ``block_size * p(x, w)`` (ties broken
    toward the smaller arm index, unassigned slots last), so every count
    lies in {floor, ceil} of its target.  The e-th block to open (in any
    stratum) is shuffled by row u[e] of one ``(n_blocks, block_size - 1)``
    draw: for j = B-1 down to 1, slot j swaps with min(floor(u[e, B-1-j]
    * (j+1)), j).  Units take their block's slots in arrival order.
    """

    alloc: AllocationMap
    block_size: int

    def __post_init__(self) -> None:
        if int(self.block_size) < 2:
            raise ValueError("block_size must be at least 2")
        object.__setattr__(self, "block_size", int(self.block_size))

    def describe(self) -> str:
        return f"stratified_blocks(B={self.block_size},p#{_alloc_tag(self.alloc)})"


@dataclass(frozen=True, eq=False)
class MatchedPairs:
    """Two-arm pairing by arrival order within each stratum.

    The first unit of a pair gets a fair-coin arm; its partner gets the
    complement.  A stratum's dangling unit (odd count) keeps its coin
    draw, which is the fair-coin fallback for leftovers.
    """

    def describe(self) -> str:
        return "matched_pairs"


@dataclass(frozen=True, eq=False)
class TwoStageAdaptive:
    """Pilot phase under a fallback allocation, then plug-in Neyman shares.

    After ``floor(pilot_fraction * n)`` units, per-stratum unbiased sample
    variances of the pilot outcomes give ehat(x) = s1/(s0+s1), clipped to
    [clip_eps, 1-clip_eps].  Strata where either arm has fewer than two
    pilot observations keep the fallback allocation; strata whose pilot
    variances are both zero use 1/2.
    """

    pilot_fraction: float
    fallback: AllocationMap
    clip_eps: float = CLIP_EPS

    def __post_init__(self) -> None:
        if not 0.0 < float(self.pilot_fraction) < 1.0:
            raise ValueError("pilot_fraction must lie strictly between 0 and 1")

    def describe(self) -> str:
        return (
            f"two_stage(pilot={self.pilot_fraction:g},fb#{_alloc_tag(self.fallback)})"
        )


@dataclass(frozen=True, eq=False)
class DeterministicAlternation:
    """Cycle through the arms in unit order; consumes no variates."""

    def describe(self) -> str:
        return "alternation"


@dataclass(frozen=True, eq=False)
class FullTreatment:
    """Every unit gets the same arm; consumes no variates."""

    arm: int

    def describe(self) -> str:
        return f"full_treatment({self.arm})"


DesignRule = Union[
    IidPropensity,
    StratifiedBlocks,
    MatchedPairs,
    TwoStageAdaptive,
    DeterministicAlternation,
    FullTreatment,
]


@dataclass(frozen=True, eq=False)
class AssignmentContext:
    """Everything a sequential assignment decision may depend on.

    ``i`` is the 0-based index of the unit being assigned; ``y_past`` and
    ``w_past`` hold the first ``i`` observed outcomes and assignments.
    ``u`` seeds the rule's uniform stream from its start (an integer or a
    ``numpy.random.SeedSequence``), so the decision is a pure function of
    the context.
    """

    x_all: np.ndarray
    y_past: np.ndarray
    w_past: np.ndarray
    i: int
    u: object

    def __post_init__(self) -> None:
        if len(self.y_past) != self.i or len(self.w_past) != self.i:
            raise ValueError("y_past and w_past must hold exactly i entries")


# ----------------------------------------------------------------------
# Vectorized application.
# ----------------------------------------------------------------------


def _within_stratum_position(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrival rank of each unit inside its stratum (0-based), and the
    units sorted by stratum, in arrival order within each."""
    n = len(x)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    sizes = np.diff(np.r_[starts, n])
    ranks = np.arange(n) - np.repeat(starts, sizes)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = ranks
    return pos, order


def _check_alloc(alloc: AllocationMap, x: np.ndarray, n_arms: int, rule_name: str) -> None:
    if alloc.p.shape[1] != n_arms:
        raise RuleScenarioMismatch(
            f"{rule_name}: allocation covers {alloc.p.shape[1]} arms, scenario has {n_arms}"
        )
    if x.size and int(x.max()) >= alloc.p.shape[0]:
        raise RuleScenarioMismatch(
            f"{rule_name}: stratum index {int(x.max())} outside allocation table"
        )


def _draw_iid(p_table: np.ndarray, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One uniform per unit; arms in index order, leftover mass -> -1."""
    n_arms = p_table.shape[1]
    cum = np.cumsum(p_table, axis=1)
    # Guard against float shortfall on rows meant to assign everyone.
    full = p_table.sum(axis=1) >= 1.0 - 1e-12
    cum[full, -1] = 1.0
    u = rng.random(len(x))
    w = (u[:, None] >= cum[x]).sum(axis=1)
    return np.where(w == n_arms, -1, w).astype(np.int64)


def _block_counts(p: np.ndarray, block: int) -> np.ndarray:
    """Largest-remainder rounding of block * [p_0, ..., p_{W-1}, leftover] per row.

    Each resulting count is floor or ceil of its target; ties in the
    remainders are broken toward the smaller category index so the
    rounding is deterministic.
    """
    targets = np.column_stack([p, np.maximum(0.0, 1.0 - p.sum(axis=1))]) * block
    base = np.floor(targets).astype(np.int64)
    deficit = block - base.sum(axis=1)
    order = np.argsort(base - targets, axis=1, kind="stable")
    rank = np.argsort(order, axis=1)  # place of each category in that order
    return base + (rank < deficit[:, None])


def _apply_blocks(rule: StratifiedBlocks, x: np.ndarray, n_arms: int,
                  rng: np.random.Generator) -> np.ndarray:
    _check_alloc(rule.alloc, x, n_arms, "stratified_blocks")
    b = rule.block_size
    pos, order = _within_stratum_position(x)
    start_mask = pos % b == 0
    n_blocks = int(start_mask.sum())

    # (K, b) unshuffled template of every stratum: arm codes, -1 last.
    counts = _block_counts(rule.alloc.p, b)
    codes = np.tile(np.append(np.arange(n_arms), -1), len(counts))
    bases = np.repeat(codes, counts.ravel()).reshape(len(counts), b)

    # Fisher-Yates on every block at once; column c of u picks the partner
    # of slot j = b-1-c in each block.
    templates = bases[x[start_mask]]
    u = rng.random((n_blocks, b - 1))
    swap_j = np.arange(b - 1, 0, -1)
    partners = np.minimum((u * (swap_j + 1)).astype(np.int64), swap_j)
    rows = np.arange(n_blocks)
    for j, k in zip(swap_j, partners.T):
        held = templates[:, j].copy()
        templates[:, j] = templates[rows, k]
        templates[rows, k] = held

    block_of = np.cumsum(start_mask) - 1  # block number of each opening unit
    slot = pos[order] % b
    opener = order[np.arange(len(x)) - slot]
    w = np.empty(len(x), dtype=np.int64)
    w[order] = templates[block_of[opener], slot]
    return w


def _apply_pairs(x: np.ndarray, n_arms: int, rng: np.random.Generator) -> np.ndarray:
    if n_arms != 2:
        raise RuleScenarioMismatch("matched_pairs requires exactly two arms")
    n = len(x)
    pos, order = _within_stratum_position(x)
    start_mask = pos % 2 == 0
    u = rng.random(int(start_mask.sum()))
    w = np.empty(n, dtype=np.int64)
    w[start_mask] = np.where(u < 0.5, 1, 0)
    ws = w[order]
    partner = pos[order] % 2 == 1
    ws[partner] = 1 - ws[np.flatnonzero(partner) - 1]
    w[order] = ws
    return w


def _pilot_neyman(rule: TwoStageAdaptive, x_pilot: np.ndarray, w_pilot: np.ndarray,
                  y_pilot: np.ndarray, k: int) -> np.ndarray:
    """Per-stratum plug-in shares from pilot data; NaN marks fallback strata."""
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
            ehat[s] = float(np.clip(s1 / (s0 + s1), rule.clip_eps, 1.0 - rule.clip_eps))
    return ehat


def _apply_two_stage(rule: TwoStageAdaptive, x: np.ndarray, n_arms: int,
                     rng: np.random.Generator, observe: ObserveFn,
                     limit: int) -> np.ndarray:
    if n_arms != 2:
        raise RuleScenarioMismatch("two_stage requires exactly two arms")
    _check_alloc(rule.fallback, x, n_arms, "two_stage")
    n = len(x)
    n_pilot = min(n, max(1, int(np.floor(rule.pilot_fraction * n))))
    w_pilot = _draw_iid(rule.fallback.p, x[:n_pilot], rng)
    if limit <= n_pilot:
        return w_pilot[:limit]
    y_pilot = np.asarray(observe(w_pilot), dtype=float)
    k = rule.fallback.p.shape[0]
    ehat = _pilot_neyman(rule, x[:n_pilot], w_pilot, y_pilot, k)
    p_post = np.where(
        np.isnan(ehat)[:, None],
        rule.fallback.p,
        np.column_stack([1.0 - ehat, ehat]),
    )
    w_rest = _draw_iid(p_post, x[n_pilot:limit], rng)
    return np.concatenate([w_pilot, w_rest])


def apply_rule(rule: DesignRule, x: np.ndarray, n_arms: int,
               rng: np.random.Generator, observe: ObserveFn | None = None,
               limit: int | None = None) -> np.ndarray:
    """Assign the first ``limit`` units (all of them when limit is None).

    ``x`` is the full covariate vector (rules may inspect it in its
    entirety), ``rng`` the rule's uniform stream positioned at its start,
    and ``observe`` maps a prefix of assignments to the corresponding
    observed outcomes (only outcome-adaptive rules call it).  Truncating
    ``limit`` never changes the assignments it still covers.
    """
    x = np.asarray(x, dtype=np.int64)
    n = len(x)
    m = n if limit is None else min(limit, n)
    if isinstance(rule, IidPropensity):
        _check_alloc(rule.alloc, x[:m], n_arms, "iid_propensity")
        return _draw_iid(rule.alloc.p, x[:m], rng)
    if isinstance(rule, StratifiedBlocks):
        return _apply_blocks(rule, x[:m], n_arms, rng)
    if isinstance(rule, MatchedPairs):
        return _apply_pairs(x[:m], n_arms, rng)
    if isinstance(rule, TwoStageAdaptive):
        if observe is None:
            raise ValueError("two_stage needs an observe callback")
        return _apply_two_stage(rule, x, n_arms, rng, observe, m)
    if isinstance(rule, DeterministicAlternation):
        return (np.arange(m) % n_arms).astype(np.int64)
    if isinstance(rule, FullTreatment):
        if not 0 <= int(rule.arm) < n_arms:
            raise RuleScenarioMismatch(
                f"full_treatment arm {rule.arm} outside 0..{n_arms - 1}"
            )
        return np.full(m, int(rule.arm), dtype=np.int64)
    raise TypeError(f"unknown design rule {type(rule).__name__}")


def assign(rule: DesignRule, ctx: AssignmentContext, n_arms: int) -> int:
    """Sequential single-unit contract: the arm of unit ``ctx.i``.

    Deterministic given (rule, context, stream): the rule is replayed from
    the start of its uniform stream over units 0..i, with past outcomes
    taken from the context, and the final decision is returned.
    """
    seed = ctx.u if isinstance(ctx.u, np.random.SeedSequence) else np.random.SeedSequence(int(ctx.u))
    rng = np.random.Generator(np.random.Philox(seed))
    y_past = np.asarray(ctx.y_past, dtype=float)

    def observe(w_prefix: np.ndarray) -> np.ndarray:
        return y_past[: len(w_prefix)]

    w = apply_rule(rule, np.asarray(ctx.x_all), n_arms, rng, observe, limit=ctx.i + 1)
    return int(w[ctx.i])
