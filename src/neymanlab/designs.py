"""Sequential assignment rules for stratified experiments.

Each rule maps arriving units to arms (or to -1, "not sampled") using a
dedicated stream of uniform variates.  Prefix contract: every rule reads
a prefix of one uniform sequence, u[0], u[1], ..., in a fixed documented
order, so that runs are reproducible and prefixes of a run are unaffected
by anything that happens later:

* :class:`IidPropensity`: u[i] decides unit i (a decision that can end in
  "unassigned" still costs one variate); at most n variates;
* :class:`TwoStageAdaptive`: the same, pilot units first, then the rest;
  at most n variates;
* :class:`StratifiedBlocks`: ``block_size - 1`` variates per block, blocks
  in the order they open (in any stratum); at most
  ``(n // block_size + K) * (block_size - 1)`` variates for K strata;
* :class:`MatchedPairs`: one variate per pair, pairs in the order they
  open; at most ``n // 2 + K`` variates;
* :class:`DeterministicAlternation` and :class:`FullTreatment`: none.

:func:`uniforms_read` gives these bounds.  Because consecutive draws of a
generator equal one long draw, a caller may draw the most any of its
rules reads once per experiment and give every rule that one sequence:
each rule's assignments stay the ones a fresh stream gives it alone.
Every rule is a kernel on a block of experiments, one row of strata and
one row of uniforms each (:func:`assign_block`); :func:`apply_rule` is its
one-row case.

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
BlockObserveFn = Callable[[np.ndarray, int], np.ndarray]  # (w_prefix, row) -> y


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
    complement.  This is :class:`StratifiedBlocks` with blocks of two and
    p = 1/2: the pair's variate swaps the template (0, 1) exactly when it
    is below 1/2.  A stratum's dangling unit (odd count) keeps its coin
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
# Vectorized application: every rule is a kernel on a block of rows.
# ----------------------------------------------------------------------


def uniforms_read(rule: DesignRule, n: int, k: int) -> int:
    """Most uniforms ``rule`` reads to assign n units of k strata; each rule
    reads a prefix of its row of uniforms (see the module docstring)."""
    if isinstance(rule, (IidPropensity, TwoStageAdaptive)):
        return n
    if isinstance(rule, StratifiedBlocks):
        return (n // rule.block_size + k) * (rule.block_size - 1)
    if isinstance(rule, MatchedPairs):
        return n // 2 + k
    return 0


class Strata:
    """Strata of a block of experiments, one row of arrivals each.

    :meth:`ranked` is the one stable sort by (row, stratum) that the
    block-based rules share.
    """

    def __init__(self, x: np.ndarray) -> None:
        self.x = np.asarray(x, dtype=np.int64)
        self.k = int(self.x.max()) + 1 if self.x.size else 0  # bound on strata present
        self._ranked: tuple[np.ndarray, np.ndarray] | None = None

    def ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """The units of the row-major flattened block sorted by row and
        stratum, in arrival order within each, and the arrival rank (0-based)
        of each of them inside its row and stratum."""
        if self._ranked is None:
            rows, n = self.x.shape
            k = max(self.k, 1)
            key = (self.x + k * np.arange(rows)[:, None]).ravel()
            # small keys take numpy's radix sort; the order is the same
            order = np.argsort(key.astype(np.min_scalar_type(rows * k)), kind="stable")
            sizes = np.bincount(key, minlength=rows * k)
            ranks = np.arange(key.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            self._ranked = order, ranks
        return self._ranked


def _check_alloc(alloc: AllocationMap, x: np.ndarray, n_arms: int, rule_name: str) -> None:
    if alloc.p.shape[1] != n_arms:
        raise RuleScenarioMismatch(
            f"{rule_name}: allocation covers {alloc.p.shape[1]} arms, scenario has {n_arms}"
        )
    if x.size and int(x.max()) >= alloc.p.shape[0]:
        raise RuleScenarioMismatch(
            f"{rule_name}: stratum index {int(x.max())} outside allocation table"
        )


def _draw_iid(p_table: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One uniform per unit; arms in index order, leftover mass -> -1."""
    n_arms = p_table.shape[1]
    cum = np.cumsum(p_table, axis=1)
    # Guard against float shortfall on rows meant to assign everyone.
    full = p_table.sum(axis=1) >= 1.0 - 1e-12
    cum[full, -1] = 1.0
    w = np.zeros(x.shape, dtype=np.int64)
    for arm in range(n_arms):
        w += u >= cum[:, arm].take(x)
    return np.where(w == n_arms, -1, w)


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


def _assign_blocks(p: np.ndarray, b: int, strata: Strata, n_arms: int,
                   u: np.ndarray) -> np.ndarray:
    rows, n = strata.x.shape
    order, ranks = strata.ranked()
    slot = ranks % b  # of each sorted unit in its block
    opens = np.zeros(order.size, dtype=bool)
    opens[order] = slot == 0
    openers = np.flatnonzero(opens)  # in unit order, the order blocks open
    n_blocks = len(openers)
    blocks = np.arange(n_blocks)
    # where each block's b-1 uniforms start: its place in its row's order
    row = openers // n
    place = blocks - np.searchsorted(openers, np.arange(rows) * n)[row]
    first_u = row * u.shape[1] + place * (b - 1)

    # (K, b) unshuffled template of every stratum: arm codes, -1 last.
    counts = _block_counts(p, b)
    codes = np.tile(np.append(np.arange(n_arms), -1), len(counts))
    bases = np.repeat(codes, counts.ravel()).reshape(len(counts), b)

    # Fisher-Yates on every block at once, slot-major: for j = b-1 down to
    # 1, slot j swaps with the slot its uniform number b-1-j picks.
    tmpl = bases.T.take(strata.x.ravel()[openers], axis=1)
    flat = tmpl.ravel()
    for j in range(b - 1, 0, -1):
        k = np.minimum((u.take(first_u + (b - 1 - j)) * (j + 1)).astype(np.int64), j)
        at = k * n_blocks + blocks
        held = tmpl[j].copy()
        tmpl[j] = flat.take(at)
        flat[at] = held

    # every unit takes its slot of the block its stratum's opener opened
    block = np.empty(order.size, dtype=np.int64)
    block[openers] = blocks
    opener = order[np.arange(order.size) - slot]
    w = np.empty(order.size, dtype=np.int64)
    w[order] = flat.take(slot * n_blocks + block[opener])
    return w.reshape(rows, n)


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


def _assign_two_stage(rule: TwoStageAdaptive, x: np.ndarray, n_arms: int, u: np.ndarray,
                      observe: BlockObserveFn, limit: int) -> np.ndarray:
    if n_arms != 2:
        raise RuleScenarioMismatch("two_stage requires exactly two arms")
    _check_alloc(rule.fallback, x, n_arms, "two_stage")
    rows, n = x.shape
    n_pilot = min(n, max(1, int(np.floor(rule.pilot_fraction * n))))
    w = _draw_iid(rule.fallback.p, x[:, :n_pilot], u[:, :n_pilot])
    if limit <= n_pilot:
        return w[:, :limit]
    k = rule.fallback.p.shape[0]
    # each row adapts to its own pilot outcomes
    rest = np.empty((rows, limit - n_pilot), dtype=np.int64)
    for r in range(rows):
        y_pilot = np.asarray(observe(w[r], r), dtype=float)
        ehat = _pilot_neyman(rule, x[r, :n_pilot], w[r], y_pilot, k)
        p_post = np.where(
            np.isnan(ehat)[:, None],
            rule.fallback.p,
            np.column_stack([1.0 - ehat, ehat]),
        )
        rest[r] = _draw_iid(p_post, x[r, n_pilot:limit], u[r, n_pilot:limit])
    return np.concatenate([w, rest], axis=1)


def assign_block(rule: DesignRule, strata: Strata, n_arms: int, u: np.ndarray,
                 observe: BlockObserveFn | None = None,
                 limit: int | None = None) -> np.ndarray:
    """Assign the first ``limit`` units of every row of a block (all of them
    when limit is None).

    ``u`` holds one row of uniforms per experiment, at least
    :func:`uniforms_read` of them; ``observe(w_prefix, row)`` maps a prefix
    of a row's assignments to its observed outcomes (only outcome-adaptive
    rules call it).  Every row's assignments depend on its own strata and
    uniforms alone.
    """
    rows, n = strata.x.shape
    m = n if limit is None else min(limit, n)
    if u.shape[1] < uniforms_read(rule, n, strata.k):
        raise ValueError("design stream holds too few uniforms for this rule")
    if isinstance(rule, TwoStageAdaptive):
        if observe is None:
            raise ValueError("two_stage needs an observe callback")
        return _assign_two_stage(rule, strata.x, n_arms, u, observe, m)
    if m < n:
        strata = Strata(strata.x[:, :m])
    x = strata.x
    if isinstance(rule, IidPropensity):
        _check_alloc(rule.alloc, x, n_arms, "iid_propensity")
        return _draw_iid(rule.alloc.p, x, u[:, :m])
    if isinstance(rule, StratifiedBlocks):
        _check_alloc(rule.alloc, x, n_arms, "stratified_blocks")
        return _assign_blocks(rule.alloc.p, rule.block_size, strata, n_arms, u)
    if isinstance(rule, MatchedPairs):
        if n_arms != 2:
            raise RuleScenarioMismatch("matched_pairs requires exactly two arms")
        # blocks of two at p = 1/2 (see MatchedPairs)
        return _assign_blocks(np.full((max(strata.k, 1), 2), 0.5), 2, strata, n_arms, u)
    if isinstance(rule, DeterministicAlternation):
        return np.tile(np.arange(m) % n_arms, (rows, 1))
    if isinstance(rule, FullTreatment):
        if not 0 <= int(rule.arm) < n_arms:
            raise RuleScenarioMismatch(
                f"full_treatment arm {rule.arm} outside 0..{n_arms - 1}"
            )
        return np.full((rows, m), int(rule.arm), dtype=np.int64)
    raise TypeError(f"unknown design rule {type(rule).__name__}")


def apply_rule(rule: DesignRule, x: np.ndarray, n_arms: int,
               rng: np.random.Generator, observe: ObserveFn | None = None,
               limit: int | None = None) -> np.ndarray:
    """Assign the first ``limit`` units (all of them when limit is None).

    ``x`` is the full covariate vector (rules may inspect it in its
    entirety), ``rng`` the rule's uniform stream positioned at its start,
    and ``observe`` maps a prefix of assignments to the corresponding
    observed outcomes (only outcome-adaptive rules call it).  Truncating
    ``limit`` never changes the assignments it still covers.  This is the
    one-row case of :func:`assign_block`.
    """
    x = np.asarray(x, dtype=np.int64)
    m = len(x) if limit is None else min(limit, len(x))
    if not isinstance(rule, TwoStageAdaptive):
        x = x[:m]
    strata = Strata(x[None])
    u = rng.random((1, uniforms_read(rule, len(x), strata.k)))
    row_observe = None if observe is None else (lambda w, row: observe(w))
    return assign_block(rule, strata, n_arms, u, row_observe, m)[0]


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
