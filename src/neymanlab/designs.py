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

Each rule's :meth:`~DesignRule.uniforms_read` gives its bound.  Because
consecutive draws of a generator equal one long draw, a caller may draw
the most any of its rules reads once per experiment and give every rule
that one sequence: each rule's assignments stay the ones a fresh stream
gives it alone.  Every rule is a kernel on a block of experiments, one row
of strata and one row of uniforms each (:meth:`~DesignRule.kernel`, run
through :func:`assign_block`); :func:`apply_rule` is its one-row case.

Registry.  Each rule class is the one entry of its kind in :data:`DESIGNS`:
its ``kind`` (config name and default label), config ``keys`` (:class:`Key`),
the arm count it requires (``arms``), :meth:`~DesignRule.build`, uniform
bound and kernel.  Config parsing and the runner read nothing else, so a new
design is one class, listed there.

Rules never look at outcomes except :class:`TwoStageAdaptive`, which reads
the pilot outcomes once, at the pilot boundary, through the ``observe``
callback supplied by the caller.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, ClassVar

import numpy as np

from .allocation import AllocationMap
from .errors import RuleScenarioMismatch
from .scenario import CLIP_EPS

ObserveFn = Callable[[np.ndarray], np.ndarray]
BlockObserveFn = Callable[[np.ndarray, int], np.ndarray]  # (w_prefix, row) -> y
_PAIR = np.array([[0, 1]])  # MatchedPairs' unshuffled block, the same in every stratum


def _alloc_tag(alloc: AllocationMap) -> str:
    digest = hashlib.sha1(np.ascontiguousarray(alloc.p).tobytes()).hexdigest()
    return digest[:8]


@dataclass(frozen=True)
class Key:
    """A config key of a design or estimator kind: the ``type`` it parses to
    (``AllocationMap`` for an allocation spec), a ``check(value, scenario)``
    parsing enforces with message ``rule``, and, unless ``required``, the
    ``default`` parsing fills in (None: the key stays absent)."""

    type: type
    check: Callable[[Any, Any], bool] | None = None
    rule: str = ""
    required: bool = True
    default: Any = None


class DesignRule:
    """An assignment rule; its class is the entry of its design kind."""

    kind: ClassVar[str]
    keys: ClassVar[dict[str, Key]] = {}
    arms: ClassVar[int | None] = None  # the arm count the kind requires; None: any

    @classmethod
    def build(cls, spec: dict, resolver) -> tuple[DesignRule, AllocationMap]:
        """The rule a parsed spec describes (``resolver.resolve`` gives an
        allocation spec's table), and the nominal allocation estimators
        default to; here for kinds without keys, nominally uniform."""
        return cls(), resolver.resolve("uniform")

    def uniforms_read(self, n: int, k: int) -> int:
        """Most uniforms the rule reads, a prefix of its row, for n units of k strata."""
        return 0

    def kernel(self, strata: Strata, n_arms: int, u: np.ndarray,
               observe: BlockObserveFn | None, n: int) -> np.ndarray:
        """Arms of every row of ``strata``, a prefix of n units; see :func:`assign_block`."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True, eq=False)
class IidPropensity(DesignRule):
    """Independent draws from p(x, .); leftover mass means unassigned."""

    alloc: AllocationMap

    kind = "iid_propensity"
    keys = {"alloc": Key(AllocationMap)}

    @classmethod
    def build(cls, spec, resolver):
        alloc = resolver.resolve(spec["alloc"])
        return cls(alloc), alloc

    def uniforms_read(self, n, k):
        return n

    def kernel(self, strata, n_arms, u, observe, n):
        _check_alloc(self.alloc, strata.x, n_arms, self.kind)
        return _draw_iid(self.alloc.p, strata.x, u[:, :strata.x.shape[1]])

    def describe(self) -> str:
        return f"{self.kind}(p#{_alloc_tag(self.alloc)})"


@dataclass(frozen=True, eq=False)
class StratifiedBlocks(DesignRule):
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

    kind = "stratified_blocks"
    keys = {"alloc": Key(AllocationMap),
            "block_size": Key(int, lambda b, scenario: b >= 2, "must be at least 2")}

    def __post_init__(self) -> None:
        if int(self.block_size) < 2:
            raise ValueError("block_size must be at least 2")
        object.__setattr__(self, "block_size", int(self.block_size))

    @classmethod
    def build(cls, spec, resolver):
        alloc = resolver.resolve(spec["alloc"])
        return cls(alloc, spec["block_size"]), alloc

    def uniforms_read(self, n, k):
        return (n // self.block_size + k) * (self.block_size - 1)

    @cached_property
    def template(self) -> np.ndarray:
        """(K, block_size) unshuffled block of every stratum: the arm codes
        of its :func:`_block_counts`, -1 last."""
        counts = _block_counts(self.alloc.p, self.block_size)
        codes = np.tile(np.append(np.arange(self.alloc.p.shape[1]), -1), len(counts))
        return np.repeat(codes, counts.ravel()).reshape(len(counts), self.block_size)

    def kernel(self, strata, n_arms, u, observe, n):
        _check_alloc(self.alloc, strata.x, n_arms, self.kind)
        return _assign_blocks(self.template, strata, u)

    def describe(self) -> str:
        return f"{self.kind}(B={self.block_size},p#{_alloc_tag(self.alloc)})"


@dataclass(frozen=True, eq=False)
class MatchedPairs(DesignRule):
    """Two-arm pairing by arrival order within each stratum.

    The first unit of a pair gets a fair-coin arm; its partner gets the
    complement.  This is :class:`StratifiedBlocks` with blocks of two and
    p = 1/2: the pair's variate swaps the template (0, 1) exactly when it
    is below 1/2.  A stratum's dangling unit (odd count) keeps its coin
    draw, which is the fair-coin fallback for leftovers.
    """

    kind = "matched_pairs"
    arms = 2

    def uniforms_read(self, n, k):
        return n // 2 + k

    def kernel(self, strata, n_arms, u, observe, n):
        return _assign_blocks(np.broadcast_to(_PAIR, (max(strata.k, 1), 2)), strata, u)


@dataclass(frozen=True, eq=False)
class TwoStageAdaptive(DesignRule):
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

    kind = "two_stage"
    keys = {"pilot_fraction": Key(float, lambda f, scenario: 0 < f < 1,
                                  "must lie strictly between 0 and 1"),
            "fallback": Key(AllocationMap, required=False, default="uniform")}
    arms = 2

    def __post_init__(self) -> None:
        if not 0.0 < float(self.pilot_fraction) < 1.0:
            raise ValueError("pilot_fraction must lie strictly between 0 and 1")

    @classmethod
    def build(cls, spec, resolver):
        # estimators default to the Neyman shares the rule aims at
        return (cls(spec["pilot_fraction"], resolver.resolve(spec["fallback"])),
                resolver.resolve("neyman"))

    def uniforms_read(self, n, k):
        return n

    def kernel(self, strata, n_arms, u, observe, n):
        if observe is None:
            raise ValueError(f"{self.kind} needs an observe callback")
        x = strata.x
        _check_alloc(self.fallback, x, n_arms, self.kind)
        rows, m = x.shape
        n_pilot = min(n, max(1, int(np.floor(self.pilot_fraction * n))))
        pilot = x[:, :n_pilot]
        w = _draw_iid(self.fallback.p, pilot, u[:, :pilot.shape[1]])
        if m <= n_pilot:
            return w
        k = self.fallback.p.shape[0]
        # each row adapts to its own pilot outcomes
        rest = np.empty((rows, m - n_pilot), dtype=np.int64)
        for r in range(rows):
            y_pilot = np.asarray(observe(w[r], r), dtype=float)
            ehat = _pilot_neyman(self, pilot[r], w[r], y_pilot, k)
            p_post = np.where(
                np.isnan(ehat)[:, None],
                self.fallback.p,
                np.column_stack([1.0 - ehat, ehat]),
            )
            rest[r] = _draw_iid(p_post, x[r, n_pilot:], u[r, n_pilot:m])
        return np.concatenate([w, rest], axis=1)

    def describe(self) -> str:
        return f"{self.kind}(pilot={self.pilot_fraction:g},fb#{_alloc_tag(self.fallback)})"


@dataclass(frozen=True, eq=False)
class DeterministicAlternation(DesignRule):
    """Cycle through the arms in unit order; consumes no variates."""

    kind = "alternation"

    def kernel(self, strata, n_arms, u, observe, n):
        rows, m = strata.x.shape
        return np.tile(np.arange(m) % n_arms, (rows, 1))


@dataclass(frozen=True, eq=False)
class FullTreatment(DesignRule):
    """Every unit gets the same arm; consumes no variates."""

    arm: int

    kind = "full_treatment"
    keys = {"arm": Key(int, lambda arm, scenario: 0 <= arm < scenario.n_arms,
                       "must be an arm of the scenario")}

    @classmethod
    def build(cls, spec, resolver):
        one_hot = np.eye(resolver.scenario.n_arms)[[spec["arm"]] * resolver.scenario.k]
        return cls(spec["arm"]), AllocationMap(one_hot, meta={"solver": "one_hot"})

    def kernel(self, strata, n_arms, u, observe, n):
        if not 0 <= int(self.arm) < n_arms:
            raise RuleScenarioMismatch(f"{self.kind} arm {self.arm} outside 0..{n_arms - 1}")
        return np.full(strata.x.shape, int(self.arm), dtype=np.int64)

    def describe(self) -> str:
        return f"{self.kind}({self.arm})"


DESIGNS: dict[str, type[DesignRule]] = {cls.kind: cls for cls in (
    IidPropensity, StratifiedBlocks, MatchedPairs, TwoStageAdaptive, DeterministicAlternation,
    FullTreatment)}


# ----------------------------------------------------------------------
# Vectorized application: every rule is a kernel on a block of rows.
# ----------------------------------------------------------------------


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
        stratum, in arrival order within each, and the size of each (row,
        stratum) group, row-major: ``sizes[r * k + s]`` units of row r lie
        in stratum s, for k = max(:attr:`k`, 1)."""
        if self._ranked is None:
            rows, n = self.x.shape
            k = max(self.k, 1)
            key = (self.x + k * np.arange(rows)[:, None]).ravel()
            # small keys take numpy's radix sort; the order is the same
            order = np.argsort(key.astype(np.min_scalar_type(rows * k)), kind="stable")
            self._ranked = order, np.bincount(key, minlength=rows * k)
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


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c-1 for each count c, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _assign_blocks(bases: np.ndarray, strata: Strata, u: np.ndarray) -> np.ndarray:
    """Shuffle each block of a (K, b) template (``StratifiedBlocks.template``)
    with its uniforms, and give each unit its block's slot."""
    b = bases.shape[1]
    rows, n = strata.x.shape
    k = max(strata.k, 1)
    order, sizes = strata.ranked()
    # Blocks in sorted order, group by group: a (row, stratum) group of s
    # units opens ceil(s / b) blocks, all full but its last, each at its
    # first unit (its opener).
    counts = -(-sizes // b)
    n_blocks = int(counts.sum())
    blocks = np.arange(n_blocks)
    starts = np.repeat(np.cumsum(sizes) - sizes, counts) + _ranks(counts) * b
    openers = order[starts]
    # A block's b-1 uniforms start at its place in its row's order of
    # openers, the order blocks open.  Rows lead both orders, so a row's
    # blocks take the same span of places in each.
    opening = np.empty(n_blocks, dtype=np.int64)
    opening[np.argsort(openers.astype(np.min_scalar_type(rows * n)), kind="stable")] = blocks
    row_blocks = counts.reshape(rows, k).sum(axis=1)
    row_first = np.cumsum(row_blocks) - row_blocks
    first_u = opening * (b - 1) + np.repeat(
        np.arange(rows) * u.shape[1] - row_first * (b - 1), row_blocks)

    # Fisher-Yates on every block at once, block-major: for j = b-1 down to
    # 1, slot j swaps with the slot its uniform number b-1-j picks.
    tmpl = bases.take(np.repeat(np.tile(np.arange(k), rows), counts), axis=0)
    flat = tmpl.ravel()
    for j in range(b - 1, 0, -1):
        at = blocks * b + np.minimum((u.take(first_u + (b - 1 - j)) * (j + 1)).astype(np.int64), j)
        held = tmpl[:, j].copy()
        tmpl[:, j] = flat.take(at)
        flat[at] = held

    # Sorted units take their blocks' slots in order, past the unused slots
    # that end each group's last block.
    pad = counts * b - sizes
    w = np.empty(order.size, dtype=np.int64)
    w[order] = np.delete(flat, np.repeat(np.cumsum(counts) * b - pad, pad) + _ranks(pad))
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


def assign_block(rule: DesignRule, strata: Strata, n_arms: int, u: np.ndarray,
                 observe: BlockObserveFn | None = None,
                 limit: int | None = None) -> np.ndarray:
    """Assign the first ``limit`` units of every row of a block (all of them
    when limit is None).

    ``u`` holds one row of uniforms per experiment, at least
    :meth:`~DesignRule.uniforms_read` of them; ``observe(w_prefix, row)``
    maps a prefix of a row's assignments to its observed outcomes (only
    outcome-adaptive rules call it).  Every row's assignments depend on its
    own strata and uniforms alone.
    """
    if rule.arms is not None and n_arms != rule.arms:
        raise RuleScenarioMismatch(f"{rule.kind} requires exactly {rule.arms} arms")
    n = strata.x.shape[1]
    if u.shape[1] < rule.uniforms_read(n, strata.k):
        raise ValueError("design stream holds too few uniforms for this rule")
    if limit is not None and limit < n:
        strata = Strata(strata.x[:, :limit])
    return rule.kernel(strata, n_arms, u, observe, n)


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
    strata = Strata(np.asarray(x, dtype=np.int64)[None])
    u = rng.random((1, rule.uniforms_read(strata.x.shape[1], strata.k)))
    row_observe = None if observe is None else (lambda w, row: observe(w))
    return assign_block(rule, strata, n_arms, u, row_observe, limit)[0]
