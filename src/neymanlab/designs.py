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
of strata and one row of uniforms each (:meth:`~DesignRule.kernel`); a
block of one row is one experiment.  Whether a rule fits its scenario
(arm count, allocation tables, arm index) is checked once, by
:meth:`~DesignRule.fit`, before any block is assigned; a kernel checks
nothing of it again.

The contract also holds across n for every rule but
:class:`TwoStageAdaptive`: the first n units of a run of any larger size
are assigned as a run of size n assigns them, so a caller may assign once,
at its largest n, and read every smaller n's run as a prefix.
:class:`TwoStageAdaptive` reads n itself, through its pilot size
floor(f n), and says so (``reads_n``); it is assigned once per size, on
that size's prefix of strata and uniforms.

Registry.  Each rule class is the one entry of its kind in :data:`DESIGNS`:
its ``kind`` (config name and default label), config ``keys`` (:class:`Key`),
the arm count it requires (``arms``), whether it reads n (``reads_n``),
:meth:`~DesignRule.build`, :meth:`~DesignRule.fit`, uniform bound and
kernel.  Config parsing and the runner read nothing else, so a new design
is one class, listed there.

Rules never look at outcomes except :class:`TwoStageAdaptive`, which reads
the pilot outcomes once per block, at the pilot boundary, through the
``observe`` callback the caller passes every kernel: one call maps the
(rows, pilot) block of assignments to its outcomes.  Each row's plug-in shares
come from its pilot cells, per (row, stratum, arm) counts, sums and squared
deviations, all rows in one bincount each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, ClassVar

import numpy as np

from .allocation import AllocationMap
from .scenario import CLIP_EPS, Scenario, _freeze, allocation_table

ObserveFn = Callable[[np.ndarray], np.ndarray]  # (rows, m) assignments -> (rows, m) outcomes
_PAIR = np.array([[0, 1]])  # MatchedPairs' unshuffled block, the same in every stratum


@dataclass(frozen=True)
class Key:
    """A config key of a kind (of design, estimator, study, allocation spec
    or functional): the ``type`` it parses to (``AllocationMap`` for an
    allocation spec, ``np.ndarray`` for a (strata, arms) table, ``list[int]``,
    ``str | float``, ...; ``config._PARSERS`` has one parser each), a
    ``check(value, scenario)`` parsing enforces with message ``rule``, and,
    unless ``required``, the ``default`` parsing fills in (None: the key
    stays absent)."""

    type: Any
    check: Callable[[Any, Any], bool] | None = None
    rule: str = ""
    required: bool = True
    default: Any = None


class DesignRule:
    """An assignment rule; its class is the entry of its design kind."""

    kind: ClassVar[str]
    keys: ClassVar[dict[str, Key]] = {}
    arms: ClassVar[int | None] = None  # the arm count the kind requires; None: any
    reads_n: ClassVar[bool] = False  # assignments depend on n, not only on the units so far

    @classmethod
    def build(cls, spec: dict, resolver) -> tuple[DesignRule, AllocationMap]:
        """The rule a parsed spec describes (``resolver.resolve`` gives an
        allocation spec's table), and the nominal allocation estimators
        default to; here for kinds without keys, nominally uniform."""
        return cls(), resolver.resolve("uniform")

    def fit(self, scenario: Scenario) -> None:
        """Raise a ``ValueError`` if the rule cannot randomize ``scenario``:
        the kind requires another arm count, or an allocation table of the
        rule is not of the scenario's (K, n_arms) shape."""
        if self.arms is not None and scenario.n_arms != self.arms:
            raise ValueError(f"{self.kind} requires exactly {self.arms} arms; "
                             f"the scenario has {scenario.n_arms}")
        for name, value in vars(self).items():
            if isinstance(value, AllocationMap):
                allocation_table(scenario, value.p, f"{self.kind}.{name}")

    def uniforms_read(self, n: int, k: int) -> int:
        """Most uniforms the rule reads, a prefix of its row, for n units of k strata."""
        return 0

    def kernel(self, strata: Strata, n_arms: int, u: np.ndarray,
               observe: ObserveFn, n: int) -> np.ndarray:
        """Arms of every row of ``strata``, a prefix of n units, for a
        scenario of ``strata.k`` strata and ``n_arms`` arms that the rule
        :meth:`fit`.  ``u`` holds one row of uniforms per experiment, at
        least :meth:`uniforms_read` of them; ``observe`` maps a (rows, m)
        block of every row's first m assignments to their observed outcomes
        (only outcome-adaptive rules call it).  Every row's assignments
        depend on its own strata and uniforms alone."""
        raise NotImplementedError


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
        return _draw_iid(self.alloc.p, strata.x, u[:, :strata.x.shape[1]])


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
        _freeze(self, block_size=int(self.block_size))

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
        return _assign_blocks(self.template, strata, u)


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
        return _assign_blocks(np.broadcast_to(_PAIR, (strata.k, 2)), strata, u)


@dataclass(frozen=True, eq=False)
class TwoStageAdaptive(DesignRule):
    """Pilot phase under a fallback allocation, then plug-in Neyman shares.

    After ``floor(pilot_fraction * n)`` units, per-stratum unbiased sample
    variances of the pilot outcomes give ehat(x) = s1/(s0+s1), clipped to
    [CLIP_EPS, 1-CLIP_EPS] (``scenario.CLIP_EPS``).  Strata where either
    arm has fewer than two pilot observations keep their whole fallback
    row, leftover mass included; an arm whose pilot outcomes are all equal
    has s = 0 exactly, and strata where both arms do use 1/2.
    """

    pilot_fraction: float
    fallback: AllocationMap

    kind = "two_stage"
    keys = {"pilot_fraction": Key(float, lambda f, scenario: 0 < f < 1,
                                  "must lie strictly between 0 and 1"),
            "fallback": Key(AllocationMap, required=False, default="uniform")}
    arms = 2
    reads_n = True  # the pilot is the first floor(pilot_fraction * n) units

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
        x, k = strata.x, strata.k
        rows, m = x.shape
        n_pilot = min(n, max(1, int(np.floor(self.pilot_fraction * n))))
        w = _draw_iid(self.fallback.p, x[:, :n_pilot], u[:, :min(m, n_pilot)])
        if m <= n_pilot:
            return w
        # each row adapts to its own pilot outcomes: one cell per (row,
        # stratum, arm), column 0 of a (row, stratum) holding its unassigned
        # units, and the variance in two passes, sums then deviations
        group = strata.key
        code = (3 * group[:, :n_pilot] + w + 1).ravel()
        y = np.ravel(observe(w))
        count = np.bincount(code, minlength=3 * rows * k)
        dev = y - (np.bincount(code, y, count.size) / np.maximum(count, 1))[code]
        ss = np.bincount(code, dev * dev, count.size)
        # a cell of equal outcomes has sd 0, however its mean rounds
        top, low = np.full(count.size, -np.inf), np.full(count.size, np.inf)
        np.maximum.at(top, code, y)
        np.minimum.at(low, code, y)
        ss[top == low] = 0.0
        sd = np.sqrt(ss / np.maximum(count - 1, 1)).reshape(-1, 3)[:, 1:]
        both = sd.sum(axis=1)  # 1/2 where both arms are flat
        ehat = np.clip(np.divide(sd[:, 1], both, out=np.full(len(both), 0.5), where=both > 0),
                       CLIP_EPS, 1.0 - CLIP_EPS)
        # strata with fewer than two pilot units on an arm keep their whole fallback row
        thin = (count.reshape(-1, 3)[:, 1:] < 2).any(axis=1)
        p_post = np.where(thin[:, None], np.tile(self.fallback.p, (rows, 1)),
                          np.column_stack([1.0 - ehat, ehat]))
        return np.concatenate([w, _draw_iid(p_post, group[:, n_pilot:], u[:, n_pilot:m])], axis=1)


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
        return cls(spec["arm"]), AllocationMap(one_hot)

    def fit(self, scenario):
        super().fit(scenario)
        if not 0 <= int(self.arm) < scenario.n_arms:
            raise ValueError(f"{self.kind} arm {self.arm} outside 0..{scenario.n_arms - 1}")

    def kernel(self, strata, n_arms, u, observe, n):
        return np.full(strata.x.shape, int(self.arm), dtype=np.int64)


DESIGNS: dict[str, type[DesignRule]] = {cls.kind: cls for cls in (
    IidPropensity, StratifiedBlocks, MatchedPairs, TwoStageAdaptive, DeterministicAlternation,
    FullTreatment)}


# ----------------------------------------------------------------------
# Vectorized application: every rule is a kernel on a block of rows.
# ----------------------------------------------------------------------


class Strata:
    """Strata of a block of experiments, one row of arrivals each, every
    value in 0..k-1 for the scenario's K strata; ``key``, each unit's (row,
    stratum) group ``r k + x``, computed once; and ``counts``, the (rows,
    k) units per group.

    :meth:`ranked` is the one stable sort by (row, stratum) that the
    block-based rules share.
    """

    def __init__(self, x: np.ndarray, k: int) -> None:
        self.x = np.asarray(x, dtype=np.int64)
        self.k = k
        self.key = self.x + k * np.arange(len(self.x))[:, None]
        self.counts = np.bincount(self.key.ravel(), minlength=len(self.x) * k).reshape(-1, k)
        self._order: np.ndarray | None = None

    def ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """The units of the row-major flattened block sorted by row and
        stratum, in arrival order within each, and the size of each (row,
        stratum) group, row-major: ``sizes[r * k + s]`` units of row r lie
        in stratum s."""
        if self._order is None:
            # small keys take numpy's radix sort; the order is the same
            key = self.key.ravel().astype(np.min_scalar_type(self.counts.size))
            self._order = np.argsort(key, kind="stable")
        return self._order, self.counts.ravel()


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
    k = strata.k
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
