"""Treatment-effect estimators and Monte Carlo risk summaries.

The inverse-propensity kinds divide by assignment probabilities and
therefore refuse allocations that put less than ``scenario.CLIP_EPS`` on
an arm they weight by.  No estimator reads outcomes of unassigned units
(w = -1); such units still count toward the sample size n in the
Horvitz-Thompson and augmented estimators, which is what makes those
estimators unbiased under designs that deliberately leave units out.

Every kind reads a log only through its cell table (``engine.Cells``):
each is a few lines on K x n_arms arrays of counts and outcome sums, and
on a table with a leading axis of rows it gives one estimate per row.  An
estimator is a statistic of ``engine.chunk_stats``, which a study calls
once per group of blocks of replications.

Each estimator class is the one entry of its kind in :data:`ESTIMATORS`,
as designs are in ``designs.DESIGNS``: kind, config keys, the arm count it
requires (``arms``), whether it estimates the ATE and so needs that
functional (``ate``), build, and its cell estimator (:meth:`Estimator.from_cells`).
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .allocation import AllocationMap
from .designs import DesignRule, Key
from .engine import Cells, cell_sum, simulate
from .errors import EmptyArm, PropensityOutOfRange
from .scenario import CLIP_EPS, Scenario, Submodel, allocation_table, tau_at


def _require_floor(p: np.ndarray, mask: np.ndarray, who: str) -> None:
    if np.any(mask & (p < CLIP_EPS)):
        kx, wx = np.argwhere(mask & (p < CLIP_EPS))[0]
        raise PropensityOutOfRange(
            f"{who}: allocation entry p[{kx},{wx}] = {float(p[kx, wx])} is below the "
            f"floor {CLIP_EPS}"
        )


class Estimator:
    """A treatment-effect estimator; its class is the entry of its kind."""

    kind: ClassVar[str]
    keys: ClassVar[dict[str, Key]] = {}
    arms: ClassVar[int | None] = None  # the arm count the kind requires; None: any
    ate: ClassVar[bool] = False  # True: estimates arm 1 - arm 0, so needs the ATE functional

    @classmethod
    def build(cls, spec: dict, resolver, nominal: AllocationMap) -> Estimator:
        """The estimator a parsed spec describes under a design whose nominal
        allocation is ``nominal``, which an absent ``alloc`` key stands for;
        here for kinds without keys."""
        return cls()

    def from_cells(self, c: Cells) -> np.ndarray:
        """Point estimate from a log's cell table, or one per row of a
        table with a leading axis of rows."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class DiffMeans(Estimator):
    """Unadjusted difference of arm means (two arms)."""

    kind = "diff_means"
    ate = True

    def from_cells(self, c):
        arms = _arm_counts(c, self.kind)
        sums = c.total.sum(axis=-2)
        return sums[..., 1] / arms[..., 1] - sums[..., 0] / arms[..., 0]


@dataclass(frozen=True, eq=False)
class _TwoArmWeighting(Estimator):
    alloc: AllocationMap

    keys = {"alloc": Key(AllocationMap, required=False)}
    arms = 2
    ate = True

    def __post_init__(self) -> None:
        if self.alloc.p.shape[1] != self.arms:
            raise ValueError(f"{self.kind} supports two-arm scenarios only")
        _require_floor(self.alloc.p, True, self.kind)

    @classmethod
    def build(cls, spec, resolver, nominal):
        return cls(resolver.resolve(spec["alloc"]) if "alloc" in spec else nominal)


class IpwHT(_TwoArmWeighting):
    """Horvitz-Thompson ATE: mean of w*y/e(x) - (1-w)*y/(1-e(x))."""

    kind = "ipw_ht"

    def from_cells(self, c):
        e = self.alloc.p[:, 1]
        return (c.total[..., 1] / e - c.total[..., 0] / (1.0 - e)).sum(axis=-1) / c.n


class IpwHajek(_TwoArmWeighting):
    """Ratio-normalized inverse-propensity ATE (two arms)."""

    kind = "ipw_hajek"

    def from_cells(self, c):
        _arm_counts(c, self.kind)
        e = self.alloc.p[:, 1]
        wt, wc = 1.0 / e, 1.0 / (1.0 - e)
        return ((wt * c.total[..., 1]).sum(axis=-1) / (wt * c.count[..., 1]).sum(axis=-1)
                - (wc * c.total[..., 0]).sum(axis=-1) / (wc * c.count[..., 0]).sum(axis=-1))


@dataclass(frozen=True, eq=False)
class AipwOracle(Estimator):
    """Augmented IPW with the scenario's true outcome means.

    Works for any number of arms and any linear functional: the estimate
    is the sample mean of

        sum_w mu_tilde(x_i, w)  +  (y_tilde_i - mu_tilde(x_i, w_i)) / p(x_i, w_i)

    where the correction term is present only for assigned units and only
    on arms the functional actually weights (a_tilde != 0).
    """

    scenario: Scenario
    alloc: AllocationMap

    kind = "aipw_oracle"
    keys = {"alloc": Key(AllocationMap, required=False)}

    def __post_init__(self) -> None:
        allocation_table(self.scenario, self.alloc.p, "alloc")
        _require_floor(self.alloc.p, self.scenario.functional.a_tilde != 0, self.kind)

    @classmethod
    def build(cls, spec, resolver, nominal):
        alloc = resolver.resolve(spec["alloc"]) if "alloc" in spec else nominal
        return cls(resolver.scenario, alloc)

    def from_cells(self, c):
        # a cell's corrections sum to (a_tilde * S + (b_tilde - mu_tilde) * N) / p
        fn, mu_t = self.scenario.functional, self.scenario.mu_tilde
        corr = np.divide(fn.a_tilde * c.total + (fn.b_tilde - mu_t) * c.count, self.alloc.p,
                         out=np.zeros(c.total.shape), where=fn.a_tilde != 0)
        return ((c.strata * mu_t.sum(axis=1)).sum(axis=-1) + cell_sum(corr)) / c.n


@dataclass(frozen=True, eq=False)
class StratifiedMeans(Estimator):
    """Stratum-frequency-weighted difference of within-stratum arm means."""

    kind = "stratified_means"
    ate = True

    def from_cells(self, c):
        _arm_counts(c, self.kind)
        present = c.strata > 0
        missing = present[..., None] & (c.count[..., :2] == 0)
        if np.any(missing):
            s = int(np.argwhere(missing)[0][-2])
            raise EmptyArm(f"{self.kind}: stratum {s} has an empty arm")
        mean = c.total[..., :2] / np.maximum(c.count[..., :2], 1)
        diff = np.where(present, mean[..., 1] - mean[..., 0], 0.0)
        return ((c.strata / c.n) * diff).sum(axis=-1)


ESTIMATORS: dict[str, type[Estimator]] = {cls.kind: cls for cls in (
    DiffMeans, IpwHT, IpwHajek, AipwOracle, StratifiedMeans)}


def _arm_counts(c: Cells, who: str) -> np.ndarray:
    """Units per arm; raises unless arms 0 and 1 both have some in every row."""
    arms = c.count.sum(axis=-2)
    if arms.shape[-1] < 2 or not np.all(arms[..., :2]):
        raise EmptyArm(f"{who} needs at least one unit per arm")
    return arms


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Monte Carlo risk of one estimator under one design.

    ``variance_times_n`` and ``mse_times_n`` both use the reps-1
    normalization, so ``mse - variance = reps/(reps-1) * bias**2 >= 0``
    holds exactly.  ``mc_std_error`` is the Gaussian-approximation
    standard error of ``variance_times_n`` itself.
    """

    reps: int
    mean: float
    bias: float
    variance_times_n: float
    mse_times_n: float
    mc_std_error: float


def _risk_report(values: np.ndarray, n: int, truth: float) -> RiskReport:
    reps = len(values)
    mean = float(values.mean())
    var_n = float(n * values.var(ddof=1))
    mse_n = float(n * np.sum((values - truth) ** 2) / (reps - 1))
    return RiskReport(reps, mean, mean - truth, var_n, mse_n,
                      var_n * float(np.sqrt(2.0 / (reps - 1))))


def risk_by_design(designs: list[tuple[DesignRule, list[Estimator]]], sub: Submodel,
                   theta: float, n: int, reps: int, seed_base: int,
                   pool: Executor | None = None) -> list[list[RiskReport]]:
    """Risk of each (rule, estimators) pair; all rules run on each replication's
    one draw (one engine pass per rep, ``engine.simulate``)."""
    columns = iter(simulate(sub, theta, [n], designs, reps, seed_base, pool).T)
    truth = tau_at(sub, theta)
    return [[_risk_report(next(columns), n, truth) for _ in ests] for _, ests in designs]
