"""Treatment-effect estimators and Monte Carlo risk summaries.

The inverse-propensity kinds divide by assignment probabilities and
therefore refuse allocations that put less than ``clip_eps`` on an arm
they weight by.  ``estimate`` never reads outcomes of unassigned units
(w = -1); such units still count toward the sample size n in the
Horvitz-Thompson and augmented estimators, which is what makes those
estimators unbiased under designs that deliberately leave units out.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .allocation import AllocationMap
from .designs import DesignRule
from .engine import ExperimentLog, map_reps, rep_seed, run_one
from .errors import DegenerateReps, EmptyArm, PropensityOutOfRange
from .scenario import CLIP_EPS, Scenario, Submodel, tau_at


def _require_floor(p: np.ndarray, mask: np.ndarray, who: str, clip_eps: float) -> None:
    if np.any(mask & (p < clip_eps)):
        kx, wx = np.argwhere(mask & (p < clip_eps))[0]
        raise PropensityOutOfRange(
            f"{who}: allocation entry p[{kx},{wx}] = {p[kx, wx]!r} is below the "
            f"floor {clip_eps}"
        )


def _binary_shares(alloc: AllocationMap, who: str, clip_eps: float) -> np.ndarray:
    if alloc.p.shape[1] != 2:
        raise ValueError(f"{who} supports two-arm scenarios only")
    _require_floor(alloc.p, np.ones_like(alloc.p, dtype=bool), who, clip_eps)
    return alloc.p[:, 1]


@dataclass(frozen=True, eq=False)
class DiffMeans:
    """Unadjusted difference of arm means (two arms)."""


@dataclass(frozen=True, eq=False)
class IpwHT:
    """Horvitz-Thompson ATE: mean of w*y/e(x) - (1-w)*y/(1-e(x))."""

    alloc: AllocationMap
    clip_eps: float = CLIP_EPS

    def __post_init__(self) -> None:
        _binary_shares(self.alloc, "ipw_ht", self.clip_eps)


@dataclass(frozen=True, eq=False)
class IpwHajek:
    """Ratio-normalized inverse-propensity ATE (two arms)."""

    alloc: AllocationMap
    clip_eps: float = CLIP_EPS

    def __post_init__(self) -> None:
        _binary_shares(self.alloc, "ipw_hajek", self.clip_eps)


@dataclass(frozen=True, eq=False)
class AipwOracle:
    """Augmented IPW with the scenario's true outcome means.

    Works for any number of arms and any linear functional: the estimate
    is the sample mean of

        sum_w mu_tilde(x_i, w)  +  (y_tilde_i - mu_tilde(x_i, w_i)) / p(x_i, w_i)

    where the correction term is present only for assigned units and only
    on arms the functional actually weights (a_tilde != 0).
    """

    scenario: Scenario
    alloc: AllocationMap
    clip_eps: float = CLIP_EPS

    def __post_init__(self) -> None:
        if self.alloc.p.shape != self.scenario.outcomes.mu.shape:
            raise ValueError("allocation table does not match the scenario")
        _require_floor(
            self.alloc.p, self.scenario.functional.a_tilde != 0, "aipw_oracle", self.clip_eps
        )


@dataclass(frozen=True, eq=False)
class StratifiedMeans:
    """Stratum-frequency-weighted difference of within-stratum arm means."""


Estimator = DiffMeans | IpwHT | IpwHajek | AipwOracle | StratifiedMeans


def _diff_means(log: ExperimentLog) -> float:
    t = log.w == 1
    c = log.w == 0
    if not t.any() or not c.any():
        raise EmptyArm("diff_means needs at least one unit per arm")
    return float(log.y[t].mean() - log.y[c].mean())


def _ipw_ht(est: IpwHT, log: ExperimentLog) -> float:
    e = est.alloc.p[log.x, 1]
    t = log.w == 1
    c = log.w == 0
    contrib = np.zeros(log.n)
    contrib[t] = log.y[t] / e[t]
    contrib[c] = -log.y[c] / (1.0 - e[c])
    return float(contrib.mean())


def _ipw_hajek(est: IpwHajek, log: ExperimentLog) -> float:
    e = est.alloc.p[log.x, 1]
    t = log.w == 1
    c = log.w == 0
    if not t.any() or not c.any():
        raise EmptyArm("ipw_hajek needs at least one unit per arm")
    wt = 1.0 / e[t]
    wc = 1.0 / (1.0 - e[c])
    return float((wt @ log.y[t]) / wt.sum() - (wc @ log.y[c]) / wc.sum())


def _aipw_oracle(est: AipwOracle, log: ExperimentLog) -> float:
    sc = est.scenario
    mu_t = sc.mu_tilde
    reg = mu_t.sum(axis=1)[log.x]
    obs = log.w >= 0
    xi, wi = log.x[obs], log.w[obs]
    a = sc.functional.a_tilde[xi, wi]
    active = a != 0
    resid = np.zeros(log.n)
    y_tilde = a * log.y[obs] + sc.functional.b_tilde[xi, wi]
    corr = np.zeros(len(xi))
    corr[active] = (y_tilde[active] - mu_t[xi, wi][active]) / est.alloc.p[xi, wi][active]
    resid[obs] = corr
    return float((reg + resid).mean())


def _stratified_means(log: ExperimentLog) -> float:
    k = int(log.x.max()) + 1
    obs = log.w >= 0
    code = log.x[obs] * 2 + log.w[obs]
    counts = np.bincount(code, minlength=2 * k).reshape(k, 2)
    sums = np.bincount(code, weights=log.y[obs], minlength=2 * k).reshape(k, 2)
    present = np.bincount(log.x, minlength=k) > 0
    missing = present[:, None] & (counts == 0)
    if np.any(missing):
        s = int(np.argwhere(missing)[0][0])
        raise EmptyArm(f"stratified_means: stratum {s} has an empty arm")
    diff = np.where(present, sums[:, 1] / np.maximum(counts[:, 1], 1)
                    - sums[:, 0] / np.maximum(counts[:, 0], 1), 0.0)
    weights = np.bincount(log.x, minlength=k) / log.n
    return float(weights @ diff)


def estimate(est: Estimator, log: ExperimentLog) -> float:
    if isinstance(est, DiffMeans):
        return _diff_means(log)
    if isinstance(est, IpwHT):
        return _ipw_ht(est, log)
    if isinstance(est, IpwHajek):
        return _ipw_hajek(est, log)
    if isinstance(est, AipwOracle):
        return _aipw_oracle(est, log)
    if isinstance(est, StratifiedMeans):
        return _stratified_means(log)
    raise TypeError(f"unknown estimator {type(est).__name__}")


def describe_estimator(est: Estimator) -> str:
    return {
        DiffMeans: "diff_means",
        IpwHT: "ipw_ht",
        IpwHajek: "ipw_hajek",
        AipwOracle: "aipw_oracle",
        StratifiedMeans: "stratified_means",
    }[type(est)]


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


def _chunk_estimates(sub, theta, rule, n, ests, seeds) -> np.ndarray:
    out = np.empty((len(seeds), len(ests)))
    for i, seed in enumerate(seeds):
        log = run_one(sub, theta, rule, n, seed)
        for j, est in enumerate(ests):
            out[i, j] = estimate(est, log)
    return out


def risk_table(
    estimators: list[Estimator],
    sub: Submodel,
    theta: float,
    rule: DesignRule,
    n: int,
    reps: int,
    seed_base: int,
    pool: Executor | None = None,
) -> list[RiskReport]:
    """Risk of several estimators on shared logs (one engine pass per rep)."""
    if reps < 2:
        raise DegenerateReps("risk summaries need at least two replications")
    seeds = [rep_seed(seed_base, r) for r in range(reps)]
    values = map_reps(_chunk_estimates, (sub, theta, rule, n, estimators), seeds, pool)

    truth = tau_at(sub, theta)
    reports = []
    for j in range(len(estimators)):
        col = values[:, j]
        mean = float(col.mean())
        var_n = float(n * col.var(ddof=1))
        mse_n = float(n * np.sum((col - truth) ** 2) / (reps - 1))
        reports.append(
            RiskReport(
                reps=reps,
                mean=mean,
                bias=mean - truth,
                variance_times_n=var_n,
                mse_times_n=mse_n,
                mc_std_error=var_n * float(np.sqrt(2.0 / (reps - 1))),
            )
        )
    return reports


def risk_over_reps(
    est: Estimator,
    sub: Submodel,
    theta: float,
    rule: DesignRule,
    n: int,
    reps: int,
    seed_base: int,
    pool: Executor | None = None,
) -> RiskReport:
    """Monte Carlo risk of a single estimator; see :func:`risk_table`."""
    return risk_table([est], sub, theta, rule, n, reps, seed_base, pool)[0]
