"""Exact likelihood ratios along a submodel and their quadratic expansion.

For a log generated at the truth (theta = 0) and a local parameter
``theta_n = h / sqrt(n)``, the exact log likelihood ratio of the submodel
splits into

    ell = lin_x + lin_y + quad_x + quad_y + remainder

where ``lin_x`` and ``lin_y`` are the normalized covariate and outcome
score sums, ``quad_x = -h^2 i_x / 2`` is deterministic, ``quad_y``
averages the conditional informations of the arms actually assigned, and
the remainder is whatever the exact ratio has left over.  Because the
outcome family is Gaussian with fixed variance, its contribution to the
ratio is exactly quadratic; the remainder comes from the covariate tilt
alone.  It equals ``-n log Z(h / sqrt(n)) + h^2 i_x / 2`` for every log of
size n, whatever the design, and shrinks like 1/sqrt(n).

Every term is a sum over the log's (stratum, arm) cells (see
``engine.cell_table``): ``lin_x`` from N[x] s_x(x), ``lin_y`` from
c_shift / sigma2 * (S - N mu), and the information sum from N i_cond.

The realized information ``info_tilde_n = i_x + (1/n) sum_i i_cond(x_i, w_i)``
depends on the design only through which arms were assigned.  A design
that under-uses the available information can be topped up to a target
level ``i_star`` by an independent Gaussian coordinate: see
:func:`augment_with_z`.

The Monte Carlo summary (:class:`LanReport`) measures the Kolmogorov-Smirnov
distance of m ratios to the limit law N(mu, sigma^2), mu = -h^2 i_star / 2
and sigma^2 = h^2 i_star, in numpy: with the ratios sorted and
F_i = erfc((mu - ell_(i)) / (sigma sqrt 2)) / 2 the normal cdf at the i-th
(``math.erfc``),

    D = max_i max(i / m - F_i, F_i - (i - 1) / m),

the statistic ``scipy.stats.kstest`` computes.  The two agree to within an
ulp or two: libm's erfc and scipy's normal cdf differ in the last bits.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .designs import DesignRule
from .engine import (STREAMS, Cells, ExperimentLog, cell_groups, cell_sum, cell_table, keyed,
                     map_reps, rep_seeds, seed_words, stream)
from .errors import DegenerateReps, InfoExceedsTarget
from .scenario import Submodel, informations

INFO_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LrDecomposition:
    """Exact log likelihood ratio and its expansion terms for one log."""

    ell_exact: float
    lin_x: float
    lin_y: float
    quad_x: float
    quad_y: float
    remainder: float
    info_tilde_n: float
    augmented: bool = False


def _decomposer(sub: Submodel, n: int, h: float) -> Callable[[Cells], LrDecomposition]:
    """The decomposition for logs of size n, from a log's cells or one per
    row of a table with a leading axis of rows (as arrays), which a study
    gives once per group of blocks: with Gaussian outcomes of fixed variance
    every term is a sum over cells, exactly.  The terms fixed by (sub, n, h)
    are computed here, once."""
    theta_n = h / np.sqrt(n)
    i_x, i_cond = informations(sub)
    mu, s2 = sub.base.outcomes.mu, sub.base.outcomes.sigma2
    active = sub.c_shift != 0
    weight = np.divide(sub.c_shift, s2, out=np.zeros_like(s2), where=active)
    quad_x = float(-0.5 * h * h * i_x)
    n_log_norm = n * sub.log_norm(theta_n)

    def decompose(c: Cells) -> LrDecomposition:
        sx_sum = (c.strata * sub.s_x).sum(axis=-1)
        lin_x = theta_n * sx_sum
        # sum_i c (y_i - mu) / sigma2 over the units of each cell
        lin_y = theta_n * cell_sum(weight * (c.total - c.count * mu))
        info_sum = cell_sum(c.count * i_cond)
        quad_y = -0.5 * h * h * info_sum / n

        # Exact ratio: covariate tilt plus Gaussian mean-shift terms.  The
        # Gaussian part telescopes to exactly lin_y + quad_y.
        tilt = theta_n * sx_sum - n_log_norm
        ell = tilt + lin_y + quad_y

        return LrDecomposition(
            ell_exact=ell,
            lin_x=lin_x,
            lin_y=lin_y,
            quad_x=quad_x,
            quad_y=quad_y,
            remainder=ell - (lin_x + lin_y + quad_x + quad_y),
            info_tilde_n=i_x + info_sum / n,
        )

    return decompose


def log_likelihood_ratio(sub: Submodel, log: ExperimentLog, h: float) -> LrDecomposition:
    """Decompose the exact log likelihood ratio at theta_n = h / sqrt(n).

    The exact ratio and the four expansion terms are computed
    independently (scores and informations on one side, tilted densities
    on the other); the remainder is their difference, not a fitted
    quantity.  At h = 0 every field is exactly zero.
    """
    return _decomposer(sub, log.n, h)(
        cell_table(log.x, log.w, log.y, sub.base.k, sub.base.n_arms))


def _augment(dec: LrDecomposition, h: float, i_star: float, n: int,
             z_sum: float | np.ndarray) -> LrDecomposition:
    sigma_n = i_star - dec.info_tilde_n
    over = np.atleast_1d(sigma_n < -INFO_TOL)
    if over.any():
        info = float(np.atleast_1d(dec.info_tilde_n)[over][0])
        raise InfoExceedsTarget(f"realized information {info!r} exceeds target {i_star!r}")
    sigma_n = np.maximum(0.0, sigma_n)
    lin_add = z_sum * np.sqrt(sigma_n) * h / np.sqrt(n)
    quad_add = -0.5 * h * h * sigma_n
    return replace(
        dec,
        ell_exact=dec.ell_exact + lin_add + quad_add,
        lin_y=dec.lin_y + lin_add,
        quad_y=dec.quad_y + quad_add,
        info_tilde_n=dec.info_tilde_n + sigma_n,
        augmented=True,
    )


def _augment_sum(rng: np.random.Generator, n: int) -> float:
    """Sum of the first n standard normals of a seed's augmentation stream."""
    return float(rng.standard_normal(n).sum())


def augment_with_z(sub: Submodel, log: ExperimentLog, h: float,
                   i_star: float) -> LrDecomposition:
    """Pad a log's likelihood ratio up to information level ``i_star``.

    Draws n standard normals from the log's own augmentation stream (so
    augmented and plain runs of one seed share identical logs) and adds
    the exact ratio of the auxiliary Gaussian coordinate, whose
    information is ``sigma_n = i_star - info_tilde_n``.  Raises
    :class:`InfoExceedsTarget` when the log already carries more
    information than the target allows.
    """
    return _augment(log_likelihood_ratio(sub, log, h), h, i_star, log.n,
                    _augment_sum(stream(log.seed, "augment"), log.n))


@dataclass(frozen=True, eq=False)
class LanReport:
    """Monte Carlo summary of the likelihood-ratio distribution.

    The limiting law has mean ``-h^2 i_star / 2`` and variance
    ``h^2 i_star``; ``ks_distance`` measures the empirical distance to it
    (flagged degenerate and set to 0 when the target is a point mass).
    ``mean_abs_remainder`` is the Monte Carlo mean of the per-log
    remainders; see the module docstring for its closed form.
    """

    h: float
    n: int
    reps: int
    mean_ell: float
    var_ell: float
    target_mean: float
    target_var: float
    ks_distance: float
    ks_degenerate: bool
    mean_abs_remainder: float
    mean_info: float
    augmented: bool


def _chunk_lan(sub, rules, h, n, i_star, augment, seeds) -> np.ndarray:
    """One row per seed: (ell, remainder, info) of every rule on that seed's draw."""
    out = np.empty((len(seeds), len(rules), 3))
    decompose = _decomposer(sub, n, h)
    if augment:
        keys = seed_words(seeds, [STREAMS["augment"]], 2)[:, 0].tolist()
        gen = np.random.Generator(np.random.Philox(0))  # keyed before each sum
    for rows, cells in cell_groups(sub, 0.0, n, seeds, rules):
        if augment:
            z_sum = np.array([_augment_sum(keyed(gen, key), n) for key in keys[rows]])
        for j, c in enumerate(cells):
            dec = decompose(c)
            if augment:
                dec = _augment(dec, h, i_star, n, z_sum)
            out[rows, j] = np.column_stack([dec.ell_exact, dec.remainder, dec.info_tilde_n])
    return out.reshape(len(seeds), -1)


def _ks_distance(sample: np.ndarray, mean: float, sd: float) -> float:
    """Kolmogorov-Smirnov distance from the sample's empirical law to
    N(mean, sd^2); see the module docstring."""
    x = np.sort(sample)
    m = len(x)
    z = ((mean - x) / (sd * math.sqrt(2.0))).tolist()
    cdf = np.array([0.5 * math.erfc(t) for t in z])
    return float(max((np.arange(1.0, m + 1) / m - cdf).max(),
                     (cdf - np.arange(0.0, m) / m).max()))


def _report(per_log: np.ndarray, h: float, n: int, i_star: float, augment: bool) -> LanReport:
    ells = per_log[:, 0]
    target_mean = -0.5 * h * h * i_star
    target_var = h * h * i_star
    degenerate = target_var <= 0
    ks = 0.0 if degenerate else _ks_distance(ells, target_mean, float(np.sqrt(target_var)))

    return LanReport(
        h=float(h),
        n=int(n),
        reps=len(per_log),
        mean_ell=float(ells.mean()),
        var_ell=float(ells.var(ddof=1)),
        target_mean=float(target_mean),
        target_var=float(target_var),
        ks_distance=ks,
        ks_degenerate=bool(degenerate),
        mean_abs_remainder=float(np.abs(per_log[:, 1]).mean()),
        mean_info=float(per_log[:, 2].mean()),
        augmented=bool(augment),
    )


def lan_by_design(sub: Submodel, rules: list[DesignRule], h: float, n: int, reps: int,
                  seed_base: int, i_star: float, augment: bool = False,
                  pool: Executor | None = None) -> list[LanReport]:
    """One :func:`lan_diagnostics` report per rule; all rules run on each
    replication's one draw."""
    if reps < 2:
        raise DegenerateReps("lan diagnostics need at least two replications")
    seeds = rep_seeds(seed_base, reps)
    per_log = map_reps(_chunk_lan, (sub, rules, h, n, i_star, augment), seeds, pool)
    return [_report(per_log[:, 3 * j: 3 * j + 3], h, n, i_star, augment)
            for j in range(len(rules))]


def lan_diagnostics(sub: Submodel, rule: DesignRule, h: float, n: int, reps: int,
                    seed_base: int, i_star: float, augment: bool = False,
                    pool: Executor | None = None) -> LanReport:
    """Simulate logs at the truth and summarize their likelihood ratios."""
    return lan_by_design(sub, [rule], h, n, reps, seed_base, i_star, augment, pool)[0]
