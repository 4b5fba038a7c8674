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

The realized information ``info_tilde_n = i_x + (1/n) sum_i i_cond(x_i, w_i)``
depends on the design only through which arms were assigned.  A design
that under-uses the available information can be topped up to a target
level ``i_star`` by an independent Gaussian coordinate: see
:func:`augment_with_z`.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, replace

import numpy as np

from .designs import DesignRule
from .engine import ExperimentLog, map_reps, rep_seed, run_one, stream
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


def log_likelihood_ratio(sub: Submodel, log: ExperimentLog, h: float) -> LrDecomposition:
    """Decompose the exact log likelihood ratio at theta_n = h / sqrt(n).

    The exact ratio and the four expansion terms are computed
    independently (scores and informations on one side, tilted densities
    on the other); the remainder is their difference, not a fitted
    quantity.  At h = 0 every field is exactly zero.
    """
    n = log.n
    theta_n = h / np.sqrt(n)
    i_x, i_cond = informations(sub)

    sx_sum = float(sub.s_x[log.x].sum())
    lin_x = theta_n * sx_sum
    quad_x = -0.5 * h * h * i_x

    obs = log.w >= 0
    xi, wi = log.x[obs], log.w[obs]
    c = sub.c_shift[xi, wi]
    active = c != 0
    score_y = np.zeros(len(xi))
    if active.any():
        mu = sub.base.outcomes.mu[xi, wi][active]
        s2 = sub.base.outcomes.sigma2[xi, wi][active]
        score_y[active] = c[active] * (log.y[obs][active] - mu) / s2
    info_sum = float(i_cond[xi, wi].sum())
    lin_y = theta_n * float(score_y.sum())
    quad_y = -0.5 * h * h * info_sum / n

    # Exact ratio: covariate tilt plus Gaussian mean-shift terms.  The
    # Gaussian part telescopes to exactly lin_y + quad_y.
    tilt = theta_n * sx_sum - n * sub.log_norm(theta_n)
    ell = tilt + lin_y + quad_y

    return LrDecomposition(
        ell_exact=float(ell),
        lin_x=float(lin_x),
        lin_y=float(lin_y),
        quad_x=float(quad_x),
        quad_y=float(quad_y),
        remainder=float(ell - (lin_x + lin_y + quad_x + quad_y)),
        info_tilde_n=float(i_x + info_sum / n),
    )


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
    dec = log_likelihood_ratio(sub, log, h)
    sigma_n = i_star - dec.info_tilde_n
    if sigma_n < -INFO_TOL:
        raise InfoExceedsTarget(
            f"realized information {dec.info_tilde_n!r} exceeds target {i_star!r}"
        )
    sigma_n = max(0.0, sigma_n)
    z = stream(log.seed, "augment").standard_normal(log.n)
    lin_add = float(z.sum()) * np.sqrt(sigma_n) * h / np.sqrt(log.n)
    quad_add = -0.5 * h * h * sigma_n
    return replace(
        dec,
        ell_exact=dec.ell_exact + lin_add + quad_add,
        lin_y=dec.lin_y + lin_add,
        quad_y=dec.quad_y + quad_add,
        info_tilde_n=dec.info_tilde_n + sigma_n,
        augmented=True,
    )


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


def _chunk_lan(sub, rule, h, n, i_star, augment, seeds) -> np.ndarray:
    out = np.empty((len(seeds), 3))
    for i, seed in enumerate(seeds):
        log = run_one(sub, 0.0, rule, n, seed)
        dec = (
            augment_with_z(sub, log, h, i_star)
            if augment
            else log_likelihood_ratio(sub, log, h)
        )
        out[i] = (dec.ell_exact, dec.remainder, dec.info_tilde_n)
    return out


def lan_diagnostics(
    sub: Submodel,
    rule: DesignRule,
    h: float,
    n: int,
    reps: int,
    seed_base: int,
    i_star: float,
    augment: bool = False,
    pool: Executor | None = None,
) -> LanReport:
    """Simulate logs at the truth and summarize their likelihood ratios."""
    if reps < 2:
        raise DegenerateReps("lan diagnostics need at least two replications")
    seeds = [rep_seed(seed_base, r) for r in range(reps)]
    per_log = map_reps(_chunk_lan, (sub, rule, h, n, i_star, augment), seeds, pool)

    ells = per_log[:, 0]
    target_mean = -0.5 * h * h * i_star
    target_var = h * h * i_star
    degenerate = target_var <= 0
    if degenerate:
        ks = 0.0
    else:
        # Imported here: scipy.stats costs about a second to import, and
        # only this test needs it.
        from scipy import stats

        scale = float(np.sqrt(target_var))
        ks = float(stats.kstest(ells, stats.norm(loc=target_mean, scale=scale).cdf).statistic)

    return LanReport(
        h=float(h),
        n=int(n),
        reps=int(reps),
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
