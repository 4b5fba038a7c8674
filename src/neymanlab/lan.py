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

A study reads each log through :class:`LrTerms`, one statistic of the
engine's one cell pass (``engine.chunk_stats``): its ratio, remainder and
realized information.  With augmentation, each log's sum of augmentation
normals comes back from the same pass, and :func:`lan_by_design` pads the
rows with the padding :func:`augment_with_z` uses.

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
from .engine import Cells, ExperimentLog, augment_sums, cell_sum, cell_table, simulate
from .errors import InfoExceedsTarget
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


def _augment(h: float, i_star: float, n: int, ell, info, z_sum) -> tuple:
    """A log's ratio ``ell`` and realized information ``info``, or one per
    row, padded to ``i_star`` by the auxiliary Gaussian coordinate, with the
    linear and quadratic terms that coordinate adds: (ell, info, lin_add,
    quad_add).  ``z_sum`` is the sum of the log's n augmentation normals.
    Raises :class:`InfoExceedsTarget` when some log already carries more
    information than the target allows."""
    sigma_n = i_star - info
    over = np.atleast_1d(sigma_n < -INFO_TOL)
    if over.any():
        first = float(np.atleast_1d(info)[over][0])
        raise InfoExceedsTarget(f"realized information {first!r} exceeds target {i_star!r}")
    sigma_n = np.maximum(0.0, sigma_n)
    lin_add = z_sum * np.sqrt(sigma_n) * h / np.sqrt(n)
    quad_add = -0.5 * h * h * sigma_n
    return ell + lin_add + quad_add, info + sigma_n, lin_add, quad_add


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
    ell, info, lin_add, quad_add = _augment(h, i_star, log.n, dec.ell_exact, dec.info_tilde_n,
                                            augment_sums([log.seed], log.n)[0])
    return replace(dec, ell_exact=ell, lin_y=dec.lin_y + lin_add, quad_y=dec.quad_y + quad_add,
                   info_tilde_n=info, augmented=True)


@dataclass(frozen=True, eq=False)
class LrTerms:
    """The statistic a lan study reads of each log (``engine.chunk_stats``):
    its ratio ``ell``, remainder and realized information at (n, h), three
    columns per row of a cell table."""

    sub: Submodel
    n: int
    h: float

    def from_cells(self, c: Cells) -> np.ndarray:
        dec = _decomposer(self.sub, self.n, self.h)(c)
        return np.column_stack([dec.ell_exact, dec.remainder, dec.info_tilde_n])


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


def _ks_distance(sample: np.ndarray, mean: float, sd: float) -> float:
    """Kolmogorov-Smirnov distance from the sample's empirical law to
    N(mean, sd^2); see the module docstring."""
    x = np.sort(sample)
    m = len(x)
    z = ((mean - x) / (sd * math.sqrt(2.0))).tolist()
    cdf = np.array([0.5 * math.erfc(t) for t in z])
    return float(max((np.arange(1.0, m + 1) / m - cdf).max(),
                     (cdf - np.arange(0.0, m) / m).max()))


def _report(ells: np.ndarray, remainders: np.ndarray, infos: np.ndarray, h: float, n: int,
            i_star: float, augment: bool) -> LanReport:
    target_mean = -0.5 * h * h * i_star
    target_var = h * h * i_star
    degenerate = target_var <= 0
    ks = 0.0 if degenerate else _ks_distance(ells, target_mean, float(np.sqrt(target_var)))

    return LanReport(
        h=float(h),
        n=int(n),
        reps=len(ells),
        mean_ell=float(ells.mean()),
        var_ell=float(ells.var(ddof=1)),
        target_mean=float(target_mean),
        target_var=float(target_var),
        ks_distance=ks,
        ks_degenerate=bool(degenerate),
        mean_abs_remainder=float(np.abs(remainders).mean()),
        mean_info=float(infos.mean()),
        augmented=bool(augment),
    )


def lan_by_design(sub: Submodel, rules: list[DesignRule], h: float, n: int, reps: int,
                  seed_base: int, i_star: float, augment: bool = False,
                  pool: Executor | None = None) -> list[LanReport]:
    """Simulate logs at the truth and summarize their likelihood ratios: one
    report per rule, all rules run on each replication's one draw."""
    terms = LrTerms(sub, n, h)
    per_log = simulate(sub, 0.0, n, [(rule, [terms]) for rule in rules], reps, seed_base,
                       pool, augment)
    reports = []
    for j in range(len(rules)):
        ell, remainder, info = per_log[:, 3 * j: 3 * j + 3].T
        if augment:  # the last column holds each log's augmentation sum
            ell, info, _, _ = _augment(h, i_star, n, ell, info, per_log[:, -1])
        reports.append(_report(ell, remainder, info, h, n, i_star, augment))
    return reports
