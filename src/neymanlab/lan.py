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
``engine.Cells``): ``lin_x`` from N[x] s_x(x), ``lin_y`` from
c_shift / sigma2 * (S - N mu), and the information sum from N i_cond.

The realized information ``info_tilde_n = i_x + (1/n) sum_i i_cond(x_i, w_i)``
depends on the design only through which arms were assigned.  A design
that under-uses the available information can be topped up to a target
level ``i_star`` by an independent Gaussian coordinate with information
``sigma_n = i_star - info_tilde_n``, when a study asks for it
(``augment``).  Its exact ratio is ``h sqrt(sigma_n) z - h^2 sigma_n / 2`` for one standard
normal z, the first of the replication's augmentation stream.  (With one
such coordinate per unit at theta_n = h / sqrt(n), z is the sum of n
standard normals over sqrt(n): the same law.)
Padding cannot take information away, so a log whose realized information
exceeds ``i_star`` by more than ``INFO_TOL`` raises ``InfoExceedsTarget``;
at the default target I* (``"neyman"``) an iid design's realized
information fluctuates above I* at finite n, so an augmented study aims
above I* or augments a design that leaves units unassigned.

A study reads each log through :class:`LrTerms`, one statistic of the
engine's one cell pass (``engine.chunk_stats``): its ratio and realized
information.  The remainder it reports is the closed form above, once per
(submodel, n, h).  A study of several sizes draws each replication once,
at its largest n, and reads every size's cells from the first n units of
that draw (``engine`` module docstring, "Shared draws").  With
augmentation, :func:`lan_by_design` draws each replication's z after the
pass, once for every size, and pads every size's rows with it.

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
from dataclasses import dataclass

import numpy as np

from .designs import DesignRule
from .engine import STREAMS, Cells, cell_sum, keyed, rep_seeds, seed_words, simulate
from .errors import InfoExceedsTarget
from .scenario import Submodel, informations

INFO_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LrTerms:
    """The likelihood ratio at h of a log, from its cells, or one per row of
    a table with a leading axis of rows (as arrays), which a study gives once
    per group of blocks: with Gaussian outcomes of fixed variance every term
    is a sum over cells, exactly.  The log size n, and so theta_n = h /
    sqrt(n), is the table's.  A study reads each log's ratio and realized
    information (``from_cells``, a statistic of ``engine.chunk_stats``) and
    the one remainder of each size (``remainder``)."""

    sub: Submodel
    h: float

    def from_cells(self, c: Cells) -> np.ndarray:
        """(ell, info_tilde_n) columns, one row per log."""
        sub, n, h = self.sub, c.n, self.h
        theta_n = h / np.sqrt(n)
        i_x, i_cond = informations(sub)
        mu, s2 = sub.base.outcomes.mu, sub.base.outcomes.sigma2
        weight = np.divide(sub.c_shift, s2, out=np.zeros_like(s2), where=sub.c_shift != 0)
        lin_x = theta_n * (c.strata * sub.s_x).sum(axis=-1)
        # sum_i c (y_i - mu) / sigma2 over the units of each cell
        lin_y = theta_n * cell_sum(weight * (c.total - c.count * mu))
        info_sum = cell_sum(c.count * i_cond)
        quad_y = -0.5 * h * h * info_sum / n
        # Exact ratio: covariate tilt plus Gaussian mean-shift terms.  The
        # Gaussian part telescopes to exactly lin_y + quad_y.
        ell = lin_x - n * sub.log_norm(theta_n) + lin_y + quad_y
        return np.column_stack([ell, i_x + info_sum / n])

    def remainder(self, n: int) -> float:
        """``-n log Z(h / sqrt(n)) + h^2 i_x / 2``, the remainder of every log
        of size n (module docstring)."""
        i_x, _ = informations(self.sub)
        return float(-n * self.sub.log_norm(self.h / np.sqrt(n)) + 0.5 * self.h * self.h * i_x)


def _augment_normals(seeds: list[int]) -> np.ndarray:
    """The first standard normal of each seed's augmentation stream."""
    gen = np.random.Generator(np.random.Philox(0))  # keyed before each draw
    return np.array([keyed(gen, key).standard_normal()
                     for key in seed_words(seeds, [STREAMS["augment"]], 2)[:, 0].tolist()])


def _augment(h: float, i_star: float, ell, info, z, where: str) -> tuple:
    """Each row's ratio ``ell`` and realized information ``info`` padded to
    ``i_star`` by the auxiliary Gaussian coordinate ``sqrt(sigma_n) z``,
    which adds a linear and a quadratic term to the ratio.  Raises
    :class:`InfoExceedsTarget`, naming ``where`` (the design and n), when
    some log already carries more information than the target allows."""
    sigma_n = i_star - info
    over = np.atleast_1d(sigma_n < -INFO_TOL)
    if over.any():
        first = float(np.atleast_1d(info)[over][0])
        raise InfoExceedsTarget(
            f"{where}: realized information {first!r} exceeds target {i_star!r}")
    sigma_n = np.maximum(0.0, sigma_n)
    return ell + h * np.sqrt(sigma_n) * z - 0.5 * h * h * sigma_n, info + sigma_n


@dataclass(frozen=True, eq=False)
class LanReport:
    """Monte Carlo summary of the likelihood-ratio distribution.

    The limiting law has mean ``-h^2 i_star / 2`` and variance
    ``h^2 i_star``; ``ks_distance`` measures the empirical distance to it
    (flagged degenerate and set to 0 when the target is a point mass).
    ``mean_abs_remainder`` is the absolute remainder that every log of size
    n shares, from its closed form (module docstring).
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


def _report(ells: np.ndarray, infos: np.ndarray, remainder: float, h: float, n: int,
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
        mean_abs_remainder=abs(remainder),
        mean_info=float(infos.mean()),
        augmented=bool(augment),
    )


def lan_by_design(sub: Submodel, rules: list[DesignRule], h: float, n_list: list[int],
                  reps: int, seed_base: int, i_star: float, augment: bool = False,
                  pool: Executor | None = None) -> list[list[LanReport]]:
    """Simulate logs at the truth and summarize their likelihood ratios: for
    each n of ``n_list``, in order, one report per rule, padded to
    ``i_star`` if ``augment``.  Every rule and size runs on each
    replication's one draw, at the largest n (``engine.chunk_stats``).  An
    ``InfoExceedsTarget`` names the rule as ``designs[j]``, its index in
    ``rules``, which is its config path when a study passes the config's
    designs in order."""
    terms = LrTerms(sub, h)
    columns = iter(simulate(sub, 0.0, n_list, [(rule, [terms]) for rule in rules], reps,
                            seed_base, pool).T)
    z = _augment_normals(rep_seeds(seed_base, reps)) if augment else None
    by_n = []
    for n in n_list:
        reports = []
        for j in range(len(rules)):
            ell, info = next(columns), next(columns)
            if augment:
                ell, info = _augment(h, i_star, ell, info, z, f"designs[{j}] at n={n}")
            reports.append(_report(ell, info, terms.remainder(n), h, n, i_star, augment))
        by_n.append(reports)
    return by_n
