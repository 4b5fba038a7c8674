"""Shared helpers: the shipped configs' scenarios, random scenario
factories for property tests, one replication's units, and the per-unit
likelihood-ratio references.

Hypothesis runs under the "print-blob" profile: the default settings, each
test's own ``@settings`` on top, and ``print_blob=True``, so a failing
example prints the ``@reproduce_failure`` line that replays it."""

from pathlib import Path

import numpy as np
from hypothesis import settings
from scipy import stats

from neymanlab import (
    STREAMS,
    ConstraintSpec,
    CovariateLaw,
    OutcomeModel,
    Scenario,
    TreatmentFunctional,
    informations,
    parse_config,
)
from neymanlab.engine import Draw

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")


def replication(sub, theta, rule, n, seed):
    """Strata, arms and outcomes (x, w, y) of one replication under ``rule``:
    the one row of a one-seed Draw."""
    draw = Draw(sub, theta, n, [seed], rule.uniforms_read(n, sub.base.k))
    w = draw.assign(rule)
    return draw.x[0], w[0], draw.materialize(w)[0]


def fresh_stream(seed, name):
    """The stream ``name`` of ``seed``, built by numpy itself (the formula of
    the engine's module docstring)."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(STREAMS[name],))))


def shipped_scenario(name: str) -> Scenario:
    """The scenario of ``configs/<name>.json``: "risk_hetero" (three strata,
    heteroskedastic arms) or "solve_budget" (two strata, a binding budget)."""
    return parse_config((CONFIGS / f"{name}.json").read_text()).scenario


def random_binary_scenario(rng: np.random.Generator, max_k: int = 5,
                           k: int | None = None) -> Scenario:
    """Binary-ATE scenario with interior Neyman shares (variances kept off 0);
    k strata, or a random count up to max_k."""
    k = int(rng.integers(1, max_k + 1)) if k is None else k
    raw = rng.uniform(0.2, 1.0, k)
    mu = rng.normal(0.0, 2.0, (k, 2))
    sigma2 = rng.uniform(0.05, 4.0, (k, 2))
    law = CovariateLaw([f"s{i}" for i in range(k)], raw / raw.sum())
    return Scenario(law, OutcomeModel(mu, sigma2), TreatmentFunctional.ate(k))


class CellColumns:
    """A statistic that is the cell table itself: each row's N[x, w],
    S[x, w], N[x] and n, as columns."""

    def from_cells(self, c):
        rows = len(c.count)
        return np.column_stack([c.count.reshape(rows, -1), c.total.reshape(rows, -1),
                                c.strata, np.full(rows, c.n)])


def random_constrained_scenario(
    rng: np.random.Generator, max_arms: int = 3, max_dr: int = 2
) -> Scenario:
    """General-functional scenario with 1-2 nonneg budget rows, likely binding.

    Budgets are set to a random fraction of the usage at the uniform
    allocation, so they are strictly positive and feasible by scaling down.
    """
    k = int(rng.integers(1, 4))
    arms = int(rng.integers(1, max_arms + 1))
    d_r = int(rng.integers(1, max_dr + 1))
    raw = rng.uniform(0.2, 1.0, k)
    probs = raw / raw.sum()
    mu = rng.normal(0.0, 1.5, (k, arms))
    sigma2 = rng.uniform(0.1, 4.0, (k, arms))
    a = rng.uniform(0.5, 2.0, (k, arms)) * rng.choice([-1.0, 1.0], (k, arms))
    b = rng.normal(0.0, 1.0, (k, arms))
    r = rng.uniform(0.0, 2.0, (k, arms, d_r))
    usage_uniform = np.einsum("k,kwr->r", probs, r) / arms
    c = usage_uniform * rng.uniform(0.5, 0.95, d_r) + 1e-6
    law = CovariateLaw([f"s{i}" for i in range(k)], probs)
    return Scenario(
        law,
        OutcomeModel(mu, sigma2),
        TreatmentFunctional(a, b, kind="general"),
        ConstraintSpec(r, c),
    )


def project_feasible(scenario: Scenario, p: np.ndarray) -> np.ndarray:
    """Repair a perturbed allocation into the feasible set.

    Nonnegativity and per-row sums are fixed by clipping and row scaling;
    budget rows are then enforced by scaling the whole table down, which
    preserves both earlier properties.
    """
    q = scenario.covariates.probs
    p = np.clip(p, 1e-9, 1.0)
    row = p.sum(axis=1)
    over = row > 1.0
    p[over] /= row[over, None]
    if scenario.constraint is not None:
        usage = np.einsum("k,kwr,kw->r", q, scenario.constraint.r, p)
        c = scenario.constraint.c
        with np.errstate(divide="ignore"):
            scale = np.min(np.where(usage > c, c / usage, 1.0))
        p *= scale
    return p


def closed_form_remainder(sub, h: float, n: int) -> float:
    """|-n log Z(h / sqrt(n)) + h^2 i_x / 2|, the LAN remainder of every log of size n.

    The outcome part of the log likelihood ratio is exactly quadratic, so
    the remainder comes from the covariate tilt alone and depends on n only.
    """
    i_x, _ = informations(sub)
    return abs(-n * sub.log_norm(h / np.sqrt(n)) + 0.5 * h * h * i_x)


def ref_cells(x, w, y, k, n_arms):
    """N[x, w], S[x, w] and N[x] of one replication, its units added one at
    a time in arrival order."""
    count, total = np.zeros((k, n_arms), dtype=np.int64), np.zeros((k, n_arms))
    assigned = w >= 0
    np.add.at(count, (x[assigned], w[assigned]), 1)
    np.add.at(total, (x[assigned], w[assigned]), y[assigned])
    return count, total, np.bincount(x, minlength=k)


def ref_lr_terms(sub, x, w, y, h):
    """The exact log likelihood ratio of a replication at h and its expansion
    terms, unit by unit: name -> (value, summed magnitude of its terms).  A
    unit's covariate term is log(tilted q / q) at its stratum, and its
    Gaussian term theta c (y - mu) / sigma2 - theta^2 c^2 / (2 sigma2)."""
    n = len(x)
    theta_n = h / np.sqrt(n)
    mu, s2, c = sub.base.outcomes.mu, sub.base.outcomes.sigma2, sub.c_shift
    sx = [sub.s_x[xi] for xi in x.tolist()]
    tilt = np.log(sub.tilted_probs(theta_n) / sub.base.covariates.probs)[x].tolist()
    score = [c[xi, wi] * (yi - mu[xi, wi]) / s2[xi, wi]
             for xi, wi, yi in zip(x.tolist(), w.tolist(), y.tolist()) if wi >= 0]
    info = sum(c[xi, wi] ** 2 / s2[xi, wi] for xi, wi in zip(x.tolist(), w.tolist()) if wi >= 0)
    i_x = float(sub.base.covariates.probs @ sub.s_x**2)
    lin_y = theta_n * sum(score), abs(theta_n) * sum(map(abs, score))
    quad_y = -0.5 * h * h * info / n, h * h * info / n
    # each unit's tilt less its score term, which is -log Z(theta_n) for every unit
    rest = [t - theta_n * s for t, s in zip(tilt, sx)]
    return {
        "lin_x": (theta_n * sum(sx), abs(theta_n) * sum(map(abs, sx))),
        "lin_y": lin_y,
        "quad_x": (-0.5 * h * h * i_x, 0.5 * h * h * i_x),
        "quad_y": quad_y,
        "remainder": (sum(rest) + 0.5 * h * h * i_x, sum(map(abs, rest)) + 0.5 * h * h * i_x),
        "ell": (sum(tilt) + lin_y[0] + quad_y[0], sum(map(abs, tilt)) + lin_y[1] + quad_y[1]),
        "info_tilde_n": (i_x + info / n, i_x + info / n),
    }


def exact_ratio_oracle(sub, x, w, y, h):
    """The exact log likelihood ratio of a log at h / sqrt(n), recomputed
    from raw densities unit by unit."""
    theta = h / np.sqrt(len(x))
    q = sub.base.covariates.probs
    tilted = sub.tilted_probs(theta)
    total = float(np.log(tilted[x] / q[x]).sum())
    obs = w >= 0
    xi, wi, yi = x[obs], w[obs], y[obs]
    mu = sub.base.outcomes.mu[xi, wi]
    sd = np.sqrt(sub.base.outcomes.sigma2[xi, wi])
    shift = theta * sub.c_shift[xi, wi]
    total += float(stats.norm.logpdf(yi, loc=mu + shift, scale=sd).sum())
    total -= float(stats.norm.logpdf(yi, loc=mu, scale=sd).sum())
    return total
