"""Shared helpers: the shipped configs' scenarios, random scenario
factories for property tests."""

from pathlib import Path

import numpy as np

from neymanlab import (
    ConstraintSpec,
    CovariateLaw,
    OutcomeModel,
    Scenario,
    TreatmentFunctional,
    informations,
    parse_config,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
