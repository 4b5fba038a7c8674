"""Data-generating processes and exact one-parameter paths through them.

A :class:`Scenario` fixes a finitely supported covariate law, Gaussian
outcome tables (one mean and one variance per stratum and arm), a linear
target functional, and optionally a set of sampling-cost constraints.

A :class:`Submodel` is a one-parameter exponential family around a
scenario: the covariate law is tilted by ``exp(theta * s_x(x))`` with
exact normalization, and the outcome mean of arm ``w`` at stratum ``x``
is shifted by ``theta * c_shift[x, w]`` while variances stay fixed.
Scores and Fisher informations for this family are available in closed
form, which is what makes exact likelihood-ratio bookkeeping possible
downstream.

The least favorable direction for the target functional under a fixed
allocation ``p`` uses

    s_x(x)        = sum_w mu_tilde(x, w) - E[sum_w mu_tilde(X, w)]
    c_shift(x, w) = a_tilde(x, w) * sigma2(x, w) / p(x, w)

so the conditional score of arm ``w`` is the weighted residual
``a_tilde * (y - mu) / p`` and the conditional information is
``sigma2_tilde / p**2``.  Moving along the path changes the functional at
rate equal to its variance bound, which is the defining property of the
direction and is what the finite-difference identity tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DivisionByZeroPropensity

# Default floor used when clipping degenerate propensities and when
# estimators check that they never divide by a vanishing probability.
CLIP_EPS = 1e-3

# Tolerance used for "sums to one" style checks.
PROB_TOL = 1e-12


def _as_readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class CovariateLaw:
    """Finitely supported covariate distribution.

    ``support`` holds the stratum labels, ``probs`` their probabilities.
    Value-level invariants (positivity, summing to one) are reported by
    :func:`validate` rather than enforced here, so that invalid inputs can
    be constructed and then diagnosed.
    """

    support: tuple[str, ...]
    probs: np.ndarray

    def __init__(self, support: Sequence[str], probs) -> None:
        object.__setattr__(self, "support", tuple(str(s) for s in support))
        p = _as_readonly(probs)
        if p.ndim != 1 or p.shape[0] != len(self.support):
            raise ValueError(
                f"probs must be a vector of length {len(self.support)}, got shape {p.shape}"
            )
        object.__setattr__(self, "probs", p)

    @property
    def k(self) -> int:
        return len(self.support)


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Gaussian outcome tables: mean and variance per (stratum, arm)."""

    mu: np.ndarray      # (K, n_arms)
    sigma2: np.ndarray  # (K, n_arms)

    def __init__(self, mu, sigma2) -> None:
        m = _as_readonly(mu)
        s2 = _as_readonly(sigma2)
        if m.ndim != 2:
            raise ValueError(f"mu must be a K x n_arms table, got shape {m.shape}")
        if s2.shape != m.shape:
            raise ValueError(f"sigma2 shape {s2.shape} does not match mu shape {m.shape}")
        object.__setattr__(self, "mu", m)
        object.__setattr__(self, "sigma2", s2)

    @property
    def n_arms(self) -> int:
        return self.mu.shape[1]


@dataclass(frozen=True, eq=False)
class TreatmentFunctional:
    """Linear functional of the potential-outcome means.

    The target is ``sum_w E[a_tilde(X, w) * Y(w) + b_tilde(X, w)]``.  The
    average treatment effect is the two-arm special case with
    ``a_tilde(x, 1) = 1``, ``a_tilde(x, 0) = -1`` and zero offsets; note
    the sign on the control arm, which is what makes the path derivative
    of the functional agree with the variance bound.
    """

    a_tilde: np.ndarray  # (K, n_arms)
    b_tilde: np.ndarray  # (K, n_arms)
    kind: str = "general"

    def __init__(self, a_tilde, b_tilde, kind: str = "general") -> None:
        a = _as_readonly(a_tilde)
        b = _as_readonly(b_tilde)
        if a.ndim != 2 or b.shape != a.shape:
            raise ValueError("a_tilde and b_tilde must be matching K x n_arms tables")
        object.__setattr__(self, "a_tilde", a)
        object.__setattr__(self, "b_tilde", b)
        object.__setattr__(self, "kind", str(kind))

    @staticmethod
    def ate(k: int) -> "TreatmentFunctional":
        """Average treatment effect of arm 1 versus arm 0 on K strata."""
        a = np.tile([-1.0, 1.0], (k, 1))
        return TreatmentFunctional(a, np.zeros((k, 2)), kind="ate")


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """Linear sampling-cost constraints E[sum_w r_k(X, w) p(X, w)] <= c_k."""

    r: np.ndarray  # (K, n_arms, d_r)
    c: np.ndarray  # (d_r,)

    def __init__(self, r, c) -> None:
        rr = np.array(r, dtype=float)
        if rr.ndim == 2:
            rr = rr[:, :, None]
        if rr.ndim != 3:
            raise ValueError(f"r must have shape (K, n_arms, d_r), got {rr.shape}")
        cc = _as_readonly(np.atleast_1d(c))
        if cc.shape[0] != rr.shape[2]:
            raise ValueError(
                f"c has length {cc.shape[0]} but r provides {rr.shape[2]} constraint rows"
            )
        rr.setflags(write=False)
        object.__setattr__(self, "r", rr)
        object.__setattr__(self, "c", cc)

    @property
    def d_r(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete data-generating process plus target functional."""

    covariates: CovariateLaw
    outcomes: OutcomeModel
    functional: TreatmentFunctional
    constraint: ConstraintSpec | None = None

    def __post_init__(self) -> None:
        k = self.covariates.k
        if self.outcomes.mu.shape[0] != k:
            raise ValueError(
                f"outcome tables have {self.outcomes.mu.shape[0]} rows for {k} strata"
            )
        if self.functional.a_tilde.shape != self.outcomes.mu.shape:
            raise ValueError("functional tables must match the outcome tables in shape")
        if self.constraint is not None and self.constraint.r.shape[:2] != self.outcomes.mu.shape:
            raise ValueError("constraint table r must be K x n_arms x d_r")

    @property
    def k(self) -> int:
        return self.covariates.k

    @property
    def n_arms(self) -> int:
        return self.outcomes.n_arms

    @property
    def mu_tilde(self) -> np.ndarray:
        """Transformed means a_tilde * mu + b_tilde, shape (K, n_arms)."""
        return self.functional.a_tilde * self.outcomes.mu + self.functional.b_tilde

    @property
    def sigma2_tilde(self) -> np.ndarray:
        """Transformed variances a_tilde**2 * sigma2, shape (K, n_arms)."""
        return self.functional.a_tilde**2 * self.outcomes.sigma2

    def tau_true(self) -> float:
        """Value of the target functional under the base scenario."""
        return float(self.covariates.probs @ self.mu_tilde.sum(axis=1))


@dataclass(frozen=True, eq=False)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def validate(scenario: Scenario) -> ValidationReport:
    """Check value-level invariants of a scenario; never raises.

    Shape-level problems are impossible here because the constructors
    reject them.  Returned problem strings name the offending field and
    index so they can be surfaced directly in config errors.
    """
    problems: list[str] = []
    cov = scenario.covariates
    if len(set(cov.support)) != cov.k:
        problems.append("covariates.support: labels are not distinct")
    if not np.all(np.isfinite(cov.probs)):
        problems.append("covariates.probs: non-finite entry")
    else:
        if np.any(cov.probs <= 0):
            idx = int(np.argmin(cov.probs))
            problems.append(
                f"covariates.probs[{idx}]: every stratum probability must be > 0"
            )
        total = float(cov.probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            problems.append(
                f"covariates.probs: sum to {total!r}, expected 1 within {PROB_TOL}"
            )

    out = scenario.outcomes
    if not np.all(np.isfinite(out.mu)):
        problems.append("outcomes.mu: non-finite entry")
    if not np.all(np.isfinite(out.sigma2)):
        problems.append("outcomes.sigma2: non-finite entry")
    elif np.any(out.sigma2 < 0):
        kx, wx = np.argwhere(out.sigma2 < 0)[0]
        problems.append(f"outcomes.sigma2[{kx},{wx}]: negative variance")

    fn = scenario.functional
    if fn.kind == "ate" and scenario.n_arms != 2:
        problems.append("functional: ATE requires exactly two arms")
    if not (np.all(np.isfinite(fn.a_tilde)) and np.all(np.isfinite(fn.b_tilde))):
        problems.append("functional: non-finite entry in a_tilde or b_tilde")

    con = scenario.constraint
    if con is not None:
        if not (np.all(np.isfinite(con.r)) and np.all(np.isfinite(con.c))):
            problems.append("constraint: non-finite entry")

    return ValidationReport(ok=not problems, problems=tuple(problems))


@dataclass(frozen=True, eq=False)
class Submodel:
    """One-parameter exponential path around a base scenario.

    At parameter theta the covariate law is the exact exponential tilt
    ``probs * exp(theta * s_x) / Z(theta)`` and arm ``w`` at stratum ``x``
    is Gaussian with mean ``mu + theta * c_shift`` and unchanged variance.
    The truth sits at theta = 0.
    """

    base: Scenario
    s_x: np.ndarray      # (K,)
    c_shift: np.ndarray  # (K, n_arms)

    def __init__(self, base: Scenario, s_x, c_shift) -> None:
        sx = _as_readonly(s_x)
        cs = _as_readonly(c_shift)
        if sx.shape != (base.k,):
            raise ValueError(f"s_x must have shape ({base.k},), got {sx.shape}")
        if cs.shape != base.outcomes.mu.shape:
            raise ValueError("c_shift must match the outcome tables in shape")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "s_x", sx)
        object.__setattr__(self, "c_shift", cs)

    # --- closed-form family quantities -------------------------------

    def log_norm(self, theta: float) -> float:
        """log Z(theta) for the covariate tilt, computed stably."""
        expo = theta * self.s_x
        m = float(expo.max())
        return m + float(np.log(self.base.covariates.probs @ np.exp(expo - m)))

    def tilted_probs(self, theta: float) -> np.ndarray:
        """Covariate probabilities at parameter theta (exactly normalized)."""
        expo = theta * self.s_x
        w = self.base.covariates.probs * np.exp(expo - expo.max())
        return w / w.sum()

    def shifted_mu(self, theta: float) -> np.ndarray:
        return self.base.outcomes.mu + theta * self.c_shift


def least_favorable_submodel(scenario: Scenario, p: np.ndarray) -> Submodel:
    """Hardest one-parameter path for the target functional at allocation p.

    ``p`` is the (K, n_arms) table of assignment probabilities.  Arms with
    zero transformed variance get a zero shift regardless of p; arms with
    positive transformed variance require p > 0.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != scenario.outcomes.mu.shape:
        raise ValueError(f"p must have shape {scenario.outcomes.mu.shape}, got {p.shape}")
    s2t = scenario.sigma2_tilde
    if np.any((s2t > 0) & (p <= 0)):
        kx, wx = np.argwhere((s2t > 0) & (p <= 0))[0]
        raise DivisionByZeroPropensity(
            f"allocation gives p[{kx},{wx}] = {p[kx, wx]!r} on an arm with positive variance"
        )
    row = scenario.mu_tilde.sum(axis=1)
    s_x = row - float(scenario.covariates.probs @ row)
    c = np.zeros_like(p)
    pos = s2t > 0
    c[pos] = (scenario.functional.a_tilde * scenario.outcomes.sigma2)[pos] / p[pos]
    return Submodel(scenario, s_x, c)


def informations(sub: Submodel) -> tuple[float, np.ndarray]:
    """Fisher informations of the path at theta = 0.

    Returns ``(i_x, i_cond)`` where ``i_x = E[s_x(X)**2]`` is the covariate
    information and ``i_cond[x, w] = c_shift**2 / sigma2`` is the
    conditional information of arm ``w`` at stratum ``x`` (zero whenever
    the shift is zero, including on zero-variance arms).
    """
    i_x = float(sub.base.covariates.probs @ sub.s_x**2)
    c2 = sub.c_shift**2
    s2 = sub.base.outcomes.sigma2
    # 0/0 -> 0: a zero-variance arm carries no shift and no information.
    i_cond = np.divide(c2, s2, out=np.zeros_like(c2), where=s2 > 0)
    return i_x, i_cond


def tau_at(sub: Submodel, theta: float) -> float:
    """Target functional evaluated on the submodel at parameter theta.

    Exact finite sum: covariate probabilities are tilted and renormalized,
    outcome means are shifted by theta * c_shift, and the functional is
    applied to the shifted means.
    """
    probs = sub.tilted_probs(theta)
    mu_t = sub.base.functional.a_tilde * sub.shifted_mu(theta) + sub.base.functional.b_tilde
    return float(probs @ mu_t.sum(axis=1))
