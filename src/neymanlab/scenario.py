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

from dataclasses import dataclass

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


def _freeze(obj, *arrays: str, **values) -> None:
    """Store normalized fields on a frozen dataclass instance, from its
    ``__post_init__``: first each of ``values`` as given, then each field
    named in ``arrays`` as a read-only float copy of its value."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    for name in arrays:
        object.__setattr__(obj, name, _as_readonly(getattr(obj, name)))


def _finite(name: str, table: np.ndarray, rule: str = "", ok=True) -> None:
    """Raise a ``ValueError`` that names, by the field ``name`` and its
    index, the first entry of ``table`` that is not finite or at which
    ``ok`` (the test that ``rule`` states) is false."""
    ok = np.isfinite(table) & ok
    if not ok.all():
        idx = np.argwhere(~ok)[0]
        at = "".join(f"[{i}]" for i in idx)
        raise ValueError(f"{name}{at} must be finite{rule}, got {float(table[tuple(idx)])!r}")


@dataclass(frozen=True, eq=False)
class CovariateLaw:
    """Finitely supported covariate distribution.

    ``support`` holds distinct stratum labels, ``probs`` their
    probabilities: each finite and positive, summing to one within
    ``PROB_TOL``.
    """

    support: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "probs", support=tuple(str(s) for s in self.support))
        if self.probs.ndim != 1 or self.probs.shape[0] != self.k:
            raise ValueError(
                f"probs must be a vector of length {self.k}, got shape {self.probs.shape}"
            )
        for i, label in enumerate(self.support):
            if label in self.support[:i]:
                raise ValueError(f"support[{i}] repeats the label {label!r}")
        _finite("probs", self.probs, " and > 0", self.probs > 0)
        total = float(self.probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probs must sum to 1 within {PROB_TOL:g}, got {total!r}")

    @property
    def k(self) -> int:
        return len(self.support)


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Gaussian outcome tables: mean and variance per (stratum, arm)."""

    mu: np.ndarray      # (K, n_arms)
    sigma2: np.ndarray  # (K, n_arms)

    def __post_init__(self) -> None:
        _freeze(self, "mu", "sigma2")
        if self.mu.ndim != 2:
            raise ValueError(f"mu must be a K x n_arms table, got shape {self.mu.shape}")
        if self.sigma2.shape != self.mu.shape:
            raise ValueError(
                f"sigma2 shape {self.sigma2.shape} does not match mu shape {self.mu.shape}"
            )
        _finite("mu", self.mu)
        _finite("sigma2", self.sigma2, " and >= 0", self.sigma2 >= 0)

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
    of the functional agree with the variance bound.  ``kind="ate"`` is
    accepted only with those tables, so that it names them exactly.
    """

    a_tilde: np.ndarray  # (K, n_arms)
    b_tilde: np.ndarray  # (K, n_arms)
    kind: str = "general"

    def __post_init__(self) -> None:
        _freeze(self, "a_tilde", "b_tilde", kind=str(self.kind))
        if self.a_tilde.ndim != 2 or self.b_tilde.shape != self.a_tilde.shape:
            raise ValueError("a_tilde and b_tilde must be matching K x n_arms tables")
        _finite("a_tilde", self.a_tilde)
        _finite("b_tilde", self.b_tilde)
        if self.kind == "ate" and not self.is_ate:
            raise ValueError("kind 'ate' requires a_tilde = (-1, 1) and b_tilde = 0 "
                             "in every stratum")

    @property
    def is_ate(self) -> bool:
        """Whether the tables are the ATE's, whatever the ``kind``."""
        return (self.a_tilde.shape[1] == 2 and bool(np.all(self.a_tilde == [-1.0, 1.0]))
                and not self.b_tilde.any())

    @staticmethod
    def ate(k: int) -> "TreatmentFunctional":
        """Average treatment effect of arm 1 versus arm 0 on K strata."""
        a = np.tile([-1.0, 1.0], (k, 1))
        return TreatmentFunctional(a, np.zeros((k, 2)), kind="ate")


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """Linear sampling-cost constraints E[sum_w r_k(X, w) p(X, w)] <= c_k,
    with finite costs r >= 0 and budgets c >= 0."""

    r: np.ndarray  # (K, n_arms, d_r)
    c: np.ndarray  # (d_r,)

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        _freeze(self, "r", "c", r=r[:, :, None] if r.ndim == 2 else r, c=np.atleast_1d(self.c))
        if self.r.ndim != 3:
            raise ValueError(f"r must have shape (K, n_arms, d_r), got {self.r.shape}")
        if self.d_r != self.r.shape[2]:
            raise ValueError(
                f"c has length {self.d_r} but r provides {self.r.shape[2]} constraint rows"
            )
        _finite("r", self.r, " and >= 0", self.r >= 0)
        _finite("c", self.c, " and >= 0", self.c >= 0)

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

    def __post_init__(self) -> None:
        _freeze(self, "s_x", "c_shift")
        if self.s_x.shape != (self.base.k,):
            raise ValueError(f"s_x must have shape ({self.base.k},), got {self.s_x.shape}")
        if self.c_shift.shape != self.base.outcomes.mu.shape:
            raise ValueError("c_shift must match the outcome tables in shape")

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
            f"allocation gives p[{kx},{wx}] = {float(p[kx, wx])} on an arm with positive variance"
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
