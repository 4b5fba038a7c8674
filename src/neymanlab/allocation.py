"""Variance bounds and optimal assignment probabilities.

The asymptotic variance bound of the target functional under a
stratum-wise allocation ``p`` is

    v(p) = Var(sum_w mu_tilde(X, w)) + sum_w E[sigma2_tilde(X, w) / p(X, w)]

with the convention 0/0 = 0 on zero-variance arms.  For a two-arm average
treatment effect with treated share e(x) this reduces to

    v(e) = Var(mu(X,1) - mu(X,0)) + E[sigma2(X,0)/(1-e(X))] + E[sigma2(X,1)/e(X)]

whose unconstrained minimizer is the Neyman share
``e*(x) = sigma(x,1) / (sigma(x,0) + sigma(x,1))``.

With budget constraints ``E[sum_w r_k(X,w) p(X,w)] <= c_k`` the optimum is
characterized by stationarity ``sigma2_tilde / p**2 = lam(x) + mu @ r(x,w)``
on positive-variance arms together with primal feasibility, dual
feasibility and complementary slackness.  :func:`solve_constrained` finds
the point by a dual method for any number of budget rows.  At fixed budget
prices ``mu`` the optimal allocation is ``p = sigma_tilde / sqrt(lam + mu @ r)``,
with ``lam(x)`` solved in every stratum at once by a monotone Newton
iteration.  The dual function of ``mu`` is concave, with gradient
``usage - c`` and a closed-form Hessian; projected Newton ascent with
backtracking maximizes it over ``mu >= 0``.  The dual certificate is
returned so optimality can be verified independently of how the solution
was produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import PropensityOutOfRange, SolverDiverged, UnboundedDual
from .scenario import CLIP_EPS, Scenario, _freeze, allocation_table, check_support

# Solver contract constants.
BUDGET_TOL = 1e-10       # max |projected gradient| * max(1, mu) on budget rows
CERT_TOL = 1e-8          # max KKT residual accepted before returning
DUAL_BRACKET_CAP = 1e12  # a budget price past this means the row is unattainable
MAX_OUTER_ITERATIONS = 200
MAX_BACKTRACKS = 60
MAX_NEWTON_STEPS = 100
NEWTON_RTOL = 1e-15      # inner Newton stops once no step moves lam by more
NEWTON_REG = 1e-12       # ridge on the outer Newton system, relative to its trace
ARMIJO = 1e-4
MAX_STRETCH = 10.0       # first trial step at most this times max(1, |mu|)
ROUNDOFF = 1e-14         # relative dual-value change treated as no change
ROW_MASS_TOL = 1e-9      # an allocation row may exceed mass 1 by this much


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Multipliers for the per-stratum sum constraints and budget rows."""

    lam: np.ndarray  # (K,)
    mu: np.ndarray   # (d_r,)

    def __post_init__(self) -> None:
        _freeze(self, "lam", "mu", mu=np.atleast_1d(self.mu))


@dataclass(frozen=True, eq=False)
class AllocationMap:
    """Assignment probabilities per (stratum, arm), optionally with duals."""

    p: np.ndarray  # (K, n_arms)
    duals: DualCertificate | None = None
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _freeze(self, "p")
        if self.p.ndim != 2:
            raise ValueError(f"p must be a K x n_arms table, got shape {self.p.shape}")
        if not self.valid(self.p):
            raise ValueError(f"entries must lie in [0, 1] and row masses at most 1 "
                             f"(+{ROW_MASS_TOL:g})")

    @staticmethod
    def valid(p: np.ndarray) -> bool:
        """Whether a (K, n_arms) table has no negative (or NaN) entry and no
        row mass above 1 + ``ROW_MASS_TOL``; the row mass bounds entries above."""
        return bool(np.all(p >= 0) and np.all(p.sum(axis=1) <= 1 + ROW_MASS_TOL))

    @property
    def treated_share(self) -> np.ndarray:
        """e(x) = p(x, 1) for two-arm allocations."""
        if self.p.shape[1] != 2:
            raise ValueError("treated_share is only defined for two-arm allocations")
        return self.p[:, 1]


@dataclass(frozen=True, eq=False)
class BoundValue:
    """Evaluated variance bound split into its between- and within-stratum parts.

    ``v == var_of_means + per_arm.sum()`` by construction.
    """

    v: float
    var_of_means: float
    per_arm: np.ndarray  # (n_arms,) values of E[sigma2_tilde(X,w)/p(X,w)]

    def __post_init__(self) -> None:
        _freeze(self, "per_arm", v=float(self.v), var_of_means=float(self.var_of_means))


def _var_of_row_sums(scenario: Scenario) -> float:
    row = scenario.mu_tilde.sum(axis=1)
    q = scenario.covariates.probs
    m = float(q @ row)
    return float(q @ (row - m) ** 2)


def eval_bound_general(scenario: Scenario, alloc: AllocationMap | np.ndarray) -> BoundValue:
    """Variance bound for an arbitrary allocation table.

    Zero-variance arms contribute nothing even at p = 0.  A table not of
    the scenario's shape raises ``ValueError``, entries outside [0, 1]
    raise :class:`PropensityOutOfRange`, and positive-variance arms with
    p <= 0 raise :class:`DivisionByZeroPropensity` (``scenario.check_support``).
    """
    p = allocation_table(scenario, alloc.p if isinstance(alloc, AllocationMap) else alloc)
    if np.any(p < -1e-15) or np.any(p > 1 + 1e-12):
        raise PropensityOutOfRange("allocation entries must lie in [0, 1]")
    check_support(scenario, p)
    s2t = scenario.sigma2_tilde
    per_arm = scenario.covariates.probs @ np.divide(s2t, p, out=np.zeros_like(s2t), where=s2t > 0)
    var_means = _var_of_row_sums(scenario)
    return BoundValue(var_means + per_arm.sum(), var_means, per_arm)


def eval_bound_binary(scenario: Scenario, e: np.ndarray) -> BoundValue:
    """Variance bound for a two-arm scenario at treated share e(x): the
    bound of the allocation (1 - e(x), e(x)), whose errors are
    :func:`eval_bound_general`'s."""
    e = np.asarray(e, dtype=float)
    return eval_bound_general(scenario, np.column_stack([1.0 - e, e]))


def neyman_allocation(scenario: Scenario) -> AllocationMap:
    """Closed-form unconstrained optimum for a two-arm scenario.

    e*(x) = sigma(x,1) / (sigma(x,0) + sigma(x,1)).  Strata where exactly
    one arm is degenerate are clipped into [CLIP_EPS, 1 - CLIP_EPS];
    strata where both arms are degenerate get e = 1/2 and are flagged in
    ``meta`` because any share is optimal there.
    """
    if scenario.n_arms != 2:
        raise ValueError("neyman_allocation requires a two-arm scenario")
    sd = np.sqrt(scenario.outcomes.sigma2)
    denom = sd[:, 0] + sd[:, 1]
    both_zero = denom == 0
    e = np.full(scenario.k, 0.5)
    nz = ~both_zero
    e[nz] = sd[nz, 1] / denom[nz]
    one_zero = nz & ((sd[:, 0] == 0) | (sd[:, 1] == 0))
    e[one_zero] = np.clip(e[one_zero], CLIP_EPS, 1.0 - CLIP_EPS)
    meta = {
        "solver": "neyman-closed-form",
        "degenerate_strata": tuple(int(i) for i in np.flatnonzero(both_zero)),
        "clipped_strata": tuple(int(i) for i in np.flatnonzero(one_zero)),
    }
    return AllocationMap(np.column_stack([1.0 - e, e]), meta=meta)


# ----------------------------------------------------------------------
# Constrained solver.
# ----------------------------------------------------------------------


def _budget_rows(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Costs r (K, n_arms, d_r) and budgets c (d_r,); d_r = 0 without a constraint."""
    con = scenario.constraint
    if con is None:
        return np.zeros((scenario.k, scenario.n_arms, 0)), np.zeros(0)
    return con.r, con.c


def _usage(scenario: Scenario, p: np.ndarray) -> np.ndarray:
    return np.einsum("x,xwd,xw->d", scenario.covariates.probs, _budget_rows(scenario)[0], p)


@dataclass(frozen=True, eq=False)
class _DualPoint:
    """Inner solution at fixed budget prices mu, with the dual's value,
    its gradient usage - c and its curvature -d(usage)/d(mu)."""

    mu: np.ndarray       # (d_r,)
    p: np.ndarray        # (K, n_arms)
    lam: np.ndarray      # (K,)
    value: float
    grad: np.ndarray     # (d_r,)
    curv: np.ndarray     # (d_r, d_r), positive semidefinite

    @property
    def projected_grad(self) -> np.ndarray:
        """Ascent residual on mu >= 0; zero exactly at the dual optimum."""
        return np.where(self.mu > 0, self.grad, np.maximum(self.grad, 0.0))


def _inner_solve(sig_t: np.ndarray, pos: np.ndarray, m: np.ndarray):
    """Optimal (p, lam) in every stratum at once for arm prices m = r @ mu.

    Solves sum_w sig_t / sqrt(lam + m_w) = 1 over the positive-variance
    arms for lam >= 0, taking lam = 0 where the unconstrained sum already
    fits below one.  Newton on this convex decreasing function, started
    below the root, rises monotonically onto it; where the sum fits, the
    start is 0 and the first step already points down.
    """
    m = np.where(pos, m, 1.0)  # zero-variance arms: sig_t = 0, any positive price
    # The root lies above (sum sig_t)^2 - max m and above every sig_t^2 - m_w,
    # and the second bound is positive wherever some price is zero.
    lam = np.maximum(sig_t.sum(axis=1) ** 2 - np.max(np.where(pos, m, 0.0), axis=1),
                     np.max(np.where(pos, sig_t**2 - m, 0.0), axis=1, initial=0.0))
    for _ in range(MAX_NEWTON_STEPS):
        den = lam[:, None] + m
        terms = sig_t / np.sqrt(den)
        slope = (terms / den).sum(axis=1)
        step = np.divide(2.0 * (terms.sum(axis=1) - 1.0), slope,
                         out=np.zeros_like(lam), where=slope > 0)
        rise = step > NEWTON_RTOL * lam
        if not np.any(rise):
            break
        lam[rise] += step[rise]
    den = lam[:, None] + m
    return sig_t / np.sqrt(den), lam, den


def _dual_point(scenario: Scenario, mu: np.ndarray) -> _DualPoint:
    q = scenario.covariates.probs
    r, c = _budget_rows(scenario)
    s2t = scenario.sigma2_tilde
    pos = s2t > 0
    m = r @ mu
    p, lam, den = _inner_solve(np.sqrt(s2t), pos, m)
    cost = np.divide(s2t, p, out=np.zeros_like(p), where=pos) + m * p
    # dp_w/dmu = -a_w (grad lam + r_w) / 2 with a_w = p_w / (lam + m_w).  On
    # binding strata (lam > 0) sum_w dp_w = 0 makes grad lam minus the
    # a-weighted mean of r_w, so the curvature there is an a-weighted
    # covariance of r; it is exactly zero on one-arm strata.
    a = p / den
    share = np.divide(a, a.sum(axis=1, keepdims=True), out=np.zeros_like(a),
                      where=lam[:, None] > 0)
    dev = r - np.einsum("xw,xwd->xd", share, r)[:, None, :]
    root = (np.sqrt(0.5 * q[:, None] * a)[:, :, None] * dev).reshape(p.size, len(mu))
    return _DualPoint(mu, p, lam, float(q @ cost.sum(axis=1) - mu @ c),
                      _usage(scenario, p) - c, root.T @ root)


def _line_search(scenario: Scenario, pt: _DualPoint, direction: np.ndarray, counts: dict):
    """Backtrack along the projected arc mu + t * direction for an ascent
    point.  Close to the optimum the dual values agree to round-off before
    the gradient is small, so a step that keeps the value and shrinks the
    projected gradient is accepted too."""
    pg = np.linalg.norm(pt.projected_grad)
    flat = ROUNDOFF * max(1.0, abs(pt.value))
    # Along a flat dual direction the Newton step is near-infinite and the
    # dual is linear: start the search where the first price reaches zero,
    # and within a radius that grows with mu.
    to_zero = np.divide(pt.mu, -direction, out=np.full_like(pt.mu, np.inf),
                        where=direction < 0)
    t = min(1.0, MAX_STRETCH * max(1.0, np.linalg.norm(pt.mu)) / np.linalg.norm(direction),
            np.min(to_zero[pt.mu > 0], initial=np.inf))
    for _ in range(MAX_BACKTRACKS):
        # Prices that reach zero are set to exactly zero, not to round-off.
        trial = np.where(to_zero <= t, 0.0, np.maximum(pt.mu + t * direction, 0.0))
        cand = _dual_point(scenario, trial)
        counts["inner_solves"] += 1
        gain = cand.value - pt.value
        if gain >= ARMIJO * float(pt.grad @ (cand.mu - pt.mu)) > 0 or (
            gain >= -flat and np.linalg.norm(cand.projected_grad) < pg
        ):
            return cand
        t *= 0.5
    return None


def _maximize_dual(scenario: Scenario, counts: dict) -> _DualPoint:
    """Projected Newton ascent with backtracking on the concave dual over mu >= 0."""
    pt = _dual_point(scenario, np.zeros(_budget_rows(scenario)[1].size))
    counts["inner_solves"] += 1
    while True:
        pg = pt.projected_grad
        if np.all(np.abs(pg) * np.maximum(1.0, pt.mu) <= BUDGET_TOL):
            return pt
        if counts["outer_iterations"] == MAX_OUTER_ITERATIONS:
            raise SolverDiverged(
                f"dual ascent did not meet the budget residual in "
                f"{MAX_OUTER_ITERATIONS} iterations (projected gradient {np.abs(pg).max():.3e})"
            )
        counts["outer_iterations"] += 1
        # Rows pinned at mu = 0 with usage below budget stay put.  On the
        # rest, regularize the Newton system: one-arm binding strata leave
        # the dual flat in mu, so the curvature can be singular.
        free = (pt.mu > 0) | (pt.grad > 0)
        curv = pt.curv[np.ix_(free, free)]
        curv += NEWTON_REG * (np.trace(curv) or 1.0) * np.eye(len(curv))
        newton = np.zeros_like(pg)
        newton[free] = np.linalg.solve(curv, pt.grad[free])
        nxt = _line_search(scenario, pt, newton, counts)
        if nxt is None:
            nxt = _line_search(scenario, pt, pg, counts)
        if nxt is None:
            return pt  # no ascent left; the certificate decides
        pt = nxt
        if pt.mu.max() > DUAL_BRACKET_CAP:
            j = int(np.argmax(pt.mu))
            raise UnboundedDual(
                f"budget row {j}: dual price exceeded {DUAL_BRACKET_CAP:.0e} "
                f"(c[{j}] = {float(scenario.constraint.c[j])!r} may be unattainable)"
            )


def kkt_residuals(scenario: Scenario, alloc: AllocationMap) -> dict[str, float]:
    """Karush-Kuhn-Tucker residuals of an allocation with duals attached.

    Returns the maximal violation of stationarity (relative to the dual
    scale), primal feasibility, dual feasibility and complementary
    slackness, plus their overall maximum under key ``"max"``.
    """
    if alloc.duals is None:
        raise ValueError("allocation carries no dual certificate")
    p, lam, mu = alloc.p, alloc.duals.lam, alloc.duals.mu
    s2t = scenario.sigma2_tilde
    r, c = _budget_rows(scenario)
    price = lam[:, None] + r @ mu
    pos = s2t > 0
    lhs = s2t[pos] / p[pos] ** 2
    stat = float(np.max(np.abs(lhs - price[pos]) / np.maximum(1.0, np.abs(lhs)), initial=0.0))
    row_sum = p.sum(axis=1)
    primal_rows = float(np.max(np.maximum(row_sum - 1.0, 0.0), initial=0.0))
    primal_nonneg = float(np.max(np.maximum(-p, 0.0), initial=0.0))
    usage = _usage(scenario, p)
    primal_budget = float(np.max(np.maximum(usage - c, 0.0), initial=0.0))
    dual_feas = float(max(np.max(np.maximum(-lam, 0.0), initial=0.0),
                          np.max(np.maximum(-mu, 0.0), initial=0.0)))
    slack_rows = float(np.max(np.abs(lam * (row_sum - 1.0)), initial=0.0))
    slack_budget = float(np.max(np.abs(mu * (usage - c)), initial=0.0))
    out = {
        "stationarity": stat,
        "primal_rows": primal_rows,
        "primal_nonneg": primal_nonneg,
        "primal_budget": primal_budget,
        "dual_feasibility": dual_feas,
        "slackness_rows": slack_rows,
        "slackness_budget": slack_budget,
    }
    out["max"] = max(out.values())
    return out


def solve_constrained(scenario: Scenario) -> AllocationMap:
    """Variance-optimal allocation under sum and budget constraints.

    Minimizes ``sum_w E[sigma2_tilde(X,w)/p(X,w)]`` subject to
    ``sum_w p(x,w) <= 1`` per stratum and the scenario's budget rows, whose
    costs and budgets :class:`ConstraintSpec` holds finite and nonnegative.
    Zero-variance arms receive p = 0 (they cost budget and reduce nothing).
    The returned map carries the dual certificate, and the KKT residuals
    are checked against the certificate gate before returning.

    Raises :class:`UnboundedDual` when a budget row cannot be priced (its
    price grows past the cap) and :class:`SolverDiverged` on exhausted outer
    iterations or a failed certificate.
    """
    counts = {"outer_iterations": 0, "inner_solves": 0}
    pt = _maximize_dual(scenario, counts)
    duals = DualCertificate(pt.lam, pt.mu)
    res = kkt_residuals(scenario, AllocationMap(pt.p, duals=duals))
    if res["max"] > CERT_TOL:
        raise SolverDiverged(
            f"solution failed its optimality certificate: max residual {res['max']:.3e}"
        )
    usage = tuple(float(u) for u in _usage(scenario, pt.p))
    return AllocationMap(pt.p, duals=duals,
                         meta={"solver": "dual-newton", **counts, "usage": usage, "kkt": res})


def bound_from_duals(scenario: Scenario, alloc: AllocationMap) -> float:
    """Variance bound reconstructed from the dual certificate alone:
    Var(sum_w mu_tilde) + E[lam(X)] + mu @ c.  Agrees with the evaluated
    bound at the optimum by complementary slackness."""
    if alloc.duals is None:
        raise ValueError("allocation carries no dual certificate")
    q = scenario.covariates.probs
    c = _budget_rows(scenario)[1]
    return _var_of_row_sums(scenario) + float(q @ alloc.duals.lam) + float(alloc.duals.mu @ c)
