"""Output checks computed apart from the program.

Every expected value is derived here from the config numbers (covariate
probabilities, outcome means and variances, budget rows), never from a
stored copy of a table, so a later change that corrects the method still
passes.  Each ``check_*`` returns a list of problems; empty means pass.

Monte Carlo checks use ``Z_MC`` standard errors.  A run makes about twenty
such comparisons and comparing two commits takes some seventy runs, so a
3-sigma rule would fail on correct code in roughly one comparison in six;
5 sigma keeps false alarms below one in a thousand while a real bias of
the size these checks target (the blocks-rounding limit, a wrong variance
bound) still shows at tens of sigma.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

Z_MC = 5.0
EXACT_REL = 1e-10      # quantities printed with 12 significant digits
REMAINDER_REL = 1e-6
KKT_TOL = 1e-8         # the certificate level the solver promises
CSV_SLACK = 1e-10      # rounding of 12-digit CSV values inside KKT terms


def rows(tables: dict[str, str], name: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(tables[name])))


def _write_rows(rows_: list[dict[str, str]]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows_[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows_)
    return buf.getvalue()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _arrays(raw: dict):
    sc = raw["scenario"]
    q = np.asarray(sc["covariates"]["probs"], dtype=float)
    mu = np.asarray(sc["mu"], dtype=float)
    s2 = np.asarray(sc["sigma2"], dtype=float)
    return q, mu, s2


def _tau(mu: np.ndarray) -> np.ndarray:
    return mu[:, 1] - mu[:, 0]


def _var_tau(q: np.ndarray, mu: np.ndarray) -> float:
    tau = _tau(mu)
    return float(q @ (tau - q @ tau) ** 2)


def neyman_share(s2: np.ndarray) -> np.ndarray:
    sd = np.sqrt(s2)
    return sd[:, 1] / sd.sum(axis=1)


def v_star(raw: dict) -> float:
    """Var(tau(X)) + E[(sigma0(X) + sigma1(X))^2] for a two-arm ATE scenario."""
    q, mu, s2 = _arrays(raw)
    return _var_tau(q, mu) + float(q @ np.sqrt(s2).sum(axis=1) ** 2)


def block_treated_share(e: np.ndarray, block: int) -> np.ndarray:
    """Treated count / B after largest-remainder rounding of B * (1-e, e)."""
    shares = []
    for ex in e:
        targets = np.array([1.0 - ex, ex]) * block
        counts = np.floor(targets)
        if block - counts.sum() > 0:
            # one slot left over; ties go to the lower arm index
            counts[int(np.argmax(targets - counts))] += 1
        shares.append(counts[1] / block)
    return np.array(shares)


def _realized_and_nominal(dspec: dict, s2: np.ndarray):
    """(realized treated share pi(x), nominal share e(x) the estimators use)."""
    kind = dspec["kind"]
    neyman = neyman_share(s2)
    if kind == "iid_propensity" and dspec["alloc"] == "neyman":
        return neyman, neyman
    if kind == "stratified_blocks" and dspec["alloc"] == "neyman":
        return block_treated_share(neyman, int(dspec["block_size"])), neyman
    if kind == "matched_pairs":
        half = np.full(len(s2), 0.5)
        return half, half
    raise ValueError(f"no large-n limit coded for design {dspec!r}")


def bias_limits(q, mu, pi, e) -> dict[str, float]:
    """Large-n bias of each estimator when stratum x is treated at share pi(x)
    and the weighting estimators assume share e(x)."""
    t, c = mu[:, 1], mu[:, 0]
    tau = float(q @ _tau(mu))
    diff = (q * pi) @ t / (q @ pi) - (q * (1 - pi)) @ c / (q @ (1 - pi))
    ht = q @ (pi * t / e - (1 - pi) * c / (1 - e))
    wt, wc = q * pi / e, q * (1 - pi) / (1 - e)
    hajek = wt @ t / wt.sum() - wc @ c / wc.sum()
    return {
        "diff_means": float(diff) - tau,
        "ipw_ht": float(ht) - tau,
        "ipw_hajek": float(hajek) - tau,
        "aipw_oracle": 0.0,
        "aipw_plugin": 0.0,
        "stratified_means": 0.0,
    }


def _finite(row: dict[str, str], fields) -> bool:
    return all(math.isfinite(float(row[f])) for f in fields)


def check_risk(raw: dict, tables: dict[str, str], summary: dict) -> list[str]:
    problems = []
    q, mu, s2 = _arrays(raw)
    vs = v_star(raw)
    study = raw["study"]
    n, reps = study["n"], study["reps"]
    thetas = study.get("theta_list", [0.0])
    if any(t != 0.0 for t in thetas):
        raise ValueError("risk checks are coded for theta = 0 only")
    head = summary["headline"]["v_star"]
    if not _close(head, vs, EXACT_REL):
        problems.append(f"headline v_star {head!r} != {vs!r}")

    table = rows(tables, "risk.csv")
    expected = len(raw["designs"]) * len(raw["estimators"]) * len(thetas)
    if len(table) != expected:
        problems.append(f"risk.csv has {len(table)} rows, expected {expected}")
    limits = {}
    for dspec in raw["designs"]:
        pi, e = _realized_and_nominal(dspec, s2)
        limits[dspec["kind"]] = bias_limits(q, mu, pi, e)
    for row in table:
        where = f"{row['design']}/{row['estimator']}"
        if not _finite(row, ("bias", "nVar", "nMSE", "mcSE")):
            problems.append(f"{where}: non-finite entry")
            continue
        if int(row["n"]) != n or int(row["reps"]) != reps:
            problems.append(f"{where}: n/reps {row['n']}/{row['reps']} != {n}/{reps}")
        nvar, bias = float(row["nVar"]), float(row["bias"])
        limit = limits[row["design"]][row["estimator"]]
        tol = Z_MC * math.sqrt(max(nvar, 0.0) / (n * reps))
        if abs(bias - limit) > tol:
            problems.append(f"{where}: bias {bias:.6g} vs large-n limit {limit:.6g} "
                            f"(tolerance {tol:.3g})")
        if row["design"] == "iid_propensity" and row["estimator"] == "aipw_oracle":
            tol = Z_MC * math.sqrt(2.0 / (reps - 1))
            if abs(nvar / vs - 1.0) > tol:
                problems.append(f"{where}: nVar/v* = {nvar / vs:.6g} outside 1 +- {tol:.3g}")
    return problems


def log_norm_remainder(raw: dict, n: int) -> float:
    """|-n log Z(h/sqrt n) + h^2 i_x / 2| for the covariate tilt s_x = tau(x) - E tau."""
    q, mu, _ = _arrays(raw)
    h = float(raw["study"]["h"])
    tau = _tau(mu)
    s = tau - q @ tau
    theta = h / math.sqrt(n)
    log_z = math.log1p(float(q @ np.expm1(theta * s)))
    return abs(-n * log_z + 0.5 * h * h * float(q @ s**2))


def check_lan(raw: dict, tables: dict[str, str], summary: dict) -> list[str]:
    problems = []
    study = raw["study"]
    h, reps = float(study["h"]), study["reps"]
    vs = v_star(raw)
    target_mean, target_var = -0.5 * h * h * vs, h * h * vs
    table = rows(tables, "lan.csv")
    expected = len(raw["designs"]) * len(study["n_list"])
    if len(table) != expected:
        problems.append(f"lan.csv has {len(table)} rows, expected {expected}")
    for row in table:
        where = f"{row['design']}/n{row['n']}"
        fields = ("meanEll", "varEll", "targetMean", "targetVar", "ks", "meanAbsRemainder")
        if not _finite(row, fields):
            problems.append(f"{where}: non-finite entry")
            continue
        if int(row["reps"]) != reps:
            problems.append(f"{where}: reps {row['reps']} != {reps}")
        if not _close(float(row["targetMean"]), target_mean, EXACT_REL):
            problems.append(f"{where}: targetMean {row['targetMean']} != {target_mean!r}")
        if not _close(float(row["targetVar"]), target_var, EXACT_REL):
            problems.append(f"{where}: targetVar {row['targetVar']} != {target_var!r}")
        rem = log_norm_remainder(raw, int(row["n"]))
        got = float(row["meanAbsRemainder"])
        if abs(got - rem) > REMAINDER_REL * rem:
            problems.append(f"{where}: meanAbsRemainder {got!r} != closed form {rem!r}")
        se = math.sqrt(float(row["varEll"]) / reps)
        if abs(float(row["meanEll"]) - target_mean) > Z_MC * se:
            problems.append(f"{where}: meanEll {row['meanEll']} more than {Z_MC:g} "
                            f"standard errors ({se:.3g}) from {target_mean:.6g}")
        if not 0.0 <= float(row["ks"]) <= 1.0:
            problems.append(f"{where}: ks {row['ks']} outside [0, 1]")
    return problems


def check_solve(raw: dict, tables: dict[str, str], summary: dict) -> list[str]:
    """KKT conditions, bound value and (without budgets) Neyman shares,
    re-derived from allocation.csv / duals.csv and the config numbers."""
    problems = []
    q, mu, s2 = _arrays(raw)
    k = len(q)
    con = raw["scenario"].get("constraint")
    r = np.asarray(con["r"], dtype=float) if con else np.zeros((k, 2, 0))
    c = np.asarray(con["c"], dtype=float) if con else np.zeros(0)

    alloc = rows(tables, "allocation.csv")
    if len(alloc) != 2 * k:
        return [f"allocation.csv has {len(alloc)} rows, expected {2 * k}"]
    p = np.array([float(a["p"]) for a in alloc]).reshape(k, 2)
    lam = np.array([float(a["lambda"]) for a in alloc]).reshape(k, 2)[:, 0]
    duals = rows(tables, "duals.csv") if con else []
    if len(duals) != len(c):
        return [f"duals.csv has {len(duals)} rows, expected {len(c)}"]
    mu_dual = np.array([float(d["mu"]) for d in duals])

    if np.any(p <= 0) or np.any(lam < 0) or np.any(mu_dual < 0):
        problems.append("negative multiplier or non-positive share")
    tol = KKT_TOL + CSV_SLACK
    lhs = s2 / p**2
    rhs = lam[:, None] + (r @ mu_dual if len(c) else 0.0)
    stat = np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))
    if stat > tol:
        problems.append(f"stationarity residual {stat:.3e} > {tol:.1e}")
    row_sum = p.sum(axis=1)
    if np.max(row_sum - 1.0) > tol:
        problems.append(f"row sums exceed 1 by {np.max(row_sum - 1.0):.3e}")
    if np.max(np.abs(lam * (row_sum - 1.0))) > tol:
        problems.append("row slackness violated")
    usage = np.einsum("x,xwd,xw->d", q, r, p)
    for j, d in enumerate(duals):
        if usage[j] > c[j] + tol:
            problems.append(f"budget row {j}: usage {usage[j]!r} > c {c[j]!r}")
        if abs(usage[j] - float(d["usage"])) > tol:
            problems.append(f"budget row {j}: usage column {d['usage']} != {usage[j]!r}")
        if abs(mu_dual[j] * (usage[j] - c[j])) > tol:
            problems.append(f"budget row {j}: slackness violated")

    var_tau = _var_tau(q, mu)
    v_p = var_tau + float(q @ (s2 / p).sum(axis=1))
    v_dual = var_tau + float(q @ lam) + float(mu_dual @ c)
    v_table = float(rows(tables, "bounds.csv")[0]["vStar"])
    if not _close(v_table, v_p, 1e-9):
        problems.append(f"bounds.csv vStar {v_table!r} != v(p) {v_p!r}")
    if not _close(v_dual, v_p, 1e-8):
        problems.append(f"dual bound {v_dual!r} != v(p) {v_p!r}")
    if not con and np.max(np.abs(p[:, 1] - neyman_share(s2))) > 1e-9:
        problems.append("shares differ from sigma1 / (sigma0 + sigma1)")
    return problems


CHECKERS = {"risk": check_risk, "lan": check_lan, "solve": check_solve}


# ----------------------------------------------------------------------
# Corrupted bundles: each checker must reject one.
# ----------------------------------------------------------------------


def _corrupt(tables: dict[str, str], name: str, pick, field: str, factor: float):
    table = rows(tables, name)
    for row in table:
        if pick(row):
            row[field] = "%.12g" % (float(row[field]) * factor)
            break
    else:
        raise ValueError(f"no row of {name} to corrupt")
    return {**tables, name: _write_rows(table)}


def corrupted(kind: str, tables: dict[str, str]) -> dict[str, str]:
    """A copy of a bundle's tables with one value its checker must catch."""
    if kind == "risk":  # nVar of the attaining estimator 50% high
        return _corrupt(tables, "risk.csv",
                        lambda r: r["design"] == "iid_propensity"
                        and r["estimator"] == "aipw_oracle", "nVar", 1.5)
    if kind == "lan":  # remainder off by 1e-4 relative
        return _corrupt(tables, "lan.csv", lambda r: True, "meanAbsRemainder", 1.0001)
    if kind == "solve":  # one share off by 1e-6 relative
        return _corrupt(tables, "allocation.csv", lambda r: True, "p", 1.000001)
    raise ValueError(kind)
