"""Study configuration: strict JSON schema, parsing, serialization.

Unknown keys are rejected (with a nearest-key suggestion), and every
validation message carries the dotted path of the offending field.  Design
and estimator specs are checked against their kind's registry entry, and
kept as data.
Parsing is lossless: ``parse -> serialize -> parse`` reproduces the same
configuration, which is what makes config hashing meaningful.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .allocation import AllocationMap
from .designs import DESIGNS, Key
from .errors import ParseError, ValidationError
from .estimators import ESTIMATORS
from .scenario import (
    ConstraintSpec,
    CovariateLaw,
    OutcomeModel,
    Scenario,
    TreatmentFunctional,
    validate,
)

ALLOC_NAMES = ("neyman", "constrained", "uniform")


def _fail(path: str, message: str, kind=ValidationError):
    raise kind(f"{path}: {message}")


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    allowed = required + optional
    for key in obj:
        if key not in allowed:
            hint = difflib.get_close_matches(key, allowed, n=1)
            extra = f"; did you mean {hint[0]!r}?" if hint else ""
            _fail(f"{path}.{key}" if path else key, f"unknown key{extra}", ParseError)
    for key in required:
        if key not in obj:
            _fail(f"{path}.{key}" if path else key, "missing required key")


def _num(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, f"expected a number, got {type(obj).__name__}")
    if not np.isfinite(obj):
        _fail(path, "must be finite")
    return float(obj)


def _int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, f"expected an integer, got {type(obj).__name__}")
    return int(obj)


def _str(obj, path: str) -> str:
    if not isinstance(obj, str):
        _fail(path, f"expected a string, got {type(obj).__name__}")
    return obj


def _bool(obj, path: str) -> bool:
    if not isinstance(obj, bool):
        _fail(path, f"expected true/false, got {type(obj).__name__}")
    return obj


def _list(obj, path: str) -> list:
    if not isinstance(obj, list):
        _fail(path, f"expected a list, got {type(obj).__name__}")
    return obj


def _matrix(obj, path: str, shape: tuple[int, int]) -> np.ndarray:
    rows = _list(obj, path)
    if len(rows) != shape[0]:
        _fail(path, f"expected {shape[0]} rows, got {len(rows)}")
    out = np.empty(shape)
    for i, row in enumerate(rows):
        vals = _list(row, f"{path}[{i}]")
        if len(vals) != shape[1]:
            _fail(f"{path}[{i}]", f"expected {shape[1]} entries, got {len(vals)}")
        for j, v in enumerate(vals):
            out[i, j] = _num(v, f"{path}[{i}][{j}]")
    return out


# ----------------------------------------------------------------------
# Scenario block.
# ----------------------------------------------------------------------


def parse_scenario(obj: dict, path: str = "scenario") -> Scenario:
    _check_keys(obj, path, ("covariates", "arms", "mu", "sigma2", "functional"),
                ("constraint", "label"))
    if "label" in obj:
        _str(obj["label"], f"{path}.label")
    cov = obj["covariates"]
    _check_keys(cov, f"{path}.covariates", ("support", "probs"))
    support = [_str(s, f"{path}.covariates.support[{i}]")
               for i, s in enumerate(_list(cov["support"], f"{path}.covariates.support"))]
    probs = [_num(p, f"{path}.covariates.probs[{i}]")
             for i, p in enumerate(_list(cov["probs"], f"{path}.covariates.probs"))]
    if len(probs) != len(support):
        _fail(f"{path}.covariates.probs", f"length {len(probs)} != {len(support)} labels")
    k = len(support)
    arms = _int(obj["arms"], f"{path}.arms")
    if arms < 1:
        _fail(f"{path}.arms", "must be at least 1")
    mu = _matrix(obj["mu"], f"{path}.mu", (k, arms))
    sigma2 = _matrix(obj["sigma2"], f"{path}.sigma2", (k, arms))

    fn = obj["functional"]
    _check_keys(fn, f"{path}.functional", ("kind",), ("a", "b"))
    kind = _str(fn["kind"], f"{path}.functional.kind")
    if kind == "ate":
        if arms != 2:
            _fail(f"{path}.functional", "ATE requires arms == 2")
        functional = TreatmentFunctional.ate(k)
    elif kind == "general":
        if "a" not in fn:
            _fail(f"{path}.functional.a", "missing required key")
        a = _matrix(fn["a"], f"{path}.functional.a", (k, arms))
        b = (_matrix(fn["b"], f"{path}.functional.b", (k, arms))
             if "b" in fn else np.zeros((k, arms)))
        functional = TreatmentFunctional(a, b, kind="general")
    else:
        _fail(f"{path}.functional.kind", f"unknown kind {kind!r}; expected 'ate' or 'general'")

    constraint = None
    if "constraint" in obj:
        con = obj["constraint"]
        _check_keys(con, f"{path}.constraint", ("r", "c"))
        c = [_num(v, f"{path}.constraint.c[{i}]")
             for i, v in enumerate(_list(con["c"], f"{path}.constraint.c"))]
        d_r = len(c)
        if d_r < 1:
            _fail(f"{path}.constraint.c", "at least one budget row required")
        r_rows = _list(con["r"], f"{path}.constraint.r")
        if len(r_rows) != k:
            _fail(f"{path}.constraint.r", f"expected {k} stratum rows, got {len(r_rows)}")
        r = np.empty((k, arms, d_r))
        for i in range(k):
            r[i] = _matrix(r_rows[i], f"{path}.constraint.r[{i}]", (arms, d_r))
        constraint = ConstraintSpec(r, c)

    scenario = Scenario(CovariateLaw(support, probs), OutcomeModel(mu, sigma2),
                        functional, constraint)
    report = validate(scenario)
    if not report.ok:
        _fail(path, "; ".join(report.problems))
    return scenario


def serialize_scenario(scenario: Scenario) -> dict:
    out: dict[str, Any] = {
        "covariates": {
            "support": list(scenario.covariates.support),
            "probs": scenario.covariates.probs.tolist(),
        },
        "arms": scenario.n_arms,
        "mu": scenario.outcomes.mu.tolist(),
        "sigma2": scenario.outcomes.sigma2.tolist(),
    }
    if scenario.functional.kind == "ate":
        out["functional"] = {"kind": "ate"}
    else:
        out["functional"] = {
            "kind": "general",
            "a": scenario.functional.a_tilde.tolist(),
            "b": scenario.functional.b_tilde.tolist(),
        }
    if scenario.constraint is not None:
        out["constraint"] = {
            "r": scenario.constraint.r.tolist(),
            "c": scenario.constraint.c.tolist(),
        }
    return out


# ----------------------------------------------------------------------
# Allocation / design / estimator / study blocks (validated, kept as data).
# ----------------------------------------------------------------------


def _parse_alloc_spec(obj, path: str):
    if isinstance(obj, str):
        if obj not in ALLOC_NAMES:
            hint = difflib.get_close_matches(obj, ALLOC_NAMES, n=1)
            extra = f"; did you mean {hint[0]!r}?" if hint else ""
            _fail(path, f"unknown allocation {obj!r}{extra}")
        return obj
    _check_keys(obj, path, ("kind",), ("p", "base", "factor"))
    kind = _str(obj["kind"], f"{path}.kind")
    if kind == "table":
        if "p" not in obj:
            _fail(f"{path}.p", "missing required key")
        rows = _list(obj["p"], f"{path}.p")
        for i, row in enumerate(rows):
            for j, v in enumerate(_list(row, f"{path}.p[{i}]")):
                _num(v, f"{path}.p[{i}][{j}]")
        return {"kind": "table", "p": [list(map(float, row)) for row in rows]}
    if kind == "scaled":
        if "base" not in obj or "factor" not in obj:
            _fail(path, "scaled allocation needs 'base' and 'factor'")
        factor = _num(obj["factor"], f"{path}.factor")
        if not 0 < factor <= 1:
            _fail(f"{path}.factor", "must lie in (0, 1]")
        return {"kind": "scaled", "base": _parse_alloc_spec(obj["base"], f"{path}.base"),
                "factor": factor}
    _fail(f"{path}.kind", f"unknown kind {kind!r}; expected 'table' or 'scaled'")


_PARSERS = {AllocationMap: _parse_alloc_spec, int: _int, float: _num, str: _str}


def _parse_kind(obj, path: str, registry: dict, what: str, scenario: Scenario,
                common: dict[str, Key]) -> dict:
    """A spec checked against its kind's entry in ``registry``: the
    scenario's arm count, if the kind requires one, its functional, if the
    kind estimates the ATE, and only the kind's keys and the ``common``
    ones, each parsed and checked, defaults filled in."""
    every = tuple(dict.fromkeys(key for entry in registry.values() for key in entry.keys))
    _check_keys(obj, path, ("kind",), tuple(common) + every)
    kind = _str(obj["kind"], f"{path}.kind")
    if kind not in registry:
        hint = difflib.get_close_matches(kind, registry, n=1)
        extra = f"; did you mean {hint[0]!r}?" if hint else ""
        _fail(f"{path}.kind", f"unknown {what} {kind!r}{extra}")
    arms = registry[kind].arms
    if arms is not None and scenario.n_arms != arms:
        _fail(f"{path}.kind", f"{what} {kind!r} needs exactly {arms} arms; "
                              f"the scenario has {scenario.n_arms}")
    if getattr(registry[kind], "ate", False):
        fn, ate = scenario.functional, TreatmentFunctional.ate(scenario.k)
        if not (np.array_equal(fn.a_tilde, ate.a_tilde)
                and np.array_equal(fn.b_tilde, ate.b_tilde)):
            _fail(f"{path}.kind", f"{what} {kind!r} estimates the ATE (arm 1 - arm 0); "
                                  "the scenario's functional is another")
    keys = {**common, **registry[kind].keys}
    for key in obj:
        if key != "kind" and key not in keys:
            _fail(f"{path}.{key}", f"not a key of {what} {kind!r}", ParseError)
    out: dict[str, Any] = {"kind": kind}
    for key, spec in keys.items():
        where = f"{path}.{key}"
        if key in obj:
            out[key] = _PARSERS[spec.type](obj[key], where)
            if spec.check is not None and not spec.check(out[key], scenario):
                _fail(where, spec.rule)
        elif spec.required:
            _fail(where, "missing required key")
        elif spec.default is not None:
            out[key] = spec.default
    return out


def _parse_study(obj: dict, path: str = "study") -> dict:
    _check_keys(obj, path, ("kind",),
                ("n", "reps", "theta_list", "h", "n_list", "augment", "i_star"))
    kind = _str(obj["kind"], f"{path}.kind")
    if kind == "allocation_solve":
        return {"kind": kind}
    if kind == "risk":
        for key in ("n", "reps"):
            if key not in obj:
                _fail(f"{path}.{key}", "missing required key")
        n = _int(obj["n"], f"{path}.n")
        reps = _int(obj["reps"], f"{path}.reps")
        if n < 1 or reps < 2:
            _fail(path, "risk studies need n >= 1 and reps >= 2")
        thetas = [
            _num(t, f"{path}.theta_list[{i}]")
            for i, t in enumerate(_list(obj.get("theta_list", [0.0]), f"{path}.theta_list"))
        ]
        return {"kind": kind, "n": n, "reps": reps, "theta_list": thetas}
    if kind == "lan":
        for key in ("h", "n_list", "reps"):
            if key not in obj:
                _fail(f"{path}.{key}", "missing required key")
        h = _num(obj["h"], f"{path}.h")
        n_list = [_int(v, f"{path}.n_list[{i}]")
                  for i, v in enumerate(_list(obj["n_list"], f"{path}.n_list"))]
        if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
            _fail(f"{path}.n_list", "must be a nonempty strictly increasing list")
        if min(n_list) < 2:
            _fail(f"{path}.n_list", "sizes must be at least 2")
        reps = _int(obj["reps"], f"{path}.reps")
        if reps < 2:
            _fail(f"{path}.reps", "must be at least 2")
        i_star = obj.get("i_star", "neyman")
        if isinstance(i_star, str):
            if i_star not in ("neyman", "constrained"):
                _fail(f"{path}.i_star", "expected 'neyman', 'constrained', or a number")
        else:
            i_star = _num(i_star, f"{path}.i_star")
        return {
            "kind": kind,
            "h": h,
            "n_list": n_list,
            "reps": reps,
            "augment": _bool(obj.get("augment", False), f"{path}.augment"),
            "i_star": i_star,
        }
    _fail(f"{path}.kind", f"unknown study kind {kind!r}")


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """A parsed, schema-validated study description."""

    scenario: Scenario
    designs: tuple[dict, ...]
    estimators: tuple[dict, ...]
    study: dict
    seed: int
    output: str | None = None
    jobs: int = 1
    scenario_label: str = "scenario"


def parse_config(text: str) -> StudyConfig:
    """Parse a JSON study configuration under the strict schema."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    _check_keys(raw, "", ("scenario", "study", "seed"),
                ("designs", "estimators", "output", "jobs"))
    scenario = parse_scenario(raw["scenario"])
    study = _parse_study(raw["study"])
    seed = _int(raw["seed"], "seed")
    if seed < 0 or seed >= 2**64:
        _fail("seed", "must fit in an unsigned 64-bit integer")
    designs = tuple(
        _parse_kind(d, f"designs[{i}]", DESIGNS, "design", scenario,
                    {"label": Key(str, required=False)})
        for i, d in enumerate(_list(raw.get("designs", []), "designs"))
    )
    estimators = tuple(
        _parse_kind({"kind": e} if isinstance(e, str) else e, f"estimators[{i}]",
                    ESTIMATORS, "estimator", scenario, {})
        for i, e in enumerate(_list(raw.get("estimators", []), "estimators"))
    )
    jobs = _int(raw.get("jobs", 1), "jobs")
    if jobs < 1:
        _fail("jobs", "must be at least 1")
    output = _str(raw["output"], "output") if "output" in raw else None
    if study["kind"] == "risk" and (not designs or not estimators):
        _fail("study", "risk studies need at least one design and one estimator")
    if study["kind"] == "lan" and not designs:
        _fail("study", "lan studies need at least one design")
    label = raw["scenario"].get("label", "scenario")
    return StudyConfig(scenario, designs, estimators, study, seed, output, jobs, label)


def serialize_config(cfg: StudyConfig) -> dict:
    scenario_block = serialize_scenario(cfg.scenario)
    if cfg.scenario_label != "scenario":
        scenario_block["label"] = cfg.scenario_label
    out: dict[str, Any] = {
        "scenario": scenario_block,
        "study": dict(cfg.study),
        "seed": cfg.seed,
    }
    if cfg.designs:
        out["designs"] = [dict(d) for d in cfg.designs]
    if cfg.estimators:
        out["estimators"] = [dict(e) for e in cfg.estimators]
    if cfg.output is not None:
        out["output"] = cfg.output
    if cfg.jobs != 1:
        out["jobs"] = cfg.jobs
    return out


def config_digest(cfg: StudyConfig) -> str:
    """SHA-256 of the inputs that determine results: scenario, designs,
    estimators, study and seed; ``output`` and ``jobs`` are left out."""
    import hashlib

    inputs = serialize_config(replace(cfg, output=None, jobs=1))
    canon = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
