"""Study configuration: strict JSON schema, parsing, serialization.

Unknown keys are rejected (with a nearest-key suggestion), and every
validation message carries the dotted path of the offending field.  Every
``kind``-keyed block (a design, an estimator, the study, an allocation spec,
the scenario's functional) is checked against its kind's registry entry by
one parser, :func:`_parse_kind`, and kept as data.  A study's entry in
:data:`STUDIES` names the config lists it reads (``designs``,
``estimators``): each is required, and any other list is rejected, so a
config holds, and :func:`config_digest` hashes, only inputs its study
reads.  An allocation table is checked against ``AllocationMap``'s rules
here, so the runner builds what parsing accepted without a second check;
a scenario's values are checked by its value types, each built at its
block's path (:func:`parse_scenario`).
Parsing is lossless: ``parse -> serialize -> parse`` reproduces the same
configuration, which is what makes config hashing meaningful.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Any

import numpy as np

from .allocation import ROW_MASS_TOL, AllocationMap
from .designs import DESIGNS, FullTreatment, Key
from .errors import ParseError, ValidationError
from .estimators import ESTIMATORS
from .scenario import (
    ConstraintSpec,
    CovariateLaw,
    OutcomeModel,
    Scenario,
    TreatmentFunctional,
)

ALLOC_NAMES = ("neyman", "constrained", "uniform")


@dataclass(frozen=True)
class Kind:
    """The registry entry of a study, allocation-spec or functional kind:
    its config ``keys`` and the arm count it requires (None: any), as a
    design or estimator class gives them for its own kind, and, for a
    study, the config ``lists`` it reads (of ``designs`` and
    ``estimators``)."""

    keys: dict[str, Key] = field(default_factory=dict)
    arms: int | None = None
    lists: tuple[str, ...] = ()


_REPS = Key(int, lambda reps, scenario: reps >= 2, "must be at least 2")
STUDIES = {
    "allocation_solve": Kind(),
    "risk": Kind({"n": Key(int, lambda n, scenario: n >= 1, "must be at least 1"),
                  "reps": _REPS,
                  "theta_list": Key(list[float], lambda ts, scenario: 0 < len(ts) == len(set(ts)),
                                    "must be a nonempty list of distinct values",
                                    required=False, default=[0.0])},
                 lists=("designs", "estimators")),
    "lan": Kind({"h": Key(float),
                 "n_list": Key(list[int], lambda sizes, scenario: min(sizes, default=0) >= 2
                               and all(a < b for a, b in zip(sizes, sizes[1:])),
                               "must be a nonempty, strictly increasing list of sizes, each at least 2"),
                 "reps": _REPS,
                 "augment": Key(bool, required=False, default=False),
                 "i_star": Key(str | float, lambda v, scenario: v in ("neyman", "constrained")
                               if isinstance(v, str) else v > 0,
                               "expected 'neyman', 'constrained', or a positive number",
                               required=False, default="neyman")},
                lists=("designs",)),
}
ALLOCATIONS = {
    "table": Kind({"p": Key(np.ndarray, lambda p, scenario: AllocationMap.valid(np.asarray(p)),
                            "must be an allocation table: entries in [0, 1] and row masses "
                            f"at most 1 (+{ROW_MASS_TOL:g})")}),
    "scaled": Kind({"base": Key(AllocationMap),
                    "factor": Key(float, lambda f, scenario: 0 < f <= 1, "must lie in (0, 1]")}),
}
FUNCTIONALS = {
    "ate": Kind(arms=2),
    "general": Kind({"a": Key(np.ndarray), "b": Key(np.ndarray, required=False)}),
}


def _fail(path: str, message: str, kind=ValidationError):
    raise kind(f"{path}: {message}")


def _hint(word: str, choices) -> str:
    hint = difflib.get_close_matches(word, choices, n=1)
    return f"; did you mean {hint[0]!r}?" if hint else ""


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    allowed = required + optional
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, f"unknown key{_hint(key, allowed)}", ParseError)
    for key in required:
        if key not in obj:
            _fail(f"{path}.{key}" if path else key, "missing required key")


# The parsers in _PARSERS take (obj, path, scenario); only the shaped ones read
# the scenario.


def _num(obj, path: str, _scenario=None) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, f"expected a number, got {type(obj).__name__}")
    if not np.isfinite(obj):
        _fail(path, "must be finite")
    return float(obj)


def _int(obj, path: str, _scenario=None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, f"expected an integer, got {type(obj).__name__}")
    return int(obj)


def _str(obj, path: str, _scenario=None) -> str:
    if not isinstance(obj, str):
        _fail(path, f"expected a string, got {type(obj).__name__}")
    return obj


def _bool(obj, path: str, _scenario=None) -> bool:
    if not isinstance(obj, bool):
        _fail(path, f"expected true/false, got {type(obj).__name__}")
    return obj


def _list(obj, path: str) -> list:
    if not isinstance(obj, list):
        _fail(path, f"expected a list, got {type(obj).__name__}")
    return obj


def _items(item):
    """The parser of a list whose entries ``item`` parses."""
    return lambda obj, path, _scenario=None: [item(v, f"{path}[{i}]")
                                              for i, v in enumerate(_list(obj, path))]


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


def _parse_alloc_spec(obj, path: str, scenario):
    """One of ``ALLOC_NAMES``, or a spec of an ``ALLOCATIONS`` kind."""
    if not isinstance(obj, str):
        return _parse_kind(obj, path, ALLOCATIONS, "allocation", scenario)
    if obj not in ALLOC_NAMES:
        _fail(path, f"unknown allocation {obj!r}{_hint(obj, ALLOC_NAMES)}")
    return obj


_PARSERS = {  # a Key's type -> its parser
    int: _int, float: _num, str: _str, bool: _bool,
    str | float: lambda obj, path, _scenario: obj if isinstance(obj, str) else _num(obj, path),
    list[int]: _items(_int), list[float]: _items(_num),
    # a (strata, arms) table, kept as lists
    np.ndarray: lambda obj, path, sc: _matrix(obj, path, (sc.k, sc.n_arms)).tolist(),
    AllocationMap: _parse_alloc_spec,
}


def _parse_kind(obj, path: str, registry: dict, what: str, scenario,
                common: dict[str, Key] | None = None) -> dict:
    """A ``kind``-keyed block checked against its kind's entry in
    ``registry``: the scenario's arm count, if the kind requires one, its
    functional, if the kind estimates the ATE, and only the kind's keys and
    the ``common`` ones, each parsed and checked, defaults filled in.  A
    functional is parsed before its scenario exists, against the scenario's
    shape alone (``k`` and ``n_arms``)."""
    common = common or {}
    every = [*common, *(key for entry in registry.values() for key in entry.keys)]
    _check_keys(obj, path, ("kind",), tuple(dict.fromkeys(every)))
    kind = _str(obj["kind"], f"{path}.kind")
    if kind not in registry:
        _fail(f"{path}.kind", f"unknown {what} {kind!r}{_hint(kind, registry)}")
    arms = registry[kind].arms
    if arms is not None and scenario.n_arms != arms:
        _fail(f"{path}.kind", f"{what} {kind!r} needs exactly {arms} arms; "
                              f"the scenario has {scenario.n_arms}")
    if getattr(registry[kind], "ate", False) and not scenario.functional.is_ate:
        _fail(f"{path}.kind", f"{what} {kind!r} estimates the ATE (arm 1 - arm 0); "
                              "the scenario's functional is another")
    keys = {**common, **registry[kind].keys}
    for key in obj:
        if key != "kind" and key not in keys:
            _fail(f"{path}.{key}", f"not a key of {what} {kind!r}", ParseError)
    out: dict[str, Any] = {"kind": kind}
    for key, spec in keys.items():
        where = f"{path}.{key}"
        if key in obj or spec.default is not None:
            out[key] = _PARSERS[spec.type](obj.get(key, spec.default), where, scenario)
            if spec.check is not None and not spec.check(out[key], scenario):
                _fail(where, spec.rule)
        elif spec.required:
            _fail(where, "missing required key")
    return out


# ----------------------------------------------------------------------
# Scenario block.
# ----------------------------------------------------------------------


def _build(path: str, cls, *args):
    """``cls(*args)``, its ``ValueError`` a ``ValidationError`` at ``path``."""
    try:
        return cls(*args)
    except ValueError as exc:
        _fail(path, str(exc))


def parse_scenario(obj: dict, path: str = "scenario") -> Scenario:
    """The scenario block, each value type built at its block's path, so
    that a value out of its type's range is a ``ValidationError`` that names
    the block, the field and the entry."""
    _check_keys(obj, path, ("covariates", "arms", "mu", "sigma2", "functional"),
                ("constraint", "label"))
    if "label" in obj:
        _str(obj["label"], f"{path}.label")
    cov = obj["covariates"]
    _check_keys(cov, f"{path}.covariates", ("support", "probs"))
    support = _items(_str)(cov["support"], f"{path}.covariates.support")
    probs = _items(_num)(cov["probs"], f"{path}.covariates.probs")
    covariates = _build(f"{path}.covariates", CovariateLaw, support, probs)
    k = covariates.k
    arms = _int(obj["arms"], f"{path}.arms")
    if arms < 1:
        _fail(f"{path}.arms", "must be at least 1")
    mu = _matrix(obj["mu"], f"{path}.mu", (k, arms))
    sigma2 = _matrix(obj["sigma2"], f"{path}.sigma2", (k, arms))
    fn = _parse_kind(obj["functional"], f"{path}.functional", FUNCTIONALS, "functional",
                     SimpleNamespace(k=k, n_arms=arms))
    # the parsed tables are finite and of the scenario's shape, so neither the
    # functional nor the scenario can refuse them
    functional = (TreatmentFunctional.ate(k) if fn["kind"] == "ate"
                  else TreatmentFunctional(fn["a"], fn.get("b", np.zeros((k, arms)))))

    constraint = None
    if "constraint" in obj:
        con = obj["constraint"]
        _check_keys(con, f"{path}.constraint", ("r", "c"))
        c = _items(_num)(con["c"], f"{path}.constraint.c")
        d_r = len(c)
        if d_r < 1:
            _fail(f"{path}.constraint.c", "at least one budget row required")
        r_rows = _list(con["r"], f"{path}.constraint.r")
        if len(r_rows) != k:
            _fail(f"{path}.constraint.r", f"expected {k} stratum rows, got {len(r_rows)}")
        r = np.empty((k, arms, d_r))
        for i in range(k):
            r[i] = _matrix(r_rows[i], f"{path}.constraint.r[{i}]", (arms, d_r))
        constraint = _build(f"{path}.constraint", ConstraintSpec, r, c)

    return Scenario(covariates, _build(path, OutcomeModel, mu, sigma2), functional, constraint)


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
    """Parse a JSON study configuration under the strict schema: the study
    kind's ``lists`` are required, each with at least one entry, and no
    other list may appear."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    _check_keys(raw, "", ("scenario", "study", "seed"),
                ("designs", "estimators", "output", "jobs"))
    scenario = parse_scenario(raw["scenario"])
    study = _parse_kind(raw["study"], "study", STUDIES, "study", scenario)
    seed = _int(raw["seed"], "seed")
    if seed < 0 or seed >= 2**64:
        _fail("seed", "must fit in an unsigned 64-bit integer")
    reads = STUDIES[study["kind"]].lists
    lists = {}
    for name, registry, what, common in (
            ("designs", DESIGNS, "design", {"label": Key(str, required=False)}),
            ("estimators", ESTIMATORS, "estimator", None)):
        if name in raw and name not in reads:
            _fail(name, f"not read by study {study['kind']!r}", ParseError)
        if name in reads and not _list(raw.get(name, []), name):
            _fail(name, f"study {study['kind']!r} needs at least one {what}")
        lists[name] = tuple(  # an estimator may be given by its kind alone
            _parse_kind({"kind": e} if isinstance(e, str) and name == "estimators" else e,
                        f"{name}[{i}]", registry, what, scenario, common)
            for i, e in enumerate(raw.get(name, [])))
    if "estimators" in reads:  # a study that scores estimators needs every arm filled
        for i, d in enumerate(lists["designs"]):
            if DESIGNS[d["kind"]] is FullTreatment:
                _fail(f"designs[{i}].kind", f"design {d['kind']!r} leaves the other arms "
                                            "empty and cannot be scored in a risk study")
    jobs = _int(raw.get("jobs", 1), "jobs")
    if jobs < 1:
        _fail("jobs", "must be at least 1")
    output = _str(raw["output"], "output") if "output" in raw else None
    label = raw["scenario"].get("label", "scenario")
    return StudyConfig(scenario, lists["designs"], lists["estimators"], study, seed, output,
                       jobs, label)


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
    """SHA-256 of the inputs that determine results: scenario, the lists
    the study reads (parsing admits no other), study and seed; ``output``
    and ``jobs`` are left out."""
    import hashlib

    inputs = serialize_config(replace(cfg, output=None, jobs=1))
    canon = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
