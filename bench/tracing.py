"""Spans around the calls the program's layers make into each other.

The benchmark swaps module attributes (``runner.risk_table``,
``engine.apply_rule``, ...) for wrappers that record a span per call:
name, start, end, parent span and a small tag such as the design label
and n.  Nothing under ``src/`` changes; the wrappers see exactly the
calls the layers make.  Spans stay in memory and are written out once,
after the run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace


def _design(rule) -> str:
    return rule.describe().split("(")[0]


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, tag, phase,
        #             counted calls made while it was the innermost span]
        self.spans: list[list] = []
        self.phase = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._labels: dict[type, str] = {}

    def label(self, obj, describe) -> str:
        kind = type(obj)
        if kind not in self._labels:
            self._labels[kind] = describe(obj)
        return self._labels[kind]

    def _open(self, name: str, tag) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, tag, self.phase, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        idx = self._open(name, tag)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, tag=None, result_tag=None) -> None:
        """Record a span for every call through ``module.attr``; the span's
        tag comes from the arguments, or from the result if it returns.  An
        attribute a later version no longer has is skipped (its metrics
        read 0)."""
        if not hasattr(module, attr):
            return
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self._open(name, tag(*args, **kwargs) if tag else None)
            try:
                result = original(*args, **kwargs)
                if result_tag:
                    self.spans[idx][4] = result_tag(result)
                return result
            finally:
                self._close(idx)

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def count(self, module, attr: str) -> None:
        """Count calls through ``module.attr`` on the innermost open span,
        without recording spans of their own."""
        if not hasattr(module, attr):
            return
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            if self._stack:
                self.spans[self._stack[-1]][6] += 1
            return original(*args, **kwargs)

        setattr(module, attr, counted)
        self._undo.append((module, attr, original))

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def dump(self, path: str, extra: dict) -> None:
        keys = ("name", "start", "end", "parent", "tag", "phase", "counted")
        with open(path, "w") as fh:
            json.dump({**extra, "fields": keys, "spans": self.spans}, fh)

    # --- queries -----------------------------------------------------

    def select(self, name: str, phase: str) -> list[list]:
        return [s for s in self.spans if s[0] == name and s[5] == phase]

    def child_time(self) -> dict[int, dict[str, float]]:
        """Time covered by direct children: parent index -> child name -> s."""
        out: dict[int, dict[str, float]] = {}
        for s in self.spans:
            if s[3] >= 0:
                kids = out.setdefault(s[3], {})
                kids[s[0]] = kids.get(s[0], 0.0) + (s[2] - s[1])
        return out


def instrument(tracer: Tracer, nl) -> None:
    """Wrap the layer boundaries of the imported package ``nl``."""
    design = lambda rule: tracer.label(rule, _design)  # noqa: E731
    estimator = lambda est: tracer.label(est, nl.estimators.describe_estimator)  # noqa: E731

    tracer.wrap(nl.runner, "solve_constrained", "allocation.solve",
                result_tag=lambda amap: amap.meta.get("inner_solves"))
    tracer.wrap(nl.runner, "risk_table", "estimators.risk_table",
                lambda ests, sub, theta, rule, *a, **k: design(rule))
    tracer.wrap(nl.runner, "lan_diagnostics", "lan.diagnostics",
                lambda sub, rule, h, n, *a, **k: (design(rule), int(n)))
    for mod in (nl.estimators, nl.lan):
        tracer.wrap(mod, "run_one", "engine.run_one",
                    lambda sub, theta, rule, n, *a, **k: int(n))
        tracer.wrap(mod, "rep_seed", "engine.rep_seed")
        tracer.wrap(mod, "ProcessPoolExecutor", "runner.pool")
    tracer.wrap(nl.engine, "apply_rule", "designs.apply_rule",
                lambda rule, x, *a, **k: (design(rule), len(x)))
    tracer.wrap(nl.engine, "stream", "engine.stream")
    tracer.wrap(nl.estimators, "estimate", "estimators.estimate",
                lambda est, log: estimator(est))
    tracer.wrap(nl.lan, "log_likelihood_ratio", "lan.llr",
                lambda sub, log, h: log.n)
    # A solve that raises returns no meta; its stratum solves are counted here.
    tracer.count(nl.allocation, "_solve_stratum")
    # CSV formatting and gates count as children of run_study for its self time.
    tracer.wrap(nl.runner, "_csv_text", "runner.csv")
    tracer.wrap(nl.runner, "_gate", "runner.gate")


def span_cost_s(calls: int = 50_000) -> float:
    """Time one traced call adds over a plain one, measured on a no-op
    with a tag function like the ones above; median of 5 trials."""
    costs = []
    for _ in range(5):
        ns = SimpleNamespace(f=lambda a, b: None)
        t0 = time.perf_counter()
        for i in range(calls):
            ns.f(i, 0)
        plain = time.perf_counter() - t0
        tracer = Tracer()
        tracer.wrap(ns, "f", "noop", lambda a, b: (a, b))
        t0 = time.perf_counter()
        for i in range(calls):
            ns.f(i, 0)
        costs.append((time.perf_counter() - t0 - plain) / calls)
    return max(0.0, statistics.median(costs))


def median_us(spans: list[list]) -> float:
    return 1e6 * statistics.median(s[2] - s[1] for s in spans) if spans else 0.0


def total_s(spans: list[list]) -> float:
    return sum(s[2] - s[1] for s in spans)
