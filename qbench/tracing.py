"""Spans and counters recorded around the calls into each qmetric layer.

The tracer replaces a layer's public function wherever its callers bind it
(module globals, the experiment runner table, class attributes), so the
benchmark's workload code runs unchanged with tracing on or off.  Spans
(id, name, start, end, parent id) are kept in memory; the caller writes them
out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Target:
    """A function to wrap: its layer metric prefix, where it is defined, and its work counts."""

    name: str
    module: str
    attr: str
    owner: Optional[str] = None   # class whose subclasses define attr as a method
    span: bool = True             # False: count calls only (too frequent for spans)
    work: Optional[Callable] = None  # result -> {counter suffix: amount}


def _heuristic_work(result) -> dict:
    log = result.diagnostics.get("restart_log", [])
    return {"ascent_iterations": sum(entry["iterations"] for entry in log),
            "unconverged_restarts": sum(not entry["converged"] for entry in log)}


TARGETS = [
    Target("groups.mul", "qmetric.groups", "mul", owner="Group", span=False),
    Target("groups.inv", "qmetric.groups", "inv", owner="Group", span=False),
    Target("wordlength.enumerate_ball", "qmetric.wordlength", "enumerate_ball",
           work=lambda ball: {"elements": len(ball)}),
    Target("wordlength.growth_fit", "qmetric.wordlength", "growth_fit"),
    Target("opalgebra.commutator_matrix", "qmetric.opalgebra", "commutator_matrix",
           work=lambda op: {"nnz": op.matrix.nnz}),
    Target("opalgebra.op_matrix", "qmetric.opalgebra", "op_matrix"),
    Target("opalgebra.norm_lower", "qmetric.opalgebra", "norm_lower",
           work=lambda est: {"iterations": est.iterations,
                             "unconverged": int(not est.converged)}),
    Target("opalgebra.top_singular", "qmetric.opalgebra", "_top_singular",
           work=lambda out: {"iterations": out[4]}),
    Target("states.coeff_array", "qmetric.states", "coeff_array", owner="StateRep"),
    Target("states.pd_check", "qmetric.states", "pd_check"),
    Target("metrics.d_inf", "qmetric.metrics", "d_inf"),
    Target("metrics.d_2", "qmetric.metrics", "d_2"),
    Target("metrics.connes_bracket", "qmetric.metrics", "connes_bracket"),
    Target("metrics.connes_heuristic", "qmetric.metrics", "connes_heuristic",
           work=_heuristic_work),
    Target("experiments.run_dist", "qmetric.experiments", "run_dist"),
    Target("cli.main", "qmetric.cli", "main"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, Optional[int]]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, object, object]] = []
        self.skipped: list[str] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, work=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))
            self.counts[name + ".calls"] += 1
        if work is not None:
            for key, amount in work(result).items():
                self.counts[f"{name}.{key}"] += amount
        return result

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def _wrapper(self, target: Target, fn):
        if not target.span:
            key = target.name + ".calls"
            counts = self.counts

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            return self.call(target.name, fn, args, kwargs, target.work)
        return traced

    # -- installing ----------------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        """Wrap every target where qmetric's modules and the given namespaces bind it."""
        namespaces = [mod.__dict__ for name, mod in list(sys.modules.items())
                      if name == "qmetric" or name.startswith("qmetric.")]
        namespaces += [ns for ns in extra_namespaces]
        for target in TARGETS:
            module = sys.modules[target.module]
            if target.owner is not None:
                self._install_method(target, getattr(module, target.owner))
                continue
            original = getattr(module, target.attr, None)
            if original is None:
                self.skipped.append(target.name)
                print(f"note: {target.module}.{target.attr} is gone; "
                      f"{target.name} metrics are skipped", file=sys.stderr)
                continue
            wrapper = self._wrapper(target, original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patch(ns, key, wrapper)
                    elif isinstance(value, dict):
                        # runner tables such as experiments.RUNNERS
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, wrapper)

    def _install_method(self, target: Target, base: type) -> None:
        classes = [base]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if target.attr in cls.__dict__:
                wrapper = self._wrapper(target, cls.__dict__[target.attr])
                self._patches.append((cls, target.attr, cls.__dict__[target.attr]))
                setattr(cls, target.attr, wrapper)

    def _patch(self, mapping: dict, key, wrapper) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the part covered by its child spans."""
    children = defaultdict(list)
    for span_id, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[name] += (end - start) - covered
    return dict(out)
