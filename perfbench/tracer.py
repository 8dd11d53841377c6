"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps public miakit callables from outside the package:
a module-level function is replaced in every loaded ``miakit`` module that
binds it (``from .kernel import sample`` makes a second binding), and a
method is replaced on its class.  Each wrapped call records one span (name,
start, end, parent) and adds to per-name call counts, total time and self
time.  Self time is a span's duration minus the time its child spans cover;
code that runs between wrapped calls (event callbacks, for instance) counts
towards the innermost enclosing span.

Spans are kept in compact arrays and written out by ``dump`` when the run
ends.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Any, Callable

import numpy as np

from miakit import discovery, flows, infrastructure, kernel, metrics, mission, scenario, threat

# (owner, attribute, span name).  Span names are "<layer>.<callable>"; the
# layer is the miakit module that defines the callable.
TARGETS: list[tuple[Any, str, str]] = [
    (kernel.Simulator, "run_until", "kernel.run_until"),
    (kernel.Simulator, "schedule", "kernel.schedule"),
    (kernel.StreamFactory, "item_stream", "kernel.item_stream"),
    (kernel, "sample", "kernel.sample"),
    (infrastructure, "build_graph", "infrastructure.build_graph"),
    (infrastructure, "effective_performance_all", "infrastructure.effective_performance_all"),
    (infrastructure.InfrastructureGraph, "neighbors", "infrastructure.neighbors"),
    (infrastructure.InfrastructureGraph, "exploits_on", "infrastructure.exploits_on"),
    (infrastructure, "set_state", "infrastructure.set_state"),
    (infrastructure, "propagate_static_impact", "infrastructure.propagate_static_impact"),
    (mission.MissionRuntime, "install", "mission.install"),
    (mission.MissionRuntime, "finalize", "mission.finalize"),
    (mission, "apply_checkpoint", "mission.apply_checkpoint"),
    (threat, "attacker_process", "threat.attacker_process"),
    (threat, "defender_process", "threat.defender_process"),
    (scenario.Scenario, "run_replication", "scenario.run_replication"),
    (scenario.Scenario, "run_detailed", "scenario.run_detailed"),
    (metrics, "collect", "metrics.collect"),
    (metrics, "aggregate", "metrics.aggregate"),
    (metrics, "compare", "metrics.compare"),
    (flows, "parse_flows", "flows.parse_flows"),
    (flows, "bin_activity", "flows.bin_activity"),
    (discovery, "direct_dependencies", "discovery.direct_dependencies"),
    (discovery, "infer_indirect", "discovery.infer_indirect"),
    (discovery, "max_lag_ncc", "discovery.max_lag_ncc"),
    (discovery, "ncc", "discovery.ncc"),
    (discovery, "detect_retry_chains", "discovery.detect_retry_chains"),
    (discovery, "export_graph", "discovery.export_graph"),
    (discovery, "evaluate", "discovery.evaluate"),
]

LAYERS = ("kernel", "mission", "infrastructure", "threat", "scenario", "metrics", "flows", "discovery")


class Tracer:
    def __init__(self, span_cap: int = 2_000_000):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        # Per-span arrays in end order.  Span ids count calls in start order;
        # ``parent`` is the enclosing span's id or -1.
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_cap = span_cap
        self.dropped = 0
        self.extra: dict[str, float] = {}
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        idx = self._index(name)
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                self.calls[idx] += 1
                self.total_s[idx] += d
                self.self_s[idx] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if len(self.span_name) < self.span_cap:
                    self.span_id.append(span_id)
                    self.span_name.append(idx)
                    self.span_start.append(t0)
                    self.span_end.append(t1)
                    self.span_parent.append(parent)
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        hooks = {
            "flows.bin_activity": lambda args, _: self.count("records_scanned", len(args[0])),
            "mission.apply_checkpoint": lambda args, _: self.count("checkpoint_examined", len(args[0])),
            "mission.finalize": lambda _, result: self.count("items", len(result.items)),
            "kernel.run_until": lambda args, _: self.count("pending_after_run", args[0].pending()),
        }
        loaded = [m for name, m in sys.modules.items() if name == "miakit" or name.startswith("miakit.")]
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in loaded:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def total_s_of(self, name: str) -> float:
        return self.total_s[self.names.index(name)]

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in zip(self.names, self.self_s):
            out[name.split(".", 1)[0]] += s
        return out

    def dump(self, path: str) -> None:
        """Write every kept span to ``path`` (NumPy ``.npz``): arrays
        ``names`` (span name table), ``id``, ``name`` (index into the table),
        ``start`` and ``end`` (perf_counter seconds) and ``parent`` (the
        enclosing span's id, or -1)."""
        np.savez(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
        )
