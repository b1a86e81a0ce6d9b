"""Spans around the calls into each ``plural`` layer, for the traced run.

``Tracer.installed()`` replaces the listed public names with timing wrappers
for the duration of one op and puts the originals back afterwards, so
untraced ops run unmodified code.  Each span records its name, start, end,
parent span and op id; spans stay in memory until ``dump`` writes them.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
from time import perf_counter

OP = "op"  # the root span of every op: one in-process CLI call sequence

# (module, attribute): the names under which their callers look them up.
# cli calls check_crew by its imported name; check_crew reaches
# concurrent_pairs, expand_duplicables and validate_dag through plural.graph;
# sim.run reaches its own imported copies of validate_dag and expand_duplicables.
WRAPPED = (
    ("plural.cli", "check_crew"),
    ("plural.graph", "concurrent_pairs"),
    ("plural.graph", "expand_duplicables"),
    ("plural.graph", "validate_dag"),
    ("plural.sim", "validate_dag"),
    ("plural.sim", "expand_duplicables"),
    ("plural.sim", "run"),
    ("plural.sim", "compare_to_model"),
    ("plural.sim", "report_as_dict"),
    ("plural.graphio", "load"),
    ("plural.scaling", "sweep"),
    ("plural.scaling", "ensemble_metrics"),
    ("plural.comm", "comm_metrics"),
)

# Span name -> per-layer self-time metric it is added to.
LAYER_TIME = {
    "cli.check_crew": "graph.check_crew_s",
    "graph.concurrent_pairs": "graph.concurrent_pairs_s",
    "graph.expand_duplicables": "graph.expand_s",
    "sim.expand_duplicables": "graph.expand_s",
    "graph.validate_dag": "graph.validate_dag_s",
    "sim.validate_dag": "graph.validate_dag_s",
    "sim.run": "sim.run_s",
    "sim.compare_to_model": "sim.compare_s",
    "sim.report_as_dict": "sim.report_s",
    "graphio.load": "graphio.load_s",
    "scaling.sweep": "scaling.sweep_s",
    "scaling.ensemble_metrics": "scaling.sweep_s",
    "comm.comm_metrics": "comm.comm_metrics_s",
    OP: "cli.self_s",
}


def _counts(name: str, args: tuple, result) -> dict[str, int]:
    """Work counts recorded at the layer boundary, from the call's own values."""
    if name == "graph.concurrent_pairs":
        return {"graph.concurrent_pairs": len(result)}
    if name == "cli.check_crew":
        return {"graph.crew_violations": len(result)}
    if name == "sim.expand_duplicables":
        return {"graph.expanded_tasks": len(result), "graph.expanded_edges": len(result.edges)}
    if name == "sim.run":
        return {
            "sim.accesses": result.mem_access_count,
            "sim.stalls": result.mem_conflict_stalls,
            "sim.sched_msgs": result.sched_msg_count,
        }
    if name == "graphio.load":
        return {"graphio.bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, op
        self.counts: dict[int, dict[str, int]] = {}  # op id -> counts summed over its spans
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1]
            self.spans.append((name, 0.0, 0.0, parent, self._op))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._op)
            counts = self.counts[self._op]
            for key, value in _counts(name, args, result).items():
                counts[key] = counts.get(key, 0) + value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op_id: int):
        """Trace one op: wrap the layer functions and open its root span."""
        self._op = op_id
        self.counts[op_id] = {}
        originals = []
        for module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{module_name.split('.')[-1]}.{attr}", fn))
        index = len(self.spans)
        self._stack = [index]
        self.spans.append((OP, 0.0, 0.0, -1, op_id))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.spans[index] = (OP, start, end, -1, op_id)
            self._stack = []
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, the self seconds of each layer metric in ``LAYER_TIME``."""
        self_s = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        per_op: dict[int, dict[str, float]] = {}
        for (name, _, _, _, op), value in zip(self.spans, self_s):
            layers = per_op.setdefault(op, {})
            metric = LAYER_TIME[name]
            layers[metric] = layers.get(metric, 0.0) + value
        return per_op

    def top_level_shares(self) -> dict[str, float]:
        """Each root child's total inclusive time, and the ops' own self time,
        as shares of the total traced op time."""
        totals: dict[str, float] = {}
        op_total = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent < 0:
                op_total += end - start
            elif self.spans[parent][3] < 0:
                totals[name] = totals.get(name, 0.0) + end - start
        totals["cli.self"] = op_total - sum(totals.values())
        return {name: value / op_total for name, value in sorted(totals.items())}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def load(path) -> Tracer:
    """A tracer holding the spans that ``Tracer.dump`` wrote to ``path``."""
    tracer = Tracer()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            tracer.spans.append((span["name"], span["start"], span["end"], span["parent"], span["op"]))
    return tracer
