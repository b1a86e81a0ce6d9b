"""Seeded input generators for the benchmark's four workloads.

Each generator returns one ``Case``: the ``plural`` calls that make one op
(``{graph}`` stands for the graph file), the task-graph document to write
(None for the model sweep), and the values a correct ``simulate`` report
holds, derived from the generator's own structure rather than from
``plural`` code.

The shapes are fixed; the seed draws only per-task instruction counts
within the stated ranges and the simulator's arbitration ``--seed``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

AREA = 1e6  # the CLI's default chip area
STRIDE = 5  # the CLI's default instructions per shared-memory access
EDGE_N = (20, 60)  # instruction range of loader and reduce tasks


@dataclass(frozen=True)
class Expected:
    """What a correct ``simulate`` report holds for one generated graph."""

    m: int
    instances: int  # core-executed instances on the executed path
    instructions: int
    accesses: int  # granted shared-memory accesses
    critical_path: int  # instructions on the longest executed precedence chain
    crew_warnings: int


@dataclass(frozen=True)
class Case:
    calls: tuple[tuple[str, ...], ...]  # one op; "{graph}" stands for the graph file
    graph: dict | None
    expected: Expected | None


def _accesses(n: int) -> int:
    return n // STRIDE  # every generated task has a nonempty footprint


def _task(tid, n, reads, writes, d=None):
    doc = {"id": tid, "kind": "duplicable" if d else "singular",
           "instructions": n, "reads": reads, "writes": writes}
    if d:
        doc["d"] = d
    return doc


def _control(tid, kind):
    return {"id": tid, "kind": "control", "control_kind": kind}


def _simulate(m: int, rng: random.Random, *extra: str) -> tuple[tuple[str, ...], ...]:
    return (("simulate", "{graph}", "--m", str(m), "--comm-costs", "--check-model",
            "--seed", str(rng.randrange(2**31)), *extra),)


def wide_short(rng: random.Random) -> Case:
    """Loader -> {scatter (d=150), 150 singular tasks, tally (d=16)} -> merge -> reduce."""
    m, d_scatter, n_single, d_tally = 16384, 150, 150, 16
    n_load, n_reduce = rng.randint(*EDGE_N), rng.randint(*EDGE_N)
    n_scatter, n_tally = rng.randint(10, 30), rng.randint(10, 30)
    n_singles = [rng.randint(10, 30) for _ in range(n_single)]
    singles = [f"w{k:03d}" for k in range(n_single)]
    tasks = [
        _task("load", n_load, ["cfg"], ["raw"]),
        _task("scatter", n_scatter, ["in[#]"], ["out[#]"], d=d_scatter),
        *(_task(tid, n, [f"a{k}"], [f"b{k}"]) for k, (tid, n) in enumerate(zip(singles, n_singles))),
        # A plain written name makes the tally's instances conflict pairwise.
        _task("tally", n_tally, ["t[#]"], ["acc"], d=d_tally),
        _control("merge", "merge"),
        _task("reduce", n_reduce, ["acc"], ["result"]),
    ]
    parts = ["scatter", *singles, "tally"]
    edges = [["load", p] for p in parts] + [[p, "merge"] for p in parts] + [["merge", "reduce"]]
    middle = [(d_scatter, n_scatter), (d_tally, n_tally), *((1, n) for n in n_singles)]
    expected = Expected(
        m=m,
        instances=2 + sum(d for d, _ in middle),
        instructions=n_load + n_reduce + sum(d * n for d, n in middle),
        accesses=_accesses(n_load) + _accesses(n_reduce) + sum(d * _accesses(n) for d, n in middle),
        critical_path=n_load + max(n for _, n in middle) + n_reduce,
        crew_warnings=math.comb(d_tally, 2),
    )
    return Case(_simulate(m, rng), {"tasks": tasks, "edges": edges}, expected)


def shared_read(rng: random.Random) -> Case:
    """Loader -> duplicable (d=64) reading shared x and y -> merge -> reduce."""
    m, d, n_work = 64, 64, 200
    n_load, n_reduce = rng.randint(*EDGE_N), rng.randint(*EDGE_N)
    tasks = [
        _task("load", n_load, ["cfg"], ["x", "y"]),
        _task("work", n_work, ["x", "y"], ["out[#]"], d=d),
        _control("merge", "merge"),
        _task("reduce", n_reduce, ["x"], ["result"]),
    ]
    edges = [["load", "work"], ["work", "merge"], ["merge", "reduce"]]
    expected = Expected(
        m=m,
        instances=d + 2,
        instructions=n_load + d * n_work + n_reduce,
        accesses=_accesses(n_load) + d * _accesses(n_work) + _accesses(n_reduce),
        critical_path=n_load + n_work + n_reduce,
        crew_warnings=0,
    )
    return Case(_simulate(m, rng), {"tasks": tasks, "edges": edges}, expected)


def stage_chain(rng: random.Random) -> Case:
    """Loader -> conditional pick -> (fast | four chained d=32 stages) -> merge; runs the stages."""
    m, d, n_stages = 32, 32, 4
    n_load, n_fast = rng.randint(*EDGE_N), rng.randint(*EDGE_N)
    n_stage = [rng.randint(150, 300) for _ in range(n_stages)]
    stages = [f"st{k}" for k in range(n_stages)]
    tasks = [
        _task("load", n_load, ["cfg"], ["s0[#]"]),
        _control("pick", "conditional"),
        _task("fast", n_fast, ["cfg"], ["s4[#]"]),
        *(_task(tid, n, [f"s{k}[#]"], [f"s{k + 1}[#]"], d=d)
          for k, (tid, n) in enumerate(zip(stages, n_stage))),
        _control("merge", "merge"),
    ]
    edges = [["load", "pick"], ["pick", "fast"], ["pick", stages[0]], ["fast", "merge"]]
    edges += [[a, b] for a, b in zip(stages, stages[1:])] + [[stages[-1], "merge"]]
    expected = Expected(
        m=m,
        instances=1 + d * n_stages,
        instructions=n_load + d * sum(n_stage),
        accesses=_accesses(n_load) + d * sum(_accesses(n) for n in n_stage),
        critical_path=n_load + sum(n_stage),
        crew_warnings=0,
    )
    calls = _simulate(m, rng, "--outcome", f"pick={stages[0]}")
    return Case(calls, {"tasks": tasks, "edges": edges}, expected)


def model_sweep(rng: random.Random) -> Case:
    """Default ``sweep`` then default ``comm-sweep``, as one op."""
    return Case((("sweep",), ("comm-sweep",)), None, None)


GENERATORS = {
    "wide-short": wide_short,
    "shared-read": shared_read,
    "stage-chain": stage_chain,
    "model-sweep": model_sweep,
}


def make_cases(workload: str, seed: int, count: int) -> list[Case]:
    """``count`` inputs of one workload, all drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return [GENERATORS[workload](rng) for _ in range(count)]
