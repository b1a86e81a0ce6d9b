"""The two contracts: the library's error contract, and the bytes of a
fixed corpus of ``plural`` calls.

Every public callable that takes a real number or a count returns finite
values or raises a ``PluralError``.

Each case below calls one callable of ``plural.__all__`` with one drawn
argument, every other argument valid.  The arguments cover finite numbers,
±inf, NaN, bools, ints too large for a float, negatives and a numeric string.
A bool or a string is never a number here: such a call must raise.

Left out: the result records (``EnsembleMetrics``, ``CommMetrics``,
``Et2ParallelResult``, ``SimReport``, ``ModelDeviation``, ``SimEvent``,
``CrewViolation``), which hold what the functions compute and check nothing,
and the callables whose arguments are a chip, a graph, a report or a
configuration, which the cases build from drawn values.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plural
from plural import (
    ChipSpec,
    ControlKind,
    Et2State,
    GraphStructureError,
    PluralError,
    SimConfig,
    Task,
    TaskGraph,
    TaskKind,
    ValidationError,
    cli,
    comm_metrics,
    constrain,
    ensemble_metrics,
    iso_energy_time,
    iso_time_energy,
    make_state,
    mem_access_energy,
    mem_power,
    parallelize,
    run,
    sched_msg_energy,
    sched_power,
    shrink_work,
    stretch_time,
    sweep,
)

SPEC = ChipSpec(area=1e6, work=1.0)
STATE = make_state(8.0, 2.0)
GRAPH = TaskGraph([Task(id="a", instruction_count=40, read_set=frozenset({"x"}))])


def _chip(field):
    """A chip with ``field`` drawn, run through the model and the simulator."""
    def call(value):
        spec = ChipSpec(**{"area": 1e6, "work": 1.0, field: value})
        return comm_metrics(spec, 4), run(GRAPH, SimConfig(chip=spec, m=4, comm_costs_enabled=True))
    return call


def _config(field):
    return lambda value: run(GRAPH, SimConfig(**{"chip": SPEC, "m": 2, field: value}))


CALLS = {
    **{f"ChipSpec.{field}": _chip(field) for field in ("area", "work", "cpi", "pollack_exponent")},
    "ensemble_metrics.m": lambda value: ensemble_metrics(SPEC, value),
    "sweep.m_values": lambda value: sweep(SPEC, [1, value]),
    "comm_metrics.m": lambda value: comm_metrics(SPEC, value),
    "Et2State.energy": lambda value: Et2State(energy=value, time=2.0, theta=32.0),
    "Et2State.time": lambda value: Et2State(energy=8.0, time=value, theta=32.0),
    "Et2State.theta": lambda value: Et2State(energy=8.0, time=2.0, theta=value),
    "make_state.energy": lambda value: make_state(value, 2.0),
    "make_state.time": lambda value: make_state(8.0, value),
    "stretch_time.factor": lambda value: stretch_time(STATE, value),
    "shrink_work.fraction": lambda value: shrink_work(STATE, value),
    "iso_time_energy.fraction": lambda value: iso_time_energy(STATE, value),
    "iso_energy_time.fraction": lambda value: iso_energy_time(STATE, value),
    "parallelize.m": lambda value: parallelize(STATE, value),
    **{
        f"constrain.{kind}": (lambda kind: lambda value: constrain(STATE, **{kind: value}))(kind)
        for kind in ("energy", "time", "power")
    },
    "sched_msg_energy.area": sched_msg_energy,
    "sched_power.area": lambda value: sched_power(value, 16),
    "sched_power.m": lambda value: sched_power(1e6, value),
    "mem_access_energy.area": lambda value: mem_access_energy(value, 16),
    "mem_access_energy.m": lambda value: mem_access_energy(1e6, value),
    "mem_power.area": lambda value: mem_power(value, 16),
    "mem_power.m": lambda value: mem_power(1e6, value),
    "Task.instruction_count": lambda value: run(
        TaskGraph([Task(id="a", instruction_count=value)]), SimConfig(chip=SPEC, m=2)
    ),
    # A duplicable count is only built, not run: a run expands every one of
    # the d instances, so a d of 10**400 never finishes.
    "Task.instances": lambda value: Task(id="a", kind=TaskKind.DUPLICABLE, instances=value),
    **{f"SimConfig.{field}": _config(field) for field in ("m", "mem_access_stride", "prealloc_depth", "seed")},
}

# 2**40 is a core count whose run must not build anything m long: a report
# lists only the cores the run used.
SPECIAL = [0, 1, -1, 0.5, -2.5, 5e-324, 1e300, math.inf, -math.inf, math.nan, True, False,
           2**40, 2**1024, 10**400, -(10**400), "1"]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.integers(-8, 4096))


def _finite(result) -> bool:
    """Whether every number in ``result`` (nested records, which are named tuples, and tuples too) is finite."""
    if isinstance(result, float):
        return math.isfinite(result)
    if isinstance(result, (tuple, list)):
        return all(map(_finite, result))
    return True


def _with_special_examples(test):
    for value in SPECIAL:
        test = example(value=value)(test)
    return test


def test_every_callable_taking_a_number_is_covered():
    covered = {name.split(".")[0] for name in CALLS} | {"run"}
    records = {"EnsembleMetrics", "CommMetrics", "Et2ParallelResult", "SimReport", "ModelDeviation",
               "SimEvent", "CrewViolation"}
    # These take a chip, a graph, a report or a configuration, or are enums.
    no_number = {"TaskGraph", "TaskKind", "ControlKind", "validate_dag", "concurrent_pairs",
                 "check_crew", "expand_duplicables", "compare_to_model"}
    callables = {name for name in plural.__all__ if not name.endswith("Error")}
    assert callables - covered - records - no_number == set()


@pytest.mark.parametrize("name", sorted(CALLS))
@_with_special_examples
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(value=VALUES)
def test_returns_finite_values_or_raises_plural_error(name, value):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # stretch_time warns of factors below 1
            result = CALLS[name](value)
    except PluralError:
        return
    assert not isinstance(value, (bool, str)), f"{name} accepted {value!r}"
    assert _finite(result), f"{name}({value!r}) returned {result!r}"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kind": "bogus"}, "kind must be a TaskKind, got 'bogus'"),
        ({"kind": "singular"}, "kind must be a TaskKind, got 'singular'"),
        ({"kind": TaskKind.CONTROL, "control_kind": "merge"}, "control_kind must be None or a ControlKind, got 'merge'"),
        ({"kind": TaskKind.CONTROL, "control_kind": TaskKind.CONTROL},
         "control_kind must be None or a ControlKind, got <TaskKind.CONTROL: 'control'>"),
        ({"read_set": "acc"}, "read_set must be a collection of strings, got 'acc'"),
        ({"write_set": "acc"}, "write_set must be a collection of strings, got 'acc'"),
        ({"read_set": [1, 2]}, "read_set must be a collection of strings, got [1, 2]"),
        ({"write_set": ["o", None]}, "write_set must be a collection of strings, got ['o', None]"),
        ({"entry_point": 5}, "entry_point must be None or a string, got 5"),
        ({"entry_point": ["x"]}, "entry_point must be None or a string, got ['x']"),
        ({"instances": True}, "a singular task has one instance, got instances=True"),
        ({"instances": 1.0}, "a singular task has one instance, got instances=1.0"),
        ({"kind": TaskKind.CONTROL, "control_kind": ControlKind.MERGE, "instances": True},
         "a control task has one instance, got instances=True"),
        ({"entry_point": ""}, "entry_point must be None or a non-empty string, got ''"),
    ],
)
def test_task_checks_every_field_it_stores(fields, message):
    # Each of these was stored as given: a bogus kind ran as singular, a str
    # footprint became its letters, and a name that is not a str broke
    # check_crew later.
    with pytest.raises(ValidationError) as info:
        Task(id="a", **fields)
    assert str(info.value) == f"task 'a': {message}"



@pytest.mark.parametrize("edge", [(None, None), (1, 2), (True, "a"), ("a", 1.5)], ids=["none", "ints", "bool", "float"])
def test_task_graph_checks_every_edge_endpoint(edge):
    # Endpoints were coerced with str(), so (None, None) was a self-loop of
    # a task named 'None' and (1, 2) named tasks '1' and '2'.
    tasks = [Task(id=tid) for tid in ("a", "None", "1", "2", "True", "1.5")]
    with pytest.raises(GraphStructureError) as info:
        TaskGraph(tasks, [edge])
    assert str(info.value) == f"edge {edge!r} must be a (predecessor, successor) pair of task ids"


# The output corpus: every byte that a fixed, seeded set of calls writes
# (exit code, stdout, stderr, and the --events file) hashed into one digest.
# A change that keeps each output byte keeps the digest; one that changes a
# documented output re-pins it and says so in CHANGES.md.  The graphs are
# drawn with randint, choice, sample and random alone, which give the same
# draws on every supported Python.
CORPUS_SEED = 31
CORPUS_GRAPHS = 300
CORPUS_DIGEST = "ab3ad74594324bf00afb66942c967fa1d958e5a8ac4e164f358ffd221d407dd0"
NAMES = ["x", "y", "v[#]", "w"]  # shared across the tasks of a graph
TASK_IDS = ["a", "b", "c", "d", "e", "f", "g", "h"]


def _random_graph(rng):
    """A small graph document and the --outcome flags that drive its conditionals."""
    ids = rng.sample(TASK_IDS, rng.randint(1, 6))  # edges go forward in this order, so no cycle
    edges = [[a, b] for k, a in enumerate(ids) for b in ids[k + 1:] if rng.random() < 0.35]
    tasks, outcomes = [], []
    for tid in ids:
        kind = rng.choice(["singular", "singular", "duplicable", "duplicable", "control"])
        task = {"id": tid, "kind": kind}
        if kind == "control":
            task["control_kind"] = rng.choice(["branch", "merge", "conditional"])
            successors = [b for a, b in edges if a == tid]
            if task["control_kind"] == "conditional":  # it needs a successor, so one with none is a merge
                if successors:
                    outcomes += ["--outcome", f"{tid}={rng.choice(successors)}"]
                else:
                    task["control_kind"] = "merge"
        else:
            if kind == "duplicable":
                task["d"] = rng.randint(1, 12)
            task["instructions"] = rng.randint(0, 40)
            task["reads"] = rng.sample(NAMES, rng.randint(0, 2))
            task["writes"] = rng.sample(NAMES, rng.randint(0, 2))
        tasks.append(task)
    return json.dumps({"tasks": tasks, "edges": edges}), outcomes


# Fixed cases beside the drawn ones: a conditional whose outcome picks the
# branch that runs, a graph of no instruction (exit 2), a cycle (exit 2) and
# a malformed document (exit 2).
CORPUS_SPECIALS = [
    (json.dumps({"tasks": [
        {"id": "c", "kind": "control", "control_kind": "conditional"},
        {"id": "l", "kind": "duplicable", "d": 5, "instructions": 12, "reads": ["x"], "writes": ["v[#]"]},
        {"id": "r", "kind": "singular", "instructions": 30, "writes": ["x"]},
    ], "edges": [["c", "l"], ["c", "r"]]}), outcome)
    for outcome in (["--outcome", "c=l"], ["--outcome", "c=r"])
] + [
    (json.dumps({"tasks": [{"id": "a", "kind": "singular"}, {"id": "b", "kind": "duplicable", "d": 3}],
                 "edges": [["a", "b"]]}), []),
    (json.dumps({"tasks": [{"id": t, "kind": "singular", "instructions": 5} for t in "abc"],
                 "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}), []),
    ('{"tasks": [{"id": "a", "kind": "singular", "instructions": 5}', []),
]
# Fixed cases added after the corpus was first pinned.  They follow the
# drawn graphs, so every earlier case keeps the flags drawn for it.  A
# conditional with no successor is refused (exit 2).
CORPUS_APPENDED = [
    (json.dumps({"tasks": [{"id": "c", "kind": "control", "control_kind": "conditional"},
                           {"id": "a", "kind": "singular", "instructions": 5}]}), []),
]


def corpus_calls():
    """Each call of the corpus as (graph document or None, argv)."""
    rng = random.Random(CORPUS_SEED)
    yield None, ["sweep"]
    yield None, ["comm-sweep"]
    for doc, outcomes in CORPUS_SPECIALS + [_random_graph(rng) for _ in range(CORPUS_GRAPHS)] + CORPUS_APPENDED:
        flags = ["--m", str(rng.randint(1, 6)), "--prealloc-depth", str(rng.randint(0, 3)),
                 "--stride", str(rng.randint(1, 6)), "--seed", str(rng.randint(0, 3)), *outcomes]
        yield doc, ["validate", "graph.json"]
        yield doc, ["simulate", "graph.json", *flags, "--comm-costs", "--check-model"]
        yield doc, ["simulate", "graph.json", *flags, "--csv", "--events", "events.jsonl"]


def corpus_digest() -> str:
    """sha256 of every call's argv, exit code, stdout, stderr and events
    file, run in the current directory with relative file names, so that no
    temporary path reaches the digest."""
    digest = hashlib.sha256()
    for doc, argv in corpus_calls():
        if doc is not None:
            with open("graph.json", "w", encoding="utf-8") as fh:
                fh.write(doc)
        with contextlib.suppress(FileNotFoundError):
            os.remove("events.jsonl")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        events = ""
        if os.path.exists("events.jsonl"):
            with open("events.jsonl", encoding="utf-8") as fh:
                events = fh.read()
        digest.update(repr((argv, code, out.getvalue(), err.getvalue(), events)).encode())
    return digest.hexdigest()


def test_output_corpus_matches_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert corpus_digest() == CORPUS_DIGEST
