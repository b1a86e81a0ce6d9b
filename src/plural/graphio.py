"""JSON file format for task graphs.

A graph document is a single JSON object with exactly two top-level keys:

    {
      "tasks": [
        {"id": "load", "kind": "singular", "entry": "load_stage",
         "instructions": 500, "reads": ["cfg"], "writes": ["raw"]},
        {"id": "work", "kind": "duplicable", "d": 8,
         "instructions": 1000, "reads": ["raw"], "writes": ["out[#]"]},
        {"id": "join", "kind": "control", "control_kind": "merge"}
      ],
      "edges": [["load", "work"], ["work", "join"]]
    }

Per task, ``id`` and ``kind`` are required.  ``d`` is only valid (and
defaults to 1) for duplicable tasks, ``control_kind`` is required for
control tasks, ``entry`` defaults to the task id, ``instructions`` to 0, and
``reads``/``writes`` to empty lists.  Unknown keys anywhere are rejected.
"""

from __future__ import annotations

import json
import os
from itertools import count

from .errors import GraphFormatError, GraphStructureError, PluralError
from .graph import ControlKind, Task, TaskGraph, TaskKind

__all__ = ["loads", "load", "dumps", "dump"]

_TASK_KEYS = {"id", "kind", "d", "control_kind", "entry", "instructions", "reads", "writes"}
# Each enum's members by value: a lookup here is cheaper than calling the enum.
_KINDS = {kind.value: kind for kind in TaskKind}
_CONTROL_KINDS = {kind.value: kind for kind in ControlKind}
_NO_NAMES: list[str] = []  # an absent footprint, shared: Task copies names into frozensets and never changes it


def _format_error(message: str) -> GraphFormatError:
    return GraphFormatError(f"task graph document: {message}")


def _where(obj: dict, index: int) -> str:
    """Where task ``index`` is, for an error message: spelled out only to raise one."""
    return f"tasks[{index}] ({obj['id']!r})"


def _member(members: dict, obj: dict, key: str, index: int):
    """The enum member whose value is ``obj[key]``."""
    try:
        return members[obj[key]]
    except (KeyError, TypeError):  # TypeError: the value is a list or a dict
        raise _format_error(
            f"{_where(obj, index)}: {key} must be one of {list(members)!r}, got {obj[key]!r}"
        ) from None


def _parse_task(obj: object, index: int) -> Task:
    if not isinstance(obj, dict):
        raise _format_error(f"tasks[{index}] must be an object, got {obj!r}")
    if not _TASK_KEYS.issuperset(obj):
        raise _format_error(f"tasks[{index}] has unknown key(s) {sorted(obj.keys() - _TASK_KEYS)!r}")
    if "id" not in obj or "kind" not in obj:
        raise _format_error(f"tasks[{index}] needs both 'id' and 'kind'")
    kind = _member(_KINDS, obj, "kind", index)
    if "d" in obj and kind is not TaskKind.DUPLICABLE:
        raise _format_error(f"{_where(obj, index)}: 'd' is only valid on duplicable tasks")
    control_kind = _member(_CONTROL_KINDS, obj, "control_kind", index) if "control_kind" in obj else None
    reads, writes = obj.get("reads", _NO_NAMES), obj.get("writes", _NO_NAMES)
    try:  # Task checks the names, once, and the rest, and makes frozensets of the names
        if isinstance(reads, list) and isinstance(writes, list):  # Task(...), less the cost of calling a class
            return Task.__new__(Task, obj["id"], kind, obj.get("d", 1), control_kind, obj.get("entry"),
                                obj.get("instructions", 0), reads, writes)
    except (PluralError, TypeError) as exc:  # TypeError: a name that is a list or an object
        error = exc
    for key, value in (("reads", reads), ("writes", writes)):  # a bad list is named before Task's error
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise _format_error(f"{_where(obj, index)}: {key} must be a list of strings, got {value!r}")
    raise _format_error(f"{_where(obj, index)}: {error}")


def loads(text: str) -> TaskGraph:
    """Parse a task-graph document from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        # str(exc) carries "line N column M", keeping messages line-anchored.
        raise GraphFormatError(f"task graph document is not valid JSON: {exc}") from None
    except RecursionError:
        raise GraphFormatError("task graph document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise _format_error("top level must be an object")
    unknown = set(doc) - {"tasks", "edges"}
    if unknown:
        raise _format_error(f"unknown top-level key(s) {sorted(unknown)!r}")
    tasks_obj = doc.get("tasks", [])
    edges_obj = doc.get("edges", [])
    if not isinstance(tasks_obj, list):
        raise _format_error("'tasks' must be a list")
    if not isinstance(edges_obj, list):
        raise _format_error("'edges' must be a list")
    tasks = list(map(_parse_task, tasks_obj, count()))
    try:  # TaskGraph checks every edge at once; the loader names a bad one before any other structure error
        return TaskGraph(tasks, edges_obj)
    except GraphStructureError:
        for i, pair in enumerate(edges_obj):
            if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(e, str) for e in pair)):
                raise _format_error(f"edges[{i}] must be a [predecessor, successor] id pair, got {pair!r}") from None
        raise


def load(path: str | os.PathLike) -> TaskGraph:
    """Read and parse a task-graph document from a file."""
    try:
        with open(os.fspath(path), encoding="utf-8") as fh:  # fspath refuses an int, as Path did
            return loads(fh.read())
    except UnicodeDecodeError as exc:  # loads takes a str, so only the read raises this
        raise GraphFormatError(f"task graph document is not UTF-8: {exc}") from None


def _task_to_obj(task: Task) -> dict:
    obj: dict = {"id": task.id, "kind": task.kind.value}
    if task.kind is TaskKind.DUPLICABLE:
        obj["d"] = task.instances
    if task.kind is TaskKind.CONTROL:
        obj["control_kind"] = task.control_kind.value
    else:
        obj["entry"] = task.entry_point
        obj["instructions"] = task.instruction_count
        obj["reads"] = sorted(task.read_set)
        obj["writes"] = sorted(task.write_set)
    return obj


def dumps(g: TaskGraph) -> str:
    """Serialize a task graph to the JSON document format (stable ordering)."""
    doc = {
        "tasks": [_task_to_obj(g._tasks[tid]) for tid in sorted(g._tasks)],
        "edges": [[pred, succ] for pred in sorted(g._successors) for succ in g._successors[pred]],
    }
    return json.dumps(doc, indent=2) + "\n"


def dump(g: TaskGraph, path: str | os.PathLike) -> None:
    """Write a task graph to a file in the JSON document format."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:  # fspath refuses an int, as Path did
        fh.write(dumps(g))
