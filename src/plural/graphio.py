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
from pathlib import Path

from .errors import GraphFormatError, PluralError
from .graph import ControlKind, Task, TaskGraph, TaskKind

__all__ = ["loads", "load", "dumps", "dump"]

_TASK_KEYS = {"id", "kind", "d", "control_kind", "entry", "instructions", "reads", "writes"}


def _format_error(message: str) -> GraphFormatError:
    return GraphFormatError(f"task graph document: {message}")


def _string_list(value: object, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise _format_error(f"{what} must be a list of strings, got {value!r}")
    return value


def _parse_task(obj: object, index: int) -> Task:
    if not isinstance(obj, dict):
        raise _format_error(f"tasks[{index}] must be an object, got {obj!r}")
    unknown = set(obj) - _TASK_KEYS
    if unknown:
        raise _format_error(
            f"tasks[{index}] has unknown key(s) {sorted(unknown)!r}"
        )
    if "id" not in obj or "kind" not in obj:
        raise _format_error(f"tasks[{index}] needs both 'id' and 'kind'")
    tid = obj["id"]
    where = f"tasks[{index}] ({tid!r})"
    try:
        kind = TaskKind(obj["kind"])
    except ValueError:
        raise _format_error(
            f"{where}: kind must be one of "
            f"{[k.value for k in TaskKind]!r}, got {obj['kind']!r}"
        ) from None
    if "d" in obj and kind is not TaskKind.DUPLICABLE:
        raise _format_error(f"{where}: 'd' is only valid on duplicable tasks")
    control_kind = None
    if "control_kind" in obj:
        try:
            control_kind = ControlKind(obj["control_kind"])
        except ValueError:
            raise _format_error(
                f"{where}: control_kind must be one of "
                f"{[k.value for k in ControlKind]!r}, got {obj['control_kind']!r}"
            ) from None
    try:
        return Task(
            id=tid,
            kind=kind,
            instances=obj.get("d", 1),
            control_kind=control_kind,
            entry_point=obj.get("entry"),
            instruction_count=obj.get("instructions", 0),
            read_set=frozenset(_string_list(obj.get("reads", []), f"{where}: reads")),
            write_set=frozenset(_string_list(obj.get("writes", []), f"{where}: writes")),
        )
    except PluralError as exc:
        raise _format_error(f"{where}: {exc}") from None


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
    tasks = [_parse_task(t, i) for i, t in enumerate(tasks_obj)]
    edges = []
    for i, pair in enumerate(edges_obj):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(e, str) for e in pair)
        ):
            raise _format_error(
                f"edges[{i}] must be a [predecessor, successor] id pair, got {pair!r}"
            )
        edges.append((pair[0], pair[1]))
    return TaskGraph(tasks, edges)


def load(path: str | Path) -> TaskGraph:
    """Read and parse a task-graph document from a file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"task graph document is not UTF-8: {exc}") from None
    return loads(text)


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
        "tasks": [_task_to_obj(g.tasks[tid]) for tid in sorted(g.tasks)],
        "edges": [list(edge) for edge in sorted(g.edges)],
    }
    return json.dumps(doc, indent=2) + "\n"


def dump(g: TaskGraph, path: str | Path) -> None:
    """Write a task graph to a file in the JSON document format."""
    Path(path).write_text(dumps(g), encoding="utf-8")
