"""Task graphs for the Plural programming model.

Work is organized as a DAG of tasks that communicate only through shared
variables in shared memory.  A task is singular (one instance), duplicable
(d independent concurrent instances sharing one code entry point), or a
control task (branch, merge, or conditional point, executed by the scheduler
with no code of its own).  Tasks carry no arguments and no results, only a
declared footprint of shared variables they read and write.

Shared-memory access follows the PRAM CREW discipline: concurrent tasks may
all read a variable, but a variable written by a task must not be touched by
any task concurrent with it.  ``check_crew`` reports every violation of that
rule; two tasks are concurrent when neither precedes the other through the
edge relation.

Duplicable tasks expand into one instance task per index.  A shared-variable
name may embed ``#`` as an instance-number placeholder ("v[#]" becomes
"v[0]", "v[1]", ...), which is how a duplicable task declares instance-
disjoint writes; a plain written name makes its own instances conflict with
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import CycleError, GraphStructureError, ValidationError

__all__ = [
    "TaskKind",
    "ControlKind",
    "Task",
    "TaskGraph",
    "CrewViolation",
    "WRITE_WRITE",
    "READ_WRITE",
    "validate_dag",
    "concurrent_pairs",
    "check_crew",
    "private_variables",
    "expand_duplicables",
]

# Separator between a duplicable task id and the instance number in expanded ids.
INSTANCE_SEP = "#"
# Placeholder in shared-variable names replaced by the instance number.
INSTANCE_PLACEHOLDER = "#"

WRITE_WRITE = "write-write"
READ_WRITE = "read-write"


class TaskKind(Enum):
    SINGULAR = "singular"
    DUPLICABLE = "duplicable"
    CONTROL = "control"


class ControlKind(Enum):
    BRANCH = "branch"
    MERGE = "merge"
    CONDITIONAL = "conditional"


@dataclass(frozen=True)
class Task:
    """One node of a task graph.

    ``instruction_count`` is the work of a single instance.  For duplicable
    tasks ``instances`` is the duplication count d; expanded instances carry
    their index in ``instance_number``.  Control tasks have no entry point,
    no instructions, and no shared-variable footprint.
    """

    id: str
    kind: TaskKind = TaskKind.SINGULAR
    instances: int = 1
    control_kind: ControlKind | None = None
    entry_point: str | None = None
    instruction_count: int = 0
    read_set: frozenset[str] = frozenset()
    write_set: frozenset[str] = frozenset()
    instance_number: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"task id must be a non-empty string, got {self.id!r}")
        object.__setattr__(self, "read_set", frozenset(self.read_set))
        object.__setattr__(self, "write_set", frozenset(self.write_set))
        if not isinstance(self.instruction_count, int) or self.instruction_count < 0:
            raise ValidationError(
                f"task {self.id!r}: instruction_count must be a nonnegative "
                f"integer, got {self.instruction_count!r}"
            )
        if self.kind is TaskKind.CONTROL:
            if self.control_kind is None:
                raise ValidationError(
                    f"task {self.id!r}: control tasks need a control_kind"
                )
            if self.entry_point is not None:
                raise ValidationError(
                    f"task {self.id!r}: control tasks carry no entry point"
                )
            if self.instruction_count != 0:
                raise ValidationError(
                    f"task {self.id!r}: control tasks execute no instructions"
                )
            if self.read_set or self.write_set:
                raise ValidationError(
                    f"task {self.id!r}: control tasks access no shared variables"
                )
            if self.instances != 1:
                raise ValidationError(f"task {self.id!r}: control tasks are not duplicable")
        else:
            if self.control_kind is not None:
                raise ValidationError(
                    f"task {self.id!r}: control_kind is only valid on control tasks"
                )
            if self.kind is TaskKind.DUPLICABLE:
                if not isinstance(self.instances, int) or self.instances < 1:
                    raise ValidationError(
                        f"task {self.id!r}: duplicable instance count must be a "
                        f"positive integer, got {self.instances!r}"
                    )
            elif self.instances != 1:
                raise ValidationError(
                    f"task {self.id!r}: only duplicable tasks have multiple instances"
                )
            if self.entry_point is None:
                # The entry point is an opaque code label; default it to the id.
                object.__setattr__(self, "entry_point", self.id)


class TaskGraph:
    """An immutable precedence graph over tasks.

    Edges are (predecessor id, successor id) pairs; every endpoint must name
    a task in the graph.  Acyclicity is checked by ``validate_dag``, not
    assumed at construction.
    """

    def __init__(self, tasks: Iterable[Task], edges: Iterable[tuple[str, str]] = ()):
        task_map: dict[str, Task] = {}
        for task in tasks:
            if task.id in task_map:
                raise GraphStructureError(f"duplicate task id {task.id!r}")
            task_map[task.id] = task
        edge_set = frozenset((str(p), str(s)) for p, s in edges)
        for pred, succ in sorted(edge_set):
            for endpoint in (pred, succ):
                if endpoint not in task_map:
                    raise GraphStructureError(
                        f"edge ({pred!r}, {succ!r}) references unknown task id {endpoint!r}"
                    )
        self._tasks = task_map
        self._edges = edge_set

    @property
    def tasks(self) -> Mapping[str, Task]:
        return MappingProxyType(self._tasks)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return self._edges

    @cached_property
    def _footprint(self) -> _Footprint:
        # The graph never changes, so ``plural simulate`` builds the index
        # once for its CREW warnings and its run.
        return _build_footprint(self)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def __len__(self) -> int:
        return len(self._tasks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return self._tasks == other._tasks and self._edges == other._edges

    def __repr__(self) -> str:
        return f"TaskGraph({len(self._tasks)} tasks, {len(self._edges)} edges)"


@dataclass(frozen=True)
class CrewViolation:
    """A shared variable accessed against the CREW rule by two concurrent tasks."""

    task_a: str
    task_b: str
    variable: str
    kind: str  # WRITE_WRITE or READ_WRITE

    def __str__(self) -> str:
        return (
            f"{self.kind} conflict on {self.variable!r} between "
            f"{self.task_a!r} and {self.task_b!r}"
        )


def _successor_map(g: TaskGraph) -> dict[str, list[str]]:
    succ: dict[str, list[str]] = {tid: [] for tid in g.tasks}
    for pred, s in g.edges:
        succ[pred].append(s)
    for lst in succ.values():
        lst.sort()
    return succ


def validate_dag(g: TaskGraph) -> list[str] | None:
    """Return None if the graph is acyclic, else one witness cycle.

    The witness is a task-id sequence along edges with the starting id
    repeated at the end, e.g. ``["A", "B", "A"]``.
    """
    succ = _successor_map(g)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(g.tasks, WHITE)
    for root in sorted(g.tasks):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        stack = [(root, iter(succ[root]))]
        while stack:
            node, neighbors = stack[-1]
            nxt = next(neighbors, None)
            if nxt is None:
                color[node] = BLACK
                path.pop()
                stack.pop()
                continue
            if color[nxt] == GRAY:
                return path[path.index(nxt) :] + [nxt]
            if color[nxt] == WHITE:
                color[nxt] = GRAY
                path.append(nxt)
                stack.append((nxt, iter(succ[nxt])))
    return None


def _descendant_bits(g: TaskGraph, index: Mapping[str, int]) -> dict[str, int] | None:
    """Each task's descendants as an int bitset, bit ``index[tid]`` per task,
    or None when the graph has a cycle.

    One pass over a topological order, so O(V + E) bitset unions.
    """
    succ = _successor_map(g)
    indegree = dict.fromkeys(g.tasks, 0)
    for _, s in g.edges:
        indegree[s] += 1
    order: list[str] = [tid for tid in g.tasks if indegree[tid] == 0]
    for tid in order:
        for s in succ[tid]:
            indegree[s] -= 1
            if indegree[s] == 0:
                order.append(s)
    if len(order) < len(g.tasks):
        return None
    desc: dict[str, int] = {}
    for tid in reversed(order):
        bits = 0
        for s in succ[tid]:
            bits |= desc[s] | 1 << index[s]
        desc[tid] = bits
    return desc


def concurrent_pairs(g: TaskGraph) -> set[tuple[str, str]]:
    """All unordered pairs of tasks with no precedence path in either direction.

    Pairs are returned as id tuples in ascending order.  The graph must be a
    DAG; instances of a duplicable task are mutually concurrent once the
    graph has been expanded.
    """
    cycle = validate_dag(g)
    if cycle is not None:
        raise CycleError(cycle)
    ids = sorted(g.tasks)
    index = {tid: i for i, tid in enumerate(ids)}
    desc = _descendant_bits(g, index)
    pairs: set[tuple[str, str]] = set()
    for i, a in enumerate(ids):
        for j in range(i + 1, len(ids)):
            b = ids[j]
            if not (desc[a] >> j & 1 or desc[b] >> i & 1):
                pairs.add((a, b))
    return pairs


# (authored id -> its bit, authored id -> descendants as an int bitset,
#  concrete variable -> (instance id, authored id, writes it?) per toucher)
_Footprint = tuple[dict[str, int], dict[str, int], dict[str, list[tuple[str, str, bool]]]]


def _build_footprint(g: TaskGraph) -> _Footprint:
    """Index each concrete variable (after ``#`` substitution) to the
    instances that touch it, at a cost of the summed instance footprints,
    next to the authored graph's descendant bitsets: O(V + E).

    Two instances of one duplicable are always concurrent, and instances of
    different tasks are concurrent exactly when their authored tasks are, so
    the bitsets of the authored graph decide every instance pair.

    Raises ``GraphStructureError`` when an instance id collides with another
    task's id and ``CycleError``, with a witness over expanded ids, when the
    graph has a cycle.
    """
    instances = _instance_ids(g)
    index = {tid: i for i, tid in enumerate(g.tasks)}
    desc = _descendant_bits(g, index)
    if desc is None:
        raise CycleError(validate_dag(expand_duplicables(g)))
    touchers: dict[str, list[tuple[str, str, bool]]] = {}
    for tid, task in g.tasks.items():
        if not (task.read_set or task.write_set):
            continue
        for k, iid in enumerate(instances[tid]):
            reads, writes = _instance_footprint(task, k)
            for var in reads | writes:
                touchers.setdefault(var, []).append((iid, tid, var in writes))
    return index, desc, touchers


def check_crew(g: TaskGraph) -> list[CrewViolation]:
    """Report every CREW violation among concurrent tasks.

    Violations are reported between expanded task instances, as if the check
    ran on ``expand_duplicables(g)`` (already-expanded input is taken as
    is), so instances of a duplicable task that write a shared variable
    without instance-disjoint naming conflict with each other.  A variable
    written by both tasks of a pair is one write-write violation; written by
    one and read by the other, a read-write violation.  Concurrent reads are
    legal and never reported.  The list is sorted by task pair, with a
    pair's write-write variables before its read-write ones, each ascending.

    The expanded graph is never built: reachability and footprints come
    from the authored graph (see ``_build_footprint``), and only pairs that
    share a variable written by at least one of them are tested.  Raises
    what ``_build_footprint`` raises.
    """
    index, desc, touchers = g._footprint

    # (instance a, instance b), a < b -> (write-write vars, read-write vars)
    found: dict[tuple[str, str], tuple[list[str], list[str]]] = {}
    for var, entries in touchers.items():
        for w_id, w_task, w_writes in entries:
            if not w_writes:
                continue
            for t_id, t_task, t_writes in entries:
                # A writer pair is taken once, from its smaller id.
                if t_id == w_id or (t_writes and t_id < w_id):
                    continue
                # Instances of one duplicable pass: a DAG task is not its own descendant.
                if desc[w_task] >> index[t_task] & 1 or desc[t_task] >> index[w_task] & 1:
                    continue
                pair = (w_id, t_id) if w_id < t_id else (t_id, w_id)
                both_write, read_write = found.setdefault(pair, ([], []))
                (both_write if t_writes else read_write).append(var)

    violations: list[CrewViolation] = []
    for pair in sorted(found):
        both_write, read_write = found[pair]
        violations.extend(CrewViolation(*pair, var, WRITE_WRITE) for var in sorted(both_write))
        violations.extend(CrewViolation(*pair, var, READ_WRITE) for var in sorted(read_write))
    return violations


def private_variables(g: TaskGraph) -> frozenset[str]:
    """The concrete variables whose touchers are totally ordered by precedence.

    Such a variable is never accessed by two instances in one slot of a
    run, whatever branches a conditional takes: a branch not taken only
    removes touchers.  The touchers' authored tasks are sorted by their
    number of descendants, since a task has more than any task it precedes,
    and only consecutive pairs are tested, stopping at the first unordered
    one: O(touchers log touchers) per variable.  A task does not precede
    itself, so a variable that two instances of one duplicable share is
    never private.  Raises what ``check_crew`` raises.
    """
    index, desc, touchers = g._footprint
    size = {tid: bits.bit_count() for tid, bits in desc.items()}
    private = []
    for var, entries in touchers.items():
        if len(entries) > 1:
            tasks = sorted((tid for _, tid, _ in entries), key=size.__getitem__, reverse=True)
            if not all(desc[a] >> index[b] & 1 for a, b in zip(tasks, tasks[1:])):
                continue
        private.append(var)
    return frozenset(private)


def instance_id(task_id: str, number: int) -> str:
    """Id of one expanded instance of a duplicable task."""
    return f"{task_id}{INSTANCE_SEP}{number}"


def _instance_footprint(task: Task, number: int) -> tuple[frozenset[str], frozenset[str]]:
    """One instance's (reads, writes): a duplicable's ``#`` becomes ``number``."""
    if task.kind is not TaskKind.DUPLICABLE:
        return task.read_set, task.write_set
    k = str(number)
    return (
        frozenset(v.replace(INSTANCE_PLACEHOLDER, k) for v in task.read_set),
        frozenset(v.replace(INSTANCE_PLACEHOLDER, k) for v in task.write_set),
    )


def _instance_ids(g: TaskGraph) -> dict[str, list[str]]:
    """Each task's ids in the expanded graph, in ``expand_duplicables`` order.

    Raises the ``GraphStructureError`` that building the expanded graph would
    raise when an instance id collides with another task's id.
    """
    ids: dict[str, list[str]] = {}
    seen: set[str] = set()
    for tid in sorted(g.tasks):
        task = g.tasks[tid]
        if task.kind is TaskKind.DUPLICABLE:
            ids[tid] = [instance_id(tid, k) for k in range(task.instances)]
        else:
            ids[tid] = [tid]
        for iid in ids[tid]:
            if iid in seen:
                raise GraphStructureError(f"duplicate task id {iid!r}")
            seen.add(iid)
    return ids


def expand_duplicables(g: TaskGraph) -> TaskGraph:
    """Replace each duplicable task by its d instance tasks.

    Instances share the original entry point, carry instance numbers 0..d-1,
    inherit the per-instance instruction count, substitute the instance
    number into ``#`` placeholders in the shared-variable footprint, and each
    inherit every incoming and outgoing edge of the original.  Expansion is
    idempotent and preserves acyclicity.
    """
    ids = _instance_ids(g)
    new_tasks: list[Task] = []
    for tid in sorted(g.tasks):
        task = g.tasks[tid]
        if task.kind is not TaskKind.DUPLICABLE:
            new_tasks.append(task)
            continue
        for k, iid in enumerate(ids[tid]):
            reads, writes = _instance_footprint(task, k)
            new_tasks.append(
                Task(
                    id=iid,
                    kind=TaskKind.SINGULAR,
                    entry_point=task.entry_point,
                    instruction_count=task.instruction_count,
                    read_set=reads,
                    write_set=writes,
                    instance_number=k,
                )
            )
    edges = {(p, s) for pred, succ in g.edges for p in ids[pred] for s in ids[succ]}
    return TaskGraph(new_tasks, edges)
