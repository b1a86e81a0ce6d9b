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
rule, and only a variable that some violation names is ever arbitrated by
the simulator.  Two tasks are concurrent when neither precedes the other
through the edge relation.  One sort of the authored footprint's names finds
the names that may meet, and only their owners, with their descendants, get
a bitset of the tasks ordered with them: a variable's violations cost
O(touchers + violations).

Duplicable tasks expand into one instance task per index.  A shared-variable
name may embed ``#`` as an instance-number placeholder ("v[#]" becomes
"v[0]", "v[1]", ...), which is how a duplicable task declares instance-
disjoint writes; a plain written name makes its own instances conflict with
each other.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import attrgetter, eq, itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import CycleError, GraphStructureError, ValidationError, _Checked, _is_count

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


class _TaskFields(NamedTuple):
    id: str
    kind: TaskKind
    instances: int
    control_kind: ControlKind | None
    entry_point: str | None
    instruction_count: int
    read_set: frozenset[str]
    write_set: frozenset[str]


class Task(_Checked, _TaskFields):
    """One node of a task graph.

    ``instruction_count`` is the work of a single instance.  For duplicable
    tasks ``instances`` is the duplication count d.  Control tasks have no
    entry point, no instructions, and no shared-variable footprint.
    """

    __slots__ = ()

    def __new__(cls, id: str, kind: TaskKind = TaskKind.SINGULAR, instances: int = 1,
                control_kind: ControlKind | None = None, entry_point: str | None = None,
                instruction_count: int = 0, read_set: Iterable[str] = frozenset(),
                write_set: Iterable[str] = frozenset()) -> Task:
        if not isinstance(id, str) or not id:
            raise ValidationError(f"task id must be a non-empty string, got {id!r}")
        if not isinstance(kind, TaskKind):
            raise ValidationError(f"task {id!r}: kind must be a TaskKind, got {kind!r}")
        if not (control_kind is None or isinstance(control_kind, ControlKind)):
            raise ValidationError(f"task {id!r}: control_kind must be None or a ControlKind, got {control_kind!r}")
        if not (entry_point is None or isinstance(entry_point, str) and entry_point):
            empty = "non-empty " if entry_point == "" else ""
            raise ValidationError(f"task {id!r}: entry_point must be None or a {empty}string, got {entry_point!r}")
        reads, writes = frozenset(read_set), frozenset(write_set)
        for field, names, found in (("read_set", read_set, reads), ("write_set", write_set, writes)):
            if not isinstance(names, str):  # a str would give its letters
                for name in found:  # a loop costs less than all() on a task's few names
                    if not isinstance(name, str):
                        break
                else:
                    continue
            raise ValidationError(f"task {id!r}: {field} must be a collection of strings, got {names!r}")
        if not (type(instruction_count) is int and instruction_count >= 0 or _is_count(instruction_count, 0)):
            raise ValidationError(
                f"task {id!r}: instruction_count must be a nonnegative "
                f"integer, got {instruction_count!r}"
            )
        if kind is _CONTROL:
            if control_kind is None:
                raise ValidationError(f"task {id!r}: control tasks need a control_kind")
            if entry_point is not None:
                raise ValidationError(f"task {id!r}: control tasks carry no entry point")
            if instruction_count != 0:
                raise ValidationError(f"task {id!r}: control tasks execute no instructions")
            if reads or writes:
                raise ValidationError(f"task {id!r}: control tasks access no shared variables")
        elif control_kind is not None:
            raise ValidationError(f"task {id!r}: control_kind is only valid on control tasks")
        if kind is _DUPLICABLE and not _is_count(instances, 1):
            raise ValidationError(
                f"task {id!r}: duplicable instance count must be a "
                f"positive integer, got {instances!r}"
            )
        if kind is not _DUPLICABLE and (type(instances) is not int or instances != 1):
            raise ValidationError(f"task {id!r}: a {kind.value} task has one instance, got instances={instances!r}")
        # The entry point is an opaque code label; it defaults to the id.
        entry = id if entry_point is None and kind is not _CONTROL else entry_point
        return tuple.__new__(cls, (id, kind, instances, control_kind, entry, instruction_count, reads, writes))


class TaskGraph:
    """An immutable precedence graph over tasks.

    Edges are (predecessor id, successor id) tuples or lists of two strings
    naming tasks in the graph, checked as given, never coerced; a repeated
    edge is one edge.  A conditional control task needs a successor to
    forward to.  Acyclicity is checked by ``validate_dag``, not assumed at
    construction.
    """

    def __init__(self, tasks: Iterable[Task], edges: Iterable[tuple[str, str]] = ()):
        task_map: dict[str, Task] = {}
        for task in tasks:
            if task.id in task_map:
                raise GraphStructureError(f"duplicate task id {task.id!r}")
            task_map[task.id] = task
        edges = list(edges)  # checked, not coerced: every edge at once, and a walk only to name the first bad one
        if {*map(type, edges)} - {tuple, list} or {*map(len, edges)} - {2} or not all(
                issubclass(kind, str) for kind in {*map(type, chain(*edges))}):  # each distinct endpoint type once
            bad = next(e for e in edges if type(e) not in (tuple, list) or len(e) != 2 or not all(
                isinstance(tid, str) for tid in e))
            raise GraphStructureError(f"edge {bad!r} must be a (predecessor, successor) pair of task ids")
        if not task_map.keys() >= {*chain.from_iterable(edges)}:
            pred, succ = min((p, s) for p, s in edges if p not in task_map or s not in task_map)
            endpoint = pred if pred not in task_map else succ
            raise GraphStructureError(f"edge ({pred!r}, {succ!r}) references unknown task id {endpoint!r}")
        # Each task's distinct successors, ascending: the one record of precedence.  Do not change it.
        self._successors = successors = {tid: [] for tid in task_map}
        for pred, succ in edges:
            successors[pred].append(succ)
        for tid, succs in successors.items():
            if len(succs) > 1:
                successors[tid] = sorted({*succs})
        if ControlKind.CONDITIONAL in map(attrgetter("control_kind"), task_map.values()):  # a pass in C
            stuck = [tid for tid, task in task_map.items()
                     if task.control_kind is ControlKind.CONDITIONAL and not successors[tid]]
            if stuck:
                raise GraphStructureError(f"conditional control task {min(stuck)!r} has no successor")
        self._tasks = task_map

    @property
    def tasks(self) -> Mapping[str, Task]:
        return MappingProxyType(self._tasks)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        # Built when read, for readers outside the algorithms: they all read the successor lists.
        return frozenset((pred, succ) for pred, succs in self._successors.items() for succ in succs)

    @cached_property
    def _search(self) -> tuple[list[str] | None, list[str] | None]:
        # The one search that every DAG check and the reachability bitsets read.
        return _search(self._successors)

    @cached_property
    def _footprint(self) -> _Footprint:
        # The graph never changes, so ``plural simulate`` builds the index
        # once for its CREW warnings and its run.
        return _build_footprint(self)

    @cached_property
    def _contended(self) -> frozenset[str]:
        # The variables some CREW violation names, which the simulator
        # arbitrates.  A variable's search stops at its first concurrent
        # pair, so no violation is listed: d writers of one name cost O(1).
        fp = self._footprint
        return frozenset(var for var, entries in fp.touchers.items() if next(_crew_pairs(fp, entries), None))

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def __len__(self) -> int:
        return len(self._tasks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return self._tasks == other._tasks and self._successors == other._successors

    def __repr__(self) -> str:
        return f"TaskGraph({len(self._tasks)} tasks, {sum(map(len, self._successors.values()))} edges)"


class CrewViolation(NamedTuple):
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


def _search(succ: Mapping[str, list[str]]) -> tuple[list[str] | None, list[str] | None]:
    """Depth-first search (Tarjan, 1972), roots and successors ascending, on
    an explicit stack.  Returns (order, None) on a DAG, order being the reverse
    postorder, a topological order; else (None, the first back edge's cycle)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(succ, WHITE)
    postorder: list[str] = []
    for root in sorted(succ):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        stack = [(root, iter(succ[root]))]
        while stack:
            node, neighbors = stack[-1]
            for nxt in neighbors:  # up to the first successor not yet seen
                if color[nxt] == GRAY:
                    path = [tid for tid, _ in stack]
                    return None, path[path.index(nxt) :] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                color[node] = BLACK
                postorder.append(node)
                stack.pop()
    return postorder[::-1], None


def validate_dag(g: TaskGraph) -> list[str] | None:
    """Return None if the graph is acyclic, else one witness cycle.

    The witness is a task-id sequence along edges with the starting id
    repeated at the end, e.g. ``["A", "B", "A"]``.
    """
    return None if g._search[1] is None else list(g._search[1])  # a copy: the search is cached


def _ordered_bits(g: TaskGraph, tasks: Iterable[str]) -> tuple[dict[str, int], dict[str, int]]:
    """A bit for each of ``tasks`` and their descendants, its place in their
    topological order, and the ones ordered with it (itself, its descendants
    and its ancestors) as an int bitset, in O(V + E) unions over them alone:
    two of ``tasks`` are concurrent when neither's bit is in the other's set.
    A cycle raises ``CycleError``."""
    succ, (order, cycle) = g._successors, g._search
    if cycle is not None:
        raise CycleError(cycle)
    below = set(tasks)  # a path between two of them runs through their descendants only; reached, one adds its own
    if len(below) < len(order):
        order = [tid for tid in order if tid in below and not below.update(succ[tid])] if below else []
    index = {tid: i for i, tid in enumerate(order)}
    ordered: dict[str, int] = {}
    for tid in reversed(order):
        bits = 1 << index[tid]
        for s in succ[tid]:
            bits |= ordered[s]
        ordered[tid] = bits
    for i, tid in enumerate(order):  # once the walk reaches a task, its ancestors are the bits below its own
        above = ordered[tid] & ((2 << i) - 1)
        for s in succ[tid]:
            ordered[s] |= above
    return index, ordered


def concurrent_pairs(g: TaskGraph) -> set[tuple[str, str]]:
    """All unordered pairs of tasks with no precedence path in either direction.

    Pairs are returned as id tuples in ascending order.  The graph must be a
    DAG; instances of a duplicable task are mutually concurrent once the
    graph has been expanded.
    """
    index, ordered = _ordered_bits(g, g._tasks)
    ids = sorted(g._tasks)
    return {(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if not ordered[a] >> index[b] & 1}


class _Footprint(NamedTuple):
    index: dict[str, int]  # authored id -> its bit, its place in a topological order
    ordered: dict[str, int]  # authored id -> itself, its descendants and its ancestors as an int bitset
    touchers: dict[str, list[tuple[tuple, bool]]]  # var -> ((task, number, instance id), writes?)


# A run of digits and placeholders.  A substituted number keeps each run in
# place, so names can meet only if their text outside the runs, their shape,
# is the same.  Split by it, a name's texts are at even places, its runs at odd.
_RUNS = re.compile(r"([0-9#]+)")
_DUPLICABLE, _CONTROL = TaskKind.DUPLICABLE, TaskKind.CONTROL  # per-task reads: an enum's class attribute is slow


def _build_footprint(g: TaskGraph) -> _Footprint:
    """Index each concrete variable (after ``#`` substitution) of the names
    that ``_meeting_names`` keeps to the instances that touch it, next to the
    ordered-with bitsets of their owners.  A clean graph expands no instance,
    whatever its d, and a task none of whose kept names is a pattern one.

    Two instances of one duplicable are always concurrent, and instances of
    different tasks are concurrent exactly when their authored tasks are, so
    the bitsets of the authored graph decide every instance pair.

    Raises ``GraphStructureError`` when an instance id collides with another
    task's id and ``CycleError``, with ``validate_dag``'s witness, when the
    graph has a cycle.
    """
    _check_instance_ids(g)
    found, index, ordered = _meeting_names(g)
    touchers: dict[str, list[tuple[tuple, bool]]] = {}
    for tid, names in found.items():
        task = g._tasks[tid]
        keys = [(tid, k, iid) for k, iid in enumerate(_instance_ids(task))]
        for group in zip(keys) if task.kind is _DUPLICABLE and "#" in "".join(names) else [keys]:
            reads, writes = _instance_footprint(task, group[0][1], names)
            for var in reads | writes:
                touchers.setdefault(var, []).extend(zip(group, repeat(var in writes)))
    return _Footprint(index, ordered, touchers)


def _meeting_names(g: TaskGraph) -> tuple[dict[str, set[str]], dict[str, int], dict[str, int]]:
    """Per task, its names that may give a variable that a concurrent
    instance also touches, one of the two writing: maybe too many, never too
    few; and ``_ordered_bits`` of their owners.  A duplicable's ``#`` name is
    a pattern whose runs with ``#`` spell any digits.  Only a name touched
    twice, a pattern, a literal that starts as one does or one a duplicable
    writes can meet.  One sort of every name finds them, in any graph: a name
    touched twice is two equal neighbours, and the names that start with a
    pattern's head are one run.  Each is grouped with the touchers of the
    names of its shape that it may equal, sought only where they agree on the
    runs no pattern spells freely ("s3[#]" never meets "s7[#]"); a toucher
    costs one test of its ordered-with bits."""
    tasks = g._tasks.values()
    dups = [task for task in tasks if task.kind is _DUPLICABLE]
    pieces = {name: _RUNS.split(name)
              for name in {name for task in dups for name in chain(task.read_set, task.write_set) if "#" in name}}
    free: dict[str, set[int]] = {}  # shape -> the runs that some pattern of it spells freely: with "#", any digits
    for parts in pieces.values():
        free.setdefault("#".join(parts[::2]), set()).update(i for i, run in enumerate(parts[1::2]) if "#" in run)
    names = sorted(chain.from_iterable(chain.from_iterable(map(attrgetter("read_set", "write_set"), tasks))))
    candidates = {*compress(names, map(eq, names, islice(names, 1, None)))}.union(  # touched twice
        *(task.write_set for task in dups if task.instances > 1))
    heads = tuple({shape.partition("#")[0] for shape in free})
    for head in heads:  # the names that start with a head are one run of the sorted names
        start = bisect_left(names, head)
        candidates.update(islice(names, start, bisect_right(names, head, start, key=itemgetter(slice(len(head))))))
    owners, literals, patterns = [], {}, {}  # name -> [(task, writes?)]
    for tid, task in g._tasks.items():
        if not (candidates.isdisjoint(task.read_set) and candidates.isdisjoint(task.write_set)):
            owners.append(tid)
            dup, writes = task.kind is _DUPLICABLE, task.write_set
            for name in (task.read_set | writes) & candidates:
                (patterns if dup and "#" in name else literals).setdefault(name, []).append((tid, name in writes))
    index, ordered = _ordered_bits(g, owners)
    pieces.update((name, _RUNS.split(name)) for name in literals if name.startswith(heads) and "#" not in name)
    buckets: dict[tuple[str, ...], list[str]] = {}  # patterns first, as pieces holds them
    for name, parts in pieces.items():
        if (loose := free.get(shape := "#".join(parts[::2]))) is not None:
            buckets.setdefault((shape, *(run for i, run in enumerate(parts[1::2]) if i not in loose)), []).append(name)
    spelled, partners = {}, {}  # literal, pattern -> the touchers of the other names that it may equal
    for bucket in buckets.values():
        for i, a in enumerate(bucket):
            for b in bucket[i + 1 :] if "#" in a else ():  # two literals never meet here
                if all(x == y or "#" in x or "#" in y for x, y in zip(pieces[a][1::2], pieces[b][1::2])):
                    partners.setdefault(a, []).extend(patterns[b] if "#" in b else literals[b])
                    (partners if "#" in b else spelled).setdefault(b, []).extend(patterns[a])
    found: dict[str, set[str]] = {}
    for texts, crossing in (literals, spelled), (patterns, partners):
        for name, entries in texts.items():
            if len(entries) > 1 or name in crossing or (
                    entries[0][1] and texts is literals and g._tasks[entries[0][0]].instances > 1):
                cross = crossing.get(name, ())
                crossers, touch, write = {tid for tid, _ in cross} if cross else (), 0, 0
                for tid, writes in chain(entries, cross):
                    touch, write = touch | 1 << index[tid], write | writes << index[tid]
                for a, a_writes in entries:  # another task, or another instance: of a written literal or a crossing
                    if (touch if a_writes else write) & ~ordered[a] or (
                            a_writes and texts is literals or a in crossers) and g._tasks[a].instances > 1:
                        found.setdefault(a, set()).add(name)
    return found, index, ordered


def check_crew(g: TaskGraph) -> list[CrewViolation]:
    """Report every CREW violation among concurrent tasks.

    Violations are reported between expanded task instances, as if the check
    ran on ``expand_duplicables(g)``, so instances of a duplicable task that
    write a shared variable without instance-disjoint naming conflict with
    each other.  A variable written by both tasks of a pair is one
    write-write violation; written by one and read by the other, a
    read-write violation.  Concurrent reads are legal and never reported.
    The list is sorted by instance pair, instances by (authored task id,
    instance number) as the simulator orders them, with a pair's
    write-write variables before its read-write ones, each ascending.

    The expanded graph is never built: reachability and footprints come
    from the authored graph (see ``_build_footprint``), and only pairs that
    share a variable written by at least one of them are tested.  Raises
    what ``_build_footprint`` raises.
    """
    fp = g._footprint
    # (instance a, instance b, reads?, variable) with a < b: one sort gives the order.
    found = sorted((a, b, not writes, var) for var, entries in fp.touchers.items()
                   for a, b, writes in _crew_pairs(fp, entries))
    return [tuple.__new__(CrewViolation, (a[2], b[2], var, READ_WRITE if reads else WRITE_WRITE))
            for a, b, reads, var in found]


def _crew_pairs(fp: _Footprint, entries: list[tuple[tuple, bool]]) -> Iterator[tuple[tuple, tuple, bool]]:
    """Each concurrent (writer, toucher) pair of instances among one
    variable's touchers, once, as (smaller, larger, toucher writes?):
    the pairs that break the CREW rule, in O(touchers + pairs): a writer meets
    its task's other instances and concurrent tasks' touchers only.  Lazy."""
    index, ordered = fp.index, fp.ordered
    by_task: dict[int, list[tuple[tuple, bool]]] = {}  # a toucher task's bit -> its touchers
    for entry in entries:
        by_task.setdefault(index[entry[0][0]], []).append(entry)
    touch = sum(map((1).__lshift__, by_task))
    for w, w_writes in entries:
        if w_writes:
            partners, concurrent = [*by_task[index[w[0]]]], touch & ~ordered[w[0]]
            while concurrent:  # each set bit, the lowest first
                partners += by_task[(low := concurrent & -concurrent).bit_length() - 1]
                concurrent ^= low
            for t, t_writes in partners:
                if t != w and not (t_writes and t < w):
                    yield (w, t, t_writes) if w < t else (t, w, t_writes)


def _instance_footprint(
    task: Task, number: int | str, names: set[str] | None = None
) -> tuple[frozenset[str], frozenset[str]]:
    """One instance's (reads, writes) of its ``names``, by default all: a duplicable's ``#`` becomes ``number``."""
    reads, writes = task.read_set, task.write_set
    if names is not None:
        reads, writes = reads & names, writes & names
    if task.kind is not _DUPLICABLE:
        return reads, writes
    k = str(number)
    return (
        frozenset(v.replace(INSTANCE_PLACEHOLDER, k) for v in reads),
        frozenset(v.replace(INSTANCE_PLACEHOLDER, k) for v in writes),
    )


def _instance_ids(task: Task, numbers: Iterable[int] | None = None) -> list[str]:
    """The task's ids in the expanded graph of the instance ``numbers``, by default all, in that order."""
    if task.kind is not _DUPLICABLE:
        return [task.id]
    return [f"{task.id}{INSTANCE_SEP}{k}" for k in (range(task.instances) if numbers is None else numbers)]


def _check_instance_ids(g: TaskGraph) -> None:
    """Raise the ``GraphStructureError`` that building the expanded graph
    would raise: the first task id, ascending, that is also an instance id
    of a duplicable task.  Only ids holding the separator are sorted."""
    for tid in sorted(tid for tid in g._tasks if INSTANCE_SEP in tid):
        name, _, k = tid.rpartition(INSTANCE_SEP)
        dup = g._tasks.get(name)
        if dup and dup.kind is TaskKind.DUPLICABLE and g._tasks[tid].kind is not TaskKind.DUPLICABLE and (
            k.isascii() and k.isdigit() and (k == "0" or k[0] != "0")  # as str() spells a number
            # len(k) digits spell at least 8**(len(k) - 1): a longer k names no instance and is not parsed.
            and 3 * (len(k) - 1) < dup.instances.bit_length() and int(k) < dup.instances
        ):
            raise GraphStructureError(f"duplicate task id {tid!r}")


def expand_duplicables(g: TaskGraph) -> TaskGraph:
    """Replace each duplicable task by its d instance tasks.

    Instances share the original entry point, are named by instance numbers
    0..d-1, inherit the per-instance instruction count, substitute the instance
    number into ``#`` placeholders in the shared-variable footprint, and each
    inherit every incoming and outgoing edge of the original.  Expansion is
    idempotent and preserves acyclicity.
    """
    _check_instance_ids(g)
    ids = {tid: _instance_ids(task) for tid, task in g._tasks.items()}
    new_tasks: list[Task] = []
    for tid in sorted(g._tasks):
        task = g._tasks[tid]
        if task.kind is not TaskKind.DUPLICABLE:
            new_tasks.append(task)
            continue
        for k, iid in enumerate(ids[tid]):
            reads, writes = _instance_footprint(task, k)
            new_tasks.append(task._replace(id=iid, kind=TaskKind.SINGULAR, instances=1,
                                           read_set=reads, write_set=writes))
    edges = {(p, s) for pred, succs in g._successors.items() for succ in succs for p in ids[pred] for s in ids[succ]}
    return TaskGraph(new_tasks, edges)
