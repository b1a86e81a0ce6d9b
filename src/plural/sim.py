"""Deterministic discrete-event simulator of the Plural architecture.

One scheduler dispatches task-graph work to m identical cores that share a
CREW memory.  Time advances in core instruction slots of length
cpi / (A/m)**alpha; every event in a run falls on a whole slot boundary, so
arbitration ties are exact and a run is a pure function of (graph, config).

Execution semantics:

* The scheduler dispatches ready instances FIFO by readiness time (ties by
  authored task id, then instance index) to idle cores first, then into
  per-core pre-allocation queues of configurable depth.  Dispatch and completion
  messages are instantaneous; the queue exists to keep cores from idling.
* Instances that end in one slot end together: each core they free starts
  its queue's head or idles, the tasks they free are made ready, and
  dispatch then feeds the idle cores and the queues with room.  An instance
  of no instruction ends in a further round of the slot it starts in.
* A duplicable task runs as its d instances; no expanded graph is built.  A
  task's instances are released when its last predecessor instance ends.
* Control tasks run on the scheduler itself in zero time and never occupy a
  core.  A conditional control task forwards to exactly one successor,
  chosen by the configuration.
* Every Nth instruction of a task (N = mem_access_stride) is a shared-memory
  access, targeting the task's footprint round-robin (sorted reads, then
  sorted writes); an access that targets one of the sorted reads is a read.
  Memory is CREW (Fortune & Wyllie, 1978): each slot, a variable's waiting
  reads are all granted when no write waits.  Otherwise one draw of a seeded generator
  picks a contender uniformly among them, sorted by (task, index) (a lone
  contender draws nothing): a writer that wins is granted alone, a reader
  takes every waiting reader with it.  The others wait in the variable's
  wait set and contend again next slot, their cores stalled meanwhile.  A
  granted access has stalled its core for the grant slot minus the arrival
  slot.
* Only a variable that some CREW violation names (``check_crew``) can
  contend.  An access to any other never stalls and draws nothing from the
  generator, so it is granted by arithmetic, without an event, and a run
  with none seeds no generator.  Instances that touch no contended variable
  and start in one slot with one instruction count end in one slot,
  whatever their task, so they form one cohort: one heap entry.  Other
  instances run alone.  Cohorts change no report.  An instance id is
  spelled only for the trace and the CREW warnings.
* A trace holds each instance's milestones, each control task's
  resolution and one ``access`` event per grant, whose ``waited=`` is its
  stall.  It streams to a sink, a slot's events as the run leaves the
  slot, sorted by time, then kind in the order a slot processes them
  (complete, control, ready, start, queue, access), then (task, index).
* Energy ledger: an executed instruction costs (A/m) * cpi, a core's power
  (A/m) * f over a slot of cpi / f.  With communication costs enabled, each
  scheduler message (one init and one completion per core-executed
  instance) costs sqrt(A) and each memory access costs sqrt(A) + log2(m).

The measured speedup is priced against one core of the full area, whose
makespan is total instructions * cpi / A**alpha: a single core never
contends and never idles.  ``compare_to_model`` turns a report into relative
deviations from the closed-form speedup, energydown, and powerdown.
"""

from __future__ import annotations

import heapq
import math
import random
import sys
from bisect import bisect_left, insort
from collections import Counter, defaultdict
from itertools import accumulate, chain, compress, groupby, repeat
from operator import attrgetter, gt, itemgetter, mul, not_, truediv
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import comm
from .errors import (
    CycleError,
    DegenerateWorkloadError,
    DomainError,
    SimConfigError,
    ValidationError,
    _Checked,
    _is_count,
    _is_real,
)
from .graph import (
    ControlKind,
    Task,
    TaskGraph,
    TaskKind,
    _instance_footprint,
    _instance_ids,
    expand_duplicables,  # noqa: F401 -- unused, but benchmarks/tracing.py wraps it here
    validate_dag,
)
from .scaling import ChipSpec, ensemble_metrics

__all__ = [
    "SimConfig",
    "SimReport",
    "SimEvent",
    "ModelDeviation",
    "run",
    "compare_to_model",
    "report_as_dict",
]


class _ConfigFields(NamedTuple):
    chip: ChipSpec
    m: int
    mem_access_stride: int
    prealloc_depth: int
    comm_costs_enabled: bool
    seed: int
    conditional_outcomes: Mapping[str, str]


class SimConfig(_Checked, _ConfigFields):
    """Knobs for one simulator run."""

    __slots__ = ()

    def __new__(cls, chip: ChipSpec, m: int, mem_access_stride: int = 5, prealloc_depth: int = 1,
                comm_costs_enabled: bool = False, seed: int = 0,
                conditional_outcomes: Mapping[str, str] = MappingProxyType({})) -> SimConfig:
        counts = (("m", m, 1, "a positive"), ("mem_access_stride", mem_access_stride, 1, "a positive"),
                  ("prealloc_depth", prealloc_depth, 0, "a nonnegative"), ("seed", seed, -math.inf, "an"))
        for name, value, least, word in counts:
            if not _is_count(value, least):
                raise ValidationError(f"{name} must be {word} integer, got {value!r}")
        if chip.static_power_enabled:
            raise ValidationError("the simulator charges no static power, so chip.static_power_enabled must be False")
        fields = (chip, m, mem_access_stride, prealloc_depth, comm_costs_enabled, seed, dict(conditional_outcomes))
        return tuple.__new__(cls, fields)


class SimEvent(NamedTuple):
    """One event of a run's trace, as ``run`` hands it to its sink."""

    time: float
    kind: str  # complete | control | ready | start | queue | access
    task: str
    detail: str


class SimReport(NamedTuple):
    """Measurements from one simulator run.

    ``per_core_busy_time`` and ``utilization`` hold one float per core the
    run used, each at least +0.0: never -0.0, never an int.  Cores are used
    lowest index first, so with k the length of either tuple, the run used
    cores 0 to k - 1, and cores k to m - 1 never started an instance.  A
    core that only ran instances of no instruction is used, with 0.0.
    """

    m: int
    makespan: float
    total_instructions: int
    compute_energy: float
    sched_msg_energy_total: float
    mem_msg_energy_total: float
    avg_power: float
    per_core_busy_time: tuple[float, ...]
    utilization: tuple[float, ...]
    sched_msg_count: int
    mem_access_count: int
    mem_conflict_stalls: int
    empirical_speedup: float

    @property
    def total_energy(self) -> float:
        return self.compute_energy + self.sched_msg_energy_total + self.mem_msg_energy_total


class ModelDeviation(NamedTuple):
    """Measured vs. closed-form ratios for one run, as relative deviations."""

    speedup_measured: float
    speedup_model: float
    speedup_deviation: float
    energydown_measured: float
    energydown_model: float
    energydown_deviation: float
    powerdown_measured: float
    powerdown_model: float
    powerdown_deviation: float


# Event kinds, in the order a slot processes them.
_COMPLETE = 0
_ACCESS = 1
# Trace event kinds, in the order the trace lists one slot's events.  A task
# has at most one event of a kind per slot, so a trace's order is total.
_TRACE_KINDS = ("complete", "control", "ready", "start", "queue", "access")
_RANK = {kind: rank for rank, kind in enumerate(_TRACE_KINDS)}

_KEY = attrgetter("key")
_READING = attrgetter("reading")
_MAX_TOTAL = int(sys.float_info.max)  # the largest instruction total a float holds


def _pop_least(heap: list[int], k: int) -> list[int]:
    """Pop the ``k`` least items of ``heap``, ascending; all of them, as at a wave's end, by one sort."""
    if k < len(heap):
        return list(map(heapq.heappop, repeat(heap, k)))
    least, heap[:] = sorted(heap), []
    return least


def _accesses(task: Task, stride: int) -> int:
    """One instance's shared-memory accesses: every ``stride``-th instruction, if the task has a footprint."""
    return task.instruction_count // stride if task.read_set or task.write_set else 0


def _targets(task: Task, k: int) -> tuple[tuple[str, ...], int]:
    """Instance k's access targets, sorted reads then sorted writes, and its number of reads."""
    reads, writes = _instance_footprint(task, k)
    return (*sorted(reads), *sorted(writes)), len(reads)


class _Instance:
    """A cohort: instances started in one slot with one instruction count,
    whatever their task, each on its own core, which end together.  Two or
    more touch no contended variable; an instance that can contend is alone
    and tracks its accesses."""

    __slots__ = ("key", "parts", "cores", "n", "vars", "n_reads", "n_access", "hot", "start", "stalls", "granted",
                 "since", "reading")

    def __init__(self, tid: str, ks: Sequence[int], cores: list[int], n: int, start: int,
                 vars_: tuple[str, ...] = (), n_reads: int = 0, n_access: int = 0, hot: list[int] | None = None):
        self.key = (tid, ks[0])  # a lone instance's heap key and place in a wait set
        self.parts = [(tid, ks)]  # (task, indices) per start joined; ``cores`` holds their cores in turn
        self.cores = cores
        self.n = n
        self.vars = vars_  # access targets, round-robin
        self.n_reads = n_reads  # the targets before this one are reads
        self.n_access = n_access
        # Places in ``vars`` of contended targets, then the first one round on
        # (math.inf with none), for a bisection from any place; None when all are.
        self.hot = hot
        self.start = start  # slot
        self.stalls = 0
        self.granted = 0
        self.since = 0  # slot at which the pending access arrived
        self.reading = False  # whether the pending access is a read


class _Simulation:
    def __init__(self, g: TaskGraph, cfg: SimConfig, events: Callable[[SimEvent], object] | None):
        self.g = g
        self.cfg = cfg
        self.stride = cfg.mem_access_stride
        self.depth = min(cfg.prealloc_depth, sys.maxsize)  # a list never holds more, so no deeper queue fills
        self.contended = g._contended  # the only variables whose accesses can contend
        self.alone = {key[0] for var in self.contended for key, _ in g._footprint.touchers[var]}  # tasks that touch one
        chip = cfg.chip
        core_area = chip.area / _check_finite("m", cfg.m, positive=True)
        self.slot_dt = chip.cpi / _check_finite("core_freq", core_area**chip.pollack_exponent, positive=True)
        self.instr_energy = core_area * chip.cpi
        self.msg_energy = comm._msg_energy(chip.area)  # the chip and m are checked
        self.access_energy = comm._access_energy(chip.area, cfg.m)
        self.rng = random.Random(cfg.seed) if self.contended else None  # else the run never draws

        # Each task's unfinished predecessor instances, and its started ones.
        self.succs = g._successors
        self.pred_left = pred_left = dict.fromkeys(g._tasks, 0)
        pred_left.update(Counter(chain.from_iterable(self.succs.values())))  # one per predecessor, counted in C
        for pred in [tid for tid, task in g._tasks.items() if task.instances > 1]:
            for succ in self.succs[pred]:
                pred_left[succ] += g._tasks[pred].instances - 1
        self.started = dict.fromkeys(g._tasks, 0)

        # Cores are used lowest index first, so the cores never used are the
        # indices from len(self.busy) up to m - 1.
        self.busy: list[int] = []  # busy slots per used core
        self.queues: list[list[tuple[str, int]]] = []  # (task, index) queued per used core
        self.idle: list[int] = []  # used cores that are idle, a min-heap
        self.room: list[int] = []  # used cores whose queue has room, a min-heap
        # Per run of tasks made ready together: (ready slot, next task, its next index, its
        # place, the run's task ids ascending), a heap that dispatch merges by (task, index).
        self.ready: list[tuple[int, str, int, int, list[str]]] = []
        self.n_ready = 0
        # Entries are (slot, kind, (task, index) of the first member, cohort):
        # a completion, or a lone instance's next access.  An instance is in
        # one pending entry, so the key is unique and heapq never compares cohorts.
        self.heap: list[tuple[int, int, tuple[str, int], _Instance]] = []
        # Instruction count -> a cohort started in the current slot.
        self.cohorts: dict[int, _Instance] = {}
        # Contenders per variable, sorted by (task, index); an emptied wait set is dropped.
        self.waiting: defaultdict[str, list[_Instance]] = defaultdict(list)

        self.total_instructions = 0
        self.last_boundary = 0

        self.sink = events  # None when untraced
        self.pending: list[tuple[int, int, str, int, str, str]] = []  # events of slots not left, a heap

    # -- event helpers ------------------------------------------------------

    def _trace(self, slot: int, kind: str, tid: str, numbers: Sequence[int], details: Iterable[str]) -> None:
        """Queue one event per instance ``numbers`` of task ``tid`` for the sink; called only when tracing."""
        rank, pending = _RANK[kind], self.pending
        for k, iid, detail in zip(numbers, _instance_ids(self.g._tasks[tid], numbers), details):
            heapq.heappush(pending, (slot, rank, tid, k, iid, detail))

    def _flush(self, before: float) -> None:
        """Hand the sink each pending event of a slot before ``before``, in trace order."""
        pending, sink, slot_dt = self.pending, self.sink, self.slot_dt
        while pending and pending[0][0] < before:
            slot, rank, _, _, iid, detail = heapq.heappop(pending)
            sink(SimEvent(slot * slot_dt, _TRACE_KINDS[rank], iid, detail))

    def _count_down(self, followers: list[str], k: int) -> list[str]:
        """Count k finished instances off each follower; return those left with none."""
        freed, pred_left = [], self.pred_left
        for s in followers:
            pred_left[s] -= k
            if not pred_left[s]:
                freed.append(s)
        return freed

    # -- scheduler ----------------------------------------------------------

    def _release(self, freed: list[str], slot: int) -> None:
        """Make the ``freed`` tasks' instances ready, as one run of tasks by
        id, each task one index range.  A control task among them resolves
        at once and appends the tasks it frees."""
        tasks, released = self.g._tasks, []
        for t in freed:
            task = tasks[t]
            if task.control_kind is None:  # not a control task, as Task checks
                released.append(t)
                self.n_ready += task.instances
                if self.sink is not None:
                    self._trace(slot, "ready", t, range(task.instances), repeat(""))
                continue
            if task.control_kind is ControlKind.CONDITIONAL:
                chosen = self.cfg.conditional_outcomes.get(t)
                if chosen is None:
                    raise SimConfigError(
                        f"conditional control task {t!r} was reached but has no "
                        "configured outcome"
                    )
                followers = [chosen]
            else:
                followers = self.succs[t]
            if self.sink is not None:  # followers ascend, so their instances go by (task, index)
                forwards = ",".join(iid for s in followers for iid in _instance_ids(tasks[s]))
                self._trace(slot, "control", t, (0,), ["forwards=" + forwards])
            freed.extend(self._count_down(followers, 1))
        if released:
            heapq.heappush(self.ready, (slot, (run := sorted(released))[0], 0, 0, run))

    def _start(self, starts: list[tuple[str, Sequence[int]]], cores: list[int], slot: int) -> None:
        """Start each (task, indices) of ``starts`` in turn on the next cores.
        A task that can contend runs each instance alone, else as a cohort,
        which joins a cohort of its instruction count started in this slot."""
        tasks, started, cohorts, alone, contended = self.g._tasks, self.started, self.cohorts, self.alone, self.contended
        tracing, end = self.sink is not None, 0
        for tid, ks in starts:
            task, begin, count = tasks[tid], end, len(ks)
            end += count
            given = cores[begin:end]
            started[tid] += count
            if started[tid] > task.instances:
                raise RuntimeError(f"task {tid!r} started more than its {task.instances} instances")
            n, before = task.instruction_count, self.total_instructions
            self.total_instructions += count * n
            if self.total_instructions > _MAX_TOTAL:  # refused at the first of this part's instances past it
                _check_finite("total_instructions", before + ((_MAX_TOTAL - before) // n + 1) * n)
            if tracing:
                self._trace(slot, "start", tid, ks, map("core={}".format, given))
            if tid in alone:
                n_access = _accesses(task, self.stride)
                for k, core in zip(ks, given):
                    vars_, n_reads = _targets(task, k)
                    hot = [*compress(range(len(vars_)), map(contended.__contains__, vars_))]
                    hot = None if len(hot) == len(vars_) else hot + [hot[0] + len(vars_) if hot else math.inf]
                    self._push_next(_Instance(tid, [k], [core], n, slot, vars_, n_reads, n_access, hot))
                continue
            if tracing and (n_access := _accesses(task, self.stride)):  # each access on arrival
                targets = [_targets(task, k)[0] for k in ks]
                for j in range(n_access):
                    details = [f"var={vars_[j % len(vars_)]} waited=0" for vars_ in targets]
                    self._trace(slot + (j + 1) * self.stride - 1, "access", tid, ks, details)
            cohort = cohorts.get(n)
            if cohort:
                cohort.parts.append((tid, ks))
                cohort.cores += given
            else:
                cohort = _Instance(tid, ks, given, n, slot)
                heapq.heappush(self.heap, (slot + n, _COMPLETE, cohort.key, cohort))
                if n:  # a cohort of no instruction ends in this slot, so it takes no later start
                    cohorts[n] = cohort

    def _fill(self, cores: Iterable[int], n: int, slot: int, queue: bool) -> None:
        """Give each of the next ``n`` cores, in order, the next ready
        instance by (ready slot, task, index): started, or queued with
        ``queue``.  At least ``n`` instances are ready."""
        i, starts, ready, tasks = 0, [], self.ready, self.g._tasks
        while i < n:
            at, _, lo, place, run = heapq.heappop(ready)
            bound = ready[0][1] if ready and ready[0][0] == at else None  # the next run of this slot takes over there
            while i < n and place < len(run) and (bound is None or run[place] < bound):
                tid = run[place]
                d = tasks[tid].instances
                hi = min(lo + n - i, d)
                starts.append((tid, range(lo, hi)))
                i, place, lo = i + hi - lo, place + (hi == d), hi % d  # on to the next task once this one is given
            if place < len(run):
                heapq.heappush(ready, (at, run[place], lo, place, run))
        self.n_ready -= n
        if not queue:
            self._start(starts, cores, slot)
            return
        places, queues, tracing = iter(cores), self.queues, self.sink is not None
        for tid, ks in starts:
            for k, core in zip(ks, places):  # ks first, so no place is taken past its last index
                queues[core].append((tid, k))
                if tracing:
                    self._trace(slot, "queue", tid, (k,), [f"core={core}"])

    def _push_next(self, inst: _Instance) -> None:
        """Queue a lone instance's next milestone: its next access, else completion.

        Accesses to uncontended variables are granted here, in bulk up to
        the next contended target: each would be granted in its arrival slot
        with no stall and no draw from the generator.
        """
        stride, granted = self.stride, inst.granted
        if inst.hot is not None:
            size = len(inst.vars)
            r = granted % size
            jump = min(inst.hot[bisect_left(inst.hot, r)] - r, inst.n_access - granted)
            if self.sink is not None:
                for k in range(granted, granted + jump):
                    slot = inst.start + (k + 1) * stride - 1 + inst.stalls
                    self._trace(slot, "access", inst.key[0], inst.key[1:], [f"var={inst.vars[k % size]} waited=0"])
            granted = inst.granted = granted + jump
        if granted < inst.n_access:
            slot = inst.start + (granted + 1) * stride - 1 + inst.stalls
            heapq.heappush(self.heap, (slot, _ACCESS, inst.key, inst))
        else:
            slot = inst.start + inst.n + inst.stalls
            heapq.heappush(self.heap, (slot, _COMPLETE, inst.key, inst))

    def _dispatch(self, slot: int) -> None:
        """Feed idle cores, then fill pre-allocation queues, FIFO over ready
        instances; the lowest core index goes first."""
        cores = _pop_least(self.idle, min(self.n_ready, len(self.idle)))
        if len(cores) < self.n_ready and len(self.busy) < self.cfg.m:
            new = range(len(self.busy), min(len(self.busy) + self.n_ready - len(cores), self.cfg.m))
            self.busy += [0] * len(new)
            self.queues += [[] for _ in new]
            self.room += new if self.depth else ()  # above every used core, so still a heap
            cores += new
        if cores:
            self._fill(cores, len(cores), slot, queue=False)
        # Now nothing is ready, or all m cores exist and are busy: each core
        # with room, lowest first, takes its free places while instances are left.
        if self.ready and self.room:
            room = _pop_least(self.room, min(self.n_ready, len(self.room)))
            free = [self.depth - len(self.queues[core]) for core in room]
            total = sum(free)
            places = room if total == len(room) else chain.from_iterable(map(repeat, room, free))  # core by core
            n = min(total, self.n_ready)
            self._fill(places, n, slot, queue=True)
            if n < total:  # instances ran out: the untouched and part-filled cores keep room
                for core in compress(room, map(gt, accumulate(free), repeat(n))):
                    heapq.heappush(self.room, core)

    def _complete(self, done: list[_Instance], slot: int) -> None:
        """End the cohorts ``done``, every completion of ``slot`` not yet
        ended, together: each member adds its busy slots to its core and
        counts off its task's followers; each freed core starts its queue's
        head, or idles; the freed tasks are released, and ``_dispatch``
        feeds the idle cores and the queues with room."""
        per_core, succs, tracing, freed, cores = self.busy, self.succs, self.sink is not None, [], []
        for inst in done:
            busy = inst.n + inst.stalls
            for core in inst.cores:
                per_core[core] += busy
            end = len(cores)
            cores += inst.cores
            for tid, ks in inst.parts:
                freed += self._count_down(succs[tid], len(ks))
                if tracing:
                    self._trace(slot, "complete", tid, ks, map("core={}".format, cores[end : end + len(ks)]))
                end += len(ks)
        self.last_boundary = slot
        queues = list(map(self.queues.__getitem__, cores))
        if any(queues):
            lengths = list(map(len, queues))
            for core in compress(cores, map(self.depth.__eq__, lengths)):  # a full queue has room again
                heapq.heappush(self.room, core)
            heads = list(map(list.pop, compress(queues, lengths), repeat(0)))
            self._start([(tid, [k for _, k in run]) for tid, run in groupby(heads, itemgetter(0))],
                        list(compress(cores, lengths)), slot)
            cores = compress(cores, map(not_, lengths))
        for core in cores:
            heapq.heappush(self.idle, core)
        self._release(freed, slot)
        if self.ready:
            self._dispatch(slot)

    def _arbitrate(self, slot: int) -> None:
        """Grant each contended variable's waiting accesses in ``slot`` by the CREW rule.

        A variable's contenders are its wait set: losers of earlier slots
        and the slot's arrivals, kept sorted by (task, index).  With no write
        among them, every read is granted and nothing is drawn.  Otherwise
        one draw of ``randrange(len(group))`` picks a contender uniformly, a
        group of one drawing nothing: a writer that wins is granted alone, a
        reader takes every waiting reader with it.  The others stay in the
        wait set, in that order, which keeps the main loop on the next slot;
        an emptied set is dropped.  A stall is charged once, at the grant:
        the slots since the arrival.
        """
        for var in sorted(self.waiting):
            group = self.waiting[var]
            k = self.rng.randrange(len(group)) if len(group) > 1 and not all(map(_READING, group)) else 0
            if group[k].reading:  # with no write waiting, group[0] reads
                granted = [inst for inst in group if inst.reading]
                group[:] = [inst for inst in group if not inst.reading]
            else:
                granted = [group.pop(k)]
            if not group:
                del self.waiting[var]
            for inst in granted:
                stalls = slot - inst.since
                inst.stalls += stalls
                inst.granted += 1
                if self.sink is not None:
                    self._trace(slot, "access", inst.key[0], inst.key[1:], [f"var={var} waited={stalls}"])
                self._push_next(inst)

    # -- main loop ----------------------------------------------------------

    def execute(self) -> None:
        # Snapshot the roots first: resolving a root control task releases its
        # successors, which must not be made ready a second time.
        self._release(list(compress(self.pred_left, map(not_, self.pred_left.values()))), 0)
        self._dispatch(0)
        slot, tracing = 0, self.sink is not None
        # A grant queues its instance's next milestone at a later slot, so
        # once a slot is arbitrated the heap holds nothing before slot + 1,
        # where any waiting loser contends again.  No event is traced for a
        # slot left: each is, in its slot or before it as a future access.
        while self.heap or self.waiting:
            slot = slot + 1 if self.waiting else self.heap[0][0]
            if slot:  # a cohort holds the starts of one slot, and only slot 0 starts before the loop
                self.cohorts.clear()
            if tracing:
                self._flush(slot)
            while self.heap and self.heap[0][0] == slot:
                _, kind, _, inst = heapq.heappop(self.heap)
                if kind == _COMPLETE:  # with the slot's other completions, which sort before its accesses
                    done = [inst]
                    while self.heap and self.heap[0][:2] == (slot, _COMPLETE):
                        done.append(heapq.heappop(self.heap)[3])
                    self._complete(done, slot)
                else:
                    inst.since = slot
                    target = inst.granted % len(inst.vars)
                    inst.reading = target < inst.n_reads
                    insort(self.waiting[inst.vars[target]], inst, key=_KEY)
            if self.waiting:
                self._arbitrate(slot)
        if tracing:
            self._flush(math.inf)

    @property
    def makespan(self) -> float:
        return self.last_boundary * self.slot_dt

    def report(self, empirical_speedup: float) -> SimReport:
        makespan = self.makespan
        compute_energy = self.total_instructions * self.instr_energy
        # A started instance sends an init and a completion message and makes its
        # task's accesses; a core's busy slots are its instances' instructions and stalls.
        started, tasks = self.started, self.g._tasks
        messages = 2 * sum(started.values())
        accesses = sum(map(mul, started.values(), map(_accesses, map(tasks.__getitem__, started), repeat(self.stride))))
        stalls = sum(self.busy) - self.total_instructions
        sched_energy = messages * self.msg_energy if self.cfg.comm_costs_enabled else 0.0
        mem_energy = accesses * self.access_energy if self.cfg.comm_costs_enabled else 0.0
        total_energy = compute_energy + sched_energy + mem_energy
        busy = tuple(map(mul, self.busy, repeat(self.slot_dt)))
        return SimReport(
            m=self.cfg.m,
            makespan=makespan,
            total_instructions=self.total_instructions,
            compute_energy=compute_energy,
            sched_msg_energy_total=sched_energy,
            mem_msg_energy_total=mem_energy,
            avg_power=total_energy / makespan,
            per_core_busy_time=busy,
            utilization=tuple(map(truediv, busy, repeat(makespan))),
            sched_msg_count=messages,
            mem_access_count=accesses,
            mem_conflict_stalls=stalls,
            empirical_speedup=empirical_speedup,
        )


def _check_outcomes(g: TaskGraph, cfg: SimConfig) -> None:
    """Check that each configured outcome is an edge out of a conditional."""
    for tid, chosen in cfg.conditional_outcomes.items():
        task = g.tasks.get(tid)
        if task is None:
            raise SimConfigError(f"conditional outcome names unknown task {tid!r}")
        if task.kind is not TaskKind.CONTROL or task.control_kind is not ControlKind.CONDITIONAL:
            raise SimConfigError(
                f"conditional outcome given for {tid!r}, which is not a "
                "conditional control task"
            )
        if chosen not in g._successors[tid]:
            raise SimConfigError(
                f"conditional outcome {tid!r} -> {chosen!r} is not an edge of the graph"
            )


def run(g: TaskGraph, cfg: SimConfig, *, events: Callable[[SimEvent], object] | None = None) -> SimReport:
    """Simulate a task graph and return its measurements.

    The graph must be acyclic; a duplicable task runs as its d instances.
    ``empirical_speedup`` compares the run with one core of the full chip
    area, which executes every instruction back to back.  A report value
    that leaves float range, or an m or an instruction total too large for
    a float, raises ``DomainError`` naming the value; the instruction total
    is refused as the instance that makes it too large starts.

    ``events``, if given, is called once per ``SimEvent`` of the trace, in
    trace order, as the run leaves the event's slot; it changes no report.
    A run that raises may have handed it some events first.
    """
    cycle = validate_dag(g)
    if cycle is not None:
        raise CycleError(cycle)
    _check_outcomes(g, cfg)
    sim = _Simulation(g, cfg, events)
    sim.execute()
    if sim.total_instructions == 0:
        raise DegenerateWorkloadError(
            "the executed path of the task graph contains no instructions"
        )
    makespan = _check_finite("makespan", sim.makespan, positive=True)
    chip = cfg.chip
    reference = sim.total_instructions * (chip.cpi / chip.area**chip.pollack_exponent)
    report = sim.report(empirical_speedup=reference / makespan)
    # The message and access energies, counts times finite prices, are finite once avg_power is.
    for name in ("compute_energy", "avg_power", "empirical_speedup"):
        _check_finite(name, getattr(report, name), positive=True)
    return report


def _check_finite(name: str, value: float, *, positive: bool = False) -> float:
    """Return ``value`` if it is a finite real (with ``positive``, above zero); else raise ``DomainError`` naming it."""
    if not _is_real(value, 0 if positive else -math.inf):
        raise DomainError(f"{name} falls outside float range, got {value!r}")
    return value


def compare_to_model(report: SimReport, cfg: SimConfig) -> ModelDeviation:
    """Relative deviation of a run's speedup, energydown, and powerdown ratios
    from the closed-form model at the run's core count.

    The single-core reference values are reconstructed from the report: the
    reference executes the same instances, messages, and accesses, with
    instruction energy A * cpi and access energy sqrt(A).  A ratio that leaves
    float range raises ``DomainError`` naming it.
    """
    if report.m != cfg.m:
        raise DomainError(
            f"report was produced for m={report.m}, not for the given "
            f"configuration's m={cfg.m}"
        )
    model = ensemble_metrics(cfg.chip, cfg.m)
    area = cfg.chip.area

    ref_compute = report.total_instructions * area * cfg.chip.cpi
    if cfg.comm_costs_enabled:
        messages = report.sched_msg_count + report.mem_access_count
        ref_total = ref_compute + messages * comm._msg_energy(area)
    else:
        ref_total = ref_compute
    ref_makespan = report.empirical_speedup * report.makespan

    energydown = ref_compute / report.compute_energy
    powerdown = (ref_total / ref_makespan) / (report.total_energy / report.makespan)
    deviation = ModelDeviation(
        speedup_measured=report.empirical_speedup,
        speedup_model=model.speedup,
        speedup_deviation=abs(report.empirical_speedup / model.speedup - 1.0),
        energydown_measured=energydown,
        energydown_model=model.energydown,
        energydown_deviation=abs(energydown / model.energydown - 1.0),
        powerdown_measured=powerdown,
        powerdown_model=model.powerdown,
        powerdown_deviation=abs(powerdown / model.powerdown - 1.0),
    )
    for name, value in zip(deviation._fields, deviation):
        _check_finite(name, value)
    return deviation


def report_as_dict(report: SimReport) -> dict:
    """Plain-dict form of a report, for JSON output.

    The per-core values stay the report's own tuples, one float per core used.
    """
    return report._asdict()
