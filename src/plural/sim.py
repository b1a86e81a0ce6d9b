"""Deterministic discrete-event simulator of the Plural architecture.

One scheduler dispatches task-graph work to m identical cores that share a
CREW memory.  Time advances in core instruction slots of length
cpi / (A/m)**alpha; every event in a run falls on a whole slot boundary, so
arbitration ties are exact and a run is a pure function of (graph, config).

Execution semantics:

* The scheduler dispatches ready instances FIFO by readiness time (ties by
  ascending instance id string) to idle cores first, then into per-core
  pre-allocation queues of configurable depth.  Dispatch and completion
  messages are instantaneous; the queue exists to keep cores from idling.
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
  picks a contender uniformly among them, sorted by instance id (a lone
  contender draws nothing): a writer that wins is granted alone, a reader
  takes every waiting reader with it.  The others wait in the variable's
  wait set and contend again next slot, their cores stalled meanwhile.  A
  granted access has stalled its core for the grant slot minus the arrival
  slot.
* Only a variable that some CREW violation names (``check_crew``) can
  contend.  An access to any other never stalls and draws nothing from the
  generator, so it is granted by arithmetic, without an event.
* A trace holds each instance's milestones, each control task's
  resolution and one ``access`` event per grant, whose ``waited=`` is its
  stall.  It is sorted by time, then kind in the order a slot processes
  them (complete, control, ready, start, queue, access), then id.
* Energy ledger: an executed instruction costs A/m.  With communication
  costs enabled, each scheduler message (one init and one completion per
  core-executed instance) costs sqrt(A) and each memory access costs
  sqrt(A) + log2(m).

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
from bisect import insort
from collections import defaultdict, deque
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

from . import comm
from .errors import (
    CycleError,
    DegenerateWorkloadError,
    DomainError,
    SimConfigError,
    ValidationError,
    _is_count,
    _is_real,
)
from .graph import (
    ControlKind,
    Task,
    TaskGraph,
    TaskKind,
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


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one simulator run."""

    chip: ChipSpec
    m: int
    mem_access_stride: int = 5
    prealloc_depth: int = 1
    comm_costs_enabled: bool = False
    seed: int = 0
    conditional_outcomes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, least, word in (("m", 1, "a positive"), ("mem_access_stride", 1, "a positive"),
                                  ("prealloc_depth", 0, "a nonnegative"), ("seed", -math.inf, "an")):
            value = getattr(self, name)
            if not _is_count(value, least):
                raise ValidationError(f"{name} must be {word} integer, got {value!r}")
        if self.chip.static_power_enabled:
            raise ValidationError(
                "the simulator charges no static power, so chip.static_power_enabled must be False"
            )
        object.__setattr__(self, "conditional_outcomes", dict(self.conditional_outcomes))


class SimEvent(NamedTuple):
    """One entry of the optional event trace."""

    time: float
    kind: str  # complete | control | ready | start | queue | access
    task: str
    detail: str


@dataclass(frozen=True)
class SimReport:
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
    events: tuple[SimEvent, ...] = ()

    @property
    def total_energy(self) -> float:
        return self.compute_energy + self.sched_msg_energy_total + self.mem_msg_energy_total


@dataclass(frozen=True)
class ModelDeviation:
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

_TID = attrgetter("tid")


_Skip = tuple[float, ...] | None


def _skip_table(contended: tuple[bool, ...]) -> _Skip:
    """An access plan over targets that are contended where ``contended`` is true.

    ``skip[r]`` counts the accesses from residue r that target uncontended
    variables before one that does not, ``math.inf`` when none does; the
    caller caps it at the accesses left.  None when every target is contended.
    """
    if all(contended):
        return None
    shared = [k for k, is_contended in enumerate(contended) if is_contended]
    size = len(contended)
    return tuple(min(((k - r) % size for k in shared), default=math.inf) for r in range(size))


class _Instance:
    """A core-executed task instance and its progress through its slots."""

    __slots__ = (
        "tid", "task", "n", "vars", "n_reads", "n_access", "skip", "core", "start", "stalls",
        "granted", "since", "reading",
    )

    def __init__(
        self, tid: str, task: Task, vars_: tuple[str, ...], n_reads: int, stride: int, skip: _Skip,
        core: int, start: int,
    ):
        self.tid = tid  # instance id
        self.task = task.id
        self.n = task.instruction_count
        self.vars = vars_  # access targets, round-robin
        self.n_reads = n_reads  # the targets before this one are reads
        self.n_access = self.n // stride if vars_ else 0
        self.skip = skip if self.n_access else None  # see _skip_table
        self.core = core
        self.start = start  # slot
        self.stalls = 0
        self.granted = 0
        self.since = 0  # slot at which the pending access arrived
        self.reading = False  # whether the pending access is a read


_Item = tuple[str, str, tuple[str, ...], int]  # (instance id, authored task id, access targets, reads)


class _Core:
    __slots__ = ("current", "queue", "busy_slots")

    def __init__(self) -> None:
        self.current: _Instance | None = None
        self.queue: deque[_Item] = deque()
        self.busy_slots = 0


class _Simulation:
    def __init__(self, g: TaskGraph, cfg: SimConfig, record_events: bool):
        self.g = g
        self.cfg = cfg
        self.stride = cfg.mem_access_stride
        self.contended = g._contended  # the only variables whose accesses can contend
        # Access plans by which targets are contended: instances of one
        # shape share one.  Kept per run, since ``contended`` is the graph's.
        self.skips: dict[tuple[bool, ...], _Skip] = {}
        chip = cfg.chip
        self.instr_energy = chip.area / _check_finite("m", cfg.m, positive=True)  # A/m, a core's area
        self.core_freq = _check_finite("core_freq", self.instr_energy**chip.pollack_exponent, positive=True)
        self.slot_dt = chip.cpi / self.core_freq
        self.msg_energy = comm.sched_msg_energy(chip.area)
        self.access_energy = comm.mem_access_energy(chip.area, cfg.m)
        self.rng = random.Random(cfg.seed)

        self.instances = g._footprint.instances  # by ascending authored id
        # Each task's unfinished predecessor instances.
        self.pred_left = dict.fromkeys(g._tasks, 0)
        for pred, succ in g.edges:
            self.pred_left[succ] += len(self.instances[pred])
        self.succs = g._successors

        # Cores are created on first use, lowest index first, so the cores
        # never used are the indices from len(self.cores) up to m - 1.
        self.cores: list[_Core] = []
        self.idle: list[int] = []  # min-heap of used cores that are idle
        # Min-heap of the cores whose pre-allocation queue has room: each
        # core is in it exactly while len(queue) < prealloc_depth.
        self.room: list[int] = []
        self.ready: list[tuple[int, _Item]] = []  # (ready slot, instance)
        # Entries are (slot, kind, instance id, instance), one per instance
        # milestone: its next access or its completion.  Each started instance
        # has one pending entry at a time and starts at most once, so
        # (slot, kind, id) is unique and heapq never compares the instance.
        self.heap: list[tuple[int, int, str, _Instance]] = []
        # Contenders per variable, sorted by instance id, and how many of
        # them write; an emptied wait set is dropped.
        self.waiting: defaultdict[str, list[_Instance]] = defaultdict(list)
        self.writes: defaultdict[str, int] = defaultdict(int)
        self.started: set[str] = set()

        self.total_instructions = 0
        self.sched_msg_count = 0
        self.mem_access_count = 0
        self.mem_conflict_stalls = 0
        self.last_boundary = 0

        self.trace: list[SimEvent] | None = [] if record_events else None

    # -- event helpers ------------------------------------------------------

    def _event(self, slot: int, kind: str, task: str, detail: str = "", *args: object) -> None:
        """Trace an event; its detail, ``detail % args``, is formatted only when tracing."""
        if self.trace is not None:
            self.trace.append(SimEvent(slot * self.slot_dt, kind, task, detail % args if args else detail))

    def _instances(self, tids: Iterable[str]) -> list[_Item]:
        return [item for tid in tids for item in self.instances[tid]]

    def _count_down(self, followers: list[str]) -> list[_Item]:
        """Count one finished instance off each follower; return the instances
        of those left with none."""
        freed = []
        for s in followers:
            self.pred_left[s] -= 1
            if not self.pred_left[s]:
                freed += self.instances[s]
        return freed

    # -- scheduler ----------------------------------------------------------

    def _release(self, freed: list[_Item], slot: int) -> None:
        """Make the ``freed`` instances ready.  A control task among them
        resolves at once and appends the instances it frees.  The ``ready``
        heap's key, not this order, decides dispatch."""
        for item in freed:
            iid, t = item[0], item[1]
            task = self.g._tasks[t]
            if task.kind is not TaskKind.CONTROL:
                heapq.heappush(self.ready, (slot, item))
                self._event(slot, "ready", iid)
                continue
            self.last_boundary = max(self.last_boundary, slot)
            if task.control_kind is ControlKind.CONDITIONAL:
                chosen = self.cfg.conditional_outcomes.get(t)
                if chosen is None:
                    raise SimConfigError(
                        f"conditional control task {t!r} was reached but has no "
                        "configured outcome"
                    )
                # The chosen task's instances go by number, not by id.
                followers, order = [chosen], list
            else:
                followers, order = self.succs[t], sorted
            if self.trace is not None:
                forwards = ",".join(item[0] for item in order(self._instances(followers)))
                self._event(slot, "control", t, f"forwards={forwards}")
            freed.extend(self._count_down(followers))

    def _start(self, core_idx: int, item: _Item, slot: int, from_queue: bool) -> None:
        iid, tid, vars_, n_reads = item
        if iid in self.started:
            raise RuntimeError(f"task instance {iid!r} started twice")
        self.started.add(iid)
        mask = tuple(map(self.contended.__contains__, vars_))
        try:
            skip = self.skips[mask]
        except KeyError:
            skip = self.skips[mask] = _skip_table(mask)
        inst = _Instance(iid, self.g._tasks[tid], vars_, n_reads, self.stride, skip, core_idx, slot)
        self.total_instructions += inst.n
        if self.total_instructions > sys.float_info.max:  # refused before its accesses spin the loop
            _check_finite("total_instructions", self.total_instructions)
        self.cores[core_idx].current = inst
        if not from_queue:
            self.sched_msg_count += 1  # task-init message
        self._event(slot, "start", iid, "core=%d", core_idx)
        self._push_next(inst)

    def _push_next(self, inst: _Instance) -> None:
        """Queue the instance's next milestone: its next access, else completion.

        Accesses to uncontended variables are granted here, in bulk: each
        would be granted in its arrival slot with no stall and no draw from
        the generator.
        """
        stride, granted = self.stride, inst.granted
        if inst.skip is not None:
            size = len(inst.vars)
            jump = min(inst.skip[granted % size], inst.n_access - granted)
            if self.trace is not None:
                for k in range(granted, granted + jump):
                    slot = inst.start + (k + 1) * stride - 1 + inst.stalls
                    self._event(slot, "access", inst.tid, "var=%s waited=0", inst.vars[k % size])
            granted = inst.granted = granted + jump
            self.mem_access_count += jump
        if granted < inst.n_access:
            slot = inst.start + (granted + 1) * stride - 1 + inst.stalls
            heapq.heappush(self.heap, (slot, _ACCESS, inst.tid, inst))
        else:
            slot = inst.start + inst.n + inst.stalls
            heapq.heappush(self.heap, (slot, _COMPLETE, inst.tid, inst))

    def _dispatch(self, slot: int) -> None:
        """Feed idle cores, then fill pre-allocation queues, FIFO over ready
        tasks; the lowest core index goes first."""
        while self.ready:
            if self.idle:
                core_idx = heapq.heappop(self.idle)
            elif len(self.cores) < self.cfg.m:
                core_idx = len(self.cores)
                self.cores.append(_Core())
                if self.cfg.prealloc_depth:
                    heapq.heappush(self.room, core_idx)
            else:
                break
            _, item = heapq.heappop(self.ready)
            self._start(core_idx, item, slot, from_queue=False)
        # Past the first loop either nothing is ready or all m cores exist and
        # are busy.
        while self.ready and self.room:
            core_idx = self.room[0]
            queue = self.cores[core_idx].queue
            _, item = heapq.heappop(self.ready)
            queue.append(item)
            if len(queue) == self.cfg.prealloc_depth:
                heapq.heappop(self.room)
            self.sched_msg_count += 1  # task-init message, pre-allocated
            self._event(slot, "queue", item[0], "core=%d", core_idx)

    def _complete(self, inst: _Instance, slot: int) -> None:
        core = self.cores[inst.core]
        core.busy_slots += inst.n + inst.stalls
        core.current = None
        self.sched_msg_count += 1  # task-completion message
        self.last_boundary = max(self.last_boundary, slot)
        self._event(slot, "complete", inst.tid, "core=%d", inst.core)
        freed = self._count_down(self.succs[inst.task])
        if freed:
            self._release(freed, slot)
        if core.queue:
            if len(core.queue) == self.cfg.prealloc_depth:
                heapq.heappush(self.room, inst.core)
            self._start(inst.core, core.queue.popleft(), slot, from_queue=True)
        else:
            heapq.heappush(self.idle, inst.core)
        if self.ready:
            self._dispatch(slot)

    def _arbitrate(self, slot: int) -> None:
        """Grant each contended variable's waiting accesses in ``slot`` by the CREW rule.

        A variable's contenders are its wait set: losers of earlier slots
        and the slot's arrivals, kept sorted by instance id.  With no write
        among them, every read is granted and nothing is drawn.  Otherwise
        one draw of ``randrange(len(group))`` picks a contender uniformly, a
        group of one drawing nothing: a writer that wins is granted alone, a
        reader takes every waiting reader with it.  The others stay in the
        wait set, in id order, which keeps the main loop on the next slot;
        an emptied set is dropped.  A stall is charged once, at the grant:
        the slots since the arrival.
        """
        for var in sorted(self.waiting):
            group = self.waiting[var]
            k = self.rng.randrange(len(group)) if self.writes[var] and len(group) > 1 else 0
            if group[k].reading:  # with no write waiting, group[0] reads
                granted = [inst for inst in group if inst.reading]
                group[:] = [inst for inst in group if not inst.reading]
            else:
                granted = [group.pop(k)]
                self.writes[var] -= 1
            if not group:
                del self.waiting[var], self.writes[var]
            for inst in granted:
                stalls = slot - inst.since
                inst.stalls += stalls
                self.mem_conflict_stalls += stalls
                inst.granted += 1
                self.mem_access_count += 1
                if self.trace is not None:
                    self._event(slot, "access", inst.tid, f"var={var} waited={stalls}")
                self._push_next(inst)

    # -- main loop ----------------------------------------------------------

    def execute(self) -> None:
        # Snapshot the roots first: resolving a root control task releases its
        # successors, which must not be made ready a second time.
        self._release(self._instances(t for t in self.instances if self.pred_left[t] == 0), 0)
        self._dispatch(0)
        slot = 0
        # A grant queues its instance's next milestone at a later slot, so
        # once a slot is arbitrated the heap holds nothing before slot + 1,
        # where any waiting loser contends again.
        while self.heap or self.waiting:
            slot = slot + 1 if self.waiting else self.heap[0][0]
            while self.heap and self.heap[0][0] == slot:
                _, kind, _, inst = heapq.heappop(self.heap)
                if kind == _COMPLETE:
                    self._complete(inst, slot)
                else:
                    inst.since = slot
                    target = inst.granted % len(inst.vars)
                    inst.reading = target < inst.n_reads
                    var = inst.vars[target]
                    insort(self.waiting[var], inst, key=_TID)
                    self.writes[var] += not inst.reading
            if self.waiting:
                self._arbitrate(slot)

    @property
    def makespan(self) -> float:
        return self.last_boundary * self.slot_dt

    def report(self, empirical_speedup: float) -> SimReport:
        makespan = self.makespan
        compute_energy = self.total_instructions * self.instr_energy
        if self.cfg.comm_costs_enabled:
            sched_energy = self.sched_msg_count * self.msg_energy
            mem_energy = self.mem_access_count * self.access_energy
        else:
            sched_energy = 0.0
            mem_energy = 0.0
        total_energy = compute_energy + sched_energy + mem_energy
        busy = tuple(core.busy_slots * self.slot_dt for core in self.cores)
        events = () if self.trace is None else tuple(
            sorted(self.trace, key=lambda e: (e.time, _TRACE_KINDS.index(e.kind), e.task))
        )
        return SimReport(
            m=self.cfg.m,
            makespan=makespan,
            total_instructions=self.total_instructions,
            compute_energy=compute_energy,
            sched_msg_energy_total=sched_energy,
            mem_msg_energy_total=mem_energy,
            avg_power=total_energy / makespan,
            per_core_busy_time=busy,
            utilization=tuple(b / makespan for b in busy),
            sched_msg_count=self.sched_msg_count,
            mem_access_count=self.mem_access_count,
            mem_conflict_stalls=self.mem_conflict_stalls,
            empirical_speedup=empirical_speedup,
            events=events,
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
        if (tid, chosen) not in g.edges:
            raise SimConfigError(
                f"conditional outcome {tid!r} -> {chosen!r} is not an edge of the graph"
            )


def run(g: TaskGraph, cfg: SimConfig, *, record_events: bool = False) -> SimReport:
    """Simulate a task graph and return its measurements.

    The graph must be acyclic; a duplicable task runs as its d instances.
    ``empirical_speedup`` compares the run with one core of the full chip
    area, which executes every instruction back to back.  A report value
    that leaves float range, or an m or an instruction total too large for
    a float, raises ``DomainError`` naming the value; the instruction total
    is refused as the instance that makes it too large starts.
    """
    cycle = validate_dag(g)
    if cycle is not None:
        raise CycleError(cycle)
    _check_outcomes(g, cfg)
    sim = _Simulation(g, cfg, record_events)
    sim.execute()
    if sim.total_instructions == 0:
        raise DegenerateWorkloadError(
            "the executed path of the task graph contains no instructions"
        )
    makespan = _check_finite("makespan", sim.makespan, positive=True)
    chip = cfg.chip
    reference = sim.total_instructions * (chip.cpi / chip.area**chip.pollack_exponent)
    report = sim.report(empirical_speedup=reference / makespan)
    for name in ("compute_energy", "avg_power", "empirical_speedup"):
        _check_finite(name, getattr(report, name), positive=True)
    for name in ("sched_msg_energy_total", "mem_msg_energy_total"):
        _check_finite(name, getattr(report, name))
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
    instruction energy A and access energy sqrt(A).  A ratio that leaves
    float range raises ``DomainError`` naming it.
    """
    if report.m != cfg.m:
        raise DomainError(
            f"report was produced for m={report.m}, not for the given "
            f"configuration's m={cfg.m}"
        )
    model = ensemble_metrics(cfg.chip, cfg.m)
    area = cfg.chip.area

    ref_compute = report.total_instructions * area
    if cfg.comm_costs_enabled:
        messages = report.sched_msg_count + report.mem_access_count
        ref_total = ref_compute + messages * comm.sched_msg_energy(area)
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
    for f in fields(ModelDeviation):
        _check_finite(f.name, getattr(deviation, f.name))
    return deviation


def report_as_dict(report: SimReport) -> dict:
    """Plain-dict form of a report, for JSON output.

    The per-core values stay the report's own tuples, one float per core
    used; ``events`` is there when the report has a trace, as a list of one
    dict per event.
    """
    out = {f.name: getattr(report, f.name) for f in fields(SimReport) if f.name != "events"}
    if report.events:
        out["events"] = [event._asdict() for event in report.events]
    return out
