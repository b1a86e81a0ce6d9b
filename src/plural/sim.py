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
  sorted writes).  Accesses to one variable in the same slot are serialized:
  each slot, a seeded generator picks one winner among the variable's
  contenders, and every loser waits in the variable's wait set and contends
  again next slot, its core stalled meanwhile.  A granted access has stalled
  its core for the grant slot minus the arrival slot.
* A variable whose touchers are all ordered by precedence
  (``graph.private_variables``) is never accessed by two instances in one
  slot, so an access to it never stalls and draws nothing from the
  generator.  An untraced run grants such accesses by arithmetic, without
  an event; a traced run takes every access through the event loop so that
  each grant keeps its place in the trace.  Reports are the same either way.
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
from collections import deque
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Collection, Iterable, Mapping, NamedTuple

from .errors import (
    CycleError,
    DegenerateWorkloadError,
    DomainError,
    SimConfigError,
    ValidationError,
)
from .graph import (
    ControlKind,
    Task,
    TaskGraph,
    TaskKind,
    _instance_footprint,
    _instance_ids,
    _successor_map,
    expand_duplicables,  # noqa: F401 -- unused, but benchmarks/tracing.py wraps it here
    private_variables,
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
        if not isinstance(self.m, int) or self.m < 1:
            raise ValidationError(f"m must be a positive integer, got {self.m!r}")
        if not isinstance(self.mem_access_stride, int) or self.mem_access_stride < 1:
            raise ValidationError(
                f"mem_access_stride must be a positive integer, got "
                f"{self.mem_access_stride!r}"
            )
        if not isinstance(self.prealloc_depth, int) or self.prealloc_depth < 0:
            raise ValidationError(
                f"prealloc_depth must be a nonnegative integer, got "
                f"{self.prealloc_depth!r}"
            )
        object.__setattr__(self, "conditional_outcomes", dict(self.conditional_outcomes))


class SimEvent(NamedTuple):
    """One entry of the optional event trace."""

    time: float
    kind: str  # ready | start | queue | access | stall | complete | control
    task: str
    detail: str


@dataclass(frozen=True)
class SimReport:
    """Measurements from one simulator run."""

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


# Event kinds, in the order a slot processes them.  A retry event marks a
# variable whose losers wait for the slot.
_COMPLETE = 0
_ACCESS = 1
_RETRY = 2

_TID = attrgetter("tid")


class _Instance:
    """A core-executed task instance and its progress through its slots."""

    __slots__ = (
        "tid", "task", "n", "vars", "n_access", "skip", "core", "start", "stalls", "granted", "since"
    )

    def __init__(self, tid: str, task: Task, number: int, stride: int, private: frozenset[str]):
        self.tid = tid  # instance id
        self.task = task.id
        self.n = task.instruction_count
        reads, writes = _instance_footprint(task, number)
        self.vars = vars_ = tuple(sorted(reads)) + tuple(sorted(writes))
        self.n_access = self.n // stride if vars_ else 0
        # skip[r]: how many accesses from residue r on target private
        # variables before one that does not; None when none is private.
        self.skip: tuple[int, ...] | None = None
        if private and self.n_access:
            shared = [k for k, var in enumerate(vars_) if var not in private]
            if len(shared) < len(vars_):
                size = len(vars_)
                self.skip = tuple(
                    min(((k - r) % size for k in shared), default=self.n_access)
                    for r in range(size)
                )
        self.core = -1
        self.start = 0
        self.stalls = 0
        self.granted = 0
        self.since = 0  # slot at which the pending access arrived


_Item = tuple[str, str, int]  # (instance id, authored task id, instance number)


class _Core:
    __slots__ = ("current", "queue", "busy_slots")

    def __init__(self) -> None:
        self.current: _Instance | None = None
        self.queue: deque[_Item] = deque()
        self.busy_slots = 0


class _Simulation:
    def __init__(
        self,
        g: TaskGraph,
        cfg: SimConfig,
        record_events: bool,
        private: frozenset[str] = frozenset(),
    ):
        self.g = g
        self.cfg = cfg
        self.private = private  # variables whose accesses never contend
        chip = cfg.chip
        self.core_freq = (chip.area / cfg.m) ** chip.pollack_exponent
        self.slot_dt = chip.cpi / self.core_freq
        self.instr_energy = chip.area / cfg.m
        self.msg_energy = math.sqrt(chip.area)
        self.access_energy = math.sqrt(chip.area) + math.log2(cfg.m)
        self.rng = random.Random(cfg.seed)

        self.ids = _instance_ids(g)
        # Each task's unfinished predecessor instances.
        self.pred_left = {tid: 0 for tid in g.tasks}
        for pred, succ in g.edges:
            self.pred_left[succ] += len(self.ids[pred])
        self.succs = _successor_map(g)

        # Cores are created on first use, lowest index first, so the cores
        # never used are the indices from len(self.cores) up to m - 1.
        self.cores: list[_Core] = []
        self.idle: list[int] = []  # min-heap of used cores that are idle
        self.ready: list[tuple[int, _Item]] = []  # (ready slot, instance)
        # Entries are (slot, kind, instance id, instance) for completions and
        # accesses and (slot, _RETRY, variable, None) for retries.  Each
        # started instance has one pending entry at a time and starts at most
        # once, and each variable has at most one retry per slot, so
        # (slot, kind, key) is unique and heapq never compares the last field.
        self.heap: list[tuple[int, int, str, _Instance | None]] = []
        self.waiting: dict[str, list[_Instance]] = {}  # losers, per variable
        self.started: set[str] = set()

        self.total_instructions = 0
        self.sched_msg_count = 0
        self.mem_access_count = 0
        self.mem_conflict_stalls = 0
        self.last_boundary = 0

        self.trace: list[SimEvent] | None = [] if record_events else None

    # -- event helpers ------------------------------------------------------

    def _event(self, slot: int, kind: str, task: str, detail: str) -> None:
        if self.trace is not None:
            self.trace.append(SimEvent(slot * self.slot_dt, kind, task, detail))

    def _instances(self, tids: Iterable[str]) -> list[_Item]:
        return [(iid, tid, k) for tid in tids for k, iid in enumerate(self.ids[tid])]

    def _count_down(self, followers: list[str]) -> list[_Item]:
        """Count one finished instance off each follower; return the instances
        of those left with none."""
        for s in followers:
            self.pred_left[s] -= 1
        return self._instances(s for s in followers if self.pred_left[s] == 0)

    # -- scheduler ----------------------------------------------------------

    def _release(self, walk: list[_Item], succs: Collection[str], slot: int) -> None:
        """Make ``walk``'s instances ready by ascending id, as a finished
        instance notifies those of its successors ``succs`` one at a time.  A
        control task resolves at once, breadth first; an instance it frees is
        made ready then if the walk has passed it, else at its place in it."""
        heapq.heapify(walk)
        while walk:
            position = walk[0][0]
            pending = deque([heapq.heappop(walk)])
            while pending:
                iid, t, k = pending.popleft()
                task = self.g.tasks[t]
                if task.kind is not TaskKind.CONTROL:
                    heapq.heappush(self.ready, (slot, (iid, t, k)))
                    self._event(slot, "ready", iid, "")
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
                    forwards = ",".join(i for i, _, _ in order(self._instances(followers)))
                    self._event(slot, "control", t, f"forwards={forwards}")
                for item in order(self._count_down(followers)):
                    if item[1] in succs and item[0] > position:
                        heapq.heappush(walk, item)
                    else:
                        pending.append(item)

    def _start(self, core_idx: int, item: _Item, slot: int, from_queue: bool) -> None:
        iid, tid, k = item
        if iid in self.started:
            raise RuntimeError(f"task instance {iid!r} started twice")
        self.started.add(iid)
        inst = _Instance(iid, self.g.tasks[tid], k, self.cfg.mem_access_stride, self.private)
        inst.core = core_idx
        inst.start = slot
        self.cores[core_idx].current = inst
        if not from_queue:
            self.sched_msg_count += 1  # task-init message
        self._event(slot, "start", iid, f"core={core_idx}")
        self._push_next(inst)

    def _push_next(self, inst: _Instance) -> None:
        """Queue the instance's next milestone: its next access, else completion.

        Accesses to private variables are granted here, in bulk: each would
        be a group of one, granted in its arrival slot with no stall and no
        draw from the generator.
        """
        if inst.skip is not None:
            jump = min(inst.skip[inst.granted % len(inst.vars)], inst.n_access - inst.granted)
            inst.granted += jump
            self.mem_access_count += jump
        if inst.granted < inst.n_access:
            instr = (inst.granted + 1) * self.cfg.mem_access_stride
            slot = inst.start + instr - 1 + inst.stalls
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
            else:
                break
            _, item = heapq.heappop(self.ready)
            self._start(core_idx, item, slot, from_queue=False)
        # Past the first loop either nothing is ready or all m cores exist and
        # are busy.
        while self.ready:
            core_idx = next(
                (
                    i
                    for i, c in enumerate(self.cores)
                    if len(c.queue) < self.cfg.prealloc_depth
                ),
                None,
            )
            if core_idx is None:
                break
            _, item = heapq.heappop(self.ready)
            self.cores[core_idx].queue.append(item)
            self.sched_msg_count += 1  # task-init message, pre-allocated
            self._event(slot, "queue", item[0], f"core={core_idx}")

    def _complete(self, inst: _Instance, slot: int) -> None:
        core = self.cores[inst.core]
        core.busy_slots += inst.n + inst.stalls
        core.current = None
        self.total_instructions += inst.n
        self.sched_msg_count += 1  # task-completion message
        self.last_boundary = max(self.last_boundary, slot)
        self._event(slot, "complete", inst.tid, f"core={inst.core}")
        succs = self.succs[inst.task]
        self._release(self._count_down(succs), succs, slot)
        if core.queue:
            self._start(inst.core, core.queue.popleft(), slot, from_queue=True)
        else:
            heapq.heappush(self.idle, inst.core)
        self._dispatch(slot)

    def _arbitrate(self, arrivals: list[_Instance], retries: list[str], slot: int) -> None:
        """Grant each variable contended in ``slot`` to one contender.

        A variable's contenders are its waiting losers (``retries`` names the
        variables that have some) and the slot's new ``arrivals``.  Sorted
        by task id and shuffled, the first wins; the others stay in the
        variable's wait set, and one retry event brings them back next slot.
        A stall is charged once, at the grant: the slots since the arrival.
        """
        groups = {var: self.waiting.pop(var) for var in retries}
        for inst in arrivals:
            inst.since = slot
            var = inst.vars[inst.granted % len(inst.vars)]
            group = groups.get(var)
            if group is None:
                groups[var] = [inst]
            else:
                group.append(inst)
        for var in sorted(groups):
            group = groups[var]
            if len(group) == 1:
                order = group
            else:
                # The wait set is kept sorted and arrivals pop in task id
                # order, so this sort merges two sorted runs.
                group.sort(key=_TID)
                order = group.copy()
                self.rng.shuffle(order)
            winner = order[0]
            stalls = slot - winner.since
            winner.stalls += stalls
            self.mem_conflict_stalls += stalls
            winner.granted += 1
            self.mem_access_count += 1
            if self.trace is not None:
                self._event(slot, "access", winner.tid, f"var={var}")
                for inst in order[1:]:
                    self._event(slot, "stall", inst.tid, f"var={var}")
            self._push_next(winner)
            if len(group) > 1:
                group.remove(winner)
                self.waiting[var] = group
                heapq.heappush(self.heap, (slot + 1, _RETRY, var, None))

    # -- main loop ----------------------------------------------------------

    def execute(self) -> None:
        # Snapshot the roots first: resolving a root control task releases its
        # successors, which the walk must not make ready a second time.
        self._release(self._instances(t for t in self.g.tasks if self.pred_left[t] == 0), (), 0)
        self._dispatch(0)
        while self.heap:
            slot = self.heap[0][0]
            arrivals: list[_Instance] = []
            retries: list[str] = []
            while self.heap and self.heap[0][0] == slot:
                _, kind, key, inst = heapq.heappop(self.heap)
                if kind == _COMPLETE:
                    self._complete(inst, slot)
                elif kind == _ACCESS:
                    arrivals.append(inst)
                else:
                    retries.append(key)
            if arrivals or retries:
                self._arbitrate(arrivals, retries, slot)

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
        busy += (0.0,) * (self.cfg.m - len(busy))
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
            events=tuple(self.trace) if self.trace is not None else (),
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
    that leaves float range raises ``DomainError`` naming the value.
    """
    cycle = validate_dag(g)
    if cycle is not None:
        raise CycleError(cycle)
    _check_outcomes(g, cfg)
    # A traced run takes every access through the event loop, so each grant
    # keeps its place in the trace.
    private = frozenset() if record_events else private_variables(g)

    sim = _Simulation(g, cfg, record_events, private)
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
    """Return ``value`` if it is finite (and, with ``positive``, above zero);
    otherwise raise ``DomainError`` naming it."""
    if not (0 < value < math.inf if positive else math.isfinite(value)):
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
    if report.m != cfg.m or len(report.per_core_busy_time) != cfg.m:
        raise DomainError(
            f"report was produced for m={report.m}, not for the given "
            f"configuration's m={cfg.m}"
        )
    model = ensemble_metrics(cfg.chip, cfg.m)
    area = cfg.chip.area

    ref_compute = report.total_instructions * area
    if cfg.comm_costs_enabled:
        ref_total = ref_compute + (report.sched_msg_count + report.mem_access_count) * math.sqrt(area)
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


def report_as_dict(report: SimReport, *, include_events: bool = False) -> dict:
    """Plain-dict form of a report, for JSON output."""
    out = {}
    for f in fields(SimReport):
        value = getattr(report, f.name)
        if f.name == "events":
            if include_events:
                out["events"] = [event._asdict() for event in value]
        else:
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out
