"""Tests for the discrete-event simulator."""

import heapq
import json
import math
import random
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plural import (
    ChipSpec,
    ControlKind,
    CycleError,
    DegenerateWorkloadError,
    DomainError,
    GraphStructureError,
    SimConfig,
    SimConfigError,
    Task,
    TaskGraph,
    TaskKind,
    ValidationError,
    compare_to_model,
    expand_duplicables,
    private_variables,
    run,
)
from plural import graph as graph_module
from plural import sim as sim_module
from plural.sim import report_as_dict

CHIP = ChipSpec(area=1e6, work=1)


def singular(tid, n=10, reads=(), writes=()):
    return Task(id=tid, instruction_count=n, read_set=frozenset(reads), write_set=frozenset(writes))


def duplicable(tid, d, n, reads=(), writes=()):
    return Task(
        id=tid,
        kind=TaskKind.DUPLICABLE,
        instances=d,
        instruction_count=n,
        read_set=frozenset(reads),
        write_set=frozenset(writes),
    )


def control(tid, kind=ControlKind.MERGE):
    return Task(id=tid, kind=TaskKind.CONTROL, control_kind=kind)


def parallel_workload(d, n):
    """d independent instances of n instructions with disjoint footprints."""
    return TaskGraph([duplicable("work", d, n, reads={"in[#]"}, writes={"out[#]"})])


def stage_chain(d, sizes):
    """Chained duplicables; stage k reads "s{k}[#]" and writes "s{k+1}[#]"."""
    stages = [
        duplicable(f"st{k}", d, n, reads={f"s{k}[#]"}, writes={f"s{k + 1}[#]"})
        for k, n in enumerate(sizes)
    ]
    return TaskGraph(stages, [(f"st{k}", f"st{k + 1}") for k in range(len(sizes) - 1)])


def instance_ids(task):
    if task.kind is TaskKind.DUPLICABLE:
        return [f"{task.id}#{k}" for k in range(task.instances)]
    return [task.id]


def slot_dt(cfg):
    return cfg.chip.cpi / (cfg.chip.area / cfg.m) ** cfg.chip.pollack_exponent


class TestIdealWorkload:
    def test_hand_traced_m16(self):
        # 64 instances of 1000 instructions on 16 cores: 4 tasks per core,
        # 4000 slots at frequency 250, so 16 time units; the one-core run
        # takes 64000 slots at frequency 1000, so 64 units; speedup 4.
        g = parallel_workload(64, 1000)
        report = run(g, SimConfig(chip=ChipSpec(area=1e6, work=64000), m=16))
        assert report.makespan == 16.0
        assert report.empirical_speedup == 4.0
        assert report.total_instructions == 64000
        assert report.mem_conflict_stalls == 0
        assert all(u == 1.0 for u in report.utilization)

    def test_hand_traced_m1(self):
        g = parallel_workload(64, 1000)
        report = run(g, SimConfig(chip=ChipSpec(area=1e6, work=64000), m=1))
        assert report.makespan == 64.0
        assert report.compute_energy == 1e6 * 64000
        assert report.empirical_speedup == 1.0

    def test_message_and_access_counts(self):
        g = parallel_workload(8, 100)
        report = run(g, SimConfig(chip=CHIP, m=4))
        assert report.sched_msg_count == 2 * 8
        assert report.mem_access_count == 8 * (100 // 5)

    def test_ideal_mode_has_no_comm_energy(self):
        report = run(parallel_workload(4, 50), SimConfig(chip=CHIP, m=2))
        assert report.sched_msg_energy_total == 0.0
        assert report.mem_msg_energy_total == 0.0

    def test_avg_power_times_makespan_is_energy(self):
        for m in (1, 2, 4, 8):
            cfg = SimConfig(chip=CHIP, m=m, comm_costs_enabled=True)
            report = run(parallel_workload(2 * m, 137), cfg)
            assert math.isclose(
                report.avg_power * report.makespan,
                report.total_energy,
                rel_tol=1e-9,
            )


class TestScheduling:
    def test_idle_tail_utilization(self):
        g = TaskGraph([singular("a", 10, writes={"u"}), singular("b", 6, writes={"v"})])
        cfg = SimConfig(chip=CHIP, m=2)
        report = run(g, cfg)
        dt = slot_dt(cfg)
        assert report.makespan == 10 * dt
        assert report.per_core_busy_time == (10 * dt, 6 * dt)
        assert report.utilization == (1.0, 6 / 10)

    def test_prealloc_queue_used_and_counted_once(self):
        # 4 equal tasks on one core: with depth 1 the queue event appears and
        # each task still costs exactly one init and one completion message.
        g = parallel_workload(4, 20)
        report = run(g, SimConfig(chip=CHIP, m=1, prealloc_depth=1), record_events=True)
        kinds = [e.kind for e in report.events]
        assert "queue" in kinds
        assert report.sched_msg_count == 8
        assert report.makespan == 80 * slot_dt(SimConfig(chip=CHIP, m=1))

    def test_depth_zero_keeps_cores_fed_at_completion(self):
        g = parallel_workload(6, 20)
        with_queue = run(g, SimConfig(chip=CHIP, m=2, prealloc_depth=1))
        without = run(g, SimConfig(chip=CHIP, m=2, prealloc_depth=0))
        assert without.makespan == with_queue.makespan
        assert without.sched_msg_count == with_queue.sched_msg_count

    def test_fifo_ties_by_task_id(self):
        g = TaskGraph([singular("b", 10, writes={"x1"}), singular("a", 10, writes={"x2"})])
        report = run(g, SimConfig(chip=CHIP, m=1), record_events=True)
        starts = [e.task for e in report.events if e.kind == "start"]
        assert starts == ["a", "b"]

    def test_precedence_safety_from_event_log(self):
        g = TaskGraph(
            [
                singular("src", 15, writes={"raw"}),
                duplicable("work", 3, 25, reads={"raw"}, writes={"out[#]"}),
                singular("sink", 10, reads={"out[0]", "out[1]", "out[2]"}),
            ],
            [("src", "work"), ("work", "sink")],
        )
        report = run(g, SimConfig(chip=CHIP, m=2), record_events=True)
        started = {e.task: e.time for e in report.events if e.kind == "start"}
        completed = {e.task: e.time for e in report.events if e.kind == "complete"}
        # all duplicable instances precede the sink
        for k in range(3):
            assert started[f"work#{k}"] >= completed["src"]
            assert started["sink"] >= completed[f"work#{k}"]

    def test_join_waits_for_all_instances(self):
        g = TaskGraph(
            [duplicable("work", 5, 10, writes={"o[#]"}), singular("sink", 1)],
            [("work", "sink")],
        )
        cfg = SimConfig(chip=CHIP, m=2)
        report = run(g, cfg, record_events=True)
        started = {e.task: e.time for e in report.events if e.kind == "start"}
        completed = {e.task: e.time for e in report.events if e.kind == "complete"}
        assert started["sink"] == max(completed[f"work#{k}"] for k in range(5))


class TestControlTasks:
    def test_control_chain_costs_nothing(self):
        g = TaskGraph(
            [singular("a", 10, writes={"x"}), control("c1"), control("c2", ControlKind.BRANCH), singular("b", 10, reads={"x"})],
            [("a", "c1"), ("c1", "c2"), ("c2", "b")],
        )
        cfg = SimConfig(chip=CHIP, m=1)
        report = run(g, cfg, record_events=True)
        assert report.makespan == 20 * slot_dt(cfg)
        assert report.sched_msg_count == 4  # only a and b touch a core
        control_events = [e for e in report.events if e.kind == "control"]
        assert [e.task for e in control_events] == ["c1", "c2"]

    def test_conditional_executes_only_chosen_branch(self):
        g = TaskGraph(
            [
                singular("start", 5),
                control("pick", ControlKind.CONDITIONAL),
                singular("left", 10, writes={"l"}),
                singular("right", 20, writes={"r"}),
            ],
            [("start", "pick"), ("pick", "left"), ("pick", "right")],
        )
        cfg = SimConfig(chip=CHIP, m=1, conditional_outcomes={"pick": "left"})
        report = run(g, cfg)
        assert report.total_instructions == 15
        other = run(g, replace(cfg, conditional_outcomes={"pick": "right"}))
        assert other.total_instructions == 25

    def test_unresolved_conditional_rejected(self):
        g = TaskGraph(
            [control("pick", ControlKind.CONDITIONAL), singular("a", 5)],
            [("pick", "a")],
        )
        with pytest.raises(SimConfigError, match="pick"):
            run(g, SimConfig(chip=CHIP, m=1))

    def test_outcome_must_be_a_successor(self):
        g = TaskGraph(
            [control("pick", ControlKind.CONDITIONAL), singular("a", 5), singular("z", 5)],
            [("pick", "a")],
        )
        with pytest.raises(SimConfigError, match="z"):
            run(g, SimConfig(chip=CHIP, m=1, conditional_outcomes={"pick": "z"}))

    def test_outcome_for_non_conditional_rejected(self):
        g = TaskGraph([singular("a", 5), singular("b", 5)], [("a", "b")])
        with pytest.raises(SimConfigError, match="a"):
            run(g, SimConfig(chip=CHIP, m=1, conditional_outcomes={"a": "b"}))

    def test_conditional_choosing_duplicable_runs_all_instances(self):
        g = TaskGraph(
            [
                singular("start", 5),
                control("pick", ControlKind.CONDITIONAL),
                duplicable("wide", 3, 10, writes={"o[#]"}),
                singular("narrow", 10),
            ],
            [("start", "pick"), ("pick", "wide"), ("pick", "narrow")],
        )
        cfg = SimConfig(chip=CHIP, m=2, conditional_outcomes={"pick": "wide"})
        report = run(g, cfg)
        assert report.total_instructions == 5 + 3 * 10
        other = run(g, replace(cfg, conditional_outcomes={"pick": "narrow"}))
        assert other.total_instructions == 15

    def test_conditional_choosing_control_task_cascades(self):
        g = TaskGraph(
            [
                singular("start", 5),
                control("pick", ControlKind.CONDITIONAL),
                control("relay", ControlKind.BRANCH),
                singular("end", 10),
                singular("other", 10),
            ],
            [("start", "pick"), ("pick", "relay"), ("pick", "other"), ("relay", "end")],
        )
        cfg = SimConfig(chip=CHIP, m=1, conditional_outcomes={"pick": "relay"})
        assert run(g, cfg).total_instructions == 15

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", list(ControlKind))
    def test_root_control_task_dispatches_successor_once(self, kind, m):
        g = TaskGraph([control("a", kind), singular("b", 10)], [("a", "b")])
        outcomes = {"a": "b"} if kind is ControlKind.CONDITIONAL else {}
        cfg = SimConfig(chip=CHIP, m=m, conditional_outcomes=outcomes)
        report = run(g, cfg, record_events=True)
        assert report.total_instructions == 10
        assert report.sched_msg_count == 2
        assert [e.task for e in report.events if e.kind == "start"] == ["b"]


class TestMemoryConflicts:
    def test_two_way_conflict_single_stall(self):
        # Both instances hit "x" at slot 4; the loser retries at slot 5.
        g = TaskGraph([duplicable("w", 2, 10, writes={"x"})])
        report = run(g, SimConfig(chip=CHIP, m=2))
        assert report.mem_conflict_stalls == 1
        assert report.mem_access_count == 4

    def test_three_way_conflict_cascades(self):
        g = TaskGraph([duplicable("w", 3, 5, writes={"x"})])
        cfg = SimConfig(chip=CHIP, m=3)
        report = run(g, cfg)
        # grants land on slots 4, 5, 6: two losers in the first round, one in
        # the second, and the last completion lands at slot 7.
        assert report.mem_conflict_stalls == 3
        assert report.makespan == 7 * slot_dt(cfg)

    def test_serialization_safety(self):
        g = TaskGraph([duplicable("w", 4, 20, writes={"hot"})])
        report = run(g, SimConfig(chip=CHIP, m=4, seed=9), record_events=True)
        slots = [(e.time, e.detail) for e in report.events if e.kind == "access"]
        assert len(slots) == len(set(slots))

    def test_single_core_never_conflicts(self):
        g = TaskGraph([duplicable("w", 6, 25, writes={"hot"})])
        report = run(g, SimConfig(chip=CHIP, m=1))
        assert report.mem_conflict_stalls == 0

    def test_arrival_joins_waiting_losers(self):
        # Slot 0: a and b contend for x (a wins, b waits); c reads w
        # uncontended.  Slot 1: c's next access arrives at x while b still
        # waits, and b wins.  Slot 2: c is granted after one stalled slot.
        # a ends at 1, b at 0 + 1 + 1 stall = 2, c at 0 + 2 + 1 stall = 3.
        g = TaskGraph(
            [
                singular("a", 1, reads={"x"}),
                singular("b", 1, reads={"x"}),
                singular("c", 2, reads={"w", "x"}),
            ]
        )
        # area 3 over 3 cores gives frequency 1, so one slot lasts 1.0
        cfg = SimConfig(chip=ChipSpec(area=3, work=1), m=3, mem_access_stride=1, seed=0)
        report = run(g, cfg, record_events=True)
        assert [
            (e.time, e.kind, e.task, e.detail)
            for e in report.events
            if e.kind in ("access", "stall")
        ] == [
            (0.0, "access", "c", "var=w"),
            (0.0, "access", "a", "var=x"),
            (0.0, "stall", "b", "var=x"),
            (1.0, "access", "b", "var=x"),
            (1.0, "stall", "c", "var=x"),
            (2.0, "access", "c", "var=x"),
        ]
        assert report.mem_conflict_stalls == 2
        assert report.makespan == 3.0
        assert report.per_core_busy_time == (1.0, 2.0, 3.0)

    def test_heap_pushes_follow_grants_not_stalls(self, monkeypatch):
        # A 64-way burst on one variable: every event-heap push is an
        # instance start, a grant, or a retry of a contended (variable, slot).
        g = TaskGraph([duplicable("r", 64, 20, reads={"x"}, writes={"out[#]"})])
        cfg = SimConfig(chip=CHIP, m=64, seed=5)
        traced = run(g, cfg, record_events=True)
        contended = {(e.time, e.detail) for e in traced.events if e.kind == "stall"}

        def pushes(simulation_class):
            sim = simulation_class(g, cfg, False)
            counts = Counter()
            real_push = heapq.heappush

            def counting_push(heap, item):
                counts["events" if heap is sim.heap else "other"] += 1
                real_push(heap, item)

            with monkeypatch.context() as patch:
                patch.setattr(heapq, "heappush", counting_push)
                sim.execute()
            assert sim.mem_conflict_stalls == traced.mem_conflict_stalls
            return counts

        instances, grants = 64, traced.mem_access_count
        counts = pushes(sim_module._Simulation)
        assert counts["events"] <= instances + grants + len(contended)
        # the ready queue and the idle-core heap take at most one push per
        # instance each
        assert counts["other"] <= 2 * instances
        assert traced.mem_conflict_stalls > 10 * (instances + grants + len(contended))
        # the per-stall engine pushes every loser back, once per lost slot
        per_stall = pushes(PerStallSimulation)
        assert per_stall["events"] == instances + grants + traced.mem_conflict_stalls

    def test_contention_lowers_speedup(self):
        g = TaskGraph([duplicable("w", 2, 10, writes={"x"})])
        cfg = SimConfig(chip=CHIP, m=2)
        report = run(g, cfg)
        deviation = compare_to_model(report, cfg)
        assert deviation.speedup_deviation > 0
        assert report.empirical_speedup < math.sqrt(2)


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        g = TaskGraph([duplicable("w", 8, 40, writes={"hot"})])
        cfg = SimConfig(chip=CHIP, m=4, seed=1234, comm_costs_enabled=True)
        a = run(g, cfg)
        b = run(g, cfg)
        assert a == b
        assert json.dumps(report_as_dict(a)) == json.dumps(report_as_dict(b))

    def test_seeds_only_move_stalls_and_makespan(self):
        # Asymmetric contenders: whichever task wins the slot-4 arbitration
        # shifts the makespan, but counts and energies stay fixed.
        g = TaskGraph(
            [singular("t1", 10, writes={"x"}), singular("t2", 6, writes={"x"})]
        )
        reports = [
            run(g, SimConfig(chip=CHIP, m=2, seed=seed)) for seed in range(8)
        ]
        first = reports[0]
        for other in reports[1:]:
            assert other.total_instructions == first.total_instructions
            assert other.mem_access_count == first.mem_access_count
            assert other.sched_msg_count == first.sched_msg_count
            assert other.compute_energy == first.compute_energy
            assert other.sched_msg_energy_total == first.sched_msg_energy_total
            assert other.mem_msg_energy_total == first.mem_msg_energy_total
        assert len({r.makespan for r in reports}) == 2  # both outcomes occur

    def test_reference_run_is_seed_independent(self):
        g = TaskGraph([duplicable("w", 4, 30, writes={"hot"})])
        makespans = set()
        for seed in range(4):
            report = run(g, SimConfig(chip=CHIP, m=2, seed=seed))
            makespans.add(report.empirical_speedup * report.makespan)
        assert len(makespans) == 1


# "a#0" and "b#1" collide with instance ids of the duplicables "a" and "b".
SIM_IDS = ["a", "b", "c", "d", "a#0", "b#1"]
SIM_VARS = ["x", "y", "v[#]", "v[0]"]


@st.composite
def sim_cases(draw):
    """An acyclic task graph and a config that resolves its conditionals."""
    ids = draw(st.lists(st.sampled_from(SIM_IDS), unique=True, min_size=1, max_size=6))
    index = st.integers(0, len(ids) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * len(ids)))
    edges = {(ids[i], ids[j]) for i, j in pairs if i < j}
    footprint = st.frozensets(st.sampled_from(SIM_VARS), max_size=2)
    tasks, outcomes = [], {}
    for tid in ids:
        kind = draw(st.sampled_from(TaskKind))
        if kind is TaskKind.CONTROL:
            successors = sorted(s for p, s in edges if p == tid)
            control_kind = draw(st.sampled_from(ControlKind))
            if control_kind is ControlKind.CONDITIONAL:
                if successors:
                    outcomes[tid] = draw(st.sampled_from(successors))
                else:
                    control_kind = ControlKind.MERGE
            tasks.append(control(tid, control_kind))
        elif kind is TaskKind.DUPLICABLE:
            d, n = draw(st.integers(1, 4)), draw(st.integers(0, 30))
            tasks.append(duplicable(tid, d, n, draw(footprint), draw(footprint)))
        else:
            tasks.append(singular(tid, draw(st.integers(0, 30)), draw(footprint), draw(footprint)))
    chip = ChipSpec(
        area=draw(st.sampled_from([7.3, 1e6])),
        work=1,
        cpi=draw(st.sampled_from([1.0, 1.7])),
        pollack_exponent=draw(st.sampled_from([0.3, 0.5])),
    )
    cfg = SimConfig(
        chip=chip,
        m=draw(st.sampled_from([1, 2, 3, 5, 8, 64])),
        mem_access_stride=draw(st.integers(1, 5)),
        prealloc_depth=draw(st.integers(0, 2)),
        comm_costs_enabled=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
        conditional_outcomes=outcomes,
    )
    return TaskGraph(tasks, edges), cfg


class TestSingleCoreReference:
    """``run`` prices the speedup by arithmetic; simulating the workload on one
    core of the full area is the oracle it must reproduce bit for bit."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(sim_cases())
    def test_speedup_equals_single_core_simulation(self, case):
        g, cfg = case
        try:
            report = run(g, cfg)
        except (DegenerateWorkloadError, GraphStructureError):
            return
        single = run(g, replace(cfg, m=1))
        assert report.empirical_speedup == single.makespan / report.makespan
        # One core never contends and never idles: its last slot is the
        # instruction count.
        chip = cfg.chip
        slot_dt = chip.cpi / chip.area**chip.pollack_exponent
        assert single.makespan == single.total_instructions * slot_dt
        assert single.empirical_speedup == 1.0


class PerStallSimulation(sim_module._Simulation):
    """The simulator before per-variable wait sets, kept as the oracle.

    Every loser goes back into the event heap for the next slot and stalls
    one slot per lost arbitration; all m cores exist from the start, and
    dispatch scans them for the lowest-index idle one, then for the
    lowest-index queue with room.  It ignores the private variables it is
    given, so every access goes through its loop.
    """

    def __init__(self, g, cfg, record_events, private=frozenset()):
        super().__init__(g, cfg, record_events)
        self.cores = [sim_module._Core() for _ in range(self.cfg.m)]

    def _dispatch(self, slot):
        while self.ready:
            core_idx = next(
                (i for i, c in enumerate(self.cores) if c.current is None), None
            )
            if core_idx is None:
                break
            _, item = heapq.heappop(self.ready)
            self._start(core_idx, item, slot, from_queue=False)
        while self.ready:
            core_idx = next(
                (
                    i
                    for i, c in enumerate(self.cores)
                    if c.current is not None and len(c.queue) < self.cfg.prealloc_depth
                ),
                None,
            )
            if core_idx is None:
                break
            _, item = heapq.heappop(self.ready)
            self.cores[core_idx].queue.append(item)
            self.sched_msg_count += 1
            self._event(slot, "queue", item[0], f"core={core_idx}")

    def _arbitrate(self, accesses, slot):
        groups = {}
        for inst in accesses:
            var = inst.vars[inst.granted % len(inst.vars)]
            groups.setdefault(var, []).append(inst)
        for var in sorted(groups):
            group = sorted(groups[var], key=lambda i: i.tid)
            if len(group) > 1:
                self.rng.shuffle(group)
            winner, losers = group[0], group[1:]
            winner.granted += 1
            self.mem_access_count += 1
            self._event(slot, "access", winner.tid, f"var={var}")
            self._push_next(winner)
            for inst in losers:
                inst.stalls += 1
                self.mem_conflict_stalls += 1
                self._event(slot, "stall", inst.tid, f"var={var}")
                heapq.heappush(self.heap, (slot + 1, sim_module._ACCESS, inst.tid, inst))

    def execute(self):
        self._release(self._instances(t for t in self.g.tasks if self.pred_left[t] == 0), (), 0)
        self._dispatch(0)
        while self.heap:
            slot = self.heap[0][0]
            accesses = []
            while self.heap and self.heap[0][0] == slot:
                _, etype, _, inst = heapq.heappop(self.heap)
                if etype == sim_module._COMPLETE:
                    self._complete(inst, slot)
                else:
                    accesses.append(inst)
            if accesses:
                self._arbitrate(accesses, slot)


def run_outcome(g, cfg, simulation_class, record_events=True):
    """The report of one run on ``simulation_class``, or its error."""
    with mock.patch.object(sim_module, "_Simulation", simulation_class):
        try:
            return run(g, cfg, record_events=record_events)
        except (DegenerateWorkloadError, DomainError, GraphStructureError) as exc:
            return type(exc), str(exc)


@st.composite
def contention_cases(draw):
    """Duplicables and singular tasks crowding one to three shared variables."""
    shared = ["x", "y", "z"][: draw(st.integers(1, 3))]
    footprint = st.frozensets(st.sampled_from(shared), max_size=2)
    count = draw(st.integers(1, 4))
    tasks = []
    for i in range(count):
        n, reads, writes = draw(st.integers(0, 40)), draw(footprint), draw(footprint)
        if draw(st.booleans()):
            tasks.append(duplicable(f"t{i}", draw(st.integers(1, 24)), n, reads, writes))
        else:
            tasks.append(singular(f"t{i}", n, reads, writes))
    index = st.integers(0, count - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=count))
    edges = {(f"t{i}", f"t{j}") for i, j in pairs if i < j}
    cfg = SimConfig(
        chip=ChipSpec(area=draw(st.sampled_from([7.3, 1e6])), work=1),
        m=draw(st.sampled_from([1, 2, 3, 8, 64])),
        mem_access_stride=draw(st.integers(1, 5)),
        prealloc_depth=draw(st.integers(0, 2)),
        comm_costs_enabled=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return TaskGraph(tasks, edges), cfg


class TestPerStallReference:
    """Wait sets and the idle-core heap change the simulator's cost, not its
    reports: the per-stall engine must give the same traced report."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(contention_cases())
    def test_contended_runs_match(self, case):
        g, cfg = case
        assert run_outcome(g, cfg, sim_module._Simulation) == run_outcome(
            g, cfg, PerStallSimulation
        )

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(sim_cases())
    def test_control_and_conditional_runs_match(self, case):
        g, cfg = case
        assert run_outcome(g, cfg, sim_module._Simulation) == run_outcome(
            g, cfg, PerStallSimulation
        )


@st.composite
def mixed_footprint_cases(draw):
    """Chains and fork-joins whose tasks mix private and shared variables.

    Stage k reads "s{k}[#]" and writes "s{k+1}[#]", which only its chain
    neighbours touch, and a duplicable stage's "v[#]" is its own per
    instance; these are private while the chain edges hold.  "x" and "y",
    or "v[#]" named by a singular task, are shared with the stage's own
    instances, with the other stages once an edge is left out, or with a
    side task.  An optional loader and join make the chain a fork-join.
    """
    count = draw(st.integers(1, 4))
    extra = st.frozensets(st.sampled_from(["x", "y", "v[#]"]), max_size=2)
    tasks, stages = [], [f"st{k}" for k in range(count)]
    for k, tid in enumerate(stages):
        reads, writes = {f"s{k}[#]"} | draw(extra), {f"s{k + 1}[#]"} | draw(extra)
        n = draw(st.integers(0, 40))
        if draw(st.booleans()):
            tasks.append(duplicable(tid, draw(st.integers(1, 8)), n, reads, writes))
        else:
            tasks.append(singular(tid, n, reads, writes))
    # Most chain edges are drawn; a missing one makes its neighbours concurrent.
    edges = {(a, b) for a, b in zip(stages, stages[1:]) if draw(st.integers(0, 4))}
    if draw(st.booleans()):
        tasks.append(singular("load", draw(st.integers(1, 40)), draw(extra), {"s0[#]"}))
        tasks.append(singular("join", draw(st.integers(0, 40)), draw(extra), {"done"}))
        edges |= {("load", stages[0]), (stages[-1], "join")}
    if draw(st.booleans()):
        tasks.append(singular("side", draw(st.integers(1, 40)), draw(extra), draw(extra)))
    cfg = SimConfig(
        chip=ChipSpec(area=draw(st.sampled_from([7.3, 1e6])), work=1),
        m=draw(st.sampled_from([1, 2, 3, 8, 64])),
        mem_access_stride=draw(st.integers(1, 5)),
        prealloc_depth=draw(st.integers(0, 2)),
        comm_costs_enabled=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return TaskGraph(tasks, edges), cfg


class TestUntracedMatchesTraced:
    """An untraced run grants private accesses by arithmetic; a traced run
    takes every access through the event loop, and so does the per-stall
    engine.  All three must give the same report, or the same error."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(st.one_of(contention_cases(), sim_cases(), mixed_footprint_cases()))
    def test_reports_match(self, case):
        g, cfg = case
        untraced = run_outcome(g, cfg, sim_module._Simulation, record_events=False)
        traced = run_outcome(g, cfg, sim_module._Simulation)
        if isinstance(traced, tuple):
            assert untraced == traced
        else:
            assert untraced == replace(traced, events=())
        assert untraced == run_outcome(g, cfg, PerStallSimulation, record_events=False)


class TestPrivateAccesses:
    """Accesses to private variables cost the event loop nothing."""

    @staticmethod
    def event_pushes(monkeypatch, g, cfg):
        """Run ``g`` untraced; return the simulation and its event-heap pushes."""
        sim = sim_module._Simulation(g, cfg, False, private_variables(g))
        pushed = []
        real_push = heapq.heappush

        def counting_push(heap, item):
            if heap is sim.heap:
                pushed.append(item)
            real_push(heap, item)

        with monkeypatch.context() as patch:
            patch.setattr(heapq, "heappush", counting_push)
            sim.execute()
        return sim, pushed

    def test_stage_chain_never_arbitrates(self, monkeypatch):
        d, sizes = 32, [150, 211, 263, 300]
        g = stage_chain(d, sizes)
        cfg = SimConfig(chip=CHIP, m=32, seed=1001)

        def forbidden(*args):
            raise AssertionError("a private access reached arbitration")

        monkeypatch.setattr(sim_module._Simulation, "_arbitrate", forbidden)
        sim, pushed = self.event_pushes(monkeypatch, g, cfg)
        assert len(pushed) == 4 * d  # one completion per instance
        assert sim.mem_access_count == d * sum(n // 5 for n in sizes)
        assert sim.mem_conflict_stalls == 0

    def test_mixed_instance_pushes_its_shared_accesses(self, monkeypatch):
        # "m" alternates private "p" and shared "x"; "c" also reads "x".
        g = TaskGraph(
            [singular("m", 10, reads={"p", "x"}), singular("c", 7, reads={"x"})]
        )
        cfg = SimConfig(chip=CHIP, m=2, mem_access_stride=1, seed=3)
        sim, pushed = self.event_pushes(monkeypatch, g, cfg)
        kinds = Counter(kind for _, kind, tid, _ in pushed if tid == "m")
        assert kinds == {sim_module._ACCESS: 5, sim_module._COMPLETE: 1}
        assert sim.mem_access_count == 10 + 7
        traced = run(g, cfg, record_events=True)
        assert sim.mem_conflict_stalls == traced.mem_conflict_stalls > 0


def expanded_outcome(g, cfg, record_events):
    """The report of a run of ``expand_duplicables(g)``, or the error that
    expanding or running raises."""
    try:
        return run(expand_duplicables(g), cfg, record_events=record_events)
    except (DegenerateWorkloadError, DomainError, GraphStructureError) as exc:
        return type(exc), str(exc)


def ready_order(report):
    return [(e.kind, e.task) for e in report.events if e.kind in ("ready", "control")]


class TestAuthoredMatchesExpanded:
    """``run`` simulates the authored graph and never expands it; running the
    expanded graph is the oracle it must reproduce, trace and errors included."""

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(st.one_of(contention_cases(), sim_cases(), mixed_footprint_cases()))
    def test_reports_match(self, case):
        g, cfg = case
        # The expanded graph has no task of a duplicable's id to forward to.
        if any(g.tasks[s].kind is TaskKind.DUPLICABLE for s in cfg.conditional_outcomes.values()):
            return
        for record_events in (True, False):
            assert run_outcome(g, cfg, sim_module._Simulation, record_events) == expanded_outcome(
                g, cfg, record_events
            )

    @pytest.mark.parametrize("with_root", [True, False])
    def test_ties_go_by_instance_id_string(self, with_root):
        # "w!" sorts before "w#0", and "w#05" between "w#0" and "w#1".
        tasks = [duplicable("w", 12, 4, writes={"o[#]"}), singular("w!", 4), singular("w#05", 4)]
        edges = []
        if with_root:
            tasks.append(singular("p", 3))
            edges = [("p", "w"), ("p", "w!"), ("p", "w#05")]
        g = TaskGraph(tasks, edges)
        cfg = SimConfig(chip=CHIP, m=4)
        report = run(g, cfg, record_events=True)
        ids = sorted(["w!", "w#05"] + [f"w#{k}" for k in range(12)])
        assert ids[:4] == ["w!", "w#0", "w#05", "w#1"]
        assert [task for _, task in ready_order(report)] == ["p"] * with_root + ids
        assert report == expanded_outcome(g, cfg, record_events=True)

    def test_control_frees_what_the_walk_has_passed(self):
        # "x" notifies "c", "d" and "e" in id order.  The merge "c" frees "f"
        # at once, but "e" only when "x" reaches it, after "d".
        g = TaskGraph(
            [singular("x", 3), control("c"), singular("d", 2), singular("e", 2), singular("f", 2)],
            [("x", "c"), ("x", "d"), ("x", "e"), ("c", "e"), ("c", "f")],
        )
        cfg = SimConfig(chip=CHIP, m=2)
        report = run(g, cfg, record_events=True)
        assert ready_order(report) == [
            ("ready", "x"), ("control", "c"), ("ready", "f"), ("ready", "d"), ("ready", "e")
        ]
        assert report == expanded_outcome(g, cfg, record_events=True)

    def test_conditional_forwards_to_duplicable_by_number(self):
        g = TaskGraph(
            [
                singular("p", 3),
                control("c", ControlKind.CONDITIONAL),
                duplicable("w", 12, 4, writes={"o[#]"}),
                singular("x", 4),
            ],
            [("p", "c"), ("c", "w"), ("c", "x")],
        )
        cfg = SimConfig(chip=CHIP, m=12, conditional_outcomes={"c": "w"})
        report = run(g, cfg, record_events=True)
        numbered = [f"w#{k}" for k in range(12)]
        assert ready_order(report) == [
            ("ready", "p"), ("control", "c"), *(("ready", iid) for iid in numbered)
        ]
        assert [e.detail for e in report.events if e.kind == "control"] == [
            "forwards=" + ",".join(numbered)
        ]
        starts = [e.task for e in report.events if e.kind == "start"]
        assert starts == ["p"] + sorted(numbered)
        assert report.total_instructions == 3 + 12 * 4
        assert run(g, cfg) == replace(report, events=())

    def test_conditional_frees_what_the_walk_has_passed(self):
        # "p" notifies "w#0", then the conditional "w#05", which frees "w#0"
        # at once; "w#1", "w#10", ... wait for "p" to reach them.
        g = TaskGraph(
            [
                singular("p", 3),
                control("w#05", ControlKind.CONDITIONAL),
                duplicable("w", 12, 4, writes={"o[#]"}),
                singular("y", 4),
            ],
            [("p", "w"), ("p", "w#05"), ("w#05", "w"), ("w#05", "y")],
        )
        cfg = SimConfig(chip=CHIP, m=12, conditional_outcomes={"w#05": "w"})
        report = run(g, cfg, record_events=True)
        later = sorted(f"w#{k}" for k in range(1, 12))
        assert ready_order(report) == [
            ("ready", "p"), ("control", "w#05"), ("ready", "w#0"),
            *(("ready", iid) for iid in later),
        ]

    def test_run_builds_no_expanded_graph(self, monkeypatch):
        def forbidden(g):
            raise AssertionError("run built the expanded graph")

        monkeypatch.setattr(graph_module, "expand_duplicables", forbidden)
        monkeypatch.setattr(sim_module, "expand_duplicables", forbidden)
        d, sizes = 32, [150, 211, 263, 300]
        g = stage_chain(d, sizes)
        for record_events in (False, True):
            report = run(g, SimConfig(chip=CHIP, m=32, seed=7), record_events=record_events)
            assert report.total_instructions == d * sum(sizes)


def executed_tasks(g, cfg):
    """The authored tasks a run reaches: those whose every predecessor is
    reached and, if a conditional, forwards to them."""
    preds = {tid: [] for tid in g.tasks}
    for pred, succ in g.edges:
        preds[succ].append(pred)
    reached = {}

    def reach(tid):
        if tid not in reached:
            reached[tid] = all(
                reach(p) and cfg.conditional_outcomes.get(p, tid) == tid for p in preds[tid]
            )
        return reached[tid]

    return {tid for tid in g.tasks if reach(tid)}


class TestTraceInvariants:
    """The North-star invariants, read from the trace of the authored-graph
    engine."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.one_of(contention_cases(), sim_cases(), mixed_footprint_cases()))
    def test_invariants(self, case):
        g, cfg = case
        try:
            report = run(g, cfg, record_events=True)
        except (DegenerateWorkloadError, GraphStructureError):
            return
        events = report.events
        executed = executed_tasks(g, cfg)
        tasks = {iid: task for task in g for iid in instance_ids(task)}
        # Each executed instance starts once and completes once; each
        # executed control task resolves once.
        starts = Counter(e.task for e in events if e.kind == "start")
        completes = Counter(e.task for e in events if e.kind == "complete")
        controls = Counter(e.task for e in events if e.kind == "control")
        core_run = Counter(
            iid for iid, task in tasks.items()
            if task.id in executed and task.kind is not TaskKind.CONTROL
        )
        assert starts == completes == core_run
        assert controls == Counter(t for t in executed if g.tasks[t].kind is TaskKind.CONTROL)
        # No instance starts before every instance of its predecessors is done.
        began = {e.task: e.time for e in events if e.kind in ("start", "control")}
        done = {e.task: e.time for e in events if e.kind in ("complete", "control")}
        for pred, succ in g.edges:
            for later in instance_ids(g.tasks[succ]):
                if later in began:
                    for earlier in instance_ids(g.tasks[pred]):
                        assert done[earlier] <= began[later]
        # Each variable is granted at most once per slot.
        grants = [(e.time, e.detail) for e in events if e.kind == "access"]
        assert len(grants) == len(set(grants))
        # Work is conserved, and the ledger is consistent.
        assert report.total_instructions == sum(tasks[iid].instruction_count for iid in starts)
        assert math.isclose(report.avg_power * report.makespan, report.total_energy, rel_tol=1e-12)


class TestLedger:
    def test_comm_energy_exact_on_three_task_chain(self):
        g = TaskGraph(
            [
                singular("t1", 10, writes={"x"}),
                singular("t2", 7, reads={"x"}),
                singular("t3", 3, reads={"x"}),
            ],
            [("t1", "t2"), ("t2", "t3")],
        )
        cfg = SimConfig(chip=CHIP, m=2, comm_costs_enabled=True)
        report = run(g, cfg)
        # hand counts: accesses 10//5 + 7//5 + 3//5 = 3, messages 2 per task
        assert report.mem_access_count == 3
        assert report.sched_msg_count == 6
        assert report.sched_msg_energy_total == 2 * 3 * math.sqrt(1e6)
        assert report.mem_msg_energy_total == 3 * (math.sqrt(1e6) + math.log2(2))

    def test_work_conservation(self):
        g = TaskGraph(
            [singular("a", 13), duplicable("w", 7, 29, writes={"o[#]"})],
            [("a", "w")],
        )
        report = run(g, SimConfig(chip=CHIP, m=4))
        assert report.total_instructions == 13 + 7 * 29


class TestCompareToModel:
    def test_m1_deviations_exactly_zero(self):
        cfg = SimConfig(chip=CHIP, m=1)
        report = run(parallel_workload(4, 100), cfg)
        deviation = compare_to_model(report, cfg)
        assert deviation.speedup_deviation == 0.0
        assert deviation.energydown_deviation == 0.0
        assert deviation.powerdown_deviation == 0.0

    def test_ideal_workload_tracks_model(self):
        for m in (4, 16):
            cfg = SimConfig(chip=CHIP, m=m)
            report = run(parallel_workload(4 * m, 1000), cfg)
            deviation = compare_to_model(report, cfg)
            assert deviation.speedup_deviation < 0.02
            assert deviation.energydown_deviation < 0.02
            assert deviation.powerdown_deviation < 0.02

    def test_comm_mode_deviations_are_reported_not_errors(self):
        cfg = SimConfig(chip=CHIP, m=4, comm_costs_enabled=True)
        report = run(parallel_workload(16, 1000), cfg)
        deviation = compare_to_model(report, cfg)
        assert deviation.powerdown_deviation > 0

    def test_mismatched_config_rejected(self):
        cfg = SimConfig(chip=CHIP, m=4)
        report = run(parallel_workload(16, 100), cfg)
        with pytest.raises(DomainError):
            compare_to_model(report, SimConfig(chip=CHIP, m=8))


class TestRandomizedGraphs:
    """Seeded fuzz over small random DAGs: structural invariants must hold."""

    def _random_graph(self, rng):
        n = rng.randint(1, 12)
        tasks = []
        for i in range(n):
            tid = f"t{i:02d}"
            roll = rng.random()
            if i == 0 or roll < 0.55:
                tasks.append(
                    singular(
                        tid,
                        rng.randint(1, 30) if i == 0 else rng.randint(0, 30),
                        reads=rng.sample(["a", "b", "c"], rng.randint(0, 2)),
                        writes=rng.sample([f"w{i}", "hot", "x"], rng.randint(0, 2)),
                    )
                )
            elif roll < 0.8:
                tasks.append(
                    duplicable(
                        tid,
                        rng.randint(1, 4),
                        rng.randint(0, 20),
                        reads=["shared"],
                        writes=[rng.choice(["o[#]", "hot"])],
                    )
                )
            else:
                kind = rng.choice(list(ControlKind))
                tasks.append(control(tid, kind))
        edges = [
            (tasks[i].id, tasks[j].id)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        # a conditional with no outgoing edge can never be resolved
        with_succs = {p for p, _ in edges}
        tasks = [
            control(t.id, ControlKind.MERGE)
            if t.kind is TaskKind.CONTROL
            and t.control_kind is ControlKind.CONDITIONAL
            and t.id not in with_succs
            else t
            for t in tasks
        ]
        outcomes = {
            t.id: rng.choice([s for p, s in edges if p == t.id])
            for t in tasks
            if t.kind is TaskKind.CONTROL and t.control_kind is ControlKind.CONDITIONAL
        }
        return TaskGraph(tasks, edges), outcomes

    def test_invariants_hold_on_random_workloads(self):
        rng = random.Random(424242)
        for _ in range(40):
            g, outcomes = self._random_graph(rng)
            cfg = SimConfig(
                chip=CHIP,
                m=rng.choice([1, 2, 3, 5, 8]),
                mem_access_stride=rng.choice([1, 2, 5]),
                prealloc_depth=rng.choice([0, 1, 2]),
                comm_costs_enabled=rng.random() < 0.5,
                seed=rng.randrange(2**32),
                conditional_outcomes=outcomes,
            )
            try:
                report = run(g, cfg, record_events=True)
            except DegenerateWorkloadError:
                continue
            expanded = expand_duplicables(g)

            # every instance runs exactly once: at most one start and one
            # completion each, and everything started also completed
            start_counts = Counter(e.task for e in report.events if e.kind == "start")
            complete_counts = Counter(e.task for e in report.events if e.kind == "complete")
            assert max(start_counts.values(), default=0) <= 1
            assert max(complete_counts.values(), default=0) <= 1
            assert set(start_counts) == set(complete_counts)
            # work conservation over the executed instances
            completed = set(complete_counts)
            assert report.total_instructions == sum(
                expanded.tasks[t].instruction_count for t in completed
            )
            # precedence safety
            started = {e.task: e.time for e in report.events if e.kind == "start"}
            done = {e.task: e.time for e in report.events if e.kind == "complete"}
            for pred, succ in expanded.edges:
                if succ in started and pred in done:
                    assert started[succ] >= done[pred]
            # no two grants of one variable share a slot
            grants = [(e.time, e.detail) for e in report.events if e.kind == "access"]
            assert len(grants) == len(set(grants))
            # bounded utilization, consistent ledger
            assert all(0.0 <= u <= 1.0 + 1e-12 for u in report.utilization)
            assert math.isclose(
                report.avg_power * report.makespan, report.total_energy, rel_tol=1e-9
            )
            # determinism
            assert run(g, cfg, record_events=True) == report


class TestErrors:
    def test_cyclic_graph_rejected(self):
        g = TaskGraph([singular("a"), singular("b")], [("a", "b"), ("b", "a")])
        with pytest.raises(CycleError):
            run(g, SimConfig(chip=CHIP, m=1))

    def test_single_control_task_is_degenerate(self):
        with pytest.raises(DegenerateWorkloadError):
            run(TaskGraph([control("only")]), SimConfig(chip=CHIP, m=1))

    def test_empty_graph_is_degenerate(self):
        with pytest.raises(DegenerateWorkloadError):
            run(TaskGraph([]), SimConfig(chip=CHIP, m=1))

    def test_zero_instruction_path_is_degenerate(self):
        g = TaskGraph([singular("a", 0)])
        with pytest.raises(DegenerateWorkloadError):
            run(g, SimConfig(chip=CHIP, m=2))

    def test_report_out_of_float_range(self):
        chip = ChipSpec(area=1e-300, work=1, cpi=1e300)
        with pytest.raises(DomainError, match="makespan falls outside float range"):
            run(parallel_workload(4, 10), SimConfig(chip=chip, m=4))

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="m"):
            SimConfig(chip=CHIP, m=0)
        with pytest.raises(ValidationError, match="stride"):
            SimConfig(chip=CHIP, m=1, mem_access_stride=0)
        with pytest.raises(ValidationError, match="prealloc"):
            SimConfig(chip=CHIP, m=1, prealloc_depth=-1)
