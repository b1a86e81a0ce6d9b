"""Tests for the discrete-event simulator."""

import heapq
import json
import math
import os
import random
import sys
import time
from bisect import insort
from collections import Counter, defaultdict, deque
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
    SimReport,
    Task,
    TaskGraph,
    TaskKind,
    ValidationError,
    check_crew,
    compare_to_model,
    ensemble_metrics,
    expand_duplicables,
    run,
)
from plural import comm
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


def instance_order(g):
    """Each instance id of ``g`` -> its (authored task id, instance number),
    the order in which the simulator breaks ties."""
    return {iid: (tid, k) for tid, task in g.tasks.items() for k, iid in enumerate(instance_ids(task))}


def instance_targets(task, iid):
    """An instance's (sorted reads, sorted writes), a duplicable's "#"
    replaced by the instance number that ends its id."""
    if task.kind is not TaskKind.DUPLICABLE:
        return sorted(task.read_set), sorted(task.write_set)
    number = iid.rpartition("#")[2]
    return tuple(sorted({v.replace("#", number) for v in names}) for names in (task.read_set, task.write_set))


def slot_dt(cfg):
    return cfg.chip.cpi / (cfg.chip.area / cfg.m) ** cfg.chip.pollack_exponent


def traced_run(g, cfg):
    """A traced run's report and its events, in the order the sink got them."""
    events = []
    return run(g, cfg, events=events.append), events


# The documented order of one slot's events in a trace, spelled out.
TRACE_KINDS = ["complete", "control", "ready", "start", "queue", "access"]


def access_fields(event):
    """An access event's (variable, slots it waited)."""
    var, _, waited = event.detail.removeprefix("var=").rpartition(" waited=")
    return var, int(waited)


def contended(events, cfg):
    """The (slot, variable) pairs with two or more contenders: an access
    granted in slot s after waiting w slots lost slots s - w to s - 1."""
    pairs = set()
    for e in events:
        if e.kind == "access":
            var, waited = access_fields(e)
            grant = round(e.time / slot_dt(cfg))
            pairs.update((s, var) for s in range(grant - waited, grant))
    return pairs


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

    def test_report_holds_the_used_cores(self):
        # Four instances on 2**40 cores use cores 0 to 3, and the report
        # lists those four; compare_to_model takes it at the same m.
        cfg = SimConfig(chip=CHIP, m=2**40)
        report = run(parallel_workload(4, 10), cfg)
        assert report.per_core_busy_time == (10 * slot_dt(cfg),) * 4
        assert report.utilization == (1.0,) * 4
        compare_to_model(report, cfg)

    def test_cores_that_ran_no_instruction_are_used(self):
        # The instances of "idle" take cores 0 and 1 and end at once, while
        # "w" keeps cores 2 to 4 busy.
        g = TaskGraph([duplicable("idle", 2, 0), duplicable("w", 3, 10)])
        report = run(g, SimConfig(chip=CHIP, m=8))
        assert report.utilization == (0.0, 0.0, 1.0, 1.0, 1.0)

    def test_prealloc_queue_used_and_counted_once(self):
        # 4 equal tasks on one core: with depth 1 the queue event appears and
        # each task still costs exactly one init and one completion message.
        g = parallel_workload(4, 20)
        report, events = traced_run(g, SimConfig(chip=CHIP, m=1, prealloc_depth=1))
        kinds = [e.kind for e in events]
        assert "queue" in kinds
        assert report.sched_msg_count == 8
        assert report.makespan == 80 * slot_dt(SimConfig(chip=CHIP, m=1))

    def test_depth_zero_keeps_cores_fed_at_completion(self):
        g = parallel_workload(6, 20)
        with_queue = run(g, SimConfig(chip=CHIP, m=2, prealloc_depth=1))
        without = run(g, SimConfig(chip=CHIP, m=2, prealloc_depth=0))
        assert without.makespan == with_queue.makespan
        assert without.sched_msg_count == with_queue.sched_msg_count

    @pytest.mark.parametrize("depth", [0, 1])
    def test_instances_ending_in_one_slot_end_together(self, depth):
        # "b" (4) and "c" (2) start at slot 0; "a" (2) follows "c" on core 1
        # and "x" (2) follows "a".  "a" and "b" end together at slot 4, so
        # both cores are idle when "x" is released, and it takes core 0.
        # Ended one at a time in (task, index) order, as before 0.9.0, "a"
        # would free "x" while core 1 alone was idle.
        g = TaskGraph(
            [singular("b", 4), singular("c", 2), singular("a", 2), singular("x", 2)],
            [("c", "a"), ("a", "x")],
        )
        cfg = SimConfig(chip=ChipSpec(area=1, work=1), m=2, prealloc_depth=depth)
        report, events = traced_run(g, cfg)
        dt = slot_dt(cfg)
        assert [(e.time, e.detail) for e in events if e.kind == "start" and e.task == "x"] == [(4 * dt, "core=0")]
        assert report.per_core_busy_time == (6 * dt, 4 * dt)
        assert (report, events) == run_outcome(g, cfg, PerInstanceSimulation)

    def test_fifo_ties_by_task_id(self):
        g = TaskGraph([singular("b", 10, writes={"x1"}), singular("a", 10, writes={"x2"})])
        _, events = traced_run(g, SimConfig(chip=CHIP, m=1))
        starts = [e.task for e in events if e.kind == "start"]
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
        _, events = traced_run(g, SimConfig(chip=CHIP, m=2))
        started = {e.task: e.time for e in events if e.kind == "start"}
        completed = {e.task: e.time for e in events if e.kind == "complete"}
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
        _, events = traced_run(g, cfg)
        started = {e.task: e.time for e in events if e.kind == "start"}
        completed = {e.task: e.time for e in events if e.kind == "complete"}
        assert started["sink"] == max(completed[f"work#{k}"] for k in range(5))


class TestControlTasks:
    def test_control_chain_costs_nothing(self):
        g = TaskGraph(
            [singular("a", 10, writes={"x"}), control("c1"), control("c2", ControlKind.BRANCH), singular("b", 10, reads={"x"})],
            [("a", "c1"), ("c1", "c2"), ("c2", "b")],
        )
        cfg = SimConfig(chip=CHIP, m=1)
        report, events = traced_run(g, cfg)
        assert report.makespan == 20 * slot_dt(cfg)
        assert report.sched_msg_count == 4  # only a and b touch a core
        control_events = [e for e in events if e.kind == "control"]
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
        other = run(g, cfg._replace(conditional_outcomes={"pick": "right"}))
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
        other = run(g, cfg._replace(conditional_outcomes={"pick": "narrow"}))
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
        report, events = traced_run(g, cfg)
        assert report.total_instructions == 10
        assert report.sched_msg_count == 2
        assert [e.task for e in events if e.kind == "start"] == ["b"]


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
        _, events = traced_run(g, SimConfig(chip=CHIP, m=4, seed=9))
        slots = [(e.time, access_fields(e)[0]) for e in events if e.kind == "access"]
        assert len(slots) == len(set(slots))

    def test_single_core_never_conflicts(self):
        g = TaskGraph([duplicable("w", 6, 25, writes={"hot"})])
        report = run(g, SimConfig(chip=CHIP, m=1))
        assert report.mem_conflict_stalls == 0

    def test_arrival_joins_waiting_losers(self):
        # Seed 0's first two draws of randrange(2) are 1 and 1.  Slot 0: c
        # reads the uncontended w, no draw; x's wait set is [a, b] and draw 1
        # grants b, so a waits.  Slot 1: b ends; c's next access arrives at x
        # and joins a, giving [a, c], and draw 1 grants c; a stalls again.
        # Slot 2: a is alone, no draw.  a ends at 0 + 1 + 2 stalls = 3, b at
        # 1, c at 2.
        g = TaskGraph(
            [
                singular("a", 1, writes={"x"}),
                singular("b", 1, writes={"x"}),
                singular("c", 2, reads={"w"}, writes={"x"}),
            ]
        )
        # area 3 over 3 cores gives frequency 1, so one slot lasts 1.0
        cfg = SimConfig(chip=ChipSpec(area=3, work=1), m=3, mem_access_stride=1, seed=0)
        report, events = traced_run(g, cfg)
        assert [(e.time, e.task, e.detail) for e in events if e.kind == "access"] == [
            (0.0, "b", "var=x waited=0"),
            (0.0, "c", "var=w waited=0"),
            (1.0, "c", "var=x waited=0"),
            (2.0, "a", "var=x waited=2"),
        ]
        assert contended(events, cfg) == {(0, "x"), (1, "x")}
        assert report.mem_conflict_stalls == 2
        assert report.makespan == 3.0
        assert report.per_core_busy_time == (3.0, 1.0, 2.0)

    def test_arrival_takes_its_place_by_id(self):
        # As above, with the two-access task named a.  Slot 0: [b, c], draw
        # 1 grants c.  Slot 1: a's access to x sorts ahead of the waiting b,
        # giving [a, b], so draw 1 grants b, not the arrival.
        g = TaskGraph(
            [
                singular("a", 2, reads={"w"}, writes={"x"}),
                singular("b", 1, writes={"x"}),
                singular("c", 1, writes={"x"}),
            ]
        )
        cfg = SimConfig(chip=ChipSpec(area=3, work=1), m=3, mem_access_stride=1, seed=0)
        report, events = traced_run(g, cfg)
        assert [(e.time, e.task, e.detail) for e in events if e.kind == "access"] == [
            (0.0, "a", "var=w waited=0"),
            (0.0, "c", "var=x waited=0"),
            (1.0, "b", "var=x waited=1"),
            (2.0, "a", "var=x waited=1"),
        ]
        assert contended(events, cfg) == {(0, "x"), (1, "x")}
        assert report.mem_conflict_stalls == 2

    def test_heap_pushes_follow_grants_not_stalls(self, monkeypatch):
        # A 64-way burst on one variable: every event-heap push is an
        # instance start or a grant.
        g = TaskGraph([duplicable("r", 64, 20, writes={"x"})])
        cfg = SimConfig(chip=CHIP, m=64, seed=5)
        traced, events = traced_run(g, cfg)
        contended_slots = contended(events, cfg)
        assert contended_slots

        def pushes(simulation_class):
            sim = simulation_class(g, cfg, None)
            counts = Counter()
            real_push = heapq.heappush

            def counting_push(heap, item):
                if heap is sim.heap:
                    counts["events"] += 1
                elif heap is sim.room:
                    counts["room"] += 1
                else:
                    counts["other"] += 1
                real_push(heap, item)

            with monkeypatch.context() as patch:
                patch.setattr(heapq, "heappush", counting_push)
                sim.execute()
            assert sim.report(1.0).mem_conflict_stalls == traced.mem_conflict_stalls
            return counts

        instances, grants = 64, traced.mem_access_count
        counts = pushes(sim_module._Simulation)
        assert counts["events"] == instances + grants
        # the ready heap takes at most one push per instance, and the cores
        # with room or idle are sorted lists that take no heap push at all
        assert counts["other"] <= 2 * instances
        assert counts["room"] <= instances
        assert traced.mem_conflict_stalls > 10 * (instances + grants + len(contended_slots))
        # the per-stall engine pushes every loser back, once per lost slot
        per_stall = pushes(PerStallSimulation)
        assert per_stall["events"] == instances + grants + traced.mem_conflict_stalls

    def test_one_draw_per_contended_slot(self, monkeypatch):
        # A 64-way burst like the one above: only a (slot, variable) with two
        # or more contenders, which is one that some access waited through,
        # draws; every other access to "x" and every one to "out[#]" draws
        # nothing.
        g = TaskGraph([duplicable("r", 64, 20, writes={"x", "out[#]"})])
        cfg = SimConfig(chip=CHIP, m=64, seed=5)
        calls = Counter()
        real_randrange = random.Random.randrange

        def counting_randrange(rng, *args):
            calls["randrange"] += 1
            return real_randrange(rng, *args)

        def forbidden(rng, *args):
            raise AssertionError("arbitration shuffled a wait set")

        monkeypatch.setattr(random.Random, "randrange", counting_randrange)
        monkeypatch.setattr(random.Random, "shuffle", forbidden)
        traced, events = traced_run(g, cfg)
        contended_slots = contended(events, cfg)
        assert calls["randrange"] == len(contended_slots) > 0
        assert traced.mem_access_count > 2 * len(contended_slots)
        calls.clear()
        assert run(g, cfg).mem_conflict_stalls == traced.mem_conflict_stalls
        assert calls["randrange"] == len(contended_slots)

    @pytest.mark.parametrize("k", [2, 3, 7, 16])
    def test_k_way_burst_stalls_do_not_depend_on_seed(self, k):
        # One access each, all arriving in one slot: the i-th grant waited
        # i slots, whichever order the draws pick.
        g = TaskGraph([duplicable("r", k, 5, writes={"x"})])
        for seed in range(25):
            report = run(g, SimConfig(chip=CHIP, m=k, seed=seed))
            assert report.mem_conflict_stalls == k * (k - 1) // 2

    def test_first_grant_is_uniform(self):
        # 4 contenders over 4000 seeds: each should win about 1000 times,
        # with a standard deviation of about 27.
        g = TaskGraph([duplicable("r", 4, 5, writes={"x"})])
        wins = Counter()
        for seed in range(4000):
            _, events = traced_run(g, SimConfig(chip=CHIP, m=4, seed=seed))
            wins[next(e.task for e in events if e.kind == "access")] += 1
        assert sorted(wins) == instance_ids(g.tasks["r"])
        assert all(850 <= n <= 1150 for n in wins.values()), wins

    def test_contention_lowers_speedup(self):
        g = TaskGraph([duplicable("w", 2, 10, writes={"x"})])
        cfg = SimConfig(chip=CHIP, m=2)
        report = run(g, cfg)
        deviation = compare_to_model(report, cfg)
        assert deviation.speedup_deviation > 0
        assert report.empirical_speedup < math.sqrt(2)

    def test_concurrent_reads_are_granted_together(self, monkeypatch):
        # A loader writes "x", then 64 instances read it at once: CREW grants
        # every read in its arrival slot, and nothing is arbitrated or drawn.
        g = TaskGraph(
            [singular("load", 20, writes={"x"}), duplicable("r", 64, 20, reads={"x"}, writes={"out[#]"})],
            [("load", "r")],
        )

        def forbidden(*args):
            raise AssertionError("a read-only variable was arbitrated")

        monkeypatch.setattr(sim_module._Simulation, "_arbitrate", forbidden)
        monkeypatch.setattr(random.Random, "randrange", forbidden)
        report, events = traced_run(g, SimConfig(chip=CHIP, m=64, seed=5))
        assert report.mem_conflict_stalls == 0
        reads = Counter(e.time for e in events if e.kind == "access" and e.detail.startswith("var=x "))
        assert sorted(reads.values()) == [1] * (20 // 5) + [64] * (20 // 5 // 2)

    def test_clean_run_builds_no_generator(self, monkeypatch):
        # A run with no contended variable never draws, so it builds no
        # generator; a run with one builds it at set-up.
        def forbidden(*args):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(sim_module.random, "Random", forbidden)
        g = TaskGraph(
            [singular("load", 20, writes={"x"}), duplicable("r", 64, 20, reads={"x"}, writes={"out[#]"})],
            [("load", "r")],
        )
        assert run(g, SimConfig(chip=CHIP, m=64, seed=5)).mem_conflict_stalls == 0
        with pytest.raises(AssertionError, match="a generator was built"):
            run(TaskGraph([duplicable("w", 2, 5, writes={"x"})]), SimConfig(chip=CHIP, m=2))

    def test_reader_that_wins_takes_every_reader(self):
        # Slot 0: "r1" and "r2" read "x" as "w" writes it, so one draw runs
        # over [r1, r2, w].  A reader that wins takes the other reader with
        # it and "w" follows alone; a writer that wins is granted alone and
        # both readers follow together, with no draw.
        g = TaskGraph(
            [singular("r1", 1, reads={"x"}), singular("r2", 1, reads={"x"}), singular("w", 1, writes={"x"})]
        )
        outcomes = set()
        for seed in range(12):
            cfg = SimConfig(chip=ChipSpec(area=3, work=1), m=3, mem_access_stride=1, seed=seed)
            report, events = traced_run(g, cfg)
            waited = {e.task: access_fields(e)[1] for e in events if e.kind == "access"}
            writer_won = random.Random(seed).randrange(3) == 2
            assert waited == ({"w": 0, "r1": 1, "r2": 1} if writer_won else {"r1": 0, "r2": 0, "w": 1})
            assert report.mem_conflict_stalls == (2 if writer_won else 1)
            outcomes.add(writer_won)
        assert outcomes == {True, False}


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
        single = run(g, cfg._replace(m=1))
        assert report.empirical_speedup == single.makespan / report.makespan
        # One core never contends and never idles: its last slot is the
        # instruction count.
        chip = cfg.chip
        slot_dt = chip.cpi / chip.area**chip.pollack_exponent
        assert single.makespan == single.total_instructions * slot_dt
        assert single.empirical_speedup == 1.0


class OracleInstance:
    """A core-executed task instance and its progress through its slots."""

    def __init__(self, tid, k, task, vars_, n_reads, stride, core, start):
        self.tid = tid  # instance id
        self.key = (task.id, k)  # its place in the event heap and in a wait set
        self.task = task.id
        self.n = task.instruction_count
        self.vars = vars_  # access targets, round-robin
        self.n_reads = n_reads  # the targets before this one are reads
        self.n_access = self.n // stride if vars_ else 0
        self.core = core
        self.start = start  # slot
        self.stalls = 0
        self.granted = 0
        self.since = 0  # slot at which the pending access arrived
        self.reading = False  # whether the pending access is a read


class OracleCore:
    def __init__(self):
        self.current = None
        self.queue = deque()  # (authored task id, instance number, instance id, access targets, reads)
        self.busy_slots = 0


class PerInstanceSimulation:
    """The engine before cohorts, kept as the oracle: one heap entry per
    instance milestone, one ready-heap entry per instance, and each
    instance's targets from its own footprint, read from its task here.
    Instances go by (authored task id, instance number) wherever they tie.
    The instances that end in one slot end together: each is counted off
    its followers, then each freed core starts its queue's head or idles,
    the freed instances are made ready, and dispatch runs once.  An instance
    of no instruction ends in a further round of its slot.  It keeps its
    whole trace in a list and hands it, sorted, to the sink when the run
    reports."""

    def __init__(self, g, cfg, events):
        self.g = g
        self.cfg = cfg
        self.stride = cfg.mem_access_stride
        self.contended = g._contended  # the only variables whose accesses can contend
        chip = cfg.chip
        core_area = chip.area / sim_module._check_finite("m", cfg.m, positive=True)
        self.core_freq = sim_module._check_finite("core_freq", core_area**chip.pollack_exponent, positive=True)
        self.slot_dt = chip.cpi / self.core_freq
        self.instr_energy = core_area * chip.cpi
        self.msg_energy = comm.sched_msg_energy(chip.area)
        self.access_energy = comm.mem_access_energy(chip.area, cfg.m)
        self.rng = random.Random(cfg.seed)

        g._footprint  # raises what building the index raises
        self.instances = {
            tid: [(tid, k, iid, (*targets[0], *targets[1]), len(targets[0]))
                  for k, iid in enumerate(instance_ids(task)) for targets in [instance_targets(task, iid)]]
            for tid, task in sorted(g.tasks.items())
        }
        self.order = instance_order(g)
        # Each task's unfinished predecessor instances.
        self.pred_left = dict.fromkeys(g._tasks, 0)
        for pred, succ in g.edges:
            self.pred_left[succ] += len(self.instances[pred])
        self.succs = g._successors

        # Cores are created on first use, lowest index first, so the cores
        # never used are the indices from len(self.cores) up to m - 1.
        self.cores = []
        self.idle = []  # min-heap of used cores that are idle
        # Min-heap of the cores whose pre-allocation queue has room: each
        # core is in it exactly while len(queue) < prealloc_depth.
        self.room = []
        self.ready = []  # (ready slot, instance), by (slot, task, number)
        # Entries are (slot, kind, (task, number), instance), one per instance
        # milestone: its next access or its completion.  Each started instance
        # has one pending entry at a time and starts at most once, so
        # (slot, kind, key) is unique and heapq never compares the instance.
        self.heap = []
        # Contenders per variable, sorted by (task, number), and how many of
        # them write; an emptied wait set is dropped.
        self.waiting = defaultdict(list)
        self.writes = defaultdict(int)
        self.started = set()

        self.total_instructions = 0
        self.sched_msg_count = 0
        self.mem_access_count = 0
        self.mem_conflict_stalls = 0
        self.last_boundary = 0

        self.sink = events
        self.trace = None if events is None else []

    # -- event helpers ------------------------------------------------------

    def _event(self, slot, kind, task, detail="", *args):
        """Trace an event; its detail, ``detail % args``, is formatted only when tracing."""
        if self.trace is not None:
            self.trace.append(sim_module.SimEvent(slot * self.slot_dt, kind, task, detail % args if args else detail))

    def _instances(self, tids):
        return [item for tid in tids for item in self.instances[tid]]

    def _count_down(self, followers):
        """Count one finished instance off each follower; return the instances
        of those left with none."""
        freed = []
        for s in followers:
            self.pred_left[s] -= 1
            if not self.pred_left[s]:
                freed += self.instances[s]
        return freed

    # -- scheduler ----------------------------------------------------------

    def _release(self, freed, slot):
        """Make the ``freed`` instances ready.  A control task among them
        resolves at once and appends the instances it frees.  The ``ready``
        heap's key, not this order, decides dispatch."""
        for item in freed:
            t, iid = item[0], item[2]
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
                followers = [chosen]
            else:
                followers = self.succs[t]
            if self.trace is not None:
                forwards = ",".join(item[2] for item in self._instances(followers))
                self._event(slot, "control", t, f"forwards={forwards}")
            freed.extend(self._count_down(followers))

    def _start(self, core_idx, item, slot, from_queue):
        tid, k, iid, vars_, n_reads = item
        if iid in self.started:
            raise RuntimeError(f"task instance {iid!r} started twice")
        self.started.add(iid)
        inst = OracleInstance(iid, k, self.g._tasks[tid], vars_, n_reads, self.stride, core_idx, slot)
        self.total_instructions += inst.n
        if self.total_instructions > sys.float_info.max:  # refused before its accesses spin the loop
            sim_module._check_finite("total_instructions", self.total_instructions)
        self.cores[core_idx].current = inst
        if not from_queue:
            self.sched_msg_count += 1  # task-init message
        self._event(slot, "start", iid, "core=%d", core_idx)
        self._push_next(inst)

    def _push_next(self, inst):
        """Queue the instance's next milestone: its next access, else completion.

        Accesses to uncontended variables are granted here, one at a time:
        each would be granted in its arrival slot with no stall and no draw
        from the generator.
        """
        stride, granted = self.stride, inst.granted
        while granted < inst.n_access and (var := inst.vars[granted % len(inst.vars)]) not in self.contended:
            granted += 1
            self.mem_access_count += 1
            self._event(inst.start + granted * stride - 1 + inst.stalls, "access", inst.tid, "var=%s waited=0", var)
        inst.granted = granted
        if granted < inst.n_access:
            slot = inst.start + (granted + 1) * stride - 1 + inst.stalls
            heapq.heappush(self.heap, (slot, sim_module._ACCESS, inst.key, inst))
        else:
            slot = inst.start + inst.n + inst.stalls
            heapq.heappush(self.heap, (slot, sim_module._COMPLETE, inst.key, inst))

    def _dispatch(self, slot):
        """Feed idle cores, then fill pre-allocation queues, FIFO over ready
        tasks; the lowest core index goes first."""
        while self.ready:
            if self.idle:
                core_idx = heapq.heappop(self.idle)
            elif len(self.cores) < self.cfg.m:
                core_idx = len(self.cores)
                self.cores.append(OracleCore())
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
            self._event(slot, "queue", item[2], "core=%d", core_idx)

    def _complete(self, done, slot):
        """The instances ``done`` end together: all of them are counted off
        their followers before any freed core or freed instance moves."""
        freed = []
        for inst in done:
            core = self.cores[inst.core]
            core.busy_slots += inst.n + inst.stalls
            core.current = None
            self.sched_msg_count += 1  # task-completion message
            self.last_boundary = max(self.last_boundary, slot)
            self._event(slot, "complete", inst.tid, "core=%d", inst.core)
            freed += self._count_down(self.succs[inst.task])
        for inst in done:
            core = self.cores[inst.core]
            if core.queue:
                if len(core.queue) == self.cfg.prealloc_depth:
                    heapq.heappush(self.room, inst.core)
                self._start(inst.core, core.queue.popleft(), slot, from_queue=True)
            else:
                heapq.heappush(self.idle, inst.core)
        self._release(freed, slot)
        self._dispatch(slot)

    def _completions(self, slot):
        """Pop every completion of ``slot`` in the heap: they end together."""
        done = []
        while self.heap and self.heap[0][:2] == (slot, sim_module._COMPLETE):
            done.append(heapq.heappop(self.heap)[3])
        return done

    def _arbitrate(self, slot):
        """Grant each contended variable's waiting accesses in ``slot`` by the CREW rule.

        A variable's contenders are its wait set: losers of earlier slots
        and the slot's arrivals, kept sorted by (task, number).  With no write
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

    def execute(self):
        # Snapshot the roots first: resolving a root control task releases its
        # successors, which must not be made ready a second time.
        self._release(self._instances(t for t in self.instances if self.pred_left[t] == 0), 0)
        self._dispatch(0)
        slot = 0
        # A grant queues its instance's next milestone at a later slot, so
        # once a slot is arbitrated the heap holds nothing before slot + 1,
        # where any waiting loser contends again.
        # Completions sort before accesses: the slot's completions end in
        # one round, and an instance of no instruction started in a round
        # ends in a further one.
        while self.heap or self.waiting:
            slot = slot + 1 if self.waiting else self.heap[0][0]
            while self.heap and self.heap[0][0] == slot:
                if done := self._completions(slot):
                    self._complete(done, slot)
                else:
                    _, _, _, inst = heapq.heappop(self.heap)
                    inst.since = slot
                    target = inst.granted % len(inst.vars)
                    inst.reading = target < inst.n_reads
                    var = inst.vars[target]
                    insort(self.waiting[var], inst, key=sim_module._KEY)
                    self.writes[var] += not inst.reading
            if self.waiting:
                self._arbitrate(slot)

    @property
    def makespan(self):
        return self.last_boundary * self.slot_dt

    def report(self, empirical_speedup):
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
        for event in sorted(self.trace or (), key=lambda e: (e.time, sim_module._RANK[e.kind], self.order[e.task])):
            self.sink(event)
        return sim_module.SimReport(
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
        )


class Everything:
    """A container holding every variable name."""

    def __contains__(self, var):
        return True


class PerStallSimulation(PerInstanceSimulation):
    """The simulator before per-variable wait sets, kept as the oracle.

    It takes every access through its own loop, as if every variable could
    contend, and applies the CREW rule itself, written from the footprints
    rather than read from the engine.  Each slot it groups the arriving
    accesses by variable and sorts a group by (task, number).  With no write
    in a group every read is granted; otherwise one draw picks a member (a
    group of one draws nothing): a writer alone, or a reader with every
    reader.  Every loser goes back into the event heap for the next slot and
    stalls one slot per lost arbitration; a grant's trace event carries the
    slots its access lost.  All m cores exist from the start, and dispatch
    scans them for the lowest-index idle one, then for the lowest-index
    queue with room; its report holds the cores up to the highest one that
    started an instance.
    """

    def __init__(self, g, cfg, events):
        super().__init__(g, cfg, events)
        self.contended = Everything()  # no access is granted by arithmetic
        self.cores = [OracleCore() for _ in range(self.cfg.m)]
        self.used = 0  # one past the highest core that started an instance
        self.lost = Counter()  # slots each instance's pending access has lost
        self.n_reads = {}  # instance id -> its reads, counted from its task

    def _start(self, core_idx, item, slot, from_queue):
        self.used = max(self.used, core_idx + 1)
        super()._start(core_idx, item, slot, from_queue)
        inst = self.cores[core_idx].current
        reads, writes = instance_targets(self.g.tasks[inst.task], inst.tid)
        assert inst.vars == (*reads, *writes)
        self.n_reads[inst.tid] = len(reads)

    def report(self, empirical_speedup):
        self.cores = self.cores[: self.used]
        return super().report(empirical_speedup)

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
            self._event(slot, "queue", item[2], f"core={core_idx}")

    def _arbitrate(self, accesses, slot):
        groups = {}
        for inst in accesses:
            var = inst.vars[inst.granted % len(inst.vars)]
            groups.setdefault(var, []).append(inst)
        for var in sorted(groups):
            group = sorted(groups[var], key=sim_module._KEY)
            readers = [i for i in group if i.granted % len(i.vars) < self.n_reads[i.tid]]
            winners = readers
            if len(readers) < len(group):
                pick = group[self.rng.randrange(len(group)) if len(group) > 1 else 0]
                winners = readers if pick in readers else [pick]
            for inst in group:
                if inst in winners:
                    inst.granted += 1
                    self.mem_access_count += 1
                    waited = self.lost.pop(inst.tid, 0)
                    self._event(slot, "access", inst.tid, f"var={var} waited={waited}")
                    self._push_next(inst)
                else:
                    inst.stalls += 1
                    self.mem_conflict_stalls += 1
                    self.lost[inst.tid] += 1
                    heapq.heappush(self.heap, (slot + 1, sim_module._ACCESS, inst.key, inst))

    def execute(self):
        self._release(self._instances(t for t in self.instances if self.pred_left[t] == 0), 0)
        self._dispatch(0)
        while self.heap:
            slot = self.heap[0][0]
            accesses = []
            while self.heap and self.heap[0][0] == slot:
                if done := self._completions(slot):
                    self._complete(done, slot)
                else:
                    accesses.append(heapq.heappop(self.heap)[3])
            if accesses:
                self._arbitrate(accesses, slot)


def run_outcome(g, cfg, simulation_class, traced=True):
    """(report, events) of one run on ``simulation_class``, the events None
    if untraced, or (error type, message) of its error."""
    with mock.patch.object(sim_module, "_Simulation", simulation_class):
        try:
            return traced_run(g, cfg) if traced else (run(g, cfg), None)
        except (DegenerateWorkloadError, DomainError, GraphStructureError) as exc:
            return type(exc), str(exc)


def succeeded(outcome):
    return isinstance(outcome[0], SimReport)


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


# Task ids that sort among instance ids: "w#05" between "w#0" and "w#1", and
# the instances of "w#1x" between "w#1" and "w#10".
COHORT_IDS = ["w", "w#05", "w#1x", "w#3!", "x", "x#0z", "y"]
# Sibling ids that sort among the instance ids of "w" and "x" too.
SIBLING_IDS = ["w#0!", "w#07", "w#2y", "w#9z", "x#1!"]


@st.composite
def cohort_cases(draw):
    """Graphs whose tasks run as cohorts that join across tasks and end in
    one slot with other entries: ids that sort among other tasks' instance
    ids, instruction counts from {0, 2, 4}, tasks of no instruction, small m
    and every queue depth.  A task that writes "acc" runs its instances
    alone.  Sibling singular tasks of one length are roots, so they are
    ready in one slot with their ids among the duplicables' instance ids
    and share cohorts; a follower of a middle sibling is freed by a member
    inside its cohort."""
    ids = draw(st.lists(st.sampled_from(COHORT_IDS), unique=True, min_size=2, max_size=6))
    index = st.integers(0, len(ids) - 1)
    edges = {(ids[i], ids[j]) for i, j in draw(st.lists(st.tuples(index, index), max_size=len(ids))) if i < j}
    tasks = []
    for k, tid in enumerate(ids):
        n = draw(st.sampled_from([0, 2, 4]))
        writes = {"acc"} if draw(st.integers(0, 6)) == 0 else {f"o{k}[#]"}
        if draw(st.integers(0, 2)):
            tasks.append(duplicable(tid, draw(st.integers(1, 14)), n, {f"i{k}[#]"}, writes))
        else:
            tasks.append(singular(tid, n, {f"s{k}"}, writes))
    siblings = sorted(draw(st.lists(st.sampled_from(SIBLING_IDS), unique=True, max_size=5)))
    n = draw(st.sampled_from([0, 2, 4]))
    tasks += [singular(tid, n, {f"r{k}"}, {f"q{k}"}) for k, tid in enumerate(siblings)]
    if len(siblings) > 2 and draw(st.booleans()):
        tasks.append(singular("z", draw(st.sampled_from([0, 2, 4])), {"z"}, {"o[#]"}))
        edges.add((siblings[len(siblings) // 2], "z"))
    cfg = SimConfig(
        chip=ChipSpec(area=draw(st.sampled_from([7.3, 1e6])), work=1),
        m=draw(st.integers(1, 6)),
        mem_access_stride=draw(st.integers(1, 3)),
        prealloc_depth=draw(st.integers(0, 3)),
        comm_costs_enabled=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return TaskGraph(tasks, edges), cfg


def assert_matches_per_stall(g, cfg):
    """The traced run equals the per-stall and per-instance engines', events
    included, and keeps the trace invariants."""
    outcome = run_outcome(g, cfg, sim_module._Simulation)
    assert outcome == run_outcome(g, cfg, PerStallSimulation)
    assert outcome == run_outcome(g, cfg, PerInstanceSimulation)
    if succeeded(outcome):
        assert_trace_invariants(g, cfg, *outcome)


class TestPerStallReference:
    """Wait sets, cohorts and the sorted idle cores change the simulator's
    cost, not its reports: the per-stall engine must give the same traced
    report, and that report must keep the trace invariants."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(contention_cases())
    def test_contended_runs_match(self, case):
        assert_matches_per_stall(*case)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(sim_cases())
    def test_control_and_conditional_runs_match(self, case):
        assert_matches_per_stall(*case)


def trace_calls(g, cfg, traced):
    """A run's outcome and the (slot, kind) of each ``_trace`` call it made."""
    calls = []
    real_trace = sim_module._Simulation._trace

    def recording(self, slot, kind, tid, numbers, details):
        calls.append((slot, kind))
        return real_trace(self, slot, kind, tid, numbers, details)

    with mock.patch.object(sim_module._Simulation, "_trace", recording):
        return run_outcome(g, cfg, sim_module._Simulation, traced), calls


class TestUntracedRunsFormatNoDetail:
    """An untraced run never calls the tracer, so it builds no event and
    formats no detail: the cost of a trace falls on traced runs alone."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.one_of(sim_cases(), contention_cases(), cohort_cases()))
    def test_details_stay_templates(self, case):
        g, cfg = case
        untraced, calls = trace_calls(g, cfg, traced=False)
        assert calls == []
        traced, traced_calls = trace_calls(g, cfg, traced=True)
        if not succeeded(traced):
            assert untraced == traced
            return
        assert untraced[0] == traced[0]
        assert {kind for _, kind in traced_calls} == {e.kind for e in traced[1]}
        assert_matches_per_stall(g, cfg)


@st.composite
def mixed_footprint_cases(draw):
    """Chains and fork-joins whose tasks mix uncontended and contended variables.

    Stage k reads "s{k}[#]" and writes "s{k+1}[#]", which only its chain
    neighbours touch, and a duplicable stage's "v[#]" is its own per
    instance; these are uncontended while the chain edges hold.  "x" and
    "y", or "v[#]" named by a singular task, are shared with the stage's own
    instances, with the other stages once an edge is left out, or with a
    side task, and contend where one of the sharers writes.  An optional
    loader and join make the chain a fork-join.
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
    """Traced and untraced runs grant uncontended accesses by arithmetic;
    the per-stall engine takes every access through its event loop, and the
    per-instance engine runs no cohort.  All four must give the same report,
    or the same error."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(st.one_of(contention_cases(), sim_cases(), mixed_footprint_cases()))
    def test_reports_match(self, case):
        g, cfg = case
        untraced = run_outcome(g, cfg, sim_module._Simulation, traced=False)
        traced = run_outcome(g, cfg, sim_module._Simulation)
        if succeeded(traced):
            assert untraced == (traced[0], None)
        else:
            assert untraced == traced
        assert untraced == run_outcome(g, cfg, PerStallSimulation, traced=False)
        assert untraced == run_outcome(g, cfg, PerInstanceSimulation, traced=False)


def two_runs_in_one_slot():
    """At m = 4 with no queue, two cohorts end in slot 4: "t2" frees "t11"
    and "t9", and "t3" frees "t7", while older ready instances take every
    core.  The three wait as one run, and the cores freed in slot 6 must
    take "t7" between "t11" and "t9"."""
    tasks = [duplicable("t0", 2, 2), singular("t1", 4), singular("t2", 4), singular("t3", 2), singular("t4", 2),
             duplicable("t5", 3, 2), singular("t6", 2), singular("t7", 2), singular("t9", 2), singular("t11", 2)]
    g = TaskGraph(tasks, [("t2", "t11"), ("t2", "t9"), ("t3", "t7")])
    return g, SimConfig(chip=CHIP, m=4, prealloc_depth=0)


def queue_heads_out_of_order():
    """Roots of lengths 2 and 4 at m = 4 with queues of two: the cores of
    the cohorts that end in slot 10 hold queue heads out of (task, index)
    order, which start as one cohort in core order."""
    tasks = [duplicable("t0", 2, 4), duplicable("t1", 3, 2), duplicable("t2", 5, 4), duplicable("t3", 6, 4),
             singular("t7", 2), duplicable("t8", 8, 2)]
    return TaskGraph(tasks), SimConfig(chip=CHIP, m=4, prealloc_depth=2)


class TestCohortsMatchPerInstance:
    """Cohorts change the engine's cost, not its reports: on graphs built to
    join cohorts across tasks and end them with other entries of their slot,
    each run, traced or not, equals the per-instance engine's."""

    @settings(max_examples=1200, derandomize=True, database=None, deadline=None)
    @given(cohort_cases())
    @example(two_runs_in_one_slot())
    @example(queue_heads_out_of_order())
    def test_reports_match(self, case):
        g, cfg = case
        for traced in (True, False):
            assert run_outcome(g, cfg, sim_module._Simulation, traced) == run_outcome(
                g, cfg, PerInstanceSimulation, traced
            )


def fork_join(d):
    """A loader writes "x", d instances read it, and a reduce reads it last: CREW-clean."""
    return TaskGraph(
        [
            singular("load", 40, writes={"x"}),
            duplicable("read", d, 200, reads={"x"}, writes={"out[#]"}),
            singular("reduce", 50, reads={"x"}, writes={"result"}),
        ],
        [("load", "read"), ("read", "reduce")],
    )


class TestCohortCost:
    """On a CREW-clean graph the event loop's work grows with the authored
    tasks and the waves of instances, not with the instances."""

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_sibling_tasks_of_one_length_share_a_cohort(self, monkeypatch, depth):
        # A fork of N singular tasks with L = 3 distinct lengths, at m = N:
        # the root, one cohort per length and the join, whatever N.
        for n in (12, 300):
            siblings = [singular(f"s{k:03d}", 10 + k % 3, reads={"x"}, writes={f"o{k}"}) for k in range(n)]
            g = TaskGraph(
                [singular("root", 5, writes={"x"}), *siblings, singular("join", 5, reads={"x"})],
                [("root", s.id) for s in siblings] + [(s.id, "join") for s in siblings],
            )
            cfg = SimConfig(chip=CHIP, m=n, prealloc_depth=depth)
            _, pushed = TestPrivateAccesses.event_pushes(monkeypatch, g, cfg)
            assert len(pushed) == 3 + 2
            assert run(g, cfg) == run_outcome(g, cfg, PerInstanceSimulation, traced=False)[0]

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_heap_pushes_follow_tasks_and_waves(self, monkeypatch, depth):
        # d = 4m: the read instances run in 4 waves, whatever m.
        pushes = []
        for m in (64, 1024):
            g, cfg = fork_join(4 * m), SimConfig(chip=CHIP, m=m, prealloc_depth=depth)
            _, pushed = TestPrivateAccesses.event_pushes(monkeypatch, g, cfg)
            pushes.append(len(pushed))
            assert len(pushed) <= len(g) * 4
            assert len(pushed) == 1 + 4 + 1  # the loader, one cohort per wave, the reduce
            assert run(g, cfg) == run_outcome(g, cfg, PerInstanceSimulation, traced=False)[0]
        assert pushes[0] == pushes[1]

    def test_queue_heads_start_grouped_by_task(self, monkeypatch):
        # d = 4m at depth 1: every wave refills every queue, so the heads of
        # waves 2 to 4 start as one (task, indices) entry each, not one per
        # core.  With the loader, wave 1 and the reduce: 6 entries, whatever m.
        entries = []
        real_start = sim_module._Simulation._start

        def recording(sim, starts, cores, slot):
            entries.extend(tid for tid, _ in starts)
            return real_start(sim, starts, cores, slot)

        monkeypatch.setattr(sim_module._Simulation, "_start", recording)
        for m in (64, 1024):
            entries.clear()
            run(fork_join(4 * m), SimConfig(chip=CHIP, m=m, prealloc_depth=1))
            assert entries == ["load"] + ["read"] * 4 + ["reduce"]


class TestCountedWork:
    """Work counted, not timed: the line events a call makes in the package's
    own frames, which are the same on every call of one Python version.  Line
    counts differ across versions, so each gate is a ratio of two calls."""

    PACKAGE = os.path.dirname(sim_module.__file__) + os.sep

    @classmethod
    def counted(cls, call, *args):
        """``call(*args)``'s result and its line events in ``plural``'s frames, per function name."""
        lines, previous = Counter(), sys.gettrace()

        def enter(frame, event, arg):
            if not frame.f_code.co_filename.startswith(cls.PACKAGE):
                return None
            name = frame.f_code.co_name

            def local(frame, event, arg):
                lines[name] += event == "line"
                return local

            return local

        sys.settrace(enter)
        try:
            result = call(*args)
        finally:
            sys.settrace(previous)
        return result, lines

    @classmethod
    def lines(cls, g, cfg):
        """``run(g, cfg)``'s report and its line events in ``plural``'s frames."""
        report, lines = cls.counted(run, g, cfg)
        return report, lines.total()

    @staticmethod
    def writers(d, n, reads=()):
        """d instances of n instructions that each write "acc", and read ``reads``, at m = 64 and stride 1."""
        return TaskGraph([duplicable("w", d, n, reads, {"acc"})]), SimConfig(chip=CHIP, m=64, mem_access_stride=1, seed=1)

    def test_lines_per_contended_grant_are_flat_in_d(self):
        per_grant = []
        for d in (20, 80):
            report, lines = self.lines(*self.writers(d, 10))
            assert report.mem_access_count == 10 * d and report.mem_conflict_stalls > 0
            per_grant.append(lines / report.mem_access_count)
        assert max(per_grant) / min(per_grant) < 1.2

    def test_uncontended_accesses_cost_no_event(self):
        # Reads of "c0[#]" to "c6[#]" make 8 times the accesses with the
        # same 10 contended grants per instance; one event per access would
        # cost about 6 times the lines.
        base, base_lines = self.lines(*self.writers(80, 10))
        wide, wide_lines = self.lines(*self.writers(80, 80, {f"c{k}[#]" for k in range(7)}))
        assert wide.mem_access_count == 8 * base.mem_access_count
        assert wide_lines <= 1.5 * base_lines

    def test_stalls_add_no_lines(self):
        # The same 800 grants of "acc": alone at m = 1, none stalls; at
        # m = 64 the 80 writers stall tens of thousands of slots.
        g, cfg = self.writers(80, 10)
        alone, alone_lines = self.lines(g, cfg._replace(m=1))
        crowded, crowded_lines = self.lines(g, cfg)
        assert alone.mem_access_count == crowded.mem_access_count == 800
        assert alone.mem_conflict_stalls == 0 and crowded.mem_conflict_stalls > 10 * crowded.mem_access_count
        assert crowded_lines <= 1.2 * alone_lines

    def test_crew_on_a_clean_chain_of_updaters_is_linear(self):
        # N chained tasks that each read and write "acc" break no rule; each
        # owns a name that may meet, so each gets ordered-with bits, in O(N).
        lines = []
        for n in (100, 400):
            ids = [f"t{k:03d}" for k in range(n)]
            g = TaskGraph([singular(tid, reads={"acc"}, writes={"acc"}) for tid in ids], zip(ids, ids[1:]))
            violations, counts = self.counted(check_crew, g)
            assert violations == [] and counts["_ordered_bits"] > n
            lines.append(counts.total())
        assert lines[1] <= 4 * 1.2 * lines[0]

    def test_names_touched_once_cost_no_ordered_with_work(self):
        # A fan whose tasks each read and write names of their own has no
        # name that may meet: no task gets ordered-with bits, whatever N,
        # and the lines per task are flat in N.
        per_task, bits = [], set()
        for n in (100, 400):
            ids = [f"f{k:03d}" for k in range(n)]
            g = TaskGraph([singular("load"), *(singular(tid, reads={f"a{tid}"}, writes={f"b{tid}"}) for tid in ids)],
                          [("load", tid) for tid in ids])
            violations, counts = self.counted(check_crew, g)
            assert violations == [] and g._footprint.ordered == {}
            bits.add(counts["_ordered_bits"])
            per_task.append(counts.total() / n)
        assert len(bits) == 1
        assert max(per_task) / min(per_task) < 1.2


class TestStreamedTrace:
    """A run hands its events to the sink in trace order as it leaves their
    slots; it holds no other copy of its trace, and the sink changes no report."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.one_of(sim_cases(), contention_cases(), cohort_cases(), mixed_footprint_cases()))
    def test_streamed_events_match_the_oracle(self, case):
        g, cfg = case
        traced = run_outcome(g, cfg, sim_module._Simulation)
        assert traced == run_outcome(g, cfg, PerInstanceSimulation)
        untraced = run_outcome(g, cfg, sim_module._Simulation, traced=False)
        assert untraced == ((traced[0], None) if succeeded(traced) else traced)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_pending_events_are_of_unfinished_slots(self, monkeypatch, depth):
        # A CREW-clean fork-join of d = waves * m: the loader frees all d
        # instances in one slot, and each wave starts as one cohort, which
        # traces its m * 40 accesses ahead.  No event is made for a slot
        # the run has flushed, and on entering a slot only accesses are
        # held for later ones.  Past the d ready events of the freeing
        # slot, the run never holds more than one wave's events (per core,
        # an instance's accesses, start and complete, and up to two queue
        # events), whatever the number of waves.
        m, accesses = 8, 200 // 5
        real_trace, real_flush = sim_module._Simulation._trace, sim_module._Simulation._flush
        left, held = [0], []

        def trace(sim, slot, kind, tid, numbers, details):
            assert slot >= left[-1], "an event for a slot the run has left"
            real_trace(sim, slot, kind, tid, numbers, details)
            held.append(len(sim.pending))

        def flush(sim, before):
            assert all(rank == sim_module._RANK["access"] for slot, rank, *_ in sim.pending if slot >= before)
            real_flush(sim, before)
            left.append(before)

        monkeypatch.setattr(sim_module._Simulation, "_trace", trace)
        monkeypatch.setattr(sim_module._Simulation, "_flush", flush)
        peaks = []
        for waves in (4, 8):
            d = waves * m
            g, cfg = fork_join(d), SimConfig(chip=CHIP, m=m, prealloc_depth=depth)
            left[:], held[:] = [0], []
            report, events = traced_run(g, cfg)
            assert (report, events) == run_outcome(g, cfg, PerInstanceSimulation)
            peaks.append(max(held) - d)
            assert peaks[-1] <= m * (accesses + 4)
            assert max(held) < len(events) / 3
        assert peaks[0] == peaks[1]


class TestPrivateAccesses:
    """Accesses to uncontended variables, those that no CREW violation
    names, cost the event loop nothing."""

    @staticmethod
    def event_pushes(monkeypatch, g, cfg):
        """Run ``g`` untraced; return the simulation and its event-heap pushes."""
        sim = sim_module._Simulation(g, cfg, None)
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
            raise AssertionError("an uncontended access reached arbitration")

        monkeypatch.setattr(sim_module._Simulation, "_arbitrate", forbidden)
        sim, pushed = self.event_pushes(monkeypatch, g, cfg)
        # One completion per stage: a stage's d instances start in one slot
        # and end in one slot, a cohort.
        assert [(kind, key) for _, kind, key, _ in pushed] == [(sim_module._COMPLETE, (f"st{k}", 0)) for k in range(4)]
        report = sim.report(1.0)
        assert report.mem_access_count == d * sum(n // 5 for n in sizes)
        assert report.mem_conflict_stalls == 0

    def test_mixed_instance_pushes_its_shared_accesses(self, monkeypatch):
        # "m" alternates uncontended "p" and contended "x", which "c" writes.
        g = TaskGraph(
            [singular("m", 10, reads={"p", "x"}), singular("c", 7, writes={"x"})]
        )
        cfg = SimConfig(chip=CHIP, m=2, mem_access_stride=1, seed=3)
        sim, pushed = self.event_pushes(monkeypatch, g, cfg)
        kinds = Counter(kind for _, kind, key, _ in pushed if key == ("m", 0))
        assert kinds == {sim_module._ACCESS: 5, sim_module._COMPLETE: 1}
        report = sim.report(1.0)
        assert report.mem_access_count == 10 + 7
        traced, _ = traced_run(g, cfg)
        assert report.mem_conflict_stalls == traced.mem_conflict_stalls > 0

    # "work#0" reads "x[0]", which "other" writes and does not follow,
    # while "x[1]" to "x[3]" are uncontended; every instance writes "s".
    # So instance 0 and its siblings follow different access plans, and
    # "solo"'s only target is uncontended.
    PLANS = TaskGraph([
        duplicable("work", 4, 24, {"x[#]"}, {"out[#]", "s"}),
        singular("other", 12, writes={"x[0]"}),
        singular("solo", 9, reads={"p"}),
    ])

    def test_one_plan_per_private_positions(self):
        sim = sim_module._Simulation(self.PLANS, SimConfig(chip=CHIP, m=2), None)
        sim.execute()
        # "solo" can contend nowhere, so it runs as a cohort and needs no plan.
        assert sim.alone == {"work", "other"}

    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3, 7])
    def test_shared_plans_match_per_stall(self, m, stride):
        for seed in range(3):
            cfg = SimConfig(chip=CHIP, m=m, mem_access_stride=stride, seed=seed)
            assert_matches_per_stall(self.PLANS, cfg)


def expanded_outcome(g, cfg, traced):
    """``run_outcome`` of ``expand_duplicables(g)``, or the error that expanding raises.

    In the expanded graph every instance is a singular task, whose ties go
    by its id.  So each id there is a str that compares as the authored
    (task, number) it came from, and equals and hashes as the plain id:
    the expanded run breaks ties as ``run`` on ``g`` does."""
    try:
        expanded = expand_duplicables(g)
    except GraphStructureError as exc:
        return type(exc), str(exc)
    order = instance_order(g)

    class Authored(str):
        def __lt__(a, b):
            return order[a] < order[b]

        def __le__(a, b):
            return order[a] <= order[b]

        def __gt__(a, b):
            return order[a] > order[b]

        def __ge__(a, b):
            return order[a] >= order[b]

    ids = {tid: Authored(tid) for tid in expanded.tasks}
    ordered = TaskGraph([task._replace(id=ids[tid]) for tid, task in expanded.tasks.items()],
                        [(ids[p], ids[s]) for p, s in expanded.edges])
    outcomes = {ids[t]: ids[s] for t, s in cfg.conditional_outcomes.items()}
    return run_outcome(ordered, cfg._replace(conditional_outcomes=outcomes), sim_module._Simulation, traced)


def ready_order(events):
    return [(e.kind, e.task) for e in events if e.kind in ("ready", "control")]


def start_order(events):
    return [e.task for e in events if e.kind == "start"]


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
        for traced in (True, False):
            assert run_outcome(g, cfg, sim_module._Simulation, traced) == expanded_outcome(g, cfg, traced)

    @pytest.mark.parametrize("with_root", [True, False])
    def test_ties_go_by_task_then_index(self, with_root):
        # As id strings, "w!" sorts before "w#0", "w#05" between "w#0" and
        # "w#1", and "w#10" before "w#2".  Ties go by authored task id, then
        # by instance index: "w" < "w!" < "w#05", and w#0, w#1, ..., w#11.
        tasks = [duplicable("w", 12, 4, writes={"o[#]"}), singular("w!", 4), singular("w#05", 4)]
        edges = []
        if with_root:
            tasks.append(singular("p", 3))
            edges = [("p", "w"), ("p", "w!"), ("p", "w#05")]
        g = TaskGraph(tasks, edges)
        cfg = SimConfig(chip=CHIP, m=4)
        report, events = traced_run(g, cfg)
        ids = [f"w#{k}" for k in range(12)] + ["w!", "w#05"]
        # All 14 are ready in one slot and m = 4: dispatch goes by (task, index).
        assert start_order(events) == ["p"] * with_root + ids
        assert [e.task for e in events if e.kind == "ready"] == ["p"] * with_root + ids
        assert (report, events) == expanded_outcome(g, cfg, traced=True)

    def test_control_frees_what_the_walk_has_passed(self):
        # "x" frees "c" and "d"; the merge "c" resolves at once and frees "e"
        # and "f" in the same slot.  The two cores take "d" and "e" by id.
        g = TaskGraph(
            [singular("x", 3), control("c"), singular("d", 2), singular("e", 2), singular("f", 2)],
            [("x", "c"), ("x", "d"), ("x", "e"), ("c", "e"), ("c", "f")],
        )
        cfg = SimConfig(chip=CHIP, m=2)
        report, events = traced_run(g, cfg)
        freed = {e.time for e in events if e.task != "x" and e.kind in ("ready", "control")}
        assert freed == {3 * slot_dt(cfg)}
        assert start_order(events) == ["x", "d", "e", "f"]
        assert (report, events) == expanded_outcome(g, cfg, traced=True)

    def test_conditional_forwards_to_duplicable_by_index(self):
        # Like every other control task, a conditional lists the instances
        # it forwards to by (task, index): "w#2" before "w#10".
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
        report, events = traced_run(g, cfg)
        ids = [f"w#{k}" for k in range(12)]
        assert ready_order(events) == [("ready", "p"), ("control", "c"), *(("ready", iid) for iid in ids)]
        assert [e.detail for e in events if e.kind == "control"] == ["forwards=" + ",".join(ids)]
        assert start_order(events) == ["p"] + ids
        assert report.total_instructions == 3 + 12 * 4
        assert run(g, cfg) == report

    def test_conditional_frees_what_the_walk_has_passed(self):
        # "p" frees the conditional "w#05", which resolves at once and frees
        # all of "w" in "p"'s completion slot; they start by index.
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
        _, events = traced_run(g, cfg)
        numbered = [f"w#{k}" for k in range(12)]
        assert ready_order(events) == [
            ("ready", "p"), ("control", "w#05"), *(("ready", iid) for iid in numbered)
        ]
        assert {e.time for e in events if e.kind == "control"} == {3 * slot_dt(cfg)}
        assert start_order(events) == ["p"] + numbered

    def test_run_builds_no_expanded_graph(self, monkeypatch):
        def forbidden(g):
            raise AssertionError("run built the expanded graph")

        monkeypatch.setattr(graph_module, "expand_duplicables", forbidden)
        monkeypatch.setattr(sim_module, "expand_duplicables", forbidden)
        d, sizes = 32, [150, 211, 263, 300]
        g = stage_chain(d, sizes)
        cfg = SimConfig(chip=CHIP, m=32, seed=7)
        for report in (run(g, cfg), traced_run(g, cfg)[0]):
            assert report.total_instructions == d * sum(sizes)


class TestInstanceOrder:
    """Ready instances go by (task, index), so the engine carries index
    ranges: an id is spelled only for the trace and the CREW warnings."""

    def test_untraced_clean_run_spells_no_instance_ids(self, monkeypatch):
        real = graph_module._instance_ids

        def spelled(task, *numbers):
            if task.instances > 1:
                raise AssertionError(f"the instance ids of {task.id!r} were spelled")
            return real(task, *numbers)

        monkeypatch.setattr(graph_module, "_instance_ids", spelled)
        monkeypatch.setattr(sim_module, "_instance_ids", spelled)
        d, cfg = 4096, SimConfig(chip=CHIP, m=64)
        assert run(fork_join(d), cfg).total_instructions == 40 + d * 200 + 50
        # A trace names every instance.
        with pytest.raises(AssertionError, match="of 'read' were spelled"):
            traced_run(fork_join(d), cfg)
        # The CREW check of instances that all write "acc" names them too.
        with pytest.raises(AssertionError, match="of 'w' were spelled"):
            run(TaskGraph([duplicable("w", 8, 10, writes={"acc"})]), cfg)

    def test_one_core_starts_instances_by_index(self):
        # As id strings, "w#10" and "w#11" would go before "w#2".
        g = TaskGraph([duplicable("w", 12, 4, writes={"o[#]"})])
        _, events = traced_run(g, SimConfig(chip=CHIP, m=1))
        assert start_order(events) == [f"w#{k}" for k in range(12)]


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


def assert_crew_grants(tasks, events):
    """Each access targets its instance's footprint round-robin, sorted reads
    then sorted writes, and per variable per slot there is one write grant,
    or any number of read grants and no write.  ``tasks`` maps instance ids
    to their authored tasks."""
    granted = Counter()  # instance id -> its accesses so far
    per_slot = {}  # (time, variable) -> [read grants, write grants]
    for e in events:
        if e.kind == "access":
            reads, writes = instance_targets(tasks[e.task], e.task)
            targets = (*reads, *writes)
            position = granted[e.task] % len(targets)
            granted[e.task] += 1
            var = access_fields(e)[0]
            assert var == targets[position]
            per_slot.setdefault((e.time, var), [0, 0])[position >= len(reads)] += 1
    assert all(writes == 0 or (writes, reads) == (1, 0) for reads, writes in per_slot.values())


def assert_trace_invariants(g, cfg, report, events):
    """Check the North-star invariants against the trace of a traced run."""
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
    # The trace is in its documented total order, and a stall shows only as
    # an access's wait: one access event per grant, the waits summing to
    # the stall count.
    assert {e.kind for e in events} <= set(TRACE_KINDS)  # no "stall" kind
    order = instance_order(g)
    keys = [(e.time, TRACE_KINDS.index(e.kind), order[e.task]) for e in events]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    accesses = [(e.time, *access_fields(e)) for e in events if e.kind == "access"]
    assert len(accesses) == report.mem_access_count
    assert sum(waited for _, _, waited in accesses) == report.mem_conflict_stalls
    assert_crew_grants(tasks, events)
    # Work is conserved, and the ledger is consistent.
    assert report.total_instructions == sum(tasks[iid].instruction_count for iid in starts)
    assert math.isclose(report.avg_power * report.makespan, report.total_energy, rel_tol=1e-12)


class TestTraceInvariants:
    """The North-star invariants, read from the trace of the authored-graph
    engine."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.one_of(contention_cases(), sim_cases(), mixed_footprint_cases()))
    def test_invariants(self, case):
        g, cfg = case
        try:
            report, events = traced_run(g, cfg)
        except (DegenerateWorkloadError, GraphStructureError):
            return
        assert_trace_invariants(g, cfg, report, events)


def width(g):
    """Instances of the graph's core-executed tasks."""
    return sum(t.instances for t in g if t.kind is not TaskKind.CONTROL)


class TestRoomHeapMatchesLinearScan:
    """Pre-allocation takes the lowest cores with queue room from a sorted
    list; the per-stall engine's scan over every core must give the same
    traced report.
    m is drawn below the graph's width, so that every core gets busy and
    queues fill."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.one_of(sim_cases(), contention_cases()), st.integers(0, 3), st.data())
    def test_traced_reports_match(self, case, depth, data):
        g, cfg = case
        m = data.draw(st.integers(1, max(1, width(g) - 1)))
        assert_matches_per_stall(g, cfg._replace(m=m, prealloc_depth=depth))

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_deep_backlog(self, depth):
        # A loader, then d = 8m instances: the queues fill and drain many times.
        m = 16
        g = TaskGraph(
            [singular("load", 20, writes={"in[0]"}), duplicable("w", 8 * m, 20, {"in[#]"}, {"out[#]"})],
            {("load", "w")},
        )
        cfg = SimConfig(chip=CHIP, m=m, prealloc_depth=depth)
        outcome = run_outcome(g, cfg, sim_module._Simulation)
        assert outcome == run_outcome(g, cfg, PerStallSimulation)
        # Past the first m, every instance waits in a queue when there are any.
        queued = sum(e.kind == "queue" for e in outcome[1])
        assert queued == (7 * m if depth else 0)

    def test_queues_fill_from_a_duplicable_of_any_size(self):
        # One dispatch of d = 10**30 ready instances at m = 16 and depth 2
        # starts 16 and queues 2 on each core; the run itself takes d / m
        # waves (ROADMAP item 6), so only the first dispatch is driven here.
        g = TaskGraph([duplicable("w", 10**30, 4, writes={"v[#]"})])
        sim = sim_module._Simulation(g, SimConfig(chip=CHIP, m=16, prealloc_depth=2), None)
        sim._release(["w"], 0)
        sim._dispatch(0)
        assert [len(queue) for queue in sim.queues] == [2] * 16
        assert sim.n_ready == 10**30 - 16 * 3
        assert sim.room == []

    def test_huge_depth_acts_as_the_depth_of_the_instances(self):
        # A dispatch fills no more places than instances are ready, so a
        # depth of 2**62 costs what a depth of the instances costs.
        m = 4
        g = TaskGraph(
            [singular("load", 20, writes={"in[0]"}), duplicable("w", 8 * m, 20, {"in[#]"}, {"out[#]"})],
            {("load", "w")},
        )
        cfg = SimConfig(chip=CHIP, m=m, prealloc_depth=2**62)
        start = time.perf_counter()
        outcome = run_outcome(g, cfg, sim_module._Simulation)
        assert time.perf_counter() - start < 1.0
        assert outcome == run_outcome(g, cfg._replace(prealloc_depth=width(g)), sim_module._Simulation)
        assert outcome == run_outcome(g, cfg, PerInstanceSimulation)
        assert sum(e.kind == "queue" for e in outcome[1]) == 7 * m


class TestSeedIndependence:
    """The seed only picks conflict winners: it moves stalls and the
    makespan, never the work, the messages, the accesses or their energy."""

    FIXED = (
        "total_instructions", "mem_access_count", "sched_msg_count", "compute_energy",
        "sched_msg_energy_total", "mem_msg_energy_total",
    )

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.one_of(contention_cases(), sim_cases(), mixed_footprint_cases()),
        st.integers(0, 2**32 - 1),
    )
    def test_seed_leaves_counts_and_energy(self, case, seed):
        g, cfg = case
        try:
            first = run(g, cfg)
        except (DegenerateWorkloadError, GraphStructureError):
            return
        other = run(g, cfg._replace(seed=seed))
        for name in self.FIXED:
            assert getattr(other, name) == getattr(first, name), name


class TestCrewRule:
    """Only a variable that some CREW violation names can contend, so the
    CREW check decides both the warnings and the simulator's contention."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.one_of(contention_cases(), sim_cases(), mixed_footprint_cases()),
        st.integers(0, 2**32 - 1),
    )
    def test_crew_clean_runs_never_stall(self, case, seed):
        # With no violation, no access reaches arbitration, so the seed,
        # which only arbitration reads, changes nothing.
        g, cfg = case

        def forbidden(*args):
            raise AssertionError("a CREW-clean run reached arbitration")

        try:
            if check_crew(g):
                return
            with mock.patch.object(sim_module._Simulation, "_arbitrate", forbidden):
                report, events = traced_run(g, cfg)
                other = traced_run(g, cfg._replace(seed=seed))
        except (DegenerateWorkloadError, GraphStructureError):
            return
        assert report.mem_conflict_stalls == 0
        assert other == (report, events)

    def test_writers_of_one_name_list_no_violation(self, monkeypatch):
        # d writers of "acc" make d * (d - 1) / 2 violations; the run finds
        # "acc" contended from its first pair and lists none.
        def forbidden(*args):
            raise AssertionError("run built a CrewViolation")

        monkeypatch.setattr(graph_module, "CrewViolation", forbidden)
        g = TaskGraph([duplicable("w", 2000, 5, writes={"acc"})])
        report = run(g, SimConfig(chip=CHIP, m=64))
        assert g._contended == {"acc"}
        assert report.mem_access_count == 2000
        assert report.mem_conflict_stalls > 0

    def test_fork_join_gap_to_sqrt_m_is_idleness(self):
        # A loader writes "x", 4m instances read it, and a reduce reads it
        # last: CREW-clean, so no slot stalls.  Of the m * T core-slots, W
        # hold an instruction and the rest are idle, and with alpha = 1/2
        # speedup / sqrt(m) is exactly W / (m * T).
        m = 256
        g = TaskGraph(
            [
                singular("load", 40, writes={"x"}),
                duplicable("read", 4 * m, 200, reads={"x"}, writes={"out[#]"}),
                singular("reduce", 50, reads={"x"}, writes={"result"}),
            ],
            [("load", "read"), ("read", "reduce")],
        )
        cfg = SimConfig(chip=CHIP, m=m)
        report = run(g, cfg)
        assert check_crew(g) == []
        assert report.mem_conflict_stalls == 0
        w, t = report.total_instructions, round(report.makespan / slot_dt(cfg))
        assert math.isclose(report.empirical_speedup / math.sqrt(m), w / (m * t), rel_tol=1e-12, abs_tol=0)


class KeptSimulation(PerInstanceSimulation):
    """The per-instance engine, keeping its last instance so a test can read
    its integer slot counts."""

    last = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        KeptSimulation.last = self


def span_slots(g, cfg):
    """D: the slots of the longest precedence chain of executed tasks, a
    control task taking none and a duplicable its instances' length."""
    executed = executed_tasks(g, cfg)
    preds = {tid: [] for tid in executed}
    for pred, succ in g.edges:
        if succ in executed:
            preds[succ].append(pred)
    finish = {}

    def chain(tid):
        if tid not in finish:
            task = g.tasks[tid]
            own = 0 if task.kind is TaskKind.CONTROL else task.instruction_count
            finish[tid] = own + max((chain(p) for p in preds[tid]), default=0)
        return finish[tid]

    return max(chain(tid) for tid in executed)


class TestListSchedulingBounds:
    """In slots, with T the run's last slot, W its instructions, S its stalls
    and D the executed path's span: the cores' busy slots are exactly W + S,
    and D <= T.  With no stall and no pre-allocation queue the dispatcher is
    greedy (no core idles while an instance is ready), so list scheduling's
    bound T <= W/m + D holds (Graham, 1969; Brent, 1974)."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.one_of(sim_cases(), contention_cases(), mixed_footprint_cases()))
    def test_bounds(self, case):
        g, cfg = case
        for depth in {cfg.prealloc_depth, 0}:
            with mock.patch.object(sim_module, "_Simulation", KeptSimulation):
                try:
                    report = run(g, cfg._replace(prealloc_depth=depth))
                except (DegenerateWorkloadError, GraphStructureError):
                    return
            simulation = KeptSimulation.last
            # The cohort engine's report is the per-instance engine's.
            assert run(g, cfg._replace(prealloc_depth=depth)) == report
            t = simulation.last_boundary
            w, s = report.total_instructions, report.mem_conflict_stalls
            assert sum(core.busy_slots for core in simulation.cores) == w + s
            span = span_slots(g, cfg)
            assert span <= t
            if s == 0 and depth == 0:
                assert cfg.m * t <= w + cfg.m * span


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

    @pytest.mark.parametrize("cpi", [1, 1.7, 2])
    def test_energy_and_power_match_the_model_at_any_cpi(self, cpi):
        # A fork of d = 4m instances with no footprint keeps every core busy
        # to the end.  An instruction costs a core's power (A/m) * f over its
        # slot, cpi / f, as in the closed form.
        m, d, n = 4, 16, 100
        chip = ChipSpec(area=1e6, work=d * n, cpi=cpi)
        report = run(TaskGraph([duplicable("work", d, n)]), SimConfig(chip=chip, m=m))
        row = ensemble_metrics(chip, m)
        assert report.compute_energy == pytest.approx(row.energy, rel=1e-12, abs=0)
        assert report.avg_power == pytest.approx(row.power, rel=1e-12, abs=0)

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
                report, events = traced_run(g, cfg)
            except DegenerateWorkloadError:
                continue
            expanded = expand_duplicables(g)

            # every instance runs exactly once: at most one start and one
            # completion each, and everything started also completed
            start_counts = Counter(e.task for e in events if e.kind == "start")
            complete_counts = Counter(e.task for e in events if e.kind == "complete")
            assert max(start_counts.values(), default=0) <= 1
            assert max(complete_counts.values(), default=0) <= 1
            assert set(start_counts) == set(complete_counts)
            # work conservation over the executed instances
            completed = set(complete_counts)
            assert report.total_instructions == sum(
                expanded.tasks[t].instruction_count for t in completed
            )
            # precedence safety
            started = {e.task: e.time for e in events if e.kind == "start"}
            done = {e.task: e.time for e in events if e.kind == "complete"}
            for pred, succ in expanded.edges:
                if succ in started and pred in done:
                    assert started[succ] >= done[pred]
            # per variable per slot, one write grant or only read grants
            assert_crew_grants({iid: task for task in g for iid in instance_ids(task)}, events)
            # bounded utilization, consistent ledger
            assert all(0.0 <= u <= 1.0 + 1e-12 for u in report.utilization)
            assert math.isclose(
                report.avg_power * report.makespan, report.total_energy, rel_tol=1e-9
            )
            # determinism, and the per-instance oracle's order
            assert traced_run(g, cfg) == (report, events)
            assert run_outcome(g, cfg, PerInstanceSimulation) == (report, events)


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
        for bad in (0, True):
            with pytest.raises(ValidationError, match="m must"):
                SimConfig(chip=CHIP, m=bad)
            with pytest.raises(ValidationError, match="stride"):
                SimConfig(chip=CHIP, m=1, mem_access_stride=bad)
        for bad in (-1, True):
            with pytest.raises(ValidationError, match="prealloc"):
                SimConfig(chip=CHIP, m=1, prealloc_depth=bad)

    def test_static_power_refused(self):
        # The simulator charges no static power, so a chip that has it
        # would skew only the model side of compare_to_model.
        chip = CHIP._replace(static_power_enabled=True)
        with pytest.raises(ValidationError) as caught:
            SimConfig(chip=chip, m=4)
        assert str(caught.value) == (
            "the simulator charges no static power, so chip.static_power_enabled must be False"
        )

    def test_a_task_starts_at_most_its_instances(self):
        # The guard behind "every instance runs exactly once".
        sim = sim_module._Simulation(parallel_workload(2, 10), SimConfig(chip=CHIP, m=2), None)
        sim._start([("work", range(2))], [0, 1], 0)
        with pytest.raises(RuntimeError, match="started more than its 2 instances"):
            sim._start([("work", [1])], [1], 0)

    def test_seed_must_be_an_integer(self):
        # A seed of None would seed from the operating system, and runs of
        # one configuration would differ.
        for bad in (None, 1.5, "abc", True):
            with pytest.raises(ValidationError, match="seed must be an integer"):
                SimConfig(chip=CHIP, m=1, seed=bad)
        for good in (-1, 0, 10**400):
            assert SimConfig(chip=CHIP, m=1, seed=good).seed == good
