"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import contextlib
import io
import json
import math
import random
import time

from plural import (
    ChipSpec,
    CrewViolation,
    SimConfig,
    Task,
    TaskGraph,
    TaskKind,
    cli,
    ensemble_metrics,
    make_state,
    parallelize,
    run,
    shrink_work,
    stretch_time,
    sweep,
    validate_dag,
)
from plural.graph import READ_WRITE, WRITE_WRITE, check_crew
from plural.sim import report_as_dict

REL = 1e-12


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def run_cli(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    assert code == 0
    return out.getvalue()


def csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def singular(tid, n, reads=(), writes=()):
    return Task(id=tid, instruction_count=n, read_set=frozenset(reads), write_set=frozenset(writes))


def parallel_workload(d, n):
    return TaskGraph(
        [
            Task(
                id="work",
                kind=TaskKind.DUPLICABLE,
                instances=d,
                instruction_count=n,
                read_set=frozenset({"in[#]"}),
                write_set=frozenset({"out[#]"}),
            )
        ]
    )


def test_criterion_1_sweep_reproduction():
    with criterion(1, "core-count sweep ratios"):
        start = time.perf_counter()
        out = run_cli("sweep", "--area", "1e6", "--work", "1", "--m", "1:16384:x2")
        elapsed = time.perf_counter() - start
        rows = csv_rows(out)
        assert len(rows) == 15

        model = sweep(ChipSpec(area=1e6, work=1), [2**k for k in range(15)])
        for row, metrics in zip(rows, model):
            m = int(row["m"])
            assert m == metrics.m
            # the CLI adds no arithmetic: cells are the 12-digit rendering of
            # the model values
            for col in ("speedup", "energydown", "powerdown", "perf_per_power"):
                assert row[col] == format(getattr(metrics, col), ".12g")
            # and the model values meet the closed forms at 1e-12 relative
            assert math.isclose(metrics.speedup, math.sqrt(m), rel_tol=REL)
            assert math.isclose(metrics.energydown, m, rel_tol=REL)
            assert math.isclose(metrics.powerdown, math.sqrt(m), rel_tol=REL)
            assert math.isclose(metrics.perf_per_power, m / 1e6, rel_tol=REL)
        assert elapsed < 1.0


def test_criterion_2_comm_sweep_reproduction():
    with criterion(2, "communication power breakdown"):
        start = time.perf_counter()
        out = run_cli("comm-sweep", "--area", "1e6", "--m", "1:16384:x2")
        elapsed = time.perf_counter() - start
        rows = csv_rows(out)
        assert len(rows) == 15

        compute = [float(r["compute_power"]) for r in rows]
        sched = [float(r["sched_power"]) for r in rows]
        mem = [float(r["mem_power"]) for r in rows]
        assert all(b < a for a, b in zip(compute, compute[1:]))
        assert all(b > a for a, b in zip(sched, sched[1:]))
        assert all(b > a for a, b in zip(mem, mem[1:]))

        at_1024 = next(r for r in rows if r["m"] == "1024")
        assert float(at_1024["sched_power"]) == 3.2e7
        assert float(at_1024["mem_power"]) == 3.232e7

        ratio = [float(r["perf_per_total_power"]) for r in rows]
        assert ratio[14] / ratio[12] < 1.10  # m=16384 vs m=4096
        assert elapsed < 1.0


def test_criterion_3_et2_conservation():
    with criterion(3, "energy-time-squared conservation"):
        rng = random.Random(20260809)
        for _ in range(10_000):
            state = make_state(10 ** rng.uniform(-6, 6), 10 ** rng.uniform(-6, 6))
            factor = rng.uniform(1.0, 100.0)
            stretched = stretch_time(state, factor)
            assert abs(stretched.theta - state.theta) <= REL * state.theta
            fraction = rng.uniform(1e-3, 1.0)
            shrunk = shrink_work(state, fraction)
            assert shrunk.theta == fraction**3 * state.theta


def test_criterion_4_cross_model_consistency():
    with criterion(4, "trade-off calculus matches scaling model"):
        rng = random.Random(41)
        core_counts = [2**k for k in range(13)]  # 1 .. 4096
        for _ in range(100):
            spec = ChipSpec(
                area=10 ** rng.uniform(1, 9),
                work=10 ** rng.uniform(-1, 6),
                cpi=rng.uniform(0.25, 4.0),
            )
            base = ensemble_metrics(spec, 1)
            state = make_state(base.energy, base.compute_time)
            for m in core_counts:
                row = ensemble_metrics(spec, m)
                result = parallelize(state, m)
                assert math.isclose(result.ensemble_energy, row.energy, rel_tol=REL)
                assert math.isclose(result.ensemble_time, row.compute_time, rel_tol=REL)
                assert math.isclose(result.ensemble_power, row.power, rel_tol=REL)


def test_criterion_5_simulator_tracks_model():
    with criterion(5, "measured speedup and energy vs model"):
        start = time.perf_counter()
        # d = 4m instances of 1000 instructions, up to the paper's m = 16384;
        # the m = 1 reference runs each instance alone, 65536 at the top.
        for m in (1, 4, 16, 64, 256, 1024, 4096, 16384):
            d = 4 * m
            graph = parallel_workload(d, 1000)
            chip = ChipSpec(area=1e6, work=d * 1000)
            report = run(graph, SimConfig(chip=chip, m=m))
            reference = run(graph, SimConfig(chip=chip, m=1))

            root_m = math.sqrt(m)
            assert abs(report.empirical_speedup / root_m - 1.0) < 0.02
            energy_ratio = report.compute_energy / reference.compute_energy
            assert abs(energy_ratio * m - 1.0) < 0.02
            assert reference.compute_energy == chip.area * (d * 1000)
        assert time.perf_counter() - start < 10.0


def test_criterion_6_determinism():
    with criterion(6, "determinism and seed isolation"):
        graph = parallel_workload(8, 40)
        contended = TaskGraph(
            [singular("t1", 10, writes={"x"}), singular("t2", 6, writes={"x"})]
        )
        cfg = SimConfig(chip=ChipSpec(area=1e6, work=320), m=4, seed=99, comm_costs_enabled=True)
        assert json.dumps(report_as_dict(run(graph, cfg))) == json.dumps(
            report_as_dict(run(graph, cfg))
        )

        reports = [
            run(contended, SimConfig(chip=ChipSpec(area=1e6, work=16), m=2, seed=seed))
            for seed in range(8)
        ]
        first = reports[0]
        for other in reports[1:]:
            assert other.total_instructions == first.total_instructions
            assert other.mem_access_count == first.mem_access_count
            assert other.sched_msg_count == first.sched_msg_count
            assert other.compute_energy == first.compute_energy
        assert len({r.makespan for r in reports}) > 1  # seeds reorder the conflict


def test_criterion_7_crew_corpus():
    with criterion(7, "CREW validator corpus"):
        dup = lambda tid, d, **kw: Task(
            id=tid,
            kind=TaskKind.DUPLICABLE,
            instances=d,
            instruction_count=10,
            **{k: frozenset(v) for k, v in kw.items()},
        )

        # 1. concurrent write-write
        g = TaskGraph([singular("a", 5, writes={"x"}), singular("b", 5, writes={"x"})])
        assert check_crew(g) == [CrewViolation("a", "b", "x", WRITE_WRITE)]
        # 2. concurrent read-write
        g = TaskGraph([singular("a", 5, writes={"x"}), singular("b", 5, reads={"x"})])
        assert check_crew(g) == [CrewViolation("a", "b", "x", READ_WRITE)]
        # 3. concurrent read-read
        g = TaskGraph([singular("a", 5, reads={"x"}), singular("b", 5, reads={"x"})])
        assert check_crew(g) == []
        # 4. precedence-separated write then read
        g = TaskGraph(
            [singular("a", 5, writes={"x"}), singular("b", 5, reads={"x"})],
            [("a", "b")],
        )
        assert check_crew(g) == []
        # 5. duplicable self-conflict on a plain name
        g = TaskGraph([dup("w", 2, write_set={"acc"})])
        assert check_crew(g) == [CrewViolation("w#0", "w#1", "acc", WRITE_WRITE)]
        # 6. indexed-disjoint duplicable
        g = TaskGraph([dup("w", 3, read_set={"src"}, write_set={"dst[#]"})])
        assert check_crew(g) == []
        # 7. diamond: middle tasks concurrent but disjoint
        g = TaskGraph(
            [
                singular("a", 5, writes={"seed"}),
                singular("b", 5, reads={"seed"}, writes={"left"}),
                singular("c", 5, reads={"seed"}, writes={"right"}),
                singular("d", 5, reads={"left", "right"}),
            ],
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        )
        assert check_crew(g) == []
        # 8. chain sharing one variable throughout
        g = TaskGraph(
            [singular("a", 5, writes={"x"}), singular("b", 5, reads={"x"}, writes={"x"}), singular("c", 5, reads={"x"})],
            [("a", "b"), ("b", "c")],
        )
        assert check_crew(g) == []
        # 9. empty graph
        assert check_crew(TaskGraph([])) == []
        # 10. cycle rejected with a witness
        g = TaskGraph(
            [singular("a", 5), singular("b", 5)], [("a", "b"), ("b", "a")]
        )
        assert validate_dag(g) == ["a", "b", "a"]


def test_criterion_8_ledger_exactness():
    with criterion(8, "communication energy ledger"):
        g = TaskGraph(
            [
                singular("t1", 10, writes={"x"}),
                singular("t2", 7, reads={"x"}),
                singular("t3", 3, reads={"x"}),
            ],
            [("t1", "t2"), ("t2", "t3")],
        )
        cfg = SimConfig(chip=ChipSpec(area=1e6, work=20), m=2, comm_costs_enabled=True)
        report = run(g, cfg)
        # hand counts: 3 executed instances, accesses 2 + 1 + 0
        assert report.sched_msg_count == 2 * 3
        assert report.mem_access_count == 3
        assert report.sched_msg_energy_total == 2 * 3 * math.sqrt(1e6)
        assert report.mem_msg_energy_total == 3 * (math.sqrt(1e6) + math.log2(2))
        # the same graph under a different seed keeps the ledger bit-identical
        again = run(g, cfg._replace(seed=7))
        assert again.sched_msg_energy_total == report.sched_msg_energy_total
        assert again.mem_msg_energy_total == report.mem_msg_energy_total
