"""Tests of the benchmark's own output checks and tracing.

Run from the root of a checkout: ``python3 -m pytest benchmarks/test_checks.py``.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from plural import cli  # noqa: E402


def _op(case, tmp_path, tracer=None):
    [calls] = run._write_inputs([case], tmp_path)
    if tracer is None:
        return run._run_op(cli, calls)
    with tracer.installed(0):
        return run._run_op(cli, calls)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generated_inputs_pass_their_checks(workload, tmp_path):
    case = workloads.make_cases(workload, seed=7, count=1)[0]
    assert run._check_op(case, _op(case, tmp_path)) == []


def test_instance_counted_twice_fails_the_check(tmp_path):
    case = workloads.make_cases("stage-chain", seed=7, count=1)[0]
    [(code, out, err)] = _op(case, tmp_path)
    report = json.loads(out)
    assert checks.check_report(report, case.expected) == []

    # One stage instance executed a second time: its instructions, accesses
    # and two scheduler messages appear twice, with a self-consistent ledger.
    n = case.graph["tasks"][3]["instructions"]
    tampered = dict(report)
    tampered["total_instructions"] += n
    tampered["mem_access_count"] += n // workloads.STRIDE
    tampered["sched_msg_count"] += 2
    m, area = report["m"], workloads.AREA
    tampered["compute_energy"] = tampered["total_instructions"] * area / m
    tampered["sched_msg_energy_total"] = tampered["sched_msg_count"] * area**0.5
    tampered["mem_msg_energy_total"] = tampered["mem_access_count"] * (area**0.5 + math.log2(m))
    total = sum(tampered[k] for k in ("compute_energy", "sched_msg_energy_total", "mem_msg_energy_total"))
    tampered["avg_power"] = total / tampered["makespan"]
    problems = checks.check_report(tampered, case.expected)
    assert any(p.startswith("total_instructions") for p in problems)
    assert any(p.startswith("sched_msg_count") for p in problems)


def test_missing_crew_warning_fails_the_check(tmp_path):
    case = workloads.make_cases("wide-short", seed=7, count=1)[0]
    [(code, out, err)] = _op(case, tmp_path)
    assert checks.check_simulate(code, out, err, case.expected) == []
    dropped = "".join(err.splitlines(keepends=True)[1:])
    assert checks.check_simulate(code, out, dropped, case.expected) != []


def test_changed_sweep_csv_fails_the_check(tmp_path):
    case = workloads.make_cases("model-sweep", seed=7, count=1)[0]
    results = _op(case, tmp_path)
    code, out, err = results[0]
    assert checks.check_sweep("sweep", code, out, err) == []
    header, first, *rest = out.splitlines(keepends=True)
    changed = header + first.replace(",1,1,1,1,1,", ",1.0000001,1,1,1,1,", 1) + "".join(rest)
    assert any("speedup" in p for p in checks.check_sweep("sweep", code, changed, err))


def test_traced_ops_cover_every_layer_and_keep_stdout(tmp_path):
    tracer = tracing.Tracer()
    names = set()
    for workload in ("stage-chain", "model-sweep"):
        case = workloads.make_cases(workload, seed=7, count=1)[0]
        plain = _op(case, tmp_path)
        traced = _op(case, tmp_path, tracer)
        assert [out for _, out, _ in traced] == [out for _, out, _ in plain]
        names |= {span[0] for span in tracer.spans}
    wrapped = {f"{module.split('.')[-1]}.{attr}" for module, attr in tracing.WRAPPED}
    assert names == wrapped | {tracing.OP}
    assert cli.check_crew.__module__ == "plural.graph"  # originals are back


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        (tracing.OP, 0.0, 10.0, -1, 0),
        ("sim.run", 1.0, 9.0, 0, 0),
        ("sim.validate_dag", 2.0, 3.0, 1, 0),
    ]
    layers = tracer.self_times()[0]
    assert layers == {"cli.self_s": 2.0, "sim.run_s": 7.0, "graph.validate_dag_s": 1.0}
