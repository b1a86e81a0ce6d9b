"""Output checks for every benchmark op.

A check returns a list of problems; an empty list means the op's output is
correct.  ``simulate`` reports are compared with values the workload
generator computed from its own graph; the sweeps are compared with the
closed forms and with the digest of their default CSV, which is the
byte-identical output contract.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

from workloads import AREA, Expected

CREW_WARNING = "WARNING: CREW violation: "

# sha256 of the default `plural sweep` / `plural comm-sweep` stdout.
SWEEP_DIGESTS = {
    "sweep": "47d11295a269cf3a39adaa93f215e8a954982890c44238e46487360b2dd9d4a8",
    "comm-sweep": "be3c3a2cd81970d9d5e9129ad0b71875c6fc7e20e656b9bbe5c02dc9861a2af4",
}
SWEEP_M = [2**k for k in range(15)]
# CSV values carry 12 significant digits, so rounding alone is up to 5e-12 relative.
CSV_REL = 1e-11
ENERGY_REL = 1e-9
MODEL_REL = 1e-12


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(report: dict, exp: Expected) -> list[str]:
    """Compare one ``simulate --comm-costs --check-model`` report with the generator."""
    problems = []

    def want(name, got, expected):
        if got != expected:
            problems.append(f"{name} = {got!r}, expected {expected!r}")

    m = exp.m
    want("m", report["m"], m)
    want("total_instructions", report["total_instructions"], exp.instructions)
    want("mem_access_count", report["mem_access_count"], exp.accesses)
    want("sched_msg_count", report["sched_msg_count"], 2 * exp.instances)
    want("len(per_core_busy_time)", len(report["per_core_busy_time"]), m)

    ledger = {
        "compute_energy": report["total_instructions"] * AREA / m,
        "sched_msg_energy_total": report["sched_msg_count"] * math.sqrt(AREA),
        "mem_msg_energy_total": report["mem_access_count"] * (math.sqrt(AREA) + math.log2(m)),
    }
    for name, value in ledger.items():
        if not _close(report[name], value, ENERGY_REL):
            problems.append(f"{name} = {report[name]!r}, ledger gives {value!r}")
    total_energy = sum(report[name] for name in ledger)
    if not _close(report["avg_power"] * report["makespan"], total_energy, ENERGY_REL):
        problems.append("avg_power * makespan != total energy")

    slot = 1.0 / math.sqrt(AREA / m)
    bound = exp.critical_path * slot
    if report["makespan"] < bound * (1 - 1e-12):
        problems.append(f"makespan {report['makespan']!r} below critical-path bound {bound!r}")

    model = report.get("model_check")
    if model is None:
        problems.append("model_check missing")
    else:
        if not _close(model["speedup_model"], math.sqrt(m), MODEL_REL):
            problems.append(f"speedup_model = {model['speedup_model']!r}, expected sqrt({m})")
        if not _close(model["energydown_model"], m, MODEL_REL):
            problems.append(f"energydown_model = {model['energydown_model']!r}, expected {m}")
    return problems


def check_simulate(code: int, out: str, err: str, exp: Expected) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {err.strip()[:200]}"]
    lines = err.splitlines()
    warnings = sum(line.startswith(CREW_WARNING) for line in lines)
    problems = []
    if warnings != exp.crew_warnings:
        problems.append(f"{warnings} CREW warning lines, expected {exp.crew_warnings}")
    if warnings != len(lines):
        problems.append(f"unexpected stderr: {err.strip()[:200]}")
    try:
        report = json.loads(out)
    except ValueError as exc:
        return problems + [f"stdout is not JSON: {exc}"]
    return problems + check_report(report, exp)


def check_sweep(command: str, code: int, out: str, err: str) -> list[str]:
    if code != 0 or err:
        return [f"{command}: exit code {code}, stderr {err.strip()[:200]!r}"]
    problems = []
    if digest(out) != SWEEP_DIGESTS[command]:
        problems.append(f"{command}: CSV differs from the stored default output")
    rows = list(csv.DictReader(io.StringIO(out)))
    if [int(r["m"]) for r in rows] != SWEEP_M:
        return problems + [f"{command}: rows are not m = 1..16384 in powers of two"]
    for r in rows:
        m = int(r["m"])
        for col, value in (("speedup", math.sqrt(m)), ("energydown", m), ("powerdown", math.sqrt(m))):
            if not _close(float(r[col]), value, CSV_REL):
                problems.append(f"{command}: {col} at m={m} is {r[col]}, expected {value!r}")
    return problems
