"""Benchmark of the ``plural`` CLI: end-to-end op times and per-layer spans.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

One run is one process and one closed-loop client: each op is an in-process
call of ``plural.cli.main(argv)`` with stdout and stderr captured, and the
next op starts when the previous one has returned.  Every op's output is
checked (``checks.py``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates traced and untraced ops of the same inputs and
reports the per-layer metrics (``tracing.py``).  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process, untraced and
traced, and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # graph files while a run lasts, span dumps and summaries

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CASES = 32  # inputs per run, drawn from the seed and used round-robin
WARMUP = 2  # untimed ops before the timed loop
MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
MAX_RUN = 2  # x --seconds: no op starts later, even short of MIN_OPS on a slow host
ROUND_S = 0.1  # seconds of ops between two calibration loops
# Op and set-up times are scaled by CALIB_REF_S / (the calibration loop's time
# around them): seconds at the speed at which the loop takes CALIB_REF_S,
# about the median on the 2-vCPU host where the benchmark was defined.  The
# host's speed swings by up to 3x within seconds; the scaled times do not.
CALIB_REF_S = 0.0125
SETUP_PROBES = 12  # fresh-interpreter imports per run, spread over the run

END_TO_END = {"op_s_p50": "s", "op_s_p90": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "graph.check_crew_s": "s",
    "graph.concurrent_pairs_s": "s",
    "graph.concurrent_pairs": "count",
    "graph.crew_violations": "count",
    "graph.expand_s": "s",
    "graph.validate_dag_s": "s",
    "graph.expanded_tasks": "count",
    "graph.expanded_edges": "count",
    "sim.run_s": "s",
    "sim.us_per_event": "us",
    "sim.grant_ratio": "ratio",
    "sim.instances": "count",
    "sim.accesses": "count",
    "sim.stalls": "count",
    "sim.sched_msgs": "count",
    "sim.report_s": "s",
    "sim.compare_s": "s",
    "graphio.load_s": "s",
    "graphio.bytes": "bytes",
    "scaling.sweep_s": "s",
    "comm.comm_metrics_s": "s",
    "cli.self_s": "s",
    "sim.speedup_dev": "ratio",
    "host.calib_s": "s",
    "trace.overhead_ratio": "ratio",
}
# The child times the import, then runs the calibration loop on the same CPU
# (after the import, so the loop's own imports do not shorten it).
SETUP_CODE = (
    "import time; t = time.perf_counter(); import plural, plural.cli; "
    "t = time.perf_counter() - t; import run; print(t, run._calibrate())"
)


def _calibrate() -> float:
    """Seconds of a fixed pure-Python mix of heap, dict, string and JSON work.

    Its time shows how fast the host runs the simulator's kind of code now;
    it does not depend on plural.
    """
    start = perf_counter()
    rng = random.Random(1)
    heap: list[tuple[int, int, str]] = []
    counts: dict[str, int] = {}
    for i in range(4000):
        key = f"v{i % 211}"
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (rng.randrange(1000), i, key))
    while heap:
        heapq.heappop(heap)
    sorted(counts.items(), key=lambda kv: kv[1])
    json.dumps([i / 7 for i in range(1500)], indent=2)
    return perf_counter() - start


def _setup_probe() -> float:
    """Seconds a fresh interpreter takes to import plural and plural.cli, normalized."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)])},
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, calib = map(float, done.stdout.split())
    return seconds * CALIB_REF_S / calib


def _run_op(cli, calls) -> list[tuple[int, str, str]]:
    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def _write_inputs(cases, directory) -> list[list[list[str]]]:
    """Write each case's graph file into ``directory``; return each op's argv lists."""
    calls = []
    for index, case in enumerate(cases):
        path = os.path.join(directory, f"graph{index}.json")
        if case.graph is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(case.graph, fh)
        calls.append([[arg.replace("{graph}", path) for arg in argv] for argv in case.calls])
    return calls


def _check_op(case, results) -> list[str]:
    problems = []
    for argv, (code, out, err) in zip(case.calls, results):
        if case.expected is None:
            problems += checks.check_sweep(argv[0], code, out, err)
        else:
            problems += checks.check_simulate(code, out, err, case.expected)
    return problems


class _Run:
    """The ops of one workload run, their checks and their timings."""

    def __init__(self, cli, cases, calls):
        self.cli, self.cases, self.calls = cli, cases, calls
        self.attempted = self.failed = 0
        self.reference: dict[int, str] = {}  # case index -> stdout digest of its first op
        self.speedup_dev: dict[int, float] = {}  # case index -> model_check.speedup_deviation

    def op(self, index: int, tracer=None, op_id: int = -1):
        """Run and check one op on input ``index``; return its host seconds."""
        gc.collect()
        start = perf_counter()
        if tracer is None:
            results = _run_op(self.cli, self.calls[index])
        else:
            with tracer.installed(op_id):
                results = _run_op(self.cli, self.calls[index])
        elapsed = perf_counter() - start
        problems = _check_op(self.cases[index], results)
        digest = checks.digest("\0".join(out for _, out, _ in results))
        if index not in self.reference and self.cases[index].expected is not None and not problems:
            report = json.loads(results[0][1])
            self.speedup_dev[index] = report["model_check"]["speedup_deviation"]
        if self.reference.setdefault(index, digest) != digest:
            problems.append("stdout differs from the first op on this input")
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"op {self.attempted} failed: " + "; ".join(problems[:3]), file=sys.stderr)
        return elapsed


def _per_layer(tracer, traced_ops, scales, cases) -> dict[str, float]:
    """Median per traced op of every per-layer metric that spans give."""
    self_times = tracer.self_times()
    per_op = []
    for op_id, index in traced_ops:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update((name, t * scales[op_id]) for name, t in self_times[op_id].items())
        values.update(tracer.counts[op_id])
        expected = cases[index].expected
        if expected is not None:
            granted, stalls = values["sim.accesses"], values["sim.stalls"]
            values["sim.instances"] = expected.instances
            values["sim.us_per_event"] = 1e6 * values["sim.run_s"] / (expected.instances + granted + stalls)
            values["sim.grant_ratio"] = granted / (granted + stalls)
        per_op.append(values)
    return {name: statistics.median(v[name] for v in per_op) for name in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from plural import cli

    cases = workloads.make_cases(workload, seed, CASES)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        run = _Run(cli, cases, _write_inputs(cases, tmp))
        for index in range(WARMUP):
            run.op(index)
        gc.collect()
        gc.freeze()

        tracer = tracing.Tracer() if trace else None
        samples: list[float] = []  # untraced op seconds, normalized
        traced: list[float] = []  # traced op seconds, normalized
        traced_ops: list[tuple[int, int]] = []  # (op id, case index)
        scales: dict[int, float] = {}  # op id -> normalization factor of its round
        setup: list[float] = []
        calib = [_calibrate()]
        start = perf_counter()
        i = 0
        def more() -> bool:
            now = perf_counter()
            enough = now >= start + seconds and len(samples) + len(traced) >= MIN_OPS
            return not enough and now < start + MAX_RUN * seconds

        while more():
            # One round: ops for ROUND_S seconds, then a calibration loop; the
            # loops before and after the round scale its ops.
            round_start = perf_counter()
            timed: list[tuple[float, int | None]] = []  # (host seconds, op id if traced)
            while perf_counter() < round_start + ROUND_S:
                if trace:
                    # Even ops untraced, odd ops traced, each pair on the same input.
                    index = (i // 2) % len(cases)
                    if i % 2:
                        timed.append((run.op(index, tracer, i), i))
                        traced_ops.append((i, index))
                    else:
                        timed.append((run.op(index), None))
                else:
                    timed.append((run.op(i % len(cases)), None))
                i += 1
            calib.append(_calibrate())
            scale = CALIB_REF_S / statistics.fmean(calib[-2:])
            for elapsed, op_id in timed:
                if op_id is None:
                    samples.append(elapsed * scale)
                else:
                    traced.append(elapsed * scale)
                    scales[op_id] = scale
            if not trace and len(setup) < SETUP_PROBES * (perf_counter() - start) / seconds:
                setup.append(_setup_probe())
        while not trace and len(setup) < SETUP_PROBES:
            setup.append(_setup_probe())

    if trace:
        metrics = _per_layer(tracer, traced_ops, scales, cases)
        devs = run.speedup_dev.values()
        metrics["sim.speedup_dev"] = statistics.fmean(devs) if devs else 0.0
        metrics["host.calib_s"] = statistics.median(calib)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(samples)
        tracer.dump(WORK / f"spans-{workload}-seed{seed}.jsonl")
        units = PER_LAYER
    else:
        metrics = {
            "op_s_p50": statistics.median(samples),
            "op_s_p90": statistics.quantiles(samples, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"ops {len(samples) + len(traced)} timed ({len(traced)} traced), {run.attempted} attempted")
    print(f"fail_ratio {run.failed / run.attempted:.6g}")
    print(f"calibration loop {statistics.median(calib):.6g} s median, "
          f"{min(calib):.6g} to {max(calib):.6g} s over {len(calib)} loops")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


# The layer predicted, when the workloads were chosen, to take the largest
# share of op time (README.md, "Held-out seed").
PREDICTED_LARGEST = {"wide-short": "cli.check_crew", "shared-read": "sim.run", "stage-chain": "sim.run"}
SWEEP_LAYERS = {"scaling.sweep", "scaling.ensemble_metrics", "comm.comm_metrics", "cli.self"}


def _predictions(workload: str, shares: dict[str, float]) -> tuple[str, bool]:
    if workload in PREDICTED_LARGEST:
        claim = f"{PREDICTED_LARGEST[workload]} is the largest span"
        return claim, max(shares, key=shares.get) == PREDICTED_LARGEST[workload]
    claim = "scaling + comm + cli make up the op"
    return claim, set(shares) <= SWEEP_LAYERS


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced; print every metric."""
    summary, ok = {}, True
    for workload in workloads.GENERATORS:
        entry = summary[workload] = {}
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{workload} --trace {trace}: exit code {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            entry[f"trace{trace}"] = result
            ok = ok and result["correct"]
            print(f"{workload} fail_ratio {result['failed'] / result['attempted']:.6g} "
                  f"({result['failed']}/{result['attempted']}, trace {trace})")
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
        if "trace1" not in entry:
            continue
        shares = tracing.load(WORK / f"spans-{workload}-seed{seed}.jsonl").top_level_shares()
        claim, holds = _predictions(workload, shares)
        entry["shares"], entry["prediction"] = shares, {"claim": claim, "holds": holds}
        print(f"{workload} shares " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        print(f"{workload} prediction: {claim}: {'holds' if holds else 'WRONG'}")
    path = WORK / f"summary-seed{seed}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"summary written to {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "plural" / "cli.py").is_file():
        print(f"error: no plural sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
