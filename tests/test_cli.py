"""Tests for the command-line front end."""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_sim import TRACE_KINDS, contention_cases, sim_cases

import plural
import plural.graph as graph_module
from plural import DegenerateWorkloadError, GraphStructureError, cli, comm, graphio, scaling, sim

DEMO_GRAPH = {
    "tasks": [
        {"id": "work", "kind": "duplicable", "d": 64, "instructions": 1000,
         "reads": ["in[#]"], "writes": ["out[#]"]},
    ],
    "edges": [],
}

# A conditional control task choosing between two singular tasks; a run
# needs --outcome pick=left or pick=right.
CONDITIONAL_GRAPH = {
    "tasks": [
        {"id": "start", "kind": "singular", "instructions": 5},
        {"id": "pick", "kind": "control", "control_kind": "conditional"},
        {"id": "left", "kind": "singular", "instructions": 10},
        {"id": "right", "kind": "singular", "instructions": 20},
    ],
    "edges": [["start", "pick"], ["pick", "left"], ["pick", "right"]],
}


# The output contract, spelled out: the column lists in cli.py are derived
# from the records' fields, so comparing against them would compare a value
# with itself.
SWEEP_HEADER = [
    "m", "core_area", "core_freq", "single_freq", "core_perf", "ensemble_perf",
    "compute_time", "single_time", "power", "single_power", "energy",
    "single_energy", "speedup", "energydown", "powerdown", "es", "es2",
    "perf_per_power",
]
COMM_HEADER = SWEEP_HEADER + [
    "sched_msg_energy", "sched_power", "mem_access_energy", "mem_power",
    "compute_power", "total_power", "perf_per_total_power",
]
REPORT_KEYS = [
    "m", "makespan", "total_instructions", "compute_energy",
    "sched_msg_energy_total", "mem_msg_energy_total", "avg_power",
    "per_core_busy_time", "utilization", "sched_msg_count", "mem_access_count",
    "mem_conflict_stalls", "empirical_speedup",
]
REPORT_CSV_HEADER = [
    key for key in REPORT_KEYS if key not in ("per_core_busy_time", "utilization")
] + ["mean_utilization"]
# sha256 of the default `plural sweep` and `plural comm-sweep` stdout.
DEFAULT_SWEEP_DIGESTS = {
    "sweep": "47d11295a269cf3a39adaa93f215e8a954982890c44238e46487360b2dd9d4a8",
    "comm-sweep": "be3c3a2cd81970d9d5e9129ad0b71875c6fc7e20e656b9bbe5c02dc9861a2af4",
}

# A loader, 300 instances reading "x" together, a merge and a reduce; at
# m = 16384 the printed report is dominated by its two m-long float lists.
WIDE_GRAPH = {
    "tasks": [
        {"id": "load", "kind": "singular", "instructions": 40, "writes": ["x"]},
        {"id": "work", "kind": "duplicable", "d": 300, "instructions": 200,
         "reads": ["x", "in[#]"], "writes": ["out[#]"]},
        {"id": "join", "kind": "control", "control_kind": "merge"},
        {"id": "reduce", "kind": "singular", "instructions": 50,
         "reads": ["out[0]"], "writes": ["y"]},
    ],
    "edges": [["load", "work"], ["work", "join"], ["join", "reduce"]],
}
# The shape of the benchmark's wide-short workload, with fixed instruction
# counts: a loader, then a 150-instance scatter, 150 singular tasks and a
# 16-instance tally whose instances all write "acc" (120 CREW warnings and
# some conflict stalls), then a merge and a reduce.
_SINGLES = [f"w{k:03d}" for k in range(150)]
WIDE_SHORT_GRAPH = {
    "tasks": [
        {"id": "load", "kind": "singular", "instructions": 40, "reads": ["cfg"], "writes": ["raw"]},
        {"id": "scatter", "kind": "duplicable", "d": 150, "instructions": 20,
         "reads": ["in[#]"], "writes": ["out[#]"]},
        *({"id": tid, "kind": "singular", "instructions": 10 + k % 21, "reads": [f"a{k}"], "writes": [f"b{k}"]}
          for k, tid in enumerate(_SINGLES)),
        {"id": "tally", "kind": "duplicable", "d": 16, "instructions": 25, "reads": ["t[#]"], "writes": ["acc"]},
        {"id": "merge", "kind": "control", "control_kind": "merge"},
        {"id": "reduce", "kind": "singular", "instructions": 50, "reads": ["acc"], "writes": ["result"]},
    ],
    "edges": [["load", p] for p in ["scatter", *_SINGLES, "tally"]]
    + [[p, "merge"] for p in ["scatter", *_SINGLES, "tally"]] + [["merge", "reduce"]],
}
# sha256 of the stdout and the stderr of `plural simulate WIDE_SHORT_GRAPH
# --m 16384 --comm-costs --check-model --seed 7`.  Since 0.7.0 the warnings
# go by (task, index), "tally#2" before "tally#10"; the report is unchanged.
WIDE_SHORT_DIGESTS = {
    "stdout": "f4c9e55fb02510edc71ea56613ba1f7a2c203b7642aed77476525462176f4cf3",
    "stderr": "2a3cac1e007d6dd3c8674eb78e3ad06b7c495f2532e7d5dcc7cf52292e3a5d13",
}
# sha256 of `plural simulate WIDE_GRAPH --m 16384` stdout, as printed by
# `json.dumps(doc, indent=2)`, since 0.5.0 granted the readers of "x" together.
WIDE_SIMULATE_DIGESTS = {
    "plain": "0d5328dce28a2bcc115d6ce303d03f18bd4c2e93ab678d00d6632d7e4924552a",
    "check-model": "a5cabb3d6cbe8542d0fd68f18fcad89fb05a5bd8073872969502e3c1fcbb6109",
}


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def call_main(argv):
    """``main``'s exit code, stdout and stderr, for tests that cannot use capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def simulate_argv(path, cfg):
    """The ``plural simulate`` argv that runs ``cfg`` on the graph file ``path``."""
    chip = cfg.chip
    argv = ["simulate", str(path), f"--area={chip.area!r}", f"--alpha={chip.pollack_exponent!r}",
            f"--cpi={chip.cpi!r}", "--m", str(cfg.m), "--stride", str(cfg.mem_access_stride),
            "--prealloc-depth", str(cfg.prealloc_depth), "--seed", str(cfg.seed)]
    if cfg.comm_costs_enabled:
        argv.append("--comm-costs")
    for task, chosen in cfg.conditional_outcomes.items():
        argv += ["--outcome", f"{task}={chosen}"]
    return argv


def csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def padded(doc):
    """``doc`` with each per-core tuple listed to ``doc["m"]`` entries, the
    cores never used as 0.0: the printed report's shape."""
    return {
        key: list(value) + [0.0] * (doc["m"] - len(value)) if isinstance(value, tuple) else value
        for key, value in doc.items()
    }


def run_plural(argv, memory=2**30):
    """``plural argv`` in a fresh process of at most ``memory`` bytes; its exit
    code, stdout and stderr.  A run that outlasts 60 s fails the test."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    src = str(Path(plural.__file__).resolve().parents[1])
    code = "import sys; from plural.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap, timeout=60)
    return done.returncode, done.stdout, done.stderr


def write_graph(tmp_path, doc, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_events(path):
    """The events of a ``--events`` file, one JSON object per line."""
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


class TestSweep:
    def test_default_emits_fifteen_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == SWEEP_HEADER
        assert [r["m"] for r in rows] == [str(2**k) for k in range(15)]

    @pytest.mark.parametrize("command", ["sweep", "comm-sweep"])
    def test_default_output_matches_pinned_digest(self, capsys, command):
        code, out, _ = run_cli(capsys, command)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_SWEEP_DIGESTS[command]

    def test_speedup_column(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--area", "1e6", "--work", "1", "--m", "1:16:x2")
        _, rows = csv_rows(out)
        speedups = [float(r["speedup"]) for r in rows]
        expected = [1.0, math.sqrt(2), 2.0, 2 * math.sqrt(2), 4.0]
        assert speedups == pytest.approx(expected, rel=1e-11)

    def test_single_row_ratios_are_one(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--m", "1")
        _, rows = csv_rows(out)
        assert len(rows) == 1
        for col in ("speedup", "energydown", "powerdown", "es", "es2"):
            assert rows[0][col] == "1"

    def test_energydown_at_16384(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--area", "1e6", "--m", "16384")
        _, rows = csv_rows(out)
        assert rows[0]["energydown"] == "16384"

    def test_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, "sweep", "--m", "1:256:x2")
        _, second, _ = run_cli(capsys, "sweep", "--m", "1:256:x2")
        assert first == second

    def test_explicit_list(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--m", "3,5,9")
        _, rows = csv_rows(out)
        assert [r["m"] for r in rows] == ["3", "5", "9"]

    @pytest.mark.parametrize(
        "bad", ["", "0:4:x2", "4:1:x2", "1:16:y2", "1:16:x1", "a,b", "-3", "9,3", "4,4"]
    )
    def test_malformed_range_is_usage_error(self, capsys, bad):
        code, _, err = run_cli(capsys, "sweep", "--m", bad)
        assert code == 1
        assert "error" in err

    def test_invalid_area_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--area", "-5")
        assert code == 2
        assert "area" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            pytest.param(
                (command, flag, "inf", "--m", "1:4:x2"),
                f"{flag[2:]} must be finite, got inf",
                id=f"{flag}-{command}",
            )
            for command in ("sweep", "comm-sweep")
            for flag in ("--area", "--work", "--cpi")
        ]
        + [
            # Finite parameters whose model values leave float range.
            pytest.param(
                ("sweep", "--area", "1e-310"),
                "model values at m=1 fall outside float range",
                id="tiny-area-sweep",
            ),
            pytest.param(
                ("sweep", "--work", "1e308", "--area", "1e-300"),
                "model values at m=1 fall outside float range",
                id="huge-time-sweep",
            ),
            pytest.param(
                ("comm-sweep", "--area", "1e300"),
                "model values at m=1 fall outside float range",
                id="huge-area-comm-sweep",
            ),
            # The compute row is in range; the summed traffic power is not.
            pytest.param(
                ("comm-sweep", "--area", "1e307", "--alpha", "0.001", "--m", "1:64:x2"),
                "model values at m=32 fall outside float range",
                id="huge-traffic-comm-sweep",
            ),
        ],
    )
    def test_non_finite_chip_parameter_is_input_error(self, capsys, args, message):
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_plot_script(self, capsys, tmp_path):
        script = tmp_path / "plot.gp"
        code, _, _ = run_cli(capsys, "sweep", "--m", "1:4:x2", "--plot-script", str(script))
        assert code == 0
        assert "logscale" in script.read_text()

    def test_unwritable_plot_script_prints_no_row(self, capsys, tmp_path):
        # The stub is written before the CSV, so a bad path leaves stdout empty.
        code, out, err = run_cli(capsys, "sweep", "--m", "1:4:x2", "--plot-script", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno ") and str(tmp_path) in err

    def test_every_column_matches_library_value(self, capsys):
        from plural import ChipSpec, sweep

        _, out, _ = run_cli(capsys, "sweep", "--area", "3e4", "--work", "7", "--m", "1,3,10")
        _, rows = csv_rows(out)
        for row, metrics in zip(rows, sweep(ChipSpec(area=3e4, work=7), [1, 3, 10])):
            assert row["m"] == str(metrics.m)
            for col in metrics._fields[1:]:
                assert row[col] == format(getattr(metrics, col), ".12g")


class TestCommSweep:
    def test_spot_values_at_1024(self, capsys):
        _, out, _ = run_cli(capsys, "comm-sweep", "--area", "1e6", "--m", "1024")
        header, rows = csv_rows(out)
        assert header == COMM_HEADER
        assert float(rows[0]["sched_power"]) == 3.2e7
        assert float(rows[0]["mem_power"]) == 3.232e7

    def test_m1_access_energy_is_chip_edge(self, capsys):
        _, out, _ = run_cli(capsys, "comm-sweep", "--m", "1")
        _, rows = csv_rows(out)
        assert float(rows[0]["mem_access_energy"]) == 1000.0

    def test_sched_first_exceeds_compute_at_1024(self, capsys):
        _, out, _ = run_cli(capsys, "comm-sweep", "--area", "1e6")
        _, rows = csv_rows(out)
        crossing = [
            int(r["m"]) for r in rows if float(r["sched_power"]) > float(r["compute_power"])
        ]
        assert min(crossing) == 1024

    def test_scaling_model_evaluated_once_per_row(self, capsys, monkeypatch):
        calls = []
        real = scaling.ensemble_metrics

        def counting(spec, m):
            calls.append(m)
            return real(spec, m)

        monkeypatch.setattr(scaling, "ensemble_metrics", counting)
        code, out, _ = run_cli(capsys, "comm-sweep")
        assert code == 0
        _, rows = csv_rows(out)
        assert calls == [int(row["m"]) for row in rows]


def per_value_csv(columns, rows):
    """The CSV writer before rows were written with one ``%`` format, kept as
    their oracle: each value is formatted on its own, an int by ``str`` and
    anything else by ``format(value, ".12g")``."""

    def fmt(value):
        return str(value) if isinstance(value, int) else format(value, ".12g")

    lines = [",".join(columns)] + [",".join(fmt(row[col]) for col in columns) for row in rows]
    return "\n".join(lines) + "\n"


# Chip parameters; an alpha outside (0, 1) is an input error.
CHIP_NUMBER = st.floats(1e-3, 1e9)
CORE_COUNTS = st.lists(st.integers(1, 2**62), min_size=1, max_size=6, unique=True).map(sorted)


class TestCsvRowsMatchPerValueWriter:
    """Sweep and ``simulate --csv`` rows come from one ``%`` format per row,
    built from the row records' field types; they must be the bytes the
    per-value writer gives."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.sampled_from(["sweep", "comm-sweep"]),
        CHIP_NUMBER, CHIP_NUMBER, st.floats(0, 1.25), CHIP_NUMBER,
        st.booleans(),
        CORE_COUNTS,
    )
    def test_sweep(self, command, area, work, alpha, cpi, static_power, core_counts):
        argv = [command, f"--area={area!r}", f"--work={work!r}", f"--alpha={alpha!r}",
                f"--cpi={cpi!r}", "--m", ",".join(map(str, core_counts))]
        if static_power:
            argv.append("--static-power")
        try:
            spec = scaling.ChipSpec(area=area, work=work, cpi=cpi, pollack_exponent=alpha,
                                    static_power_enabled=static_power)
            rows = []
            for m in core_counts:
                metrics = scaling.ensemble_metrics(spec, m)
                row = metrics._asdict()
                if command == "comm-sweep":
                    row.update(comm.comm_metrics(spec, m)._asdict())
                rows.append(row)
        except plural.PluralError as exc:
            assert call_main(argv) == (2, "", f"error: {exc}\n")
            return
        header = COMM_HEADER if command == "comm-sweep" else SWEEP_HEADER
        assert call_main(argv) == (0, per_value_csv(header, rows), "")

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.one_of(sim_cases(), contention_cases()))
    def test_simulate(self, tmp_path_factory, case):
        g, cfg = case
        try:
            report = sim.run(g, cfg)
        except (DegenerateWorkloadError, GraphStructureError):
            return
        row = sim.report_as_dict(report)
        row["mean_utilization"] = sum(report.utilization) / report.m
        path = tmp_path_factory.mktemp("csv") / "graph.json"
        graphio.dump(g, path)
        code, out, _ = call_main(simulate_argv(path, cfg) + ["--csv"])
        assert (code, out) == (0, per_value_csv(REPORT_CSV_HEADER, [row]))


class TestEt2Command:
    def test_stretch(self, capsys):
        code, out, _ = run_cli(capsys, "et2", "--e", "8", "--t", "2", "stretch:2")
        doc = json.loads(out)
        assert code == 0
        assert doc["before"] == {"energy": 8.0, "time": 2.0, "theta": 32.0, "power": 4.0}
        assert doc["after"]["energy"] == 2.0
        assert doc["after"]["time"] == 4.0
        assert doc["after"]["theta"] == 32.0

    def test_parallel_one_is_identity(self, capsys):
        _, out, _ = run_cli(capsys, "et2", "--e", "1", "--t", "1", "parallel:1")
        doc = json.loads(out)
        assert doc["after"]["ensemble"]["energy"] == 1.0
        assert doc["after"]["ensemble"]["time"] == 1.0
        assert doc["after"]["per_core"]["theta"] == 1.0

    def test_constrain_fixed_power(self, capsys):
        _, out, _ = run_cli(capsys, "et2", "--e", "8", "--t", "2", "constrain:P0=4")
        doc = json.loads(out)
        assert doc["after"]["time"] == pytest.approx(2.0, rel=1e-12)
        assert doc["after"]["energy"] == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize(
        "transform, after",
        [
            # Work halved in the same time: energy and theta fall by 0.5**3.
            ("iso-time:0.5", {"energy": 1.0, "time": 2.0, "theta": 4.0, "power": 0.5}),
            # Work quartered for the same energy: time falls by 0.25**1.5.
            ("iso-energy:0.25", {"energy": 8.0, "time": 0.25, "theta": 0.5, "power": 32.0}),
        ],
    )
    def test_iso_transforms(self, capsys, transform, after):
        code, out, err = run_cli(capsys, "et2", "--e", "8", "--t", "2", transform)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["transform"] == transform
        assert doc["after"] == pytest.approx(after, rel=1e-12)

    # sha256 of `plural et2 --e 8 --t 2 T` stdout, one call per transform,
    # as version 0.11.0 printed them.
    @pytest.mark.parametrize(
        "transform, digest",
        [
            ("stretch:3", "2d1bc56cd6534a17401e7f347ebb33a43ef0475a0d8a010e55085ba64d7cc571"),
            ("shrink:0.3", "f521208c81b258a8a024afbb22f20b2d01d07e2cfcc23abc8fb2adf69b88b673"),
            ("iso-time:0.7", "dfaa443ba8efbfbc894aee8a6a5c92cf7994ac32eb71963b5f9d3ca523713243"),
            ("iso-energy:0.3", "0c9628a6613b6d5beb6e55518678d893fabf771b52f9405f7a343400968236cd"),
            ("parallel:3", "2e5be2a935e53c192a248bfae548ff41eda4807418aabfb5e5e213713606fb1d"),
            ("constrain:P0=3", "9b1c4363225841d76259023eb60da3433e94b1a4e44610714dd80cc4c1516544"),
        ],
    )
    def test_output_matches_pinned_digest(self, capsys, transform, digest):
        code, out, err = run_cli(capsys, "et2", "--e", "8", "--t", "2", transform)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("bad", ["warp:2", "stretch", "constrain:Q0=4", "constrain:P0=", "parallel:x"])
    def test_unknown_transform_is_usage_error(self, capsys, bad):
        code, _, err = run_cli(capsys, "et2", "--e", "1", "--t", "1", bad)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "transform, message",
        [
            ("warp:2", "unknown transform 'warp'"),
            ("warp:", "transform 'warp:' needs an argument, e.g. stretch:2"),
            ("constrain:Q0=4", "unknown constraint 'Q0' (use E0, T0, or P0)"),
            ("constrain:=4", "unknown constraint '' (use E0, T0, or P0)"),
            # The value is parsed before the constraint's name is looked up.
            ("constrain:Q0=x", "bad transform argument in 'constrain:Q0=x': could not convert string to float: 'x'"),
            ("constrain:P0", "constrain needs E0=, T0=, or P0=, e.g. constrain:P0=4"),
            ("iso-time:x", "bad transform argument in 'iso-time:x': could not convert string to float: 'x'"),
            ("parallel:1.5", "bad transform argument in 'parallel:1.5': invalid literal for int() with base 10: '1.5'"),
        ],
    )
    def test_usage_error_messages(self, capsys, transform, message):
        code, out, err = run_cli(capsys, "et2", "--e", "8", "--t", "2", transform)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "t, transform, message",
        [
            pytest.param("1", transform, message, id=transform)
            for transform, message in [
                ("shrink:2", "work fraction must lie in (0, 1], got 2.0"),
                # Arguments that pass their own checks but take the state out
                # of float range.
                ("stretch:inf", "stretch factor inf takes the state out of float range"),
                ("stretch:1e200", "stretch factor 1e+200 takes the state out of float range"),
                ("shrink:1e-200", "work fraction 1e-200 takes the state out of float range"),
                ("constrain:P0=inf", "constraint value inf takes the state out of float range"),
                ("constrain:E0=inf", "constraint value inf takes the state out of float range"),
                ("constrain:T0=1e-200", "constraint value 1e-200 takes the state out of float range"),
            ]
        ]
        + [
            pytest.param(
                "1", "parallel:1" + "0" * 400,
                f"core count 1{'0' * 400} takes the state out of float range",
                id="parallel:1e400",
            ),
            pytest.param("1e200", "stretch:2", "energy * time**2 overflows a float", id="t=1e200"),
        ],
    )
    def test_domain_violation_is_input_error(self, capsys, t, transform, message):
        code, out, err = run_cli(capsys, "et2", "--e", "1", "--t", t, transform)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestSimulate:
    def test_check_model_within_two_percent(self, capsys, tmp_path):
        path = write_graph(tmp_path, DEMO_GRAPH)
        code, out, err = run_cli(
            capsys, "simulate", path, "--m", "16", "--check-model"
        )
        doc = json.loads(out)
        assert code == 0
        assert err == ""
        assert doc["model_check"]["speedup_deviation"] < 0.02
        assert doc["empirical_speedup"] == pytest.approx(4.0, rel=1e-12)

    def test_m1_speedup_is_one(self, capsys, tmp_path):
        path = write_graph(tmp_path, DEMO_GRAPH)
        code, out, _ = run_cli(capsys, "simulate", path, "--m", "1")
        assert code == 0
        assert json.loads(out)["empirical_speedup"] == 1.0

    def test_crew_violations_warn_but_run(self, capsys, tmp_path):
        doc = {
            "tasks": [
                {"id": "w1", "kind": "singular", "instructions": 10, "writes": ["x"]},
                {"id": "w2", "kind": "singular", "instructions": 10, "writes": ["x"]},
            ],
            "edges": [],
        }
        path = write_graph(tmp_path, doc)
        code, out, err = run_cli(capsys, "simulate", path, "--m", "2")
        assert code == 0
        assert "WARNING: CREW violation" in err
        assert "write-write" in err
        assert json.loads(out)["total_instructions"] == 20

    @pytest.mark.parametrize(
        "args, message",
        [
            pytest.param(
                ["--cpi", "1e300", "--area", "1e-300", "--m", "4"],
                "makespan falls outside float range, got inf",
                id="makespan-overflows",
            ),
            pytest.param(
                ["--cpi", "1e-300", "--area", "1e300", "--m", "4"],
                "makespan falls outside float range, got 0.0",
                id="makespan-underflows",
            ),
            pytest.param(
                ["--area", "1e306", "--m", "4"],
                "compute_energy falls outside float range, got inf",
                id="compute-energy",
            ),
            pytest.param(
                ["--area", "1e-302", "--cpi", "1e153", "--m", "64", "--comm-costs"],
                "empirical_speedup falls outside float range, got inf",
                id="speedup",
            ),
            # The run's energy, 64000 instructions at (A/m) * cpi each, is
            # finite; the reference's, at A * cpi each, is not.
            pytest.param(
                ["--area", "1e7", "--cpi", "1e298", "--m", "64", "--check-model"],
                "energydown_measured falls outside float range, got inf",
                id="model-check",
            ),
            # An m too large for a float is refused before the run starts.
            pytest.param(
                ["--m", "1" + "0" * 400],
                "m falls outside float range, got 1" + "0" * 400,
                id="m=10**400",
            ),
        ],
    )
    def test_out_of_range_report_is_input_error(self, capsys, tmp_path, args, message):
        path = write_graph(tmp_path, DEMO_GRAPH)
        code, out, err = run_cli(capsys, "simulate", path, *args)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_work_too_large_for_a_float_is_input_error(self, capsys, tmp_path):
        doc = {"tasks": [{"id": "a", "kind": "singular", "instructions": 10**400}], "edges": []}
        code, out, err = run_cli(capsys, "simulate", write_graph(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == f"error: total_instructions falls outside float range, got {10**400}\n"

    # Each access of such an instance is one loop step when the run is
    # traced or the variable contended, so the run must stop as it starts.
    # Two instances writing "x" contend, which the CREW check warns of first.
    @pytest.mark.parametrize(
        "task, flags, warning",
        [
            pytest.param({"kind": "singular"}, ["--events", os.devnull], "", id="traced"),
            pytest.param(
                {"kind": "duplicable", "d": 2, "writes": ["x"]}, ["--m", "2", "--csv"],
                "WARNING: CREW violation: write-write conflict on 'x' between 'a#0' and 'a#1'\n",
                id="contended",
            ),
        ],
    )
    def test_instance_too_long_for_a_float_is_refused_as_it_starts(self, tmp_path, task, flags, warning):
        doc = {"tasks": [{"id": "a", **task, "instructions": 10**400, "reads": ["x"]}]}
        path = write_graph(tmp_path, doc)
        assert run_plural(["simulate", path, *flags]) == (
            2, "", f"{warning}error: total_instructions falls outside float range, got {10**400}\n"
        )

    def test_instance_too_long_for_a_float_on_a_branch_not_taken(self, capsys, tmp_path):
        doc = {
            "tasks": [
                {"id": "pick", "kind": "control", "control_kind": "conditional"},
                {"id": "big", "kind": "singular", "instructions": 10**400, "reads": ["x"]},
                {"id": "small", "kind": "singular", "instructions": 10, "reads": ["x"]},
            ],
            "edges": [["pick", "big"], ["pick", "small"]],
        }
        path = write_graph(tmp_path, doc)
        code, out, err = run_cli(capsys, "simulate", path, "--outcome", "pick=small", "--csv")
        assert (code, err) == (0, "")
        assert csv_rows(out)[1][0]["total_instructions"] == "10"

    @pytest.mark.parametrize("m", [2**40, 2**62])
    def test_csv_at_a_huge_core_count(self, tmp_path, m):
        # The run uses four cores, and its report lists those four; the row's
        # mean utilization still averages over all m.
        doc = {"tasks": [{"id": "w", "kind": "duplicable", "d": 4, "instructions": 20,
                          "writes": ["o[#]"]}]}
        path = write_graph(tmp_path, doc)
        report = sim.run(graphio.load(path), sim.SimConfig(chip=scaling.ChipSpec(area=1e6, work=1), m=m))
        assert len(report.utilization) == 4
        row = sim.report_as_dict(report)
        row["mean_utilization"] = sum(report.utilization) / m
        assert run_plural(["simulate", path, "--m", str(m), "--csv"], memory=2**28) == (
            0, per_value_csv(REPORT_CSV_HEADER, [row]), ""
        )

    def test_json_at_a_huge_core_count_is_refused(self, tmp_path):
        # The JSON report lists all m cores: at m = 2**40 that is more
        # memory than a host has, so the report is refused as an input
        # error, in a process capped at 256 MB, and points to --csv.
        doc = {"tasks": [{"id": "w", "kind": "duplicable", "d": 4, "instructions": 20,
                          "writes": ["o[#]"]}]}
        path = write_graph(tmp_path, doc)
        limit = cli.JSON_MAX_M
        for m in (2**40, limit + 1):
            assert run_plural(["simulate", path, "--m", str(m)], memory=2**28) == (
                2, "", f"error: a JSON report lists each of the m cores, so m must be at most {limit}, "
                f"got {m}; --csv takes any m\n"
            )
        code, out, _ = call_main(["simulate", path, "--m", str(limit)])
        assert code == 0
        assert len(json.loads(out)["utilization"]) == limit

    def test_json_core_limit_in_process(self, tmp_path):
        # The refusal above, through main in this process: one core past the
        # limit exits 2 and names --csv, and --csv takes that m.
        doc = {"tasks": [{"id": "w", "kind": "duplicable", "d": 4, "instructions": 20,
                          "writes": ["o[#]"]}]}
        path = write_graph(tmp_path, doc)
        m = cli.JSON_MAX_M + 1
        assert m == 1048577
        code, out, err = call_main(["simulate", path, "--m", str(m)])
        assert (code, out) == (2, "")
        assert err.endswith(f"got {m}; --csv takes any m\n")
        code, out, err = call_main(["simulate", path, "--m", str(m), "--csv"])
        assert (code, err) == (0, "")
        assert [row["m"] for row in csv_rows(out)[1]] == [str(m)]

    def test_csv_at_a_huge_queue_depth(self, tmp_path):
        # A dispatch fills no more queue places than instances are ready, so
        # queues of 2**62 places report what queues of the d = 4 instances
        # do, at once and in a process capped at 256 MB.
        doc = {"tasks": [{"id": "w", "kind": "duplicable", "d": 4, "instructions": 20,
                          "writes": ["o[#]"]}]}
        path = write_graph(tmp_path, doc)
        argv = ["simulate", path, "--m", "1", "--csv", "--prealloc-depth"]
        expected = call_main(argv + ["4"])
        assert expected[0] == 0
        start = time.perf_counter()
        assert call_main(argv + [str(2**62)]) == expected
        assert time.perf_counter() - start < 1.0
        assert run_plural(argv + [str(2**62)], memory=2**28) == expected

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", str(tmp_path / "nope.json"), "--m", "2")
        assert code == 2
        assert "error" in err

    def test_parse_error_is_line_anchored(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "tasks": [,]\n}', encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", str(path), "--m", "2")
        assert code == 2
        assert "line 2" in err

    def test_cyclic_graph_is_input_error(self, capsys, tmp_path):
        doc = {
            "tasks": [
                {"id": "a", "kind": "singular", "instructions": 5},
                {"id": "b", "kind": "singular", "instructions": 5},
            ],
            "edges": [["a", "b"], ["b", "a"]],
        }
        path = write_graph(tmp_path, doc)
        code, _, err = run_cli(capsys, "simulate", path, "--m", "1")
        assert code == 2
        assert "cycle" in err

    def test_conditional_outcome_flag(self, capsys, tmp_path):
        path = write_graph(tmp_path, CONDITIONAL_GRAPH)
        code, out, _ = run_cli(capsys, "simulate", path, "--m", "1", "--outcome", "pick=right")
        assert code == 0
        assert json.loads(out)["total_instructions"] == 25
        code, _, err = run_cli(capsys, "simulate", path, "--m", "1")
        assert code == 2
        assert "pick" in err

    def test_root_control_task_runs_on_two_cores(self, capsys, tmp_path):
        doc = {
            "tasks": [
                {"id": "a", "kind": "control", "control_kind": "branch"},
                {"id": "b", "kind": "singular", "instructions": 10},
            ],
            "edges": [["a", "b"]],
        }
        path = write_graph(tmp_path, doc)
        code, out, err = run_cli(capsys, "simulate", path, "--m", "2")
        assert code == 0, err
        report = json.loads(out)
        assert report["total_instructions"] == 10
        assert report["sched_msg_count"] == 2

    def test_csv_report(self, capsys, tmp_path):
        path = write_graph(tmp_path, DEMO_GRAPH)
        code, out, _ = run_cli(capsys, "simulate", path, "--m", "4", "--csv")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == REPORT_CSV_HEADER
        assert len(rows) == 1
        assert rows[0]["m"] == "4"

    def test_events_with_csv(self, tmp_path):
        # The trace goes to its own file, so --events leaves the CSV row as
        # it is and writes the same trace as with the JSON report.
        path = write_graph(tmp_path, WIDE_GRAPH)
        argv = ["simulate", str(path), "--m", "16384"]
        csv_trace, json_trace = tmp_path / "csv.jsonl", tmp_path / "json.jsonl"
        assert call_main(argv + ["--csv", "--events", str(csv_trace)]) == call_main(argv + ["--csv"])
        assert call_main(argv + ["--events", str(json_trace)]) == call_main(argv)
        assert csv_trace.read_bytes() == json_trace.read_bytes()
        assert len(read_events(csv_trace)) > 300

    @pytest.mark.parametrize("flags", [["--csv", "--check-model"], ["--check-model", "--csv"]])
    def test_csv_refuses_check_model(self, capsys, tmp_path, flags):
        # A CSV row has no column for the model check, so the pair is a usage error.
        path = write_graph(tmp_path, DEMO_GRAPH)
        code, out, err = run_cli(capsys, "simulate", path, "--m", "4", *flags)
        assert (code, out) == (1, "")
        first, second = (flag.lstrip("-") for flag in flags)
        assert err == f"error: argument --{second}: not allowed with argument --{first}\n"

    def test_emit_events(self, capsys, tmp_path):
        path = write_graph(tmp_path, DEMO_GRAPH)
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(capsys, "simulate", path, "--m", "4", "--events", str(trace))
        assert code == 0
        assert out == run_cli(capsys, "simulate", path, "--m", "4")[1]
        lines = trace.read_text(encoding="utf-8").splitlines()
        events = read_events(trace)
        assert lines[0] == json.dumps({"time": 0.0, "kind": "ready", "task": "work#0", "detail": ""})
        # Slot 0 makes all 64 instances ready, then starts 4 and queues 4.
        assert [e["kind"] for e in events[:65]] == ["ready"] * 64 + ["start"]
        assert list(events[0]) == ["time", "kind", "task", "detail"]
        # Sorted by time, kind, then (task, index): "work#2" before "work#10".
        keys = [(e["time"], TRACE_KINDS.index(e["kind"]), int(e["task"].removeprefix("work#"))) for e in events]
        assert keys == sorted(keys)
        assert len(events) == 4 * 64 - 4 + 64 * 1000 // 5  # ready, start, complete; queue but the first 4; access

    def test_unwritable_events_file_is_refused_before_the_run(self, capsys, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(sim, "run", forbidden)
        path = write_graph(tmp_path, DEMO_GRAPH)
        code, out, err = run_cli(capsys, "simulate", path, "--events", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno ") and str(tmp_path) in err

    @pytest.mark.parametrize(
        "flags, extra_keys",
        [((), []), (("--events", os.devnull), []), (("--check-model",), ["model_check"])],
        ids=["plain", "emit-events", "check-model"],
    )
    def test_json_report_key_order(self, capsys, tmp_path, flags, extra_keys):
        path = write_graph(tmp_path, DEMO_GRAPH)
        code, out, _ = run_cli(capsys, "simulate", path, "--m", "4", *flags)
        assert code == 0
        assert list(json.loads(out)) == REPORT_KEYS + extra_keys

    @pytest.mark.parametrize("flags", [["--work", "7e9"], ["--static-power"]], ids=["work", "static-power"])
    def test_sweep_only_chip_flags_are_refused(self, capsys, tmp_path, flags):
        # A run takes its work from the graph and charges no static power.
        path = write_graph(tmp_path, DEMO_GRAPH)
        code, out, err = run_cli(capsys, "simulate", path, "--m", "4", *flags)
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: {' '.join(flags)}\n"

    def test_comm_costs_flag(self, capsys, tmp_path):
        path = write_graph(tmp_path, DEMO_GRAPH)
        _, out, _ = run_cli(capsys, "simulate", path, "--m", "4", "--comm-costs")
        doc = json.loads(out)
        assert doc["sched_msg_energy_total"] == doc["sched_msg_count"] * 1000.0

    @pytest.mark.parametrize(
        "name, flags",
        [("plain", ()), ("check-model", ("--check-model", "--comm-costs", "--seed", "7"))],
    )
    def test_wide_report_matches_pinned_digest(self, capsys, tmp_path, name, flags):
        path = write_graph(tmp_path, WIDE_GRAPH)
        code, out, _ = run_cli(capsys, "simulate", path, "--m", "16384", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == WIDE_SIMULATE_DIGESTS[name]

    def test_wide_short_report_matches_pinned_digests(self, capsys, tmp_path):
        path = write_graph(tmp_path, WIDE_SHORT_GRAPH)
        flags = ("--m", "16384", "--comm-costs", "--check-model", "--seed", "7")
        code, out, err = run_cli(capsys, "simulate", path, *flags)
        assert code == 0
        assert err.count("\n") == 120  # one warning per pair of tally instances
        assert json.loads(out)["mem_conflict_stalls"] > 0
        assert hashlib.sha256(out.encode()).hexdigest() == WIDE_SHORT_DIGESTS["stdout"]
        assert hashlib.sha256(err.encode()).hexdigest() == WIDE_SHORT_DIGESTS["stderr"]

    def test_wide_trace_grows_with_grants_not_stalls(self, capsys, tmp_path):
        # 300 instances write "acc" at once: hundreds of thousands of
        # stalls, but the trace holds one event per ready, start, complete
        # and control, and one per granted access.
        doc = json.loads(json.dumps(WIDE_GRAPH))
        doc["tasks"][1]["writes"] = ["acc"]
        path = write_graph(tmp_path, doc)
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(capsys, "simulate", path, "--m", "16384", "--events", str(trace))
        assert code == 0
        doc, events = json.loads(out), read_events(trace)
        instances = 1 + 300 + 1
        assert doc["mem_access_count"] == 40 // 5 + 300 * (200 // 5) + 50 // 5
        assert doc["mem_conflict_stalls"] > 10 * len(events)
        assert Counter(e["kind"] for e in events) == {
            "ready": instances,
            "start": instances,
            "complete": instances,
            "control": 1,
            "access": doc["mem_access_count"],
        }

    def test_access_plans_do_not_outlive_a_call(self, tmp_path):
        # "work#0" shares "x[0]" with "other" and its siblings do not, so
        # the instances of "work" follow two access plans.  Each call, at
        # any stride, prints what a fresh process prints.
        path = write_graph(tmp_path, {
            "tasks": [
                {"id": "work", "kind": "duplicable", "d": 4, "instructions": 24,
                 "reads": ["s", "x[#]"], "writes": ["out[#]"]},
                {"id": "other", "kind": "singular", "instructions": 12, "writes": ["x[0]"]},
            ],
            "edges": [],
        })
        fresh_trace, trace = str(tmp_path / "fresh.jsonl"), str(tmp_path / "trace.jsonl")
        for stride in ("1", "3", "1", "7"):
            argv = ["simulate", path, "--m", "3", "--stride", stride]
            fresh = run_plural(argv + ["--events", fresh_trace])
            assert fresh[0] == 0, fresh[2]
            assert call_main(argv + ["--events", trace]) == fresh
            assert read_events(trace) == read_events(fresh_trace)

    def test_footprint_index_built_once(self, capsys, tmp_path, monkeypatch):
        # The CREW warnings and the run share one index, which expands no
        # instance footprint of this clean graph: only a traced run computes
        # each instance's footprint, once, to name its accesses.  The DAG
        # check, the index and the run share one depth-first search, and so
        # do validate's DAG check and CREW check.
        built, searches, footprints = [], [], Counter()
        real_build, real_footprint = graph_module._build_footprint, graph_module._instance_footprint
        real_search = graph_module._search

        def counting(g):
            built.append(len(g))
            return real_build(g)

        def counting_search(succ):
            searches.append(len(succ))
            return real_search(succ)

        def counting_footprint(task, number, *names):
            footprints[task.id, int(number)] += 1
            return real_footprint(task, number, *names)

        monkeypatch.setattr(graph_module, "_build_footprint", counting)
        monkeypatch.setattr(graph_module, "_instance_footprint", counting_footprint)
        monkeypatch.setattr(graph_module, "_search", counting_search)
        # A module that imports the function by name must use the counted one too.
        monkeypatch.setattr(sim, "_instance_footprint", counting_footprint, raising=False)
        path = write_graph(tmp_path, DEMO_GRAPH)
        for command in (("simulate", "--m", "4"), ("simulate", "--m", "4", "--events", os.devnull), ("validate",)):
            built.clear()
            searches.clear()
            footprints.clear()
            code, _, _ = run_cli(capsys, command[0], path, *command[1:])
            assert code == 0
            assert built == [1]
            assert searches == [1]
            traced = "--events" in command
            assert footprints == Counter(("work", k) for k in range(64 if traced else 0))


# What a report holds: finite floats of at least +0.0, with the spelling's
# edges (subnormals, 1e16 and 1e22, where repr turns to exponents) drawn often.
REPORT_FLOATS = st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                          st.sampled_from([0.0, 5e-324, 1e-310, 1e16, 1e22]))


@st.composite
def report_docs(draw):
    """A document of a report's shape: ``REPORT_KEYS`` in order, each int
    field from 0 to 2**64, each float field a finite float of at least +0.0,
    each per-core tuple 1 to m of them, and perhaps a ``model_check`` dict of
    finite floats."""
    m = draw(st.integers(1, 64))
    fields = get_type_hints(sim.SimReport)
    doc = {"m": m}
    for key in REPORT_KEYS[1:]:
        if fields[key] is int:
            doc[key] = draw(st.integers(0, 2**64))
        elif fields[key] is float:
            doc[key] = draw(REPORT_FLOATS)
        else:
            doc[key] = tuple(draw(st.lists(REPORT_FLOATS, min_size=1, max_size=m)))
    if draw(st.booleans()):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        doc["model_check"] = draw(st.fixed_dictionaries(dict.fromkeys(sim.ModelDeviation._fields, finite)))
    return doc


class TestDumpReport:
    """The report emitter must write exactly what ``json.dumps(doc, indent=2)``
    writes once each per-core tuple is padded to m entries."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"m": 1, "per_core_busy_time": [], "utilization": []},
            # Per-core tuples: floats of at least +0.0, zeros anywhere, up
            # to m of them.
            {"m": 3, "per_core_busy_time": (0.0,), "utilization": (0.0, 0.0, 0.0)},
            {"m": 4, "per_core_busy_time": (0.0, 0.0, 1.0, 0.0), "utilization": (0.0, 1.5)},
            {"m": 9, "per_core_busy_time": (1.0, 0.0, 0.0, 2.0, 0.0), "utilization": (0.0, 0.0, 3.0)},
            {"m": 3, "per_core_busy_time": (2.5, 5e-324, 0.0), "utilization": (1e22,), "events": []},
            {"m": 1, "model_check": {"zero": -0.0, "tiny": 5e-324, "big": 1e16, "wide": 2**64}},
        ],
        ids=["empty-lists", "zero-tuples", "inner-zeros", "inner-zero-pair", "short-tuples", "edges-flat"],
    )
    def test_hand_cases(self, doc):
        assert "".join(cli._dump_report(doc)) == json.dumps(padded(doc), indent=2) + "\n"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(report_docs())
    def test_generated_reports(self, doc):
        assert "".join(cli._dump_report(doc)) == json.dumps(padded(doc), indent=2) + "\n"

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.one_of(sim_cases(), contention_cases()), st.booleans(), st.booleans())
    def test_simulated_reports(self, case, traced, check_model):
        g, cfg = case
        try:
            report = sim.run(g, cfg, events=[].append if traced else None)
        except (DegenerateWorkloadError, GraphStructureError):
            return
        doc = sim.report_as_dict(report)
        assert list(doc) == REPORT_KEYS
        if check_model:
            doc["model_check"] = sim.compare_to_model(report, cfg)._asdict()
        assert "".join(cli._dump_report(doc)) == json.dumps(padded(doc), indent=2) + "\n"

    # The instances of "idle" run no instruction on cores 0 and 1 while "w"
    # keeps cores 2 to 4 busy: zeros inside the used cores, then m - 5
    # unused ones.
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.one_of(sim_cases(), contention_cases()), st.integers(1, 4096))
    @example(
        (
            plural.TaskGraph([
                plural.Task("idle", plural.TaskKind.DUPLICABLE, instances=2, instruction_count=0),
                plural.Task("w", plural.TaskKind.DUPLICABLE, instances=3, instruction_count=10),
            ]),
            sim.SimConfig(chip=scaling.ChipSpec(area=1e6, work=1), m=1),
        ),
        8,
    )
    def test_simulate_stdout(self, tmp_path_factory, case, m):
        g, cfg = case
        cfg = cfg._replace(m=m)
        try:
            report = sim.run(g, cfg)
        except (DegenerateWorkloadError, GraphStructureError):
            return
        path = tmp_path_factory.mktemp("report") / "graph.json"
        graphio.dump(g, path)
        doc = padded(sim.report_as_dict(report))
        code, out, _ = call_main(simulate_argv(path, cfg))
        assert (code, out) == (0, json.dumps(doc, indent=2) + "\n")
        doc["model_check"] = sim.compare_to_model(report, cfg)._asdict()
        code, out, _ = call_main(simulate_argv(path, cfg) + ["--check-model"])
        assert (code, out) == (0, json.dumps(doc, indent=2) + "\n")


class TestValidate:
    def test_ok_graph(self, capsys, tmp_path):
        path = write_graph(tmp_path, DEMO_GRAPH)
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 0
        assert out.startswith("ok: 1 tasks, 0 edges")
        assert err == ""

    def test_repeated_edge_counts_once(self, capsys, tmp_path):
        doc = {"tasks": [{"id": t, "kind": "singular", "instructions": 5} for t in "ab"],
               "edges": [["a", "b"], ["a", "b"]]}
        code, out, err = run_cli(capsys, "validate", write_graph(tmp_path, doc))
        assert (code, out, err) == (0, "ok: 2 tasks, 1 edges, 0 CREW violation(s)\n", "")

    def test_crew_violations_listed(self, capsys, tmp_path):
        doc = {
            "tasks": [
                {"id": "w", "kind": "duplicable", "d": 2, "instructions": 10, "writes": ["acc"]},
            ],
            "edges": [],
        }
        path = write_graph(tmp_path, doc)
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 0
        assert "1 CREW violation(s)" in out
        assert "write-write" in err

    def test_huge_d_with_instance_names_is_validated_from_its_authored_names(self, tmp_path):
        # Every name of the 10**400 instances holds "#", so no two instances
        # share a variable and the footprint index expands none of them.  A
        # task named like one of the instances is still refused.
        doc = {
            "tasks": [
                {"id": "w", "kind": "duplicable", "d": 10**400, "instructions": 5,
                 "reads": ["in[#]"], "writes": ["out[#]"]},
                {"id": "sum", "kind": "singular", "instructions": 5, "reads": ["out[0]"], "writes": ["total"]},
            ],
            "edges": [["w", "sum"]],
        }
        start = time.perf_counter()
        ok = (0, "ok: 2 tasks, 1 edges, 0 CREW violation(s)\n", "")
        assert run_plural(["validate", write_graph(tmp_path, doc)]) == ok
        clash = f"w#{10**400 - 1}"
        doc["tasks"][1]["id"] = clash
        doc["edges"] = [["w", clash]]
        code, out, err = run_plural(["validate", write_graph(tmp_path, doc)])
        assert (code, out, err) == (2, "", f"error: duplicate task id {clash!r}\n")
        assert time.perf_counter() - start < 10

    def test_cycle_rejected_with_witness(self, capsys, tmp_path):
        # simulate and validate name one witness, of authored ids, whether
        # or not the cycle runs through a duplicable.
        for kind in ("singular", "duplicable"):
            doc = {
                "tasks": [
                    {"id": "a", "kind": kind},
                    {"id": "b", "kind": "singular"},
                ],
                "edges": [["a", "b"], ["b", "a"]],
            }
            path = write_graph(tmp_path, doc)
            assert run_cli(capsys, "validate", path) == (2, "", "cycle: a -> b -> a\n")
            assert run_cli(capsys, "simulate", path) == (2, "", "error: task graph contains a cycle: a -> b -> a\n")

    def test_cycle_through_wide_duplicables(self, capsys, tmp_path):
        # Expanded, this graph has 2 * 10**10 edges; the witness comes from
        # the authored graph.
        doc = {
            "tasks": [{"id": tid, "kind": "duplicable", "d": 100_000} for tid in ("a", "b")],
            "edges": [["a", "b"], ["b", "a"]],
        }
        path = write_graph(tmp_path, doc)
        assert run_cli(capsys, "simulate", path, "--m", "2") == (
            2, "", "error: task graph contains a cycle: a -> b -> a\n"
        )
        assert run_cli(capsys, "validate", path) == (2, "", "cycle: a -> b -> a\n")

    def test_bool_counts_rejected(self, capsys, tmp_path):
        doc = {
            "tasks": [
                {"id": "a", "kind": "duplicable", "d": True, "instructions": True,
                 "writes": ["o[#]"]},
            ],
            "edges": [],
        }
        path = write_graph(tmp_path, doc)
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 2
        assert out == ""
        assert "'a'" in err and "instruction_count" in err


def call_main_or_help(argv):
    """``call_main``, where help's ``SystemExit`` gives the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Each subcommand's help, and one usage error of each kind argparse reports.
# No graph file is read: each argv fails, or prints help, as it is parsed.
HELP_AND_USAGE_ARGVS = [
    ["-h"], ["sweep", "-h"], ["comm-sweep", "-h"], ["et2", "-h"], ["simulate", "-h"], ["validate", "-h"],
    [], ["frobnicate"], ["simulate"], ["sweep", "--bogus"], ["simulate", "graph.json", "--m", "x"],
    ["simulate", "graph.json", "--csv", "--check-model"], ["et2", "--e", "8", "stretch:2"], ["sweep", "--m"],
]
# sha256 of the exit code, stdout and stderr of each argv above, at COLUMNS=80:
# one for each way argparse spells an invalid choice's list, quoted (Python
# 3.10 to 3.13.0) or not (later 3.13 releases, 3.13.13 among them).
HELP_AND_USAGE_DIGESTS = {
    "1c87b24ec0f5cf589314c6bfbde87e3529d32af1523edd44ec81cd37740f9f18",
    "92e58699e8aa7e2a536efd1801059af4019fc5fd856cea074849bd96d0c2a26a",
}


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_help_and_usage_errors_match_pinned_digest(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        results = [call_main_or_help(list(argv)) for argv in HELP_AND_USAGE_ARGVS]
        assert [code for code, _, _ in results] == [0] * 6 + [1] * 8
        assert all(out and not err for _, out, err in results[:6])
        assert all(err.startswith("error: ") and not out for _, out, err in results[6:])
        assert hashlib.sha256(repr(results).encode()).hexdigest() in HELP_AND_USAGE_DIGESTS


class TestParserBuiltOnce:
    """``main`` builds its parser on the first call and reuses it; no call
    leaves state in it that changes a later call."""

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import plural.cli\n"
            "print(len(built), plural.cli.build_parser.cache_info().currsize)\n"
        )
        src = str(Path(plural.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.split() == ["0", "0"]

    def test_interleaved_calls_match_fresh_parsers(self, tmp_path):
        path = write_graph(tmp_path, CONDITIONAL_GRAPH)
        calls = [
            ["simulate", path, "--m", "1", "--outcome", "pick=right"],
            ["simulate", path, "--m", "1"],
            ["simulate", path, "--m", "1", "--outcome", "pick=left", "--csv"],
            ["sweep", "--m", "1:64:x4", "--static-power"],
            ["sweep", "--m", "1:64:x4"],
            ["comm-sweep", "--m", "1:64:x4", "--static-power", "--area", "4e4"],
            ["comm-sweep", "--m", "1:64:x4"],
            ["sweep", "--m", "4:1:x2"],
            ["sweep", "--m", "1,2", "--bogus"],
            ["sweep", "--m", "1,2"],
            ["frobnicate"],
            ["et2", "--e", "8", "--t", "2", "stretch:2"],
        ]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(call_main(argv))
        cli.build_parser.cache_clear()
        shared = [call_main(argv) for argv in calls]
        assert shared == fresh
        assert cli.build_parser.cache_info().misses == 1
        # The calls differ where their flags differ, not by what came before.
        codes = [code for code, _, _ in shared]
        assert codes == [0, 2, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0]
        assert json.loads(shared[0][1])["total_instructions"] == 25
        assert shared[1][2] == (
            "error: conditional control task 'pick' was reached but has no configured outcome\n"
        )
        assert shared[3][1] != shared[4][1] and shared[5][1] != shared[6][1]


def test_package_version_matches_pyproject():
    # Reports are versioned with the package; a regex, since tomllib is 3.11+.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert declared is not None
    assert plural.__version__ == declared.group(1)


def test_readme_names_the_package_version():
    # The semantics sentence and the newest Version history entry.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    semantics = re.search(r"These are the semantics of version (\S+?)\.\s", text)
    history = re.search(r"^## Version history\n\n- (\S+?):", text, re.MULTILINE)
    assert semantics is not None and history is not None
    assert semantics.group(1) == history.group(1) == plural.__version__


def benchmark_workloads(monkeypatch):
    """``benchmarks/workloads.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def test_a_loaded_and_run_graph_holds_no_edge_set(monkeypatch):
    # Each simulate workload of the benchmark: loading, the CREW check and a
    # run read the successor lists, so no edge set is built until ``edges``
    # is read.  The one frozenset held is the contended variable names.
    workloads = benchmark_workloads(monkeypatch)
    for workload in ("wide-short", "shared-read", "stage-chain"):
        case = workloads.make_cases(workload, 1001, 1)[0]
        g = graphio.loads(json.dumps(case.graph))
        graph_module.check_crew(g)
        argv = case.calls[0]
        outcomes = dict([argv[argv.index("--outcome") + 1].split("=")]) if "--outcome" in argv else {}
        sim.run(g, sim.SimConfig(scaling.ChipSpec(1e6, 1e6), case.expected.m, conditional_outcomes=outcomes))
        assert {key for key, value in vars(g).items() if isinstance(value, frozenset)} <= {"_contended"}
        assert g.edges == frozenset(map(tuple, case.graph["edges"]))
        with pytest.raises(AttributeError):
            g.edges = frozenset()



# Graph files: valid documents drawn from small pools of ids, counts and
# footprints, so that many of them run; documents that may break any rule of
# the format; and bytes that are not JSON, or not UTF-8.
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(), st.text(max_size=4),
    st.lists(st.text(max_size=3), max_size=3),
)
TASK_ID = st.sampled_from(["a", "b", "c", "a#0"])
FOOTPRINT = st.lists(st.sampled_from(["x", "y", "v[#]", "v[0]"]), max_size=3)


@st.composite
def valid_docs(draw):
    ids = draw(st.lists(TASK_ID, unique=True, min_size=1, max_size=4))
    tasks = []
    for tid in ids:
        kind = draw(st.sampled_from(["singular", "duplicable", "control"]))
        task = {"id": tid, "kind": kind}
        if kind == "control":
            task["control_kind"] = draw(st.sampled_from(["branch", "merge", "conditional"]))
        else:
            if kind == "duplicable":
                task["d"] = draw(st.integers(1, 12))
            task.update(instructions=draw(st.integers(0, 60)), reads=draw(FOOTPRINT),
                        writes=draw(FOOTPRINT))
        tasks.append(task)
    index = st.integers(0, len(ids) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=4))
    edges = [[ids[i], ids[j]] for i, j in pairs if i < j]
    for task in tasks:  # a conditional needs a successor, so one with none is a merge
        if task.get("control_kind") == "conditional" and all(a != task["id"] for a, _ in edges):
            task["control_kind"] = "merge"
    return {"tasks": tasks, "edges": edges}


VALID_DOC = valid_docs()
ANY_TASK = st.fixed_dictionaries(
    {"id": st.one_of(TASK_ID, ANY_VALUE), "kind": ANY_VALUE},
    optional={
        key: ANY_VALUE
        for key in ("d", "control_kind", "entry", "instructions", "reads", "writes", "bogus")
    },
)
ANY_DOC = st.fixed_dictionaries(
    {},
    optional={
        "tasks": st.one_of(st.lists(ANY_TASK, max_size=4), ANY_VALUE),
        "edges": st.one_of(st.lists(st.one_of(st.lists(TASK_ID, max_size=3), ANY_VALUE), max_size=4), ANY_VALUE),
        "bogus": ANY_VALUE,
    },
)
MALFORMED_BYTES = st.one_of(
    VALID_DOC.map(lambda doc: json.dumps(doc).encode()[:-1]),
    ANY_DOC.map(lambda doc: json.dumps(doc).encode()),
    ANY_VALUE.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=24),
)
NUMBER = st.one_of(st.floats().map(repr), st.sampled_from(["1e-300", "1e300", "5e-324"]))
# Queues of any depth, far deeper than any graph's instances: a dispatch fills
# no more places than instances are ready.
PREALLOC_DEPTH = st.one_of(st.integers(-1, 4), st.sampled_from([2**62, 10**30]))
# --m stays at most 4096: the JSON output holds two m-long lists.
SIMULATE_FLAGS = st.lists(
    st.one_of(
        st.tuples(st.just("--m"), st.integers(-1, 4096).map(str)),
        st.tuples(st.just("--stride"), st.integers(-1, 8).map(str)),
        st.tuples(st.just("--prealloc-depth"), PREALLOC_DEPTH.map(str)),
        st.tuples(st.just("--seed"), st.integers().map(str)),
        st.tuples(st.sampled_from(["--area", "--alpha", "--cpi"]), NUMBER),
        st.tuples(st.just("--outcome"), st.sampled_from(["a=b", "b=c", "a=a#0", "c=zz", "a", "=b"])),
        st.tuples(
            st.sampled_from(
                ["--comm-costs", "--check-model", "--csv"]
            )
        ),
        st.tuples(st.just("--events"), st.just(os.devnull)),
        st.tuples(st.sampled_from(["--m", "--bogus", "1.5", "x"])),
    ),
    max_size=6,
).map(lambda flags: [token for flag in flags for token in flag])


class TestArgvFuzz:
    """Any flags and any graph file end in exit 0, 1 or 2; exit 3 (internal
    error) is unreachable."""

    @staticmethod
    def check_exit_code(tmp_path_factory, content, where, argv):
        path = tmp_path_factory.mktemp("fuzz") / "graph.json"
        if where == "file":
            path.write_bytes(content)
        elif where == "directory":
            path.mkdir()
        code, _, err = call_main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2), err

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(VALID_DOC, SIMULATE_FLAGS)
    @example(
        {"tasks": [{"id": "a", "kind": "singular", "instructions": 10}], "edges": []},
        ["--m", "3", "--area", "5e-324", "--cpi", "1e-5"],
    )
    def test_simulate_flags(self, tmp_path_factory, doc, flags):
        content = json.dumps(doc).encode()
        self.check_exit_code(tmp_path_factory, content, "file", ["simulate", *flags])

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        MALFORMED_BYTES,
        st.sampled_from(["file", "file", "missing", "directory"]),
        st.sampled_from(["simulate", "validate"]),
    )
    @example(b"\xff\xfe{", "file", "simulate")
    @example(b"\xff\xfe{", "file", "validate")
    @example(b"[" * 100000, "file", "simulate")
    @example(b"[" * 100000, "file", "validate")
    @example(b"{}", "directory", "simulate")
    @example(b"{}", "directory", "validate")
    def test_malformed_graph(self, tmp_path_factory, content, where, command):
        self.check_exit_code(tmp_path_factory, content, where, [command])


# Tokens that may follow a subcommand's name: its options, and what argparse
# reads otherwise: other options, abbreviations, --opt=value, --, help,
# unknown flags, and negative, empty and malformed values.
OWN_OPTIONS = {
    "sweep": ["--area", "--alpha", "--cpi", "--work", "--static-power", "--m", "--plot-script"],
    "et2": ["--e", "--t"],
    "simulate": ["--area", "--alpha", "--cpi", "--m", "--stride", "--prealloc-depth", "--comm-costs", "--seed",
                 "--outcome", "--events", "--check-model", "--csv"],
}
OWN_OPTIONS["comm-sweep"] = OWN_OPTIONS["sweep"]
OWN_POSITIONALS = {"et2": ["stretch:2"], "simulate": ["graph.json"], "validate": ["graph.json"]}
OPTIONS = sorted({flag for flags in OWN_OPTIONS.values() for flag in flags})
FLAGS = {"--static-power", "--comm-costs", "--check-model", "--csv"}  # the options that take no value
VALUES = ["4", "0", "-1", "-2.5", "", "1.5", "x", "nan", "1e400", "1:64:x4", "a=b", "-", " 7 ", "1_0", "9" * 5000]
ODD = ["--", "-h", "--help", "-hx", "--h", "--comm", "--check", "--pre", "--s", "--m=4", "--csv=1", "--bogus", "-x"]
ANY_PIECE = st.one_of(
    st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES)),
    st.tuples(st.sampled_from(OPTIONS + ODD + VALUES)),
    st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES)).map(lambda pair: ("=".join(pair),)),
)


@st.composite
def argvs(draw):
    """A subcommand's name, or not quite one; then its own options, most with
    a value if they take one, and now and then any other piece, with
    SIMULATE_FLAGS for ``simulate``; and its positionals or others, each at
    any place."""
    command = draw(st.sampled_from([*OWN_OPTIONS, "validate"] * 3 + ["Simulate", "-h", ""]))
    own = st.sampled_from(OWN_OPTIONS.get(command, OPTIONS))
    good = st.tuples(own, st.sampled_from(VALUES[:2])).map(lambda pair: pair[:1] if pair[0] in FLAGS else pair)
    other = st.one_of(st.tuples(own, st.sampled_from(VALUES)), ANY_PIECE)
    pieces = [draw(good if draw(st.integers(0, 9)) else other) for _ in range(draw(st.integers(0, 5)))]
    if command == "simulate":
        pieces.append(tuple(draw(SIMULATE_FLAGS)))
    own_positionals = OWN_POSITIONALS.get(command, [])
    for positional in draw(st.sampled_from([own_positionals] * 4 + [[], ["x"], ["-x"], [*own_positionals, "x"]])):
        pieces.insert(draw(st.integers(0, len(pieces))), (positional,))
    return [command, *(token for piece in pieces for token in piece)]


def argparse_namespace(argv):
    """``vars`` of the namespace argparse parses ``argv`` into, or None where it prints help or an error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(list(argv)))
        except (cli._UsageError, SystemExit):
            return None


class TestDispatch:
    """``main`` parses an exact argv itself and hands any other to argparse:
    each argv must end in the same exit code, stdout and stderr as when
    argparse parses them all."""

    @staticmethod
    def check_same_as_argparse(argv):
        exact = call_main_or_help(list(argv))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_parse_exact", lambda argv: None)  # every argv goes to argparse
            assert call_main_or_help(list(argv)) == exact

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["-h"], ["--help"], ["frobnicate"], ["--", "simulate", "{graph}"], ["Simulate", "{graph}"],
            ["simulate"], ["simulate", "{graph}", "--bogus"], ["simulate", "{graph}", "--h"],
            ["simulate", "{graph}", "--m", "8", "--comm"], ["simulate", "{graph}", "--m", "8", "--check"],
            ["simulate", "{graph}", "--m", "8", "--check-model", "--csv"], ["simulate", "--", "{graph}"],
            ["simulate", "{graph}", "--help=x"], ["simulate", "{graph}", "--m", "-1"],
            ["sweep", "--m"], ["sweep", "--m", "1,2", "x"], ["sweep", "-hx"], ["et2", "--e", "8"],
            ["et2", "--e", "8", "--t", "2", "stretch:2"], ["validate", "{graph}", "{graph}"],
        ],
        ids=lambda argv: " ".join(argv) or "no-argv",
    )
    def test_hand_corpus(self, tmp_path, argv):
        path = write_graph(tmp_path, CONDITIONAL_GRAPH)
        self.check_same_as_argparse([arg.replace("{graph}", path) for arg in argv])

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(VALID_DOC, st.sampled_from(["simulate", "validate", "sweep", "comm-sweep", "et2"]), SIMULATE_FLAGS)
    def test_generated_flags(self, tmp_path_factory, doc, command, flags):
        path = tmp_path_factory.mktemp("dispatch") / "graph.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.check_same_as_argparse([command, str(path), *flags])

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(MALFORMED_BYTES, st.sampled_from(["file", "missing", "directory"]), st.sampled_from(["simulate", "validate"]))
    def test_malformed_graph(self, tmp_path_factory, content, where, command):
        path = tmp_path_factory.mktemp("dispatch") / "graph.json"
        if where == "file":
            path.write_bytes(content)
        elif where == "directory":
            path.mkdir()
        self.check_same_as_argparse([command, str(path)])

    @settings(max_examples=2000, derandomize=True, database=None, deadline=None)
    @given(argvs())
    @example(["simulate", "graph.json", "--outcome", "a=b", "--m", "4", "--outcome", "c=d", "--csv", "--csv"])
    @example(["et2", "stretch:2", "--t", "2", "--e", " 7 ", "--e", "1_0"])
    @example(["sweep", "--m", "", "--plot-script", "", "--static-power", "--work", "nan"])
    def test_exact_parser_declines_or_agrees_with_argparse(self, argv):
        exact = cli._parse_exact(argv)
        if exact is not None:  # compared as text, since nan equals no nan; sorted, since order may differ
            assert repr(sorted(vars(exact).items())) == repr(sorted(argparse_namespace(argv).items()))

    def test_valid_argv_never_build_the_parser(self, monkeypatch, tmp_path):
        calls, build_parser = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build_parser())
        path = write_graph(tmp_path, CONDITIONAL_GRAPH)
        argvs = [["simulate", path, "--m", "4", "--outcome", "pick=left", "--csv"], ["validate", path],
                 ["simulate", path, "--m", "2", "--comm-costs", "--check-model", "--seed", "7", "--outcome", "pick=right"],
                 ["sweep", "--m", "1,2"], ["comm-sweep", "--static-power"], ["et2", "--e", "8", "--t", "2", "stretch:2"]]
        assert [call_main(argv)[0] for argv in argvs] == [0] * 6
        assert calls == []
        assert call_main(["simulate", path, "--bogus"])[0] == call_main(["frobnicate"])[0] == 1
        assert len(calls) == 2

    def test_benchmark_calls_are_exact(self, monkeypatch):
        workloads = benchmark_workloads(monkeypatch)
        for workload in ("wide-short", "shared-read", "stage-chain", "model-sweep"):
            for argv in workloads.make_cases(workload, 1001, 1)[0].calls:
                assert cli._parse_exact(argv) is not None, argv

    def test_outcome_list_is_fresh_per_call(self):
        first, second = (cli._parse_exact(["simulate", "graph.json"]) for _ in range(2))
        assert first.outcome == second.outcome == [] and first.outcome is not second.outcome
