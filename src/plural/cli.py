"""Command-line front end.

Subcommands:

* ``sweep``       core-count sweep of the scaling model, CSV on stdout.
* ``comm-sweep``  the same sweep with the communication power breakdown.
* ``et2``         apply one energy-time trade-off transform to an (E, t) point.
* ``simulate``    run the discrete-event simulator on a task-graph file.
* ``validate``    structural and CREW checks of a task-graph file.

Exit codes: 0 success, 1 usage error, 2 input or validation error,
3 internal error.  Sweep defaults (area 1e6, work 1, m from 1 to 16384 in
powers of two) emit the model's standard demonstration data with no flags.

Each subcommand's options are declared once, in ``_COMMANDS``.  ``main``
parses an exact argv itself: a subcommand's name, then its options by their
whole names with their values, and its positionals.  Any other argv (help,
an abbreviation, ``--opt=value``, any usage error) goes to the argparse
parser built from the same table, so help and errors are argparse's own
bytes, and an exact argv never loads argparse.  ``main(argv)`` may be
called any number of times in one process: the argparse parser is built
once, when first needed, and reused.  Each subcommand imports the modules
it uses when it runs, so a call loads only what it needs: only
``simulate`` and ``validate`` load ``graph``.  ``check_crew`` is a name of
this module all the same, imported from ``graph`` the first time it is
read (PEP 562), and ``simulate`` and ``validate`` look it up here each time
they call it, so a function put in its place is the one they call.
"""

import functools
import sys
from itertools import compress
from types import SimpleNamespace

from .errors import DomainError, PluralError

TYPE_CHECKING = False  # what type checkers read as typing.TYPE_CHECKING, without loading typing
if TYPE_CHECKING:
    import argparse
    from typing import Iterator

    from . import et2, scaling
    from .graph import CrewViolation

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_module = sys.modules[__name__]  # where _warn_crew looks up check_crew


def __getattr__(name: str):
    """``check_crew``, imported from ``graph`` and bound here the first time it is read."""
    if name != "check_crew":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .graph import check_crew

    globals()[name] = check_crew
    return check_crew


def _csv_layout(columns: list[tuple[str, type]]) -> tuple[str, str]:
    """The header line and the ``%`` row format of a CSV over (name, type) columns.

    ``%d`` spells an int as ``str`` does and ``%.12g`` a float as
    ``format(value, ".12g")`` does, so one ``%`` writes a whole row.
    """
    header = ",".join(name for name, _ in columns)
    row = ",".join("%d" if kind is int else "%.12g" for _, kind in columns)
    return header + "\n", row + "\n"


@functools.cache
def _sweep_csv(with_comm: bool) -> tuple[str, str]:
    """The ``sweep`` layout, built on first use from the field types: a row's
    fields; for ``comm-sweep`` the traffic row's fields but m follow."""
    from typing import get_type_hints

    from . import comm, scaling

    columns = [*get_type_hints(scaling.EnsembleMetrics).items()]
    return _csv_layout(columns + [*get_type_hints(comm.CommMetrics).items()][1:] if with_comm else columns)


@functools.cache
def _report_csv() -> tuple[str, str, list[bool]]:
    """The ``simulate --csv`` layout, built on first use from the field types: the
    report's int and float fields, then the mean utilization; and which fields they are."""
    from typing import get_type_hints

    from . import sim

    columns = [*get_type_hints(sim.SimReport).items()]
    spelled = [kind in (int, float) for _, kind in columns]
    return (*_csv_layout([*compress(columns, spelled), ("mean_utilization", float)]), spelled)


PLOT_SCRIPT = """\
# gnuplot stub: save the sweep CSV next to this script and adjust `datafile`.
datafile = "{name}"
set datafile separator ","
set key outside autotitle columnhead
set logscale xy
plot for [i=2:*] datafile using 1:i with lines
"""


class _UsageError(Exception):
    pass


def parse_core_counts(text: str) -> list[int]:
    """Parse an m-range flag.

    Accepts a single count ("16"), a comma list ("1,4,16"), or a geometric
    range "start:stop:xFACTOR" ("1:16384:x2") inclusive of both ends.
    """
    text = text.strip()
    try:
        if ":" in text:
            start_s, stop_s, step_s = text.split(":")
            if not step_s.startswith("x"):
                raise ValueError("step must look like x2")
            start, stop, factor = int(start_s), int(stop_s), int(step_s[1:])
            if start < 1 or stop < start or factor < 2:
                raise ValueError("need 1 <= start <= stop and factor >= 2")
            values = []
            m = start
            while m <= stop:
                values.append(m)
                m *= factor
            return values
        values = [int(part) for part in text.split(",")]
        if not values or any(m < 1 for m in values):
            raise ValueError("core counts must be positive")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("core counts must be strictly increasing")
        return values
    except ValueError as exc:
        raise _UsageError(f"bad m-range {text!r}: {exc}") from None


def _chip_from_args(args, work: float = 1.0, static_power: bool = False) -> "scaling.ChipSpec":
    # Only the sweeps take a work and static power: a run's work is its graph's.
    from . import scaling

    return scaling.ChipSpec(
        area=args.area,
        work=work,
        cpi=args.cpi,
        pollack_exponent=args.alpha,
        static_power_enabled=static_power,
    )


def cmd_sweep(args, out) -> int:
    """``sweep``, and ``comm-sweep``: the same rows with the traffic columns."""
    from . import comm, scaling

    spec = _chip_from_args(args, args.work, args.static_power)
    with_comm = args.command == "comm-sweep"
    header, row = _sweep_csv(with_comm)
    rows = scaling.sweep(spec, parse_core_counts(args.m))
    if with_comm:
        rows = [(*metrics, *comm.comm_metrics(spec, metrics.m)[1:]) for metrics in rows]
    lines = [header] + [row % metrics for metrics in rows]
    if args.plot_script:  # written before any row, so a bad path leaves stdout empty
        with open(args.plot_script, "w", encoding="utf-8") as fh:
            fh.write(PLOT_SCRIPT.format(name=f"{args.command}.csv"))
    out.write("".join(lines))
    return EXIT_OK


def _state_dict(state: "et2.Et2State") -> dict:
    return {**state._asdict(), "power": state.power}


_TRANSFORMS = {  # each transform's function in et2, and the type of its argument
    "stretch": ("stretch_time", float),
    "shrink": ("shrink_work", float),
    "iso-time": ("iso_time_energy", float),
    "iso-energy": ("iso_energy_time", float),
    "parallel": ("parallelize", int),
}
_CONSTRAINTS = {"E0": "energy", "T0": "time", "P0": "power"}  # constrain's keyword for each


def _apply_transform(state: "et2.Et2State", spec: str):
    from . import et2

    name, _, arg = spec.partition(":")
    if not arg:
        raise _UsageError(f"transform {spec!r} needs an argument, e.g. stretch:2")
    try:
        if name in _TRANSFORMS:
            transform, parse = _TRANSFORMS[name]
            return getattr(et2, transform)(state, parse(arg))
        if name == "constrain":
            kind, _, value_s = arg.partition("=")
            if not value_s:
                raise _UsageError("constrain needs E0=, T0=, or P0=, e.g. constrain:P0=4")
            value = float(value_s)
            if kind not in _CONSTRAINTS:
                raise _UsageError(f"unknown constraint {kind!r} (use E0, T0, or P0)")
            return et2.constrain(state, **{_CONSTRAINTS[kind]: value})
    except ValueError as exc:
        if isinstance(exc, PluralError):
            raise
        raise _UsageError(f"bad transform argument in {spec!r}: {exc}") from None
    raise _UsageError(f"unknown transform {name!r}")


def cmd_et2(args, out) -> int:
    import json
    from . import et2

    state = et2.make_state(args.e, args.t)
    result = _apply_transform(state, args.transform)
    if isinstance(result, et2.Et2ParallelResult):
        after = {
            "per_core": _state_dict(result.per_core),
            "ensemble": {
                "energy": result.ensemble_energy,
                "time": result.ensemble_time,
                "power": result.ensemble_power,
            },
        }
    else:
        after = _state_dict(result)
    doc = {"before": _state_dict(state), "transform": args.transform, "after": after}
    out.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _outcomes_from_args(pairs: list[str]) -> dict[str, str]:
    outcomes = {}
    for pair in pairs:
        task, sep, succ = pair.partition("=")
        if not sep or not task or not succ:
            raise _UsageError(f"bad --outcome {pair!r}, expected TASK=SUCCESSOR")
        outcomes[task] = succ
    return outcomes


def _warn_crew(g) -> "list[CrewViolation]":
    """Warn of each CREW violation on stderr; return the violations."""
    violations = _module.check_crew(g)  # through the module, so a replaced check_crew is the one called
    sys.stderr.write(("WARNING: CREW violation: %s\n" * len(violations)) % tuple(violations))
    return violations


JSON_MAX_M = 2**20  # cores a JSON report may list: 9 bytes per core per list, 19 MB in all


def _dump_report(doc: dict) -> "Iterator[str]":
    """``json.dumps(doc, indent=2)`` and a newline, byte for byte, in pieces,
    once each per-core tuple is padded with 0.0 to ``doc["m"]``.

    ``doc`` must be a report dict from ``sim.report_as_dict``, with or
    without ``model_check``: field-name keys; values that are ints, finite
    floats of at least +0.0, non-empty tuples of such floats, or one flat
    dict of finite floats.  A scalar is spelled by ``repr``, as ``json``
    spells it.  A report lists the cores a run used, and the printed report
    all m: this is the one place that pads.  A tuple's distinct values are
    spelled once each (equal floats of at least +0.0 spell alike), and the
    cores never used follow as one repeated string, its own piece, so the
    cost grows with the cores used, not m.
    """
    text, lead = "", "{\n  "
    for key, value in doc.items():
        text += lead + '"%s": ' % key
        lead = ",\n  "
        if type(value) is tuple:
            spelled = {v: repr(v) for v in dict.fromkeys(value)}
            yield text + "[\n    " + ",\n    ".join(map(spelled.__getitem__, value))
            yield ",\n    0.0" * (doc["m"] - len(value))
            text = "\n  ]"
        elif type(value) is dict:
            text += "{\n    " + ",\n    ".join(map('"%s": %r'.__mod__, value.items())) + "\n  }"
        else:
            text += repr(value)
    yield text + "\n}\n"


def cmd_simulate(args, out) -> int:
    import json
    from . import graphio, sim

    g = graphio.load(args.graph)
    _warn_crew(g)
    cfg = sim.SimConfig(
        chip=_chip_from_args(args),
        m=args.m,
        mem_access_stride=args.stride,
        prealloc_depth=args.prealloc_depth,
        comm_costs_enabled=args.comm_costs,
        seed=args.seed,
        conditional_outcomes=_outcomes_from_args(args.outcome),
    )
    if args.events is None:
        report = sim.run(g, cfg)
    else:
        with open(args.events, "w", encoding="utf-8") as trace:  # opened before the run, so a bad path costs none
            report = sim.run(g, cfg, events=lambda event: trace.write(json.dumps(event._asdict()) + "\n"))
    if args.csv:
        header, row, spelled = _report_csv()
        mean_utilization = sum(report.utilization) / cfg.m  # unused cores add +0.0 each
        out.write(header + row % (*compress(report, spelled), mean_utilization))
    elif cfg.m > JSON_MAX_M:
        message = f"a JSON report lists each of the m cores, so m must be at most {JSON_MAX_M}, got {cfg.m}"
        raise DomainError(message + "; --csv takes any m")
    else:
        doc = sim.report_as_dict(report)
        if args.check_model:
            doc["model_check"] = sim.compare_to_model(report, cfg)._asdict()
        out.writelines(_dump_report(doc))
    return EXIT_OK


def cmd_validate(args, out) -> int:
    from . import graphio
    from .graph import validate_dag

    g = graphio.load(args.graph)
    cycle = validate_dag(g)
    if cycle is not None:
        sys.stderr.write("cycle: " + " -> ".join(cycle) + "\n")
        return EXIT_INPUT
    violations = _warn_crew(g)
    edges = sum(map(len, g._successors.values()))  # each list is distinct successors: no edge set is built
    out.write(f"ok: {len(g)} tasks, {edges} edges, {len(violations)} CREW violation(s)\n")
    return EXIT_OK


_CHIP = {
    "--area": dict(type=float, default=1e6, help="total chip area A (default 1e6)"),
    "--alpha": dict(type=float, default=0.5, help="frequency-vs-area exponent (default 0.5)"),
    "--cpi": dict(type=float, default=1.0, help="cycles per instruction (default 1)"),
}
_SWEEP = {
    **_CHIP,
    "--work": dict(type=float, default=1.0, help="workload size W in instructions (default 1)"),
    "--static-power": dict(action="store_true", default=False,
                           help="add area-proportional static power to the power figures"),
    "--m": dict(type=str, default="1:16384:x2", help="core counts: N, N,N,..., or start:stop:x2"),
    "--plot-script": dict(type=str, help="also write a gnuplot stub to this path"),
}
_GRAPH = {"graph": "task-graph JSON file"}
# Each subcommand, declared once for build_parser and _parse_exact: its help;
# its function; its positionals, name: help; its options, flag:
# add_argument's keywords (the dest is the flag's name, as argparse makes it;
# a store_true flag names its default, and a value its type); and the flags
# of which at most one may be given.
_COMMANDS = {
    "sweep": ("scaling-model sweep over core counts (CSV)", cmd_sweep, {}, _SWEEP, ()),
    "comm-sweep": ("sweep with communication power breakdown (CSV)", cmd_sweep, {}, _SWEEP, ()),
    "et2": ("apply an energy-time trade-off transform", cmd_et2, {
        "transform": "stretch:A | shrink:B | iso-time:B | iso-energy:B | parallel:M | constrain:{E0|T0|P0}=V",
    }, {
        "--e": dict(type=float, required=True, help="energy of the starting point"),
        "--t": dict(type=float, required=True, help="time of the starting point"),
    }, ()),
    "simulate": ("simulate a task-graph file", cmd_simulate, _GRAPH, {
        **_CHIP,
        "--m": dict(type=int, default=1, help="number of cores (default 1)"),
        "--stride": dict(type=int, default=5, help="instructions per memory access (default 5)"),
        "--prealloc-depth": dict(type=int, default=1, help="pre-allocation queue depth (default 1)"),
        "--comm-costs": dict(action="store_true", default=False, help="charge scheduler/memory message energy"),
        "--seed": dict(type=int, default=0, help="seed for conflict arbitration (default 0)"),
        "--outcome": dict(action="append", type=str, default=[], metavar="TASK=SUCCESSOR",
                          help="chosen successor of a conditional control task (repeatable)"),
        "--events": dict(type=str, metavar="FILE", help="write the event trace to FILE, one JSON object per line"),
        "--check-model": dict(action="store_true", default=False,
                              help="append deviations from the closed-form model"),
        "--csv": dict(action="store_true", default=False, help="emit the report as one CSV row"),
    }, ("--check-model", "--csv")),  # a CSV row has no place for the model check
    "validate": ("check a task-graph file (structure, DAG, CREW)", cmd_validate, _GRAPH, {}, ()),
}


def _parse_exact(argv: list[str]) -> "SimpleNamespace | None":
    """The namespace argparse gives for an exact ``argv``, or None for argparse to parse it.

    Exact: a subcommand's name, then its options by their whole names, each
    followed by its value if it takes one, and its positionals; no value or
    positional starts with "-", no required option is missing and no
    exclusive pair is given.  So help and every usage error are argparse's.
    """
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    _, func, positionals, options, exclusive = spec
    args = {flag[2:].replace("-", "_"): [] if kwargs.get("action") == "append" else kwargs.get("default")
            for flag, kwargs in options.items()}
    given, found, tokens = set(), [], iter(argv[1:])
    for token in tokens:
        kwargs = options.get(token)
        if kwargs is None:
            if token.startswith("-"):
                return None
            found.append(token)
            continue
        given.add(token)
        dest, action = token[2:].replace("-", "_"), kwargs.get("action")
        if action == "store_true":
            args[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = kwargs["type"](value)
        except ValueError:
            return None
        args[dest] = [*args[dest], value] if action == "append" else value
    if len(found) != len(positionals) or len(given.intersection(exclusive)) > 1 or any(
            kwargs.get("required") and flag not in given for flag, kwargs in options.items()):
        return None
    return SimpleNamespace(command=argv[0], func=func, **args, **dict(zip(positionals, found)))


@functools.cache
def build_parser() -> "argparse.ArgumentParser":
    """The ``plural`` parser, built from ``_COMMANDS`` once and shared:
    ``parse_args`` fills a fresh namespace per call, and ``--outcome``
    copies its default list to append."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """ArgumentParser that reports usage problems via exception, not exit(2)."""

        def error(self, message):
            raise _UsageError(message)

    parser = _Parser(prog="plural", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, positionals, options, exclusive) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for positional, text in positionals.items():
            p.add_argument(positional, help=text)
        group = p.add_mutually_exclusive_group() if exclusive else p
        for flag, kwargs in options.items():
            (group if flag in exclusive else p).add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_exact(argv) or build_parser().parse_args(argv)
        return args.func(args, sys.stdout)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (OSError, PluralError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
