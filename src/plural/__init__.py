"""Many-core scaling model, ET2 trade-off calculus, and Plural architecture simulator.

The package has three layers:

* closed-form models: ``scaling`` (area/frequency/power/energy of an m-core
  ensemble on a fixed-area chip), ``et2`` (energy-time-squared trade-off
  transforms), and ``comm`` (scheduler and shared-memory traffic power);
* the Plural programming model: ``graph`` (singular/duplicable/control task
  graphs with CREW checking) and ``graphio`` (the JSON file format);
* measurement: ``sim`` (a deterministic discrete-event simulator whose
  reports are compared back against the closed-form predictions) and ``cli``
  (the ``plural`` command).

Each name of ``__all__`` is imported from its module on first use (PEP 562),
so ``import plural`` loads none of these modules, and a name loads only its
own module and what that module imports.
"""

__version__ = "0.12.0"

_EXPORTS = {  # module -> the names it exports here, in the order of __all__
    "scaling": ("ChipSpec", "EnsembleMetrics", "ensemble_metrics", "sweep"),
    "et2": ("Et2State", "Et2ParallelResult", "make_state", "stretch_time", "shrink_work", "iso_time_energy",
            "iso_energy_time", "parallelize", "constrain"),
    "comm": ("CommMetrics", "sched_msg_energy", "sched_power", "mem_access_energy", "mem_power", "comm_metrics"),
    "graph": ("Task", "TaskKind", "ControlKind", "TaskGraph", "CrewViolation", "validate_dag", "concurrent_pairs",
              "check_crew", "expand_duplicables"),
    "sim": ("SimConfig", "SimReport", "SimEvent", "ModelDeviation", "run", "compare_to_model"),
    "errors": ("PluralError", "ValidationError", "DomainError", "GraphStructureError", "CycleError",
               "GraphFormatError", "SimConfigError", "DegenerateWorkloadError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """On first use, import a module of ``_EXPORTS`` (as ``import plural`` did before 0.8.0) or a name one exports."""
    import importlib

    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
