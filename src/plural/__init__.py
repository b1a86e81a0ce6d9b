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
"""

from .comm import (
    CommMetrics,
    comm_metrics,
    mem_access_energy,
    mem_power,
    sched_msg_energy,
    sched_power,
)
from .errors import (
    CycleError,
    DegenerateWorkloadError,
    DomainError,
    GraphFormatError,
    GraphStructureError,
    PluralError,
    SimConfigError,
    ValidationError,
)
from .et2 import (
    Et2ParallelResult,
    Et2State,
    constrain,
    iso_energy_time,
    iso_time_energy,
    make_state,
    parallelize,
    shrink_work,
    stretch_time,
)
from .graph import (
    ControlKind,
    CrewViolation,
    Task,
    TaskGraph,
    TaskKind,
    check_crew,
    concurrent_pairs,
    expand_duplicables,
    validate_dag,
)
from .scaling import ChipSpec, EnsembleMetrics, ensemble_metrics, sweep
from .sim import ModelDeviation, SimConfig, SimEvent, SimReport, compare_to_model, run

__version__ = "0.7.0"

__all__ = [
    "ChipSpec",
    "EnsembleMetrics",
    "ensemble_metrics",
    "sweep",
    "Et2State",
    "Et2ParallelResult",
    "make_state",
    "stretch_time",
    "shrink_work",
    "iso_time_energy",
    "iso_energy_time",
    "parallelize",
    "constrain",
    "CommMetrics",
    "sched_msg_energy",
    "sched_power",
    "mem_access_energy",
    "mem_power",
    "comm_metrics",
    "Task",
    "TaskKind",
    "ControlKind",
    "TaskGraph",
    "CrewViolation",
    "validate_dag",
    "concurrent_pairs",
    "check_crew",
    "expand_duplicables",
    "SimConfig",
    "SimReport",
    "SimEvent",
    "ModelDeviation",
    "run",
    "compare_to_model",
    "PluralError",
    "ValidationError",
    "DomainError",
    "GraphStructureError",
    "CycleError",
    "GraphFormatError",
    "SimConfigError",
    "DegenerateWorkloadError",
]
