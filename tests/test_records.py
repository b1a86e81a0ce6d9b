"""The package's records and validated inputs are named tuples.

A result record (``EnsembleMetrics``, ``CommMetrics``, ``SimReport``,
``ModelDeviation``, ``Et2ParallelResult``, ``CrewViolation``) is a plain
``typing.NamedTuple``.  A validated input (``ChipSpec``, ``SimConfig``,
``Et2State``, ``Task``) is a named tuple whose ``__new__`` checks its
fields, and whose ``_make``, and so ``_replace``, go through that check.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plural
from plural import (
    ChipSpec,
    CommMetrics,
    ControlKind,
    CrewViolation,
    EnsembleMetrics,
    Et2ParallelResult,
    Et2State,
    ModelDeviation,
    PluralError,
    SimConfig,
    SimReport,
    Task,
    make_state,
)

# The field order of each class when it was a dataclass (0.7.0): the CSV
# columns and the JSON keys follow it, so it must not move.
FIELDS = {
    EnsembleMetrics: ("m", "core_area", "core_freq", "single_freq", "core_perf", "ensemble_perf", "compute_time",
                      "single_time", "power", "single_power", "energy", "single_energy", "speedup", "energydown",
                      "powerdown", "es", "es2", "perf_per_power"),
    CommMetrics: ("m", "sched_msg_energy", "sched_power", "mem_access_energy", "mem_power", "compute_power",
                  "total_power", "perf_per_total_power"),
    SimReport: ("m", "makespan", "total_instructions", "compute_energy", "sched_msg_energy_total",
                "mem_msg_energy_total", "avg_power", "per_core_busy_time", "utilization", "sched_msg_count",
                "mem_access_count", "mem_conflict_stalls", "empirical_speedup"),
    ModelDeviation: ("speedup_measured", "speedup_model", "speedup_deviation", "energydown_measured",
                     "energydown_model", "energydown_deviation", "powerdown_measured", "powerdown_model",
                     "powerdown_deviation"),
    Et2ParallelResult: ("per_core", "ensemble_energy", "ensemble_power", "ensemble_time"),
    CrewViolation: ("task_a", "task_b", "variable", "kind"),
    ChipSpec: ("area", "work", "cpi", "pollack_exponent", "static_power_enabled"),
    SimConfig: ("chip", "m", "mem_access_stride", "prealloc_depth", "comm_costs_enabled", "seed",
                "conditional_outcomes"),
    Et2State: ("energy", "time", "theta"),
    Task: ("id", "kind", "instances", "control_kind", "entry_point", "instruction_count", "read_set", "write_set"),
}

CHIP = ChipSpec(area=1e6, work=1.0)
# A valid value of each validated input, whose fields the cases below change one at a time.
VALID = {
    ChipSpec: CHIP,
    SimConfig: SimConfig(chip=CHIP, m=4, conditional_outcomes={"pick": "left"}),
    Et2State: make_state(8.0, 2.0),
    Task: Task(id="a", instruction_count=10, read_set={"x"}, write_set={"y"}),
}

NOT_A_NUMBER = st.sampled_from([math.inf, -math.inf, math.nan, True, False, "1", None, 2**1024])
NOT_A_COUNT = st.one_of(st.floats(), st.sampled_from([True, False, "1", None]))
# One invalid value per field of each validated input: each makes the constructor raise.
INVALID = {
    ChipSpec: {
        **{name: st.one_of(NOT_A_NUMBER, st.floats(max_value=0.0), st.integers(max_value=0))
           for name in ("area", "work", "cpi")},
        "pollack_exponent": st.one_of(NOT_A_NUMBER, st.floats(max_value=0.0), st.floats(min_value=1.0)),
    },
    SimConfig: {
        "chip": st.just(CHIP._replace(static_power_enabled=True)),
        "m": st.one_of(NOT_A_COUNT, st.integers(max_value=0)),
        "mem_access_stride": st.one_of(NOT_A_COUNT, st.integers(max_value=0)),
        "prealloc_depth": st.one_of(NOT_A_COUNT, st.integers(max_value=-1)),
        "seed": NOT_A_COUNT,
    },
    Et2State: {  # theta = 32 ties energy 8 to time 2, so any other positive value is inconsistent
        "energy": st.one_of(NOT_A_NUMBER, st.floats(max_value=0.0), st.floats(min_value=9.0, max_value=1e300)),
        "time": st.one_of(NOT_A_NUMBER, st.floats(max_value=0.0), st.floats(min_value=3.0, max_value=1e300)),
        "theta": st.one_of(NOT_A_NUMBER, st.floats(max_value=0.0), st.floats(min_value=33.0, max_value=1e300)),
    },
    Task: {
        "id": st.one_of(st.just(""), st.integers(), st.none()),
        "kind": st.sampled_from(["singular", None, ControlKind.MERGE]),
        "instances": st.one_of(st.integers(min_value=2), st.booleans(), st.floats()),
        "control_kind": st.sampled_from([*ControlKind, "merge"]),
        "entry_point": st.one_of(st.just(""), st.integers()),
        "instruction_count": st.one_of(st.integers(max_value=-1), st.booleans(), st.floats()),
        "read_set": st.one_of(st.text(min_size=1), st.lists(st.integers(), min_size=1)),
        "write_set": st.one_of(st.text(min_size=1), st.lists(st.none(), min_size=1)),
    },
}
CHANGES = st.sampled_from(sorted(((cls, name) for cls, fields in INVALID.items() for name in fields),
                                 key=lambda case: (case[0].__name__, case[1])))


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_keep_the_dataclass_order(cls):
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_classes_are_named_tuples_without_instance_dicts(cls):
    assert issubclass(cls, tuple)
    assert cls.__dictoffset__ == 0


def test_a_record_equals_its_plain_tuple():
    row = plural.ensemble_metrics(CHIP, 16)
    assert row == tuple(row) and list(row._asdict()) == list(FIELDS[EnsembleMetrics])
    assert (row.speedup, row.energydown, row.powerdown) == (4.0, 16.0, 4.0)
    violation = CrewViolation("a", "b", "x", "write-write")
    assert violation == ("a", "b", "x", "write-write")
    assert str(violation) == "write-write conflict on 'x' between 'a' and 'b'"


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_replace_of_the_same_fields_gives_an_equal_value(cls):
    value = VALID[cls]
    assert value._replace() == value and type(value._replace()) is cls
    assert cls._make(value) == value
    assert cls(**value._asdict()) == value
    assert pickle.loads(pickle.dumps(value)) == value  # unpickling calls the checked __new__


def test_replace_normalizes_as_the_constructor_does():
    task = VALID[Task]._replace(read_set=["z", "z"])
    assert task.read_set == frozenset({"z"})
    outcomes = {"pick": "right"}
    config = VALID[SimConfig]._replace(conditional_outcomes=outcomes)
    assert config.conditional_outcomes == outcomes and config.conditional_outcomes is not outcomes


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(CHANGES.flatmap(lambda case: st.tuples(st.just(case), INVALID[case[0]][case[1]])))
def test_replace_checks_as_the_constructor_does(drawn):
    (cls, name), value = drawn
    fields = {**VALID[cls]._asdict(), name: value}
    with pytest.raises(PluralError) as built:
        cls(**fields)
    with pytest.raises(type(built.value)) as replaced:
        VALID[cls]._replace(**{name: value})
    assert str(replaced.value) == str(built.value)
    with pytest.raises(type(built.value)) as made:
        cls._make(fields.values())
    assert str(made.value) == str(built.value)


def test_replace_refuses_an_unknown_field():
    with pytest.raises(ValueError, match="unexpected field names"):
        CHIP._replace(areas=2.0)
