"""Tests for the closed-form scaling model."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plural import ChipSpec, DomainError, ValidationError, ensemble_metrics, sweep
from plural.scaling import _check_in_range

REL = 1e-12


def isclose(a, b):
    return math.isclose(a, b, rel_tol=REL)


class TestChipSpec:
    def test_defaults(self):
        spec = ChipSpec(area=1e6, work=1)
        assert spec.cpi == 1.0
        assert spec.pollack_exponent == 0.5
        assert spec.static_power_enabled is False

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"area": 0, "work": 1}, "area"),
            ({"area": -2.0, "work": 1}, "area"),
            ({"area": 1, "work": 0}, "work"),
            ({"area": 1, "work": 1, "cpi": 0}, "cpi"),
            ({"area": 1, "work": 1, "pollack_exponent": 0.0}, "pollack_exponent"),
            ({"area": 1, "work": 1, "pollack_exponent": 1.0}, "pollack_exponent"),
            ({"area": 1, "work": 1, "pollack_exponent": 1.5}, "pollack_exponent"),
            ({"area": math.inf, "work": 1}, "area"),
            ({"area": 1, "work": math.inf}, "work"),
            ({"area": 1, "work": 1, "cpi": math.inf}, "cpi"),
        ],
    )
    def test_invalid_fields_name_the_field(self, kwargs, field):
        with pytest.raises(ValidationError, match=field):
            ChipSpec(**kwargs)


class TestSingleProcessor:
    def test_demo_settings(self):
        # A=1e6, W=1: f1 = sqrt(A) = 1000, t1 = W/f1 = 1e-3, P1 = A*f1 = 1e9,
        # E1 = P1*t1 = A*W = 1e6.
        row = ensemble_metrics(ChipSpec(area=1e6, work=1), 1)
        assert row.core_freq == 1000.0
        assert row.compute_time == 1e-3
        assert row.power == 1e9
        assert row.energy == 1e6

    def test_unit_inputs(self):
        row = ensemble_metrics(ChipSpec(area=1, work=1), 1)
        assert row.core_freq == 1.0
        assert row.compute_time == 1.0
        assert row.power == 1.0
        assert row.energy == 1.0

    def test_general_exponent(self):
        # (1e6)**0.25 = 10**1.5, evaluated independently.
        row = ensemble_metrics(ChipSpec(area=1e6, work=1, pollack_exponent=0.25), 1)
        assert isclose(row.core_freq, 31.622776601683793)
        assert isclose(row.compute_time, 0.03162277660168379)

    def test_static_power_adds_area(self):
        base = ensemble_metrics(ChipSpec(area=1e6, work=1), 1)
        with_static = ensemble_metrics(ChipSpec(area=1e6, work=1, static_power_enabled=True), 1)
        assert with_static.power == base.power + 1e6
        assert isclose(with_static.energy, with_static.power * with_static.compute_time)

    def test_cpi_scales_perf_and_time(self):
        row = ensemble_metrics(ChipSpec(area=1e6, work=1, cpi=2.0), 1)
        assert row.core_perf == 500.0
        assert row.compute_time == 2e-3


class TestEnsemble:
    def test_demo_m16(self):
        row = ensemble_metrics(ChipSpec(area=1e6, work=1), 16)
        assert row.core_freq == 250.0
        assert row.compute_time == 2.5e-4
        assert row.power == 2.5e8
        assert row.energy == 6.25e4
        assert row.speedup == 4.0
        assert row.energydown == 16.0
        assert row.powerdown == 4.0
        assert isclose(row.perf_per_power, 1.6e-5)

    def test_m1_ratios_are_one(self):
        row = ensemble_metrics(ChipSpec(area=777.0, work=3.0), 1)
        assert row.speedup == 1.0
        assert row.energydown == 1.0
        assert row.powerdown == 1.0
        assert row.es == 1.0
        assert row.es2 == 1.0

    def test_es_figures_m4(self):
        row = ensemble_metrics(ChipSpec(area=1e6, work=1), 4)
        assert row.es == 8.0
        assert row.es2 == 16.0

    def test_rejects_bad_core_counts(self):
        spec = ChipSpec(area=1e6, work=1)
        with pytest.raises(DomainError):
            ensemble_metrics(spec, 0)
        with pytest.raises(DomainError):
            ensemble_metrics(spec, -3)
        with pytest.raises(DomainError):
            ensemble_metrics(spec, 2.0)
        with pytest.raises(DomainError, match="integer"):
            ensemble_metrics(spec, True)


class TestFieldsByName:
    """Each field against its defining formula, at a chip where no two of them
    coincide (m = 3, 64) as they do at the default chip: there speedup and
    powerdown are both sqrt(m), and core_freq equals core_perf since cpi = 1."""

    @pytest.mark.parametrize("static", [False, True])
    @pytest.mark.parametrize("m", [1, 3, 64])
    def test_each_field(self, m, static):
        area, work, cpi, alpha = 1e6, 7.0, 2.0, 0.3
        row = ensemble_metrics(ChipSpec(area, work, cpi, alpha, static), m)
        extra = area if static else 0.0
        core_freq = (area / m) ** alpha
        single_freq = area**alpha
        power = area * core_freq + extra
        single_power = area * single_freq + extra
        compute_time = work * cpi / (m * core_freq)
        single_time = work * cpi / single_freq
        speedup = single_time / compute_time
        energydown = (single_power * single_time) / (power * compute_time)
        assert type(row.m) is int and row.m == m
        assert isclose(row.core_area, area / m)
        assert isclose(row.core_freq, core_freq)
        assert isclose(row.single_freq, single_freq)
        assert isclose(row.core_perf, core_freq / cpi)
        assert isclose(row.ensemble_perf, m * core_freq / cpi)
        assert isclose(row.compute_time, compute_time)
        assert isclose(row.single_time, single_time)
        assert isclose(row.power, power)
        assert isclose(row.single_power, single_power)
        assert isclose(row.energy, power * compute_time)
        assert isclose(row.single_energy, single_power * single_time)
        assert isclose(row.speedup, speedup)
        assert isclose(row.energydown, energydown)
        assert isclose(row.powerdown, single_power / power)
        assert isclose(row.es, energydown * speedup)
        assert isclose(row.es2, energydown * speedup**2)
        assert isclose(row.perf_per_power, m * core_freq / cpi / power)
        if m > 1:  # no two floats alike, so a swap of any two fails a check above
            floats = row[1:]
            assert all(type(value) is float for value in floats)
            assert len(set(floats)) == len(floats)


# Values at and beyond each edge of 0 < value < inf, ints beyond float range among them.
_EDGE_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, -1.0, -1, 0, 1, 2.5,
     1.7976931348623157e308, 10**400, -(10**400)]
)
_ROW_VALUES = st.one_of(_EDGE_VALUES, st.floats(), st.integers(), st.integers(min_value=10**308))


class TestCheckInRange:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        row=st.none() | st.lists(_ROW_VALUES, max_size=20).map(tuple),
        m=st.integers(min_value=1),
    )
    def test_accepts_what_all_accepts(self, row, m):
        if row is not None and all(0 < value < math.inf for value in row):
            assert _check_in_range(row, m) is row
        else:
            with pytest.raises(DomainError) as caught:
                _check_in_range(row, m)
            assert str(caught.value) == f"model values at m={m} fall outside float range"


class TestSweep:
    def test_values_in_input_order(self):
        rows = sweep(ChipSpec(area=1e6, work=1), [1, 4, 16])
        assert [r.m for r in rows] == [1, 4, 16]
        assert [r.speedup for r in rows] == [1.0, 2.0, 4.0]

    def test_large_m(self):
        row = sweep(ChipSpec(area=1e6, work=1), [16384])[0]
        assert row.speedup == 128.0
        assert row.energydown == 16384.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            sweep(ChipSpec(area=1e6, work=1), [])


class TestProperties:
    def test_power_times_time_is_energy(self):
        rng = random.Random(11)
        for _ in range(300):
            spec = ChipSpec(
                area=10 ** rng.uniform(0, 9),
                work=10 ** rng.uniform(-1, 6),
                cpi=rng.uniform(0.25, 4),
                pollack_exponent=rng.uniform(0.05, 0.95),
                static_power_enabled=rng.random() < 0.5,
            )
            m = rng.choice([1, 2, 3, 7, 64, 1000])
            row = ensemble_metrics(spec, m)
            assert isclose(row.power * row.compute_time, row.energy)
            assert isclose(row.single_power * row.single_time, row.single_energy)

    def test_default_alpha_closed_forms(self):
        spec = ChipSpec(area=1e6, work=1)
        for m in [2**k for k in range(15)]:
            row = ensemble_metrics(spec, m)
            root = math.sqrt(m)
            assert isclose(row.speedup, root)
            assert isclose(row.energydown, m)
            assert isclose(row.powerdown, root)
            assert isclose(row.es, m * root)
            assert isclose(row.es2, m * m)
            assert isclose(row.perf_per_power, m / 1e6)

    def test_general_alpha_closed_forms(self):
        # From the defining formulas: splitting work m ways wins a factor m in
        # time but costs m**alpha in per-core frequency, so speedup is
        # m**(1 - alpha); energy drops by m for every alpha; powerdown is the
        # pure frequency ratio m**alpha.  All three collapse to sqrt(m)-style
        # forms at alpha = 1/2.
        rng = random.Random(23)
        for _ in range(300):
            alpha = rng.uniform(0.05, 0.95)
            spec = ChipSpec(
                area=10 ** rng.uniform(0, 8),
                work=10 ** rng.uniform(-1, 4),
                cpi=rng.uniform(0.5, 3),
                pollack_exponent=alpha,
            )
            m = rng.randint(1, 10000)
            row = ensemble_metrics(spec, m)
            assert isclose(row.speedup, m ** (1 - alpha))
            assert isclose(row.energydown, m)
            assert isclose(row.powerdown, m**alpha)

    def test_monotone_in_core_count(self):
        rows = sweep(ChipSpec(area=1e6, work=1), [2**k for k in range(15)])
        for a, b in zip(rows, rows[1:]):
            assert b.speedup > a.speedup
            assert b.energydown > a.energydown
            assert b.power < a.power
            assert b.energy < a.energy

    def test_work_scale_covariance(self):
        rng = random.Random(37)
        for _ in range(100):
            area = 10 ** rng.uniform(0, 8)
            work = 10 ** rng.uniform(-1, 4)
            k = 10 ** rng.uniform(-2, 3)
            m = rng.randint(1, 4096)
            base = ensemble_metrics(ChipSpec(area=area, work=work), m)
            scaled = ensemble_metrics(ChipSpec(area=area, work=work * k), m)
            assert isclose(scaled.compute_time, k * base.compute_time)
            assert isclose(scaled.single_time, k * base.single_time)
            assert isclose(scaled.energy, k * base.energy)
            assert isclose(scaled.single_energy, k * base.single_energy)
            assert isclose(scaled.speedup, base.speedup)
            assert isclose(scaled.energydown, base.energydown)
            assert isclose(scaled.powerdown, base.powerdown)
            assert isclose(scaled.perf_per_power, base.perf_per_power)
