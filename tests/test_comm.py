"""Tests for the communication cost model."""

import math

import pytest

from plural import (
    ChipSpec,
    DomainError,
    comm_metrics,
    ensemble_metrics,
    mem_access_energy,
    mem_power,
    sched_msg_energy,
    sched_power,
)

REL = 1e-12

SWEEP_M = [2**k for k in range(15)]  # 1 .. 16384


def isclose(a, b):
    return math.isclose(a, b, rel_tol=REL)


class TestSchedulerTraffic:
    def test_msg_energy(self):
        assert sched_msg_energy(1e6) == 1000.0
        assert sched_msg_energy(1.0) == 1.0
        assert sched_msg_energy(4e6) == 2000.0

    def test_power(self):
        assert sched_power(1e6, 1024) == 3.2e7
        assert sched_power(1.0, 1) == 1.0
        assert sched_power(1e6, 16) == 4e6

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            sched_msg_energy(0)
        with pytest.raises(DomainError):
            sched_power(1e6, 0)
        with pytest.raises(DomainError):
            sched_power(-1.0, 4)


class TestMemoryTraffic:
    def test_access_energy(self):
        assert mem_access_energy(1e6, 1024) == 1010.0
        assert mem_access_energy(1.0, 1) == 1.0
        assert mem_access_energy(1e6, 2) == 1001.0

    def test_single_core_has_no_switch_term(self):
        for area in (1.0, 4.0, 1e6, 3.7e8):
            assert mem_access_energy(area, 1) == sched_msg_energy(area)

    def test_power(self):
        assert mem_power(1e6, 1024) == 3.232e7
        assert mem_power(1.0, 1) == 1.0
        assert mem_power(1e6, 1) == 1e6

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            mem_access_energy(0, 4)
        with pytest.raises(DomainError):
            mem_power(1e6, -1)


class TestCommMetrics:
    def test_total_at_m1(self):
        row = comm_metrics(ChipSpec(area=1e6, work=1), 1)
        assert row.total_power == 1e9 + 1e6 + 1e6
        assert isclose(row.perf_per_total_power, 9.980039920159682e-07)

    def test_total_at_m1024(self):
        row = comm_metrics(ChipSpec(area=1e6, work=1), 1024)
        assert row.compute_power == 3.125e7
        assert row.sched_power == 3.2e7
        assert row.mem_power == 3.232e7
        assert isclose(row.total_power, 9.557e7)

    def test_total_is_sum_of_components(self):
        for m in SWEEP_M:
            row = comm_metrics(ChipSpec(area=1e6, work=1), m)
            assert row.total_power == row.compute_power + row.sched_power + row.mem_power
            assert row.compute_power > 0
            assert row.sched_power > 0
            assert row.mem_power > 0

    def test_crossing_behavior(self):
        rows = [comm_metrics(ChipSpec(area=1e6, work=1), m) for m in SWEEP_M]
        for a, b in zip(rows, rows[1:]):
            assert b.compute_power < a.compute_power
            assert b.sched_power > a.sched_power
            assert b.mem_power > a.mem_power

    def test_ratio_flattens_at_high_core_counts(self):
        rows = {m: comm_metrics(ChipSpec(area=1e6, work=1), m) for m in SWEEP_M}
        values = [rows[m].perf_per_total_power for m in SWEEP_M]
        for a, b in zip(values, values[1:]):
            assert b >= a
        assert rows[16384].perf_per_total_power / rows[4096].perf_per_total_power < 1.10

    def test_area_scaling_of_components(self):
        # Growing the chip at fixed m scales scheduler power exactly linearly,
        # compute power by k**1.5, memory power at most linearly (the switch
        # term does not grow with area), and in the demonstration regime the
        # total lands between k and k**1.5.
        spec = ChipSpec(area=1e6, work=1)
        for k in (2.0, 4.0, 10.0):
            big = ChipSpec(area=k * 1e6, work=1)
            for m in SWEEP_M:
                base = comm_metrics(spec, m)
                scaled = comm_metrics(big, m)
                assert isclose(scaled.sched_power, k * base.sched_power)
                assert isclose(scaled.compute_power, k**1.5 * base.compute_power)
                assert scaled.mem_power <= k * base.mem_power * (1 + REL)
                ratio = scaled.total_power / base.total_power
                assert k * (1 - REL) <= ratio <= k**1.5 * (1 + REL)

    def test_does_not_read_the_work(self):
        # A work of 1.7e308 puts the ensemble row out of float range at m = 1;
        # the traffic row reads only the chip's area, cpi, exponent and flag.
        assert comm_metrics(ChipSpec(1e6, 1.7e308), 1) == comm_metrics(ChipSpec(1e6, 1), 1)
        with pytest.raises(DomainError):
            ensemble_metrics(ChipSpec(1e6, 1.7e308), 1)


class TestFieldsByName:
    """Each field against its defining formula, off the default chip; at m = 1
    the two energies and the two traffic powers coincide, at m = 3 and 64 none do."""

    @pytest.mark.parametrize("static", [False, True])
    @pytest.mark.parametrize("m", [1, 3, 64])
    def test_each_field(self, m, static):
        area = 1e6
        spec = ChipSpec(area, 7.0, 2.0, 0.3, static)
        ensemble = ensemble_metrics(spec, m)
        row = comm_metrics(spec, m)
        sched_power = area * math.sqrt(m)
        mem_power = (math.sqrt(area) + math.log2(m)) * math.sqrt(m * area)
        total = ensemble.power + sched_power + mem_power
        assert type(row.m) is int and row.m == m
        assert isclose(row.sched_msg_energy, math.sqrt(area))
        assert isclose(row.sched_power, sched_power)
        assert isclose(row.mem_access_energy, math.sqrt(area) + math.log2(m))
        assert isclose(row.mem_power, mem_power)
        assert row.compute_power == ensemble.power
        assert isclose(row.total_power, total)
        assert isclose(row.perf_per_total_power, ensemble.ensemble_perf / total)
        if m > 1:  # no two floats alike, so a swap of any two fails a check above
            floats = row[1:]
            assert all(type(value) is float for value in floats)
            assert len(set(floats)) == len(floats)
