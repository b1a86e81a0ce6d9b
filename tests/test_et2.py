"""Tests for the energy-time-squared trade-off calculus."""

import math
import random
import warnings

import pytest

from plural import (
    ChipSpec,
    DomainError,
    constrain,
    ensemble_metrics,
    iso_energy_time,
    iso_time_energy,
    make_state,
    parallelize,
    shrink_work,
    stretch_time,
)

REL = 1e-12


def isclose(a, b):
    return math.isclose(a, b, rel_tol=REL)


class TestMakeState:
    def test_simple(self):
        s = make_state(8, 2)
        assert s.theta == 32.0

    def test_identity(self):
        assert make_state(1, 1).theta == 1.0

    def test_from_chip_baseline(self):
        # E1 = A*W, t1 = W/sqrt(A); with A=1e6, W=1 the cost is
        # 1e6 * (1e-3)**2 = 1.0.
        row = ensemble_metrics(ChipSpec(area=1e6, work=1), 1)
        s = make_state(row.energy, row.compute_time)
        assert isclose(s.theta, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            make_state(0, 1)
        with pytest.raises(DomainError):
            make_state(1, -2)


class TestStretchTime:
    def test_example(self):
        s = stretch_time(make_state(8, 2), 2)
        assert s.energy == 2.0
        assert s.time == 4.0
        assert s.theta == 32.0
        # power falls by the cube of the factor: 4 -> 0.5
        assert s.power == 0.5

    def test_factor_one_is_identity(self):
        s = make_state(5, 3)
        assert stretch_time(s, 1) == s

    def test_large_factor(self):
        s = stretch_time(make_state(1, 1), 10)
        assert isclose(s.energy, 0.01)
        assert s.time == 10.0
        assert s.theta == 1.0

    def test_conserves_theta_exactly(self):
        rng = random.Random(5)
        for _ in range(2000):
            s = make_state(10 ** rng.uniform(-6, 6), 10 ** rng.uniform(-6, 6))
            factor = rng.uniform(1, 100)
            assert stretch_time(s, factor).theta == s.theta

    def test_warns_on_speedup(self):
        s = make_state(8, 2)
        with pytest.warns(UserWarning):
            out = stretch_time(s, 0.5)
        assert out.time == 1.0
        assert out.energy == 32.0

    def test_no_warning_at_or_above_one(self):
        s = make_state(8, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stretch_time(s, 1.0)
            stretch_time(s, 3.5)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(DomainError):
            stretch_time(make_state(1, 1), 0)
        with pytest.raises(DomainError):
            stretch_time(make_state(1, 1), -1)


class TestShrinkWork:
    def test_example(self):
        s = shrink_work(make_state(8, 2), 0.5)
        assert s.energy == 4.0
        assert s.time == 1.0
        assert s.theta == 4.0

    def test_fraction_one_is_identity(self):
        s = make_state(8, 2)
        assert shrink_work(s, 1.0) == s

    def test_small_fraction(self):
        assert isclose(shrink_work(make_state(1, 1), 0.1).theta, 1e-3)

    def test_theta_scales_by_cube_exactly(self):
        rng = random.Random(7)
        for _ in range(2000):
            s = make_state(10 ** rng.uniform(-4, 4), 10 ** rng.uniform(-4, 4))
            beta = rng.uniform(1e-3, 1.0)
            assert shrink_work(s, beta).theta == beta**3 * s.theta

    def test_power_unchanged(self):
        rng = random.Random(9)
        for _ in range(500):
            s = make_state(10 ** rng.uniform(-4, 4), 10 ** rng.uniform(-4, 4))
            beta = rng.uniform(1e-3, 1.0)
            assert isclose(shrink_work(s, beta).power, s.power)

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.25, 1.0001):
            with pytest.raises(DomainError):
                shrink_work(make_state(1, 1), bad)


class TestIsoReallocations:
    def test_iso_time_example(self):
        s = iso_time_energy(make_state(8, 2), 0.5)
        assert s.energy == 1.0
        assert s.time == 2.0

    def test_iso_time_identity(self):
        s = make_state(8, 2)
        assert iso_time_energy(s, 1.0) == s

    def test_iso_time_cube(self):
        assert isclose(iso_time_energy(make_state(1, 1), 0.5).energy, 0.125)

    def test_iso_energy_example(self):
        s = iso_energy_time(make_state(8, 2), 0.25)
        assert isclose(s.time, 0.25)
        assert s.energy == 8.0

    def test_iso_energy_identity(self):
        s = make_state(8, 2)
        assert iso_energy_time(s, 1.0) == s

    def test_iso_energy_three_halves(self):
        assert isclose(iso_energy_time(make_state(1, 1), 0.5).time, 0.3535533905932738)

    def test_rejects_out_of_range(self):
        for op in (iso_time_energy, iso_energy_time):
            with pytest.raises(DomainError):
                op(make_state(1, 1), 0.0)
            with pytest.raises(DomainError):
                op(make_state(1, 1), 2.0)

    def test_shrink_then_stretch_back_matches_iso_time(self):
        rng = random.Random(13)
        for _ in range(500):
            s = make_state(10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3))
            beta = rng.uniform(0.01, 1.0)
            shrunk = shrink_work(s, beta)
            restored = stretch_time(shrunk, s.time / shrunk.time)
            direct = iso_time_energy(s, beta)
            assert isclose(restored.energy, direct.energy)
            assert isclose(restored.time, direct.time)


class TestParallelize:
    def test_example(self):
        result = parallelize(make_state(8, 2), 4)
        assert result.per_core.energy == 0.5
        assert result.per_core.time == 1.0
        assert result.ensemble_energy == 2.0
        assert result.ensemble_power == 2.0
        assert result.ensemble_time == 1.0

    def test_m1_identity(self):
        s = make_state(8, 2)
        result = parallelize(s, 1)
        assert result.per_core == s
        assert result.ensemble_energy == s.energy
        assert result.ensemble_time == s.time
        assert isclose(result.ensemble_power, s.power)

    def test_per_core_theta_cubed(self):
        s = make_state(8, 2)
        result = parallelize(s, 4)
        assert isclose(result.per_core.theta, s.theta / 64)

    def test_ensemble_energy_is_m_per_core(self):
        rng = random.Random(17)
        for _ in range(200):
            s = make_state(10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3))
            m = rng.randint(1, 5000)
            result = parallelize(s, m)
            assert isclose(result.ensemble_energy, m * result.per_core.energy)

    def test_matches_scaling_model(self):
        # Re-derives the ensemble row of the scaling model from the trade-off
        # calculus, for the default square-root exponent.
        rng = random.Random(19)
        for _ in range(50):
            spec = ChipSpec(
                area=10 ** rng.uniform(1, 8),
                work=10 ** rng.uniform(-1, 4),
                cpi=rng.uniform(0.5, 2),
            )
            base = ensemble_metrics(spec, 1)
            m = rng.choice([1, 2, 4, 16, 256, 4096])
            row = ensemble_metrics(spec, m)
            result = parallelize(make_state(base.energy, base.compute_time), m)
            assert isclose(result.ensemble_energy, row.energy)
            assert isclose(result.ensemble_time, row.compute_time)
            assert isclose(result.ensemble_power, row.power)

    def test_rejects_bad_core_count(self):
        with pytest.raises(DomainError):
            parallelize(make_state(1, 1), 0)
        with pytest.raises(DomainError):
            parallelize(make_state(1, 1), 2.0)
        with pytest.raises(DomainError):
            parallelize(make_state(1, 1), True)


class TestConstrain:
    def test_fixed_power_on_curve(self):
        s = make_state(8, 2)  # power 4; this point already sits on that line
        out = constrain(s, power=4.0)
        assert isclose(out.energy, 8.0)
        assert isclose(out.time, 2.0)

    def test_fixed_energy(self):
        out = constrain(make_state(8, 2), energy=2.0)
        assert out.energy == 2.0
        assert isclose(out.time, 4.0)
        assert out.theta == 32.0

    def test_fixed_time(self):
        out = constrain(make_state(8, 2), time=4.0)
        assert out.time == 4.0
        assert isclose(out.energy, 2.0)

    def test_fixed_power_moves_along_curve(self):
        s = make_state(8, 2)
        out = constrain(s, power=0.5)
        assert isclose(out.time, 4.0)
        assert isclose(out.energy, 2.0)
        assert out.theta == s.theta

    def test_requires_exactly_one_constraint(self):
        s = make_state(8, 2)
        with pytest.raises(DomainError):
            constrain(s)
        with pytest.raises(DomainError):
            constrain(s, energy=1.0, time=1.0)
        with pytest.raises(DomainError):
            constrain(s, power=-1.0)
