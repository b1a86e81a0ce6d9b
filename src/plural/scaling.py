"""Closed-form many-core scaling model for a fixed-area chip.

A chip of area A runs a workload of W instructions either on one processor
occupying the whole area or on m processors of area A/m each.  Core frequency
follows Pollack's rule, f = area**alpha with alpha = 1/2 by default, and all
constants are taken as unity so every derived quantity is exact rather than
asymptotic.  The derived figures of merit (speedup, energydown, powerdown,
ES, ES2) compare the m-core ensemble against the single-processor baseline.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, ValidationError, _Checked, _is_count, _is_real

__all__ = [
    "ChipSpec",
    "EnsembleMetrics",
    "ensemble_metrics",
    "sweep",
]


class _ChipFields(NamedTuple):
    area: float
    work: float
    cpi: float
    pollack_exponent: float
    static_power_enabled: bool


class ChipSpec(_Checked, _ChipFields):
    """Fixed chip-level parameters: total area and the workload it executes.

    Units are abstract (dimensionless model): ``area`` in area units, ``work``
    in instructions, frequencies in instructions per time unit.
    """

    __slots__ = ()

    def __new__(cls, area: float, work: float, cpi: float = 1.0, pollack_exponent: float = 0.5,
                static_power_enabled: bool = False) -> ChipSpec:
        for name, value in (("area", area), ("work", work), ("cpi", cpi)):
            if not _is_real(value, 0):
                word = "finite" if _is_real(value, 0, math.inf) else "positive"
                raise ValidationError(f"{name} must be {word}, got {value!r}")
        if not (_is_real(pollack_exponent, 0) and pollack_exponent < 1):
            raise ValidationError(f"pollack_exponent must lie in (0, 1), got {pollack_exponent!r}")
        return tuple.__new__(cls, (area, work, cpi, pollack_exponent, static_power_enabled))


class EnsembleMetrics(NamedTuple):
    """One row of the scaling model: an m-core ensemble next to the 1-core baseline.

    ``power * compute_time == energy`` holds by construction, and at m=1 every
    ensemble field equals its single-processor counterpart.
    """

    m: int
    core_area: float
    core_freq: float
    single_freq: float
    core_perf: float
    ensemble_perf: float
    compute_time: float
    single_time: float
    power: float
    single_power: float
    energy: float
    single_energy: float
    speedup: float
    energydown: float
    powerdown: float
    es: float
    es2: float
    perf_per_power: float


def _check_core_count(m: int) -> None:
    if type(m) is int and m >= 1:  # the common case, before the checks that name the fault
        return
    if not _is_count(m, -math.inf):
        raise DomainError(f"core count m must be an integer, got {m!r}")
    if m < 1:
        raise DomainError(f"core count m must be >= 1, got {m}")


def _check_in_range(row, m: int):
    """Return ``row`` if it was computed (not None) and every value in it is
    finite and positive; otherwise raise ``DomainError`` naming ``m``.

    The check stops at the first value outside ``0 < value < math.inf``, so
    it accepts exactly the rows that ``all()`` over that test accepts.
    """
    if row is not None:
        for value in row:
            if not 0 < value < math.inf:
                break
        else:
            return row
    raise DomainError(f"model values at m={m} fall outside float range")


def ensemble_metrics(spec: ChipSpec, m: int) -> EnsembleMetrics:
    """Evaluate the scaling model for ``m`` cores sharing ``spec.area``.

    Per core: area a = A/m, frequency a**alpha, work W/m.  The ensemble keeps
    the full area powered, so power stays proportional to A times the (lower)
    core frequency while compute time shrinks with both the split work and
    the frequency reduction.  A row that leaves float range raises
    ``DomainError``.
    """
    _check_core_count(m)
    try:
        row = _ensemble_row(spec, m)
    except ArithmeticError:  # a zero divisor, or a power or an m too large for a float
        row = None
    return _check_in_range(row, m)


def _ensemble_power(area: float, cpi: float, alpha: float, static: bool, m: int) -> tuple[float, ...]:
    """The terms of a chip's row at m that do not depend on the work: core
    area, core frequency, core performance, ensemble performance and power."""
    core_area = area / m
    core_freq = core_area**alpha
    core_perf = core_freq / cpi
    power = area * core_freq
    if static:
        # Static power is proportional to the total powered area, A, for the
        # single processor and for the whole ensemble alike.
        power += area
    return core_area, core_freq, core_perf, m * core_perf, power


def _ensemble_row(spec: ChipSpec, m: int) -> EnsembleMetrics:
    area, work, cpi, alpha, static = spec
    core_area, core_freq, core_perf, ensemble_perf, power = _ensemble_power(area, cpi, alpha, static, m)
    single_freq = area**alpha

    compute_time = (work / m) * cpi / core_freq
    single_time = work * cpi / single_freq

    single_power = area * single_freq
    if static:
        single_power += area
    energy = power * compute_time
    single_energy = single_power * single_time

    speedup = single_time / compute_time
    energydown = single_energy / energy
    powerdown = single_power / power
    es = energydown * speedup
    es2 = energydown * speedup**2
    perf_per_power = ensemble_perf / power

    # Positional, in field order: each argument bears its field's name.
    return EnsembleMetrics(
        m, core_area, core_freq, single_freq, core_perf, ensemble_perf,
        compute_time, single_time, power, single_power, energy, single_energy,
        speedup, energydown, powerdown, es, es2, perf_per_power,
    )


def sweep(spec: ChipSpec, m_values: list[int]) -> list[EnsembleMetrics]:
    """Evaluate the model for each core count in ``m_values``, in input order."""
    if not m_values:
        raise DomainError("m_values must not be empty")
    return [ensemble_metrics(spec, m) for m in m_values]
