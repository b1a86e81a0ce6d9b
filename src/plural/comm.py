"""Communication cost model for the Plural architecture.

On a chip of area A, any message crosses a distance of sqrt(A) (the chip
edge), so a fixed-size message dissipates sqrt(A) wire energy.  Scheduler
traffic (task initiation and completion) and shared-memory traffic both run
at the ensemble's combined instruction rate sqrt(m * A); memory messages
additionally pass through log2(m) switch stages of a log-depth network,
adding log2(m) switch energy each.  Composing these with the computing power
and ensemble performance of the scaling model, which depend on the chip and
m but not on the work, gives the total power and the communications-adjusted
performance/power ratio.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, _is_real
from .scaling import ChipSpec, _check_core_count, _check_in_range, _ensemble_power

__all__ = [
    "CommMetrics",
    "sched_msg_energy",
    "sched_power",
    "mem_access_energy",
    "mem_power",
    "comm_metrics",
]


class CommMetrics(NamedTuple):
    """Power breakdown at core count m: compute, scheduler, and memory traffic."""

    m: int
    sched_msg_energy: float
    sched_power: float
    mem_access_energy: float
    mem_power: float
    compute_power: float
    total_power: float
    perf_per_total_power: float


def _check_area(area: float) -> None:
    if not _is_real(area, 0):
        raise DomainError(f"area must be positive and finite, got {area!r}")


def _msg_energy(area: float) -> float:
    """``sched_msg_energy`` of an area already checked, such as a ``ChipSpec``'s."""
    return math.sqrt(area)


def _access_energy(area: float, m: int) -> float:
    """``mem_access_energy`` of an area and an m already checked."""
    return _msg_energy(area) + math.log2(m)


def sched_msg_energy(area: float) -> float:
    """Energy of one fixed-size scheduler message crossing the chip: sqrt(A)."""
    _check_area(area)
    return _msg_energy(area)


def _rate(area: float, m: int) -> float:
    """The ensemble's instruction rate sqrt(m * A), for an area already checked."""
    _check_core_count(m)
    if not (_is_real(m, 0) and m * area < math.inf):
        raise DomainError(f"m * area falls outside float range at m={m}")
    return math.sqrt(m * area)


def sched_power(area: float, m: int) -> float:
    """Scheduler traffic power: one message's energy at rate sqrt(m * A)."""
    return sched_msg_energy(area) * _rate(area, m)


def mem_access_energy(area: float, m: int) -> float:
    """Energy of one shared-memory access: sqrt(A) wire plus log2(m) switches.

    An m-endpoint log-depth switching network has log2(m) stages; with a
    single core there are no switch stages and only the wire term remains.
    """
    _check_area(area)
    _check_core_count(m)
    return _access_energy(area, m)


def mem_power(area: float, m: int) -> float:
    """Memory traffic power: one access's energy at rate sqrt(m * A)."""
    return mem_access_energy(area, m) * _rate(area, m)


def comm_metrics(spec: ChipSpec, m: int) -> CommMetrics:
    """Assemble the full power breakdown for ``m`` cores on ``spec``.

    Compute power and ensemble performance come from the scaling model's
    chip terms, which do not read ``spec.work``; scheduler and memory power
    from the message model above.  The communications-adjusted figure of
    merit divides the ensemble performance by the summed power.  A row that
    leaves float range raises ``DomainError``.
    """
    _check_core_count(m)  # ``spec`` checked its area
    area, _, cpi, alpha, static = spec
    try:
        ensemble_perf, compute_p = _ensemble_power(area, cpi, alpha, static, m)[3:]
        sched_e = _msg_energy(area)
        mem_e = _access_energy(area, m)
        rate = math.sqrt(m * area)
        sched_p = sched_e * rate
        mem_p = mem_e * rate
        total = compute_p + sched_p + mem_p
        row = CommMetrics(m, sched_e, sched_p, mem_e, mem_p, compute_p, total, ensemble_perf / total)
    except ArithmeticError:  # a zero divisor, or a power or an m too large for a float
        row = None
    return _check_in_range(row, m)
