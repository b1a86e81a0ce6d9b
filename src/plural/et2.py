"""Energy-time-squared (ET2) trade-off calculus.

The cost of a computation is modeled as theta = E * t**2, a quantity that
stays constant while energy is traded for execution time (via voltage
scaling, transistor sizing, and similar knobs).  This module provides the
transforms along and between ET2 curves; the first four are power laws of
their argument f, energy * f**e and time * f**t, with the (e, t) given:

* stretch_time (-2, 1):  slow down by a factor, energy drops by its square.
* shrink_work (1, 1):    run a fraction of the work, theta shrinks by the cube.
* iso_time_energy (3, 0) / iso_energy_time (0, 1.5): re-spend a work reduction
  while holding time (steeper energy saving) or holding energy (shorter time).
* parallelize:    split the work over m cores, rederiving the ensemble
  energy and power of the scaling model.
* constrain:      pick the point on a theta-curve fixed by one of energy,
  time, or power.
"""

from __future__ import annotations

import math
import sys
import warnings
from contextlib import contextmanager
from typing import NamedTuple

from .errors import DomainError, _Checked, _is_real
from .scaling import _check_core_count

__all__ = [
    "Et2State",
    "Et2ParallelResult",
    "make_state",
    "stretch_time",
    "shrink_work",
    "iso_time_energy",
    "iso_energy_time",
    "parallelize",
    "constrain",
]

# Stored theta must agree with energy * time**2 to this relative tolerance.
_THETA_RTOL = 1e-12
_ROOT_MAX = math.sqrt(sys.float_info.max)  # time**2 of a larger float raises OverflowError


def _theta(energy: float, time: float) -> float:
    """``energy * time**2``, or inf where a float cannot hold ``energy`` or ``time**2``."""
    return energy * time**2 if _is_real(energy, 0) and _is_real(time, 0, _ROOT_MAX) else math.inf


class _Et2Fields(NamedTuple):
    energy: float
    time: float
    theta: float


class Et2State(_Checked, _Et2Fields):
    """A point (energy, time) with its cost theta = energy * time**2."""

    __slots__ = ()

    def __new__(cls, energy: float, time: float, theta: float) -> Et2State:
        for name, value in (("energy", energy), ("time", time), ("theta", theta)):
            if not _is_real(value, 0, math.inf):
                raise DomainError(f"{name} must be positive, got {value!r}")
        reference = _theta(energy, time)
        if not _is_real(reference, -math.inf):
            raise DomainError("energy * time**2 overflows a float")
        if not _is_real(theta, 0) or abs(theta - reference) > _THETA_RTOL * reference:
            raise DomainError(f"theta {theta!r} is inconsistent with energy * time**2 = {reference!r}")
        return tuple.__new__(cls, (energy, time, theta))

    @property
    def power(self) -> float:
        """Average power implied by this point, energy / time."""
        return self.energy / self.time


class Et2ParallelResult(NamedTuple):
    """Per-core and ensemble view of a parallelized computation.

    All m cores finish together, so the ensemble time equals the per-core
    time and the ensemble energy is m times the per-core energy.
    """

    per_core: Et2State
    ensemble_energy: float
    ensemble_power: float
    ensemble_time: float


def make_state(energy: float, time: float) -> Et2State:
    """Build a state from an (energy, time) point; theta is derived."""
    return Et2State(energy=energy, time=time, theta=_theta(energy, time))


def _check_fraction(fraction: float) -> float:
    if not _is_real(fraction, 0, 1):
        raise DomainError(f"work fraction must lie in (0, 1], got {fraction!r}")
    return fraction


@contextmanager
def _blame(argument: str):
    """Report a transform result outside float range as the fault of its argument.

    The input state is valid and the argument has passed its own checks, so a
    zero divisor, an overflowing power, or a result state that fails its
    checks comes from the argument's magnitude.
    """
    try:
        yield
    except (ArithmeticError, DomainError):
        raise DomainError(f"{argument} takes the state out of float range") from None


def _scaled(s: Et2State, f: float, e: float, t: float, argument: str) -> Et2State:
    """The state energy * f**e, time * f**t, so theta * f**(e + 2t), blaming ``argument``; a negative power divides."""
    with _blame(argument):
        return Et2State(*(v / f**-p if p < 0 else v * f**p for v, p in zip(s, (e, t, e + 2 * t))))


def stretch_time(s: Et2State, factor: float) -> Et2State:
    """Slow the computation down by ``factor``, staying on the same theta curve.

    Time grows by the factor, energy falls by its square, and power falls by
    its cube.  Factors below 1 (speeding up) are mathematically valid points
    on the same curve and are accepted with a warning.
    """
    if not _is_real(factor, 0, math.inf):
        raise DomainError(f"stretch factor must be positive, got {factor!r}")
    if factor < 1:
        warnings.warn(
            f"stretch factor {factor} < 1 speeds the computation up; the "
            "trade-off curve is normally ridden toward longer time",
            stacklevel=2,
        )
    return _scaled(s, factor, -2, 1, f"stretch factor {factor!r}")


def shrink_work(s: Et2State, fraction: float) -> Et2State:
    """Run only ``fraction`` of the work with unchanged operating parameters.

    Time and energy shrink proportionally (so power is unchanged) and the
    computation lands on a new curve with theta scaled by fraction**3.
    """
    return _scaled(s, _check_fraction(fraction), 1, 1, f"work fraction {fraction!r}")


def iso_time_energy(s: Et2State, fraction: float) -> Et2State:
    """Shrink the work but spend the original time; energy falls by fraction**3."""
    return _scaled(s, _check_fraction(fraction), 3, 0, f"work fraction {fraction!r}")


def iso_energy_time(s: Et2State, fraction: float) -> Et2State:
    """Shrink the work but spend the original energy; time falls by fraction**1.5."""
    return _scaled(s, _check_fraction(fraction), 0, 1.5, f"work fraction {fraction!r}")


def parallelize(s: Et2State, m: int) -> Et2ParallelResult:
    """Split the computation evenly over ``m`` cores ticking together.

    Each core runs a 1/m fraction of the work at a frequency reduced by
    sqrt(m), so per core the time is t/sqrt(m), the energy E/m**2, and theta
    theta/m**3.  Summed over the ensemble the energy is E/m and the power
    (E/t)/sqrt(m), matching the scaling model's ensemble row.
    """
    _check_core_count(m)
    with _blame(f"core count {m}"):
        root_m = math.sqrt(m)  # not a _scaled power law: m**0.5 differs from it at some m
        per_core = Et2State(
            energy=s.energy / m**2,
            time=s.time / root_m,
            theta=s.theta / m**3,
        )
    return Et2ParallelResult(
        per_core=per_core,
        ensemble_energy=s.energy / m,
        ensemble_power=(s.energy / s.time) / root_m,
        ensemble_time=per_core.time,
    )


def constrain(
    s: Et2State,
    *,
    energy: float | None = None,
    time: float | None = None,
    power: float | None = None,
) -> Et2State:
    """Pick the point on this state's theta curve fixed by one constraint.

    Exactly one of ``energy``, ``time``, ``power`` must be given:

    * fixed energy E0:  time = sqrt(theta / E0)
    * fixed time T0:    energy = theta / T0**2
    * fixed power P0:   time = (theta / P0)**(1/3), energy = P0 * time
    """
    given = [v for v in (energy, time, power) if v is not None]
    if len(given) != 1:
        raise DomainError("exactly one of energy, time, power must be given")
    value = given[0]
    if not _is_real(value, 0, math.inf):
        raise DomainError(f"constraint value must be positive, got {value!r}")
    theta = s.theta
    with _blame(f"constraint value {value!r}"):
        if energy is not None:
            return Et2State(energy=energy, time=math.sqrt(theta / energy), theta=theta)
        if time is not None:
            return Et2State(energy=theta / time**2, time=time, theta=theta)
        new_time = (theta / power) ** (1.0 / 3.0)
        return Et2State(energy=power * new_time, time=new_time, theta=theta)
