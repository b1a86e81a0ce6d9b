"""Exception types shared across the package, the count and real-number checks
behind them, and the base of the named tuples whose constructor checks them."""

import sys


def _is_count(value: object, least: float) -> bool:
    """Whether ``value`` is an integer, not a bool, of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_real(value: object, least: float, most: float = sys.float_info.max) -> bool:
    """Whether ``value`` is an int or a float, not a bool, with ``least < value <= most``;
    ``most`` defaults to the largest float, so an int too large for a float fails like inf."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and least < value <= most


class _Checked:
    """Put before a named tuple in the bases of a class whose ``__new__``
    checks its fields: ``_make``, with which ``_replace`` builds, calls the
    class, so a copy is checked as the original was."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PluralError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PluralError, ValueError):
    """A domain object was constructed with an invalid field value."""


class DomainError(PluralError, ValueError):
    """An operation was called with an argument outside its domain."""


class GraphStructureError(PluralError, ValueError):
    """A task graph is structurally broken (duplicate ids, dangling edges)."""


class CycleError(PluralError, ValueError):
    """A task graph contains a precedence cycle.

    The offending cycle is available as ``.cycle``, a task-id sequence whose
    first id is repeated at the end.
    """

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("task graph contains a cycle: " + " -> ".join(self.cycle))


class GraphFormatError(PluralError, ValueError):
    """A task-graph document does not match the expected schema."""


class SimConfigError(PluralError, ValueError):
    """A simulation was configured inconsistently with its task graph."""


class DegenerateWorkloadError(PluralError, ValueError):
    """The executed path of a task graph contains no instructions to run."""
