"""Exception types shared across the package.

The CLI maps these onto distinct exit codes (see :mod:`conecal.cli`):
configuration problems, unusable data, and numerical divergence are kept
apart so batch drivers can react differently to each.
"""

from __future__ import annotations

import numbers


class ConecalError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ConecalError):
    """A parameter or config file violates a documented constraint."""


class DataError(ConecalError):
    """Input data is missing, malformed, or unusable for the requested op."""


def _check_integer(name: str, value, error: type = ConfigurationError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")


def _check_count(name: str, value, minimum: int) -> None:
    """Raise :class:`ConfigurationError` naming ``name`` unless ``value`` is
    an integer (not a bool) of at least ``minimum``."""
    _check_integer(name, value)
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ConfigurationError(f"{name} must be {bound}")


class DivergenceError(ConecalError):
    """An iterative solve left the range where its result means anything.

    The amplitude fit raises it for an iterate whose loss is not finite or
    exceeds 1e6 m^2, or whose gradient is not finite; for an iterate after
    the first whose trace loses every ray; and for a step that takes an
    amplitude beyond 1 m.

    Attributes:
        iteration: index of the iterate (or of the step) at which divergence
            was detected.
        last_stable: the most recent well-behaved iterate, when the failing
            solver can provide one (e.g. a fit result captured just before
            the loss blew up); ``None`` otherwise.
    """

    def __init__(self, message: str, iteration: int | None = None, last_stable=None):
        super().__init__(message)
        self.iteration = iteration
        self.last_stable = last_stable


class RayTraceError(ConecalError):
    """A ray failed to complete the trace through the cover.

    Attributes:
        stage: short identifier of the failing stage, e.g.
            ``"inner-intersection"`` or ``"outer-refraction"``.
    """

    def __init__(self, message: str, stage: str):
        super().__init__(message)
        self.stage = stage


class MissError(RayTraceError):
    """The ray does not intersect the required surface."""


class TotalInternalReflectionError(RayTraceError):
    """Refraction is impossible at the incidence angle of the ray."""


class SingularSurfaceError(ConecalError):
    """The surface normal is undefined at the requested point."""


class OutOfRangeError(ConecalError):
    """A point lies outside the coordinate domain of the cone slice."""
