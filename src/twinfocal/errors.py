"""Exception hierarchy shared by all twinfocal modules, and the input
checks that every module shares.

The command line front end maps these onto process exit codes, so the
split between configuration problems and numerical problems matters:
``ConfigError`` means the inputs were wrong, ``NumericalError`` means the
inputs were fine but the computation could not be completed reliably.

Each input rule is stated once, here, and raises ``ConfigError``:
``check_size`` refuses a count above its limit (NaN included) and gives
the memory it would need, ``check_positive`` a quantity that is not
positive and finite, and ``check_integers`` a count that is not an
integer.  They are plain Python comparisons, cheap enough for the
per-call checks of the optics functions.
"""

import math
import numbers

__all__ = ["ConfigError", "NumericalError", "QuadratureError", "ScanRangeError"]


class ConfigError(ValueError):
    """Invalid or inconsistent user input (config file, flags, parameters)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its stated tolerance."""


class QuadratureError(NumericalError):
    """Node doubling changed an integral by more than the allowed tolerance."""


class ScanRangeError(NumericalError):
    """A search range did not bracket the requested feature (e.g. half max)."""


def check_size(count, limit: int, subject: str, unit_bytes: int,
               work: str = "evaluating it") -> None:
    """Refuse a ``count`` that is not at most ``limit``, NaN included.

    ``subject`` names the count (``"scan of 5 offsets"``); the message
    estimates the memory of ``work`` at ``unit_bytes`` per unit.
    """
    if not count <= limit:
        raise ConfigError(
            f"{subject} exceeds the limit of {limit}; "
            f"{work} would need about {count * unit_bytes / 2**20:,.0f} MiB")


def check_positive(value: float, subject: str) -> None:
    """Refuse a ``value`` that is not positive and finite, NaN included."""
    if not (value > 0.0) or not math.isfinite(value):
        raise ConfigError(f"{subject} must be positive and finite")


def check_integers(values, subject: str) -> None:
    """Refuse ``values`` unless each is an integer (numpy's too), not a bool."""
    if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in values):
        raise ConfigError(f"{subject} must be integers")
