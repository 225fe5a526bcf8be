"""Exception types shared across the package, and the checks that turn a
mistyped user-supplied parameter into a ValueError naming it."""

import math
import numbers


class NumericalFailureError(RuntimeError):
    """An iterative numerical routine failed to converge or produced
    unusable output. ``details`` carries routine-specific diagnostics
    (condition estimates, last iterates, decay history, ...)."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class SdpaFormatError(ValueError):
    """Malformed sparse SDPA (.dat-s) input."""


class UnsupportedBlockError(SdpaFormatError):
    """Structurally valid SDPA file outside the supported single-PSD-block subset."""


def require_integer(name, val):
    """Raise ValueError naming ``name`` unless ``val`` is an integer (bool excluded)."""
    if isinstance(val, bool) or not isinstance(val, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {val!r}")


def require_number(name, val):
    """Raise ValueError naming ``name`` unless ``val`` is a finite real number (bool excluded)."""
    if isinstance(val, bool) or not (isinstance(val, numbers.Real) and math.isfinite(val)):
        raise ValueError(f"{name} must be a finite number, got {val!r}")


def require_path(name, val):
    """Raise ValueError naming ``name`` unless ``val`` is a non-empty string, so
    that a number from a manifest is never opened as a file descriptor."""
    if not isinstance(val, str) or not val:
        raise ValueError(f"{name} must be a non-empty path string, got {val!r}")


def require_object(name, val):
    """Return ``val`` if it is a JSON object; raise ValueError naming ``name`` otherwise."""
    if not isinstance(val, dict):
        raise ValueError(f"{name} must be a JSON object, got {val!r}")
    return val


def require_keys(name, obj, *keys):
    """Raise ValueError naming ``name`` and the first of ``keys`` missing from
    the JSON object ``obj``."""
    for key in keys:
        if key not in obj:
            raise ValueError(f"{name} is missing {key!r}")
