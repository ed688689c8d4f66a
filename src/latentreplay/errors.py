"""Exception types shared across the package, and the config checks
that raise them."""

import math
import numbers


class ShapeError(ValueError):
    """Tensor extents incompatible with the requested operation."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class StateError(RuntimeError):
    """Operation called in a state that does not support it."""


class TensorFormatError(ValueError):
    """Malformed tensor file (bad magic, truncated payload, ...)."""


def require_int(name: str, value, minimum: int) -> None:
    """ConfigError unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_bool(name: str, value) -> None:
    """ConfigError unless ``value`` is a bool (JSON true or false)."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


def require_finite(name: str, value) -> None:
    """ConfigError unless ``value`` is a finite real (not a bool) >= 0."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0):
        raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")
