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


def require_shape(name: str, value, error=ConfigError) -> tuple:
    """``value`` as a tuple, if it is a non-empty list (or tuple) of integers
    >= 1, none a bool; else ``error``."""
    if (not isinstance(value, (list, tuple)) or not value
            or any(isinstance(e, bool) or not isinstance(e, numbers.Integral) or e < 1
                   for e in value)):
        raise error(f"{name} must be a non-empty list of integers >= 1, got {value!r}")
    return tuple(value)


def require_bool(name: str, value) -> None:
    """ConfigError unless ``value`` is a bool (JSON true or false)."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


def require_str(name: str, value) -> str:
    """``value``, if it is a string (a JSON string); else ConfigError."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def require_finite(name: str, value, minimum: float = 0, maximum: float = math.inf) -> None:
    """ConfigError unless ``value`` is a finite real (not a bool) in
    [``minimum``, ``maximum``]."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or not minimum <= value <= maximum):
        bound = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise ConfigError(f"{name} must be a finite number {bound}, got {value!r}")
