"""Exception types shared across modules, and the number checks that raise one."""

import numpy as np


class ConfigError(ValueError):
    """A run configuration failed validation (CLI exit code 2)."""


def _integer(value, name: str) -> int:
    """``value`` as an int; a fractional number or a boolean is refused, not read as one."""
    i = int(value)
    if isinstance(value, bool) or isinstance(value, float) and i != value:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return i


def _real(value, name: str) -> float:
    """``value`` as a float; a boolean is refused, not read as 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _reals(values, name: str) -> np.ndarray:
    """``values``, nested lists of numbers, as a float array; a boolean
    anywhere in them is refused, not read as 1.0 or 0.0."""
    stack = [values]
    while stack:
        v = stack.pop()
        if isinstance(v, bool):
            raise ConfigError(f"{name} must hold only numbers, got {v!r}")
        if isinstance(v, (list, tuple)):
            stack.extend(v)
    return np.array(values, dtype=float)


class NumericError(RuntimeError):
    """A solver produced NaN/overflow or lost positivity (CLI exit code 3)."""
