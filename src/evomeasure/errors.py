"""Exception types shared across modules, and the whole-number check that raises one."""


class ConfigError(ValueError):
    """A run configuration failed validation (CLI exit code 2)."""


def _integer(value, name: str) -> int:
    """``value`` as an int; a fractional number is refused, not truncated."""
    i = int(value)
    if isinstance(value, float) and i != value:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return i


class NumericError(RuntimeError):
    """A solver produced NaN/overflow or lost positivity (CLI exit code 3)."""
