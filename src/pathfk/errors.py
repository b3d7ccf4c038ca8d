"""Exception types shared across the package, and the key and type rules
of configs."""

import math
import numbers


class GridAlignmentError(ValueError):
    """A requested time or subdivision does not land on the uniform grid."""


class BudgetError(RuntimeError):
    """A nested solve would exceed the desk-scale node budget."""


class SolverError(RuntimeError):
    """The backward solver failed (e.g. Picard divergence)."""


class PreconditionError(RuntimeError):
    """A sampled precondition of a check was violated; the check is aborted."""


class ConfigError(ValueError):
    """A configuration or inline model spec is outside the accepted schema."""


def _only_keys(where: str, spec, keys) -> dict:
    """spec, or {} for None, once it is an object whose keys are all among
    keys; ConfigError names where and the keys it does not take."""
    if spec is not None and not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object or null, got {spec!r}")
    unknown = sorted(set(spec or {}) - set(keys))
    if unknown:
        raise ConfigError(f"{where} takes the keys {tuple(keys)}, not {unknown}")
    return spec or {}


def _finite_real(v) -> bool:
    """A real number, numpy's included, but no bool, no NaN or ±Infinity
    (json.loads parses both) and no integer past the float range."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


# what each config value's type takes: a bool is no number, a float no
# integer, and a number is a finite real
_TAKES = {bool: ("true or false", lambda v: type(v) is bool),
          int: ("an integer",
                lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
          float: ("a number", _finite_real)}


def _typed(where: str, value, kind, least=None):
    """value read as kind (bool, int, float, or (entry type,) for a list,
    whose entries are rows when they are lists too) and, for a number or
    each entry of a list, at least least; or ConfigError naming where."""
    if isinstance(kind, tuple):
        if type(value) is not list:
            raise ConfigError(f"{where} must be a list, got {value!r}")
        entry = f"{where} {'row' if isinstance(kind[0], tuple) else 'entry'}"
        return tuple(_typed(entry, v, kind[0], least) for v in value)
    name, takes = _TAKES[kind]
    if not takes(value):
        raise ConfigError(f"{where} must be {name}, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{where} must be at least {least}, got {value}")
    return kind(value)
