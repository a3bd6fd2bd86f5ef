"""Exception taxonomy shared across the package, and the typed readers
that every input boundary checks its values through."""

import contextlib
import math
import numbers
import os

import numpy as np


class WtaError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(WtaError):
    """Malformed or inconsistent configuration / input file."""


# graph construction
class SelfLoopError(WtaError):
    pass


class NonpositiveWeightError(WtaError):
    pass


class DuplicateEdgeError(WtaError):
    pass


class IndexOutOfRangeError(WtaError):
    pass


class InvalidProbabilityError(WtaError):
    pass


# dynamics / state handling
class DimensionMismatchError(WtaError):
    pass


class NegativeStateError(WtaError):
    pass


class EmptyStateError(WtaError):
    pass


class NonFiniteStateError(WtaError):
    """A state component is NaN or infinite."""


# integration
class PositivityFailureError(WtaError):
    """A step left the nonnegative orthant and halving could not recover it."""


# analysis
class NotSymmetricError(WtaError):
    pass


class NotEuError(WtaError):
    """Operation requires an equilibrium with adjacent equal-valued winners."""


class ComponentTooSmallError(WtaError):
    pass


# optimization
class TooManyCandidatesError(WtaError):
    pass


# Largest seed that a seed parameter or config leaf takes: seeds are 64-bit unsigned.
SEED_MAX = 2**64 - 1


# --- typed readers: the package's one definition of a valid integer,
# number, list of numbers, object, choice, path and flag. Each returns the
# value it accepts or raises ConfigError naming key. A bool is never a
# number.
# Testing type(value) first spares a plain int or float the ABC isinstance
# check, about 0.8 us, which new_graph would pay for every endpoint.


def _in_bounds(value, key: str, lo=None, hi=None, gt=None):
    """value, if value >= lo, value <= hi and value > gt for each bound given."""
    if not ((lo is None or value >= lo) and (hi is None or value <= hi)
            and (gt is None or value > gt)):
        want = " and ".join(f"{op} {b}" for op, b in ((">=", lo), ("<=", hi), (">", gt))
                            if b is not None)
        raise ConfigError(f"{key} must be {want}, got {value!r}")
    return value


def read_integer(value, key: str, lo=None, hi=None) -> int:
    """A numbers.Integral (not a float or a numeric string) in [lo, hi]."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(_in_bounds(value, key, lo, hi))


def read_number(value, key: str, lo=None, hi=None, gt=None) -> float:
    """A numbers.Real within the double range, with the bounds of _in_bounds."""
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        # as a double: abs(value) <= sys.float_info.max would cast the max to
        # a float32 value's type, which overflows with a warning
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a double
        finite = False
    if not finite:
        raise ConfigError(f"{key} must be finite, got {value!r} (NaN or infinite)")
    return float(_in_bounds(value, key, lo, hi, gt))


def read_numbers(value, key: str, lo=None) -> list[float]:
    """A list, tuple or 1-d array of numbers, each >= lo; entry i is "key[i]"."""
    if not (isinstance(value, (list, tuple, np.ndarray)) and getattr(value, "ndim", 1) == 1):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return [read_number(v, f"{key}[{i}]", lo) for i, v in enumerate(value)]


def read_array(value, key: str) -> np.ndarray:
    """value as a float array of any shape. Its entries must be integers or
    floats: bools, strings, ragged lists and object arrays are rejected."""
    try:
        arr = np.asarray(value)
        # np.asarray([1.0, True]) is already float64, so the entries of a
        # value that is not an ndarray, at any depth, are searched for a bool
        if arr.dtype.kind in "iuf" and (arr is value or not any(
                isinstance(v, (bool, np.bool_)) for v in np.asarray(value, object).flat)):
            return arr.astype(float, copy=False)
    except (TypeError, ValueError):  # a ragged list
        pass
    raise ConfigError(f"{key} must be an array of numbers, got {value!r}")


def read_object(value, key: str, keys) -> dict:
    """A dict (a JSON object, or a container of values such as overrides) with keys in keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    for name in value:
        if name not in keys:
            raise ConfigError(f'{key} has unknown key "{name}"; it takes '
                              + ", ".join(f'"{k}"' for k in sorted(keys)))
    return value


def read_choice(value, key: str, choices) -> str:
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{key} must be one of {sorted(choices)}, got {value!r}")
    return value


def read_path(value, key: str):
    """A file path: a non-empty str or an os.PathLike. An int or a bool is
    not one, though open() would take it as a file descriptor and close it."""
    if not (isinstance(value, os.PathLike) or (isinstance(value, str) and value)):
        raise ConfigError(f"{key} must be a path, got {value!r}")
    return value


@contextlib.contextmanager
def writing(path, key: str):
    """path, read by read_path, for a with block that makes the directory
    or opens and writes the file there. An OSError in the block, such as a
    missing parent directory or a file where a directory should be, raises
    ConfigError naming the path."""
    path = read_path(path, key)
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"cannot write {key} {path}: {exc.strerror or exc}") from exc


def read_bool(value, key: str) -> bool:
    """A Python or numpy bool, not 0 or 1."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return bool(value)
