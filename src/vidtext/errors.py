"""Exception types shared across the package, and the one reader of input
files.

The CLI maps these onto exit codes: usage problems exit 1, data/schema
problems exit 2, numeric failures exit 3.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, TypeVar


class ShapeError(ValueError):
    """Tensor dimensions do not line up for the requested operation."""


class ConfigError(ValueError):
    """An option or hyperparameter is outside its valid range."""


class UsageError(RuntimeError):
    """An operation was invoked in a way its contract forbids."""


class DataError(ValueError):
    """A corpus, task file, or checkpoint failed schema validation."""


class NumericError(ArithmeticError):
    """A non-finite value was produced where finiteness is required."""


Parsed = TypeVar("Parsed")


def read_input(
    path: str | Path, what: str, parse: Callable[[Path, str | bytes], Parsed], binary: bool = False
) -> Parsed:
    """``parse(path, contents)`` of an input file, decoded as UTF-8 unless
    ``binary``.

    A missing or unreadable file, bytes that are not UTF-8, and what ``parse``
    raises on malformed contents without saying so (JSON nested past the
    recursion limit, an infinite number where an int belongs, a bad value)
    are a DataError that names ``what`` and the file.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return parse(path, raw if binary else raw.decode("utf-8"))
    except DataError:
        raise
    except (ValueError, OverflowError, RecursionError) as exc:
        raise DataError(f"{what} {path} is malformed: {exc}") from exc
