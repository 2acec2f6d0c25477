"""Exception hierarchy shared across the package.

Two failure classes are distinguished deliberately: rejected inputs
(contract violations, caught before any numerics run) and accuracy
failures (numerics ran but missed a guaranteed tolerance). The CLI maps
them to exit codes 2 and 3. `_number` turns a config value into a finite
number, and `_vector` a config array into a list of them, or rejects it, so
a value of the wrong type is a rejected input too.
"""

from __future__ import annotations

import numbers
import sys
from typing import Any


class WWGMError(Exception):
    """Base class; carries an optional machine-readable detail dict."""

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.details = details

    def record(self) -> dict:
        return {"error": type(self).__name__, "message": str(self), **self.details}


class ValidationError(WWGMError):
    """Input rejected before computation (dimension mismatch, guard violation)."""


class AccuracyError(WWGMError):
    """Computation ran but a promised tolerance or conservation law failed."""


def _number(value, name: str, integer: bool = False):
    """Config value `value` of field `name` as a float, or as an int with
    `integer`. Booleans, strings and other non-numbers, non-finite numbers and,
    for integer fields, non-integral numbers raise a ValidationError naming
    the field."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max
    if ok and integer and not isinstance(value, numbers.Integral):
        ok = float(value).is_integer()
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ValidationError(f"config field {name!r} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _vector(value, name: str) -> list[float]:
    """Config value `value` of array field `name`, a number or a flat list of
    numbers, as a list of floats; each entry is converted by `_number`."""
    return [_number(v, name) for v in (value if isinstance(value, list) else [value])]
