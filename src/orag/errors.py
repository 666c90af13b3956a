"""Exception hierarchy shared across the package, and the value rules that raise
`ValidationError`: one type rule and one range rule for every checked field."""

import enum
import math
import sys
from dataclasses import MISSING, fields
from typing import get_args, get_type_hints


class OragError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(OragError):
    pass


class DuplicateId(OragError):
    pass


class UnknownId(OragError):
    pass


class IdRetired(OragError):
    """Raised when re-adding an id that was removed earlier in the run."""


class NonFiniteInput(OragError):
    pass


class EmptyCatalog(OragError):
    pass


class KTooLarge(OragError):
    pass


class PropensityMismatch(OragError):
    pass


class ZeroPropensity(OragError):
    pass


class EmptyEvents(OragError):
    pass


class InvalidProbability(OragError):
    pass


class MissingGroundTruth(OragError):
    pass


class NoRelevantItems(OragError):
    pass


class WindowTooLarge(OragError):
    pass


class UndefinedRound(OragError):
    pass


class InvalidConfig(OragError):
    pass


class ValidationError(InvalidConfig):
    """Config validation failure; message names the offending field."""


class ParseError(OragError):
    pass


class SchemaError(OragError):
    """Event-log line failed validation; message carries the line number."""


class IoError(OragError):
    pass


class SnapshotFormatError(IoError):
    pass


def field_checks(cls) -> tuple[dict, set[str]]:
    """(field name -> check, required field names) of a dataclass whose fields are checked.

    A check returns its value (an enum by value) or raises `ValidationError` naming
    the field: int rejects bool, float needs a finite number, Optional takes None."""
    checks = {}
    for name, tp in get_type_hints(cls).items():
        args = [a for a in get_args(tp) if a is not type(None)]
        checks[name] = check_as(name, args[0] if args else tp, optional=bool(args))
    return checks, {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}


def check_as(name: str, tp: type, optional: bool = False):
    """The one type rule, as a check of field `name` of type `tp` (see `field_checks`)."""
    values = [e.value for e in tp] if issubclass(tp, enum.Enum) else None

    def check(value):
        if type(value) is tp or tp is float and type(value) is int:
            if tp is not float or abs(value) <= sys.float_info.max:
                return value
        elif value is None and optional:
            return None
        elif values is not None and value in values:
            return tp(value)
        raise ValidationError(f"{name}: expected {values or tp.__name__}, got {value!r}")
    return check


def check_range(name: str, value, low, high=math.inf, tp: type = float):
    """The one range rule: `value` if the type rule takes it as a `tp` and it lies in
    [low, high], else a `ValidationError` naming field `name`."""
    value = check_as(name, tp)(value)
    if not low <= value <= high:
        raise ValidationError(f"{name}: must lie in [{low}, {high}]")
    return value
