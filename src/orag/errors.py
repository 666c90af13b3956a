"""Exception hierarchy shared across the package."""


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
