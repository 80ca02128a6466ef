"""Exception types shared across the package, and the type rules of
configuration values.

Everything data-shaped derives from :class:`DataError` so the CLI can map it
to exit code 2; plain I/O failures surface as ``OSError`` and map to exit
code 1.
"""

from __future__ import annotations

import numbers
import operator


class LexlinkError(Exception):
    """Base class for package-specific errors."""


class DataError(LexlinkError):
    """Invalid input data or a violated data contract."""


class InvalidConfig(DataError, ValueError):
    """A configuration value out of range or unparsable. Also a ``ValueError``,
    so library callers may catch either."""

    def __str__(self):
        return f"invalid configuration: {super().__str__()}"


def config_integer(name: str, value) -> int:
    """``value`` as an ``int``. A model header is JSON, so a float or a boolean
    may reach a field that must be an integer; both are refused."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def config_real(name: str, value) -> float:
    """``value`` as a ``float``. A boolean, a string or an integer too large
    for a float is refused rather than converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfig(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidConfig(f"{name} must be finite, got {value!r}") from None


class MalformedLine(DataError):
    def __init__(self, path, line_no: int, reason: str = ""):
        self.path = str(path)
        self.line_no = line_no
        detail = f": {reason}" if reason else ""
        super().__init__(f"{self.path}:{line_no}: malformed line{detail}")


class DuplicateId(DataError):
    def __init__(self, entity_id: str):
        self.entity_id = entity_id
        super().__init__(f"duplicate entity id {entity_id!r}")


class PriorOutOfRange(DataError):
    def __init__(self, path, line_no: int, prior: float):
        self.path = str(path)
        self.line_no = line_no
        self.prior = prior
        super().__init__(f"{self.path}:{line_no}: prior {prior!r} not in [0, 1]")


class PriorSumExceeded(DataError):
    def __init__(self, alias: str, total: float):
        self.alias = alias
        self.total = total
        super().__init__(f"priors for alias {alias!r} sum to {total:.6f} > 1")


class SpanMismatch(DataError):
    def __init__(self, doc_id: str, reason: str = "mention does not match its span"):
        self.doc_id = doc_id
        super().__init__(f"doc {doc_id!r}: {reason}")


class MentionTooLong(DataError):
    pass


class NameTooLong(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class MissingGold(DataError):
    pass


class EmptyKb(DataError):
    pass


class UnknownCandidate(DataError):
    def __init__(self, entity_id: str):
        self.entity_id = entity_id
        super().__init__(f"candidate {entity_id!r} not present in the entity store")


class NoVotes(DataError):
    pass


class LengthMismatch(DataError):
    pass


class InfeasibleSpec(DataError):
    pass


class StaleStore(DataError):
    pass


class StaleIndex(DataError):
    def __init__(self, entity_id: str):
        self.entity_id = entity_id
        super().__init__(
            f"entity {entity_id!r} is not in the knowledge base: the index no longer matches it; rerun build-index"
        )


class ArtifactFormatError(DataError):
    pass
