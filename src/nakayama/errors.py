"""Typed errors shared across the package.

Every failure mode callers are expected to handle has its own class so the
CLI can map them to exit codes without string matching.
"""

from __future__ import annotations

__all__ = [
    "NakayamaError",
    "EmptySeries",
    "NotAdmissible",
    "InternalInconsistency",
    "GorensteinAsymmetry",
    "NotGorenstein",
    "PreconditionFailed",
    "SearchSpaceTooLarge",
    "DimensionCapExceeded",
    "ParseError",
    "IoError",
]


class NakayamaError(Exception):
    """Base class for all package errors."""


class EmptySeries(NakayamaError):
    """A Kupisch series must contain at least one entry."""


class NotAdmissible(NakayamaError):
    """The given length sequence is not an admissible Kupisch series.

    Carries the failed constraint and the offending position (0-based).
    """

    def __init__(self, reason: str, index: int | None = None):
        self.reason = reason
        self.index = index
        at = "" if index is None else f" at index {index}"
        super().__init__(f"{reason}{at}")


class InternalInconsistency(NakayamaError):
    """Two independent computations of the same fact disagreed.

    This always indicates a bug (usually a vertex-orientation slip), never
    bad user input.
    """


class GorensteinAsymmetry(NakayamaError):
    """One-sided finiteness of the self-injective dimensions.

    Finiteness of the left and right self-injective dimension must agree;
    seeing only one finite side is a bug signal, not a math fact.
    """


class NotGorenstein(NakayamaError):
    """Operation requires finite Gorenstein degree."""


class PreconditionFailed(NakayamaError):
    """A verifier's hypothesis does not hold for the given input."""


class SearchSpaceTooLarge(NakayamaError):
    """A search's work would exceed the configured cap."""


class DimensionCapExceeded(NakayamaError):
    """Matrix realization would exceed the configured dimension cap."""


class ParseError(NakayamaError):
    """Malformed module expression."""


class IoError(NakayamaError):
    """Filesystem problem while reading or writing sweep output."""
