"""Exception types shared across the package."""

from __future__ import annotations


class DivSearchError(Exception):
    """Base class for all errors raised by this package."""


class CorpusParseError(DivSearchError):
    """Malformed XML input, or a declared encoding expat cannot read.

    ``byte_offset`` is expat's byte offset of the fault in the input, or -1
    where expat gives none.
    """

    def __init__(self, message: str, byte_offset: int = -1) -> None:
        super().__init__(message)
        self.byte_offset = byte_offset


class EmptyCorpusError(DivSearchError):
    """The document contained no element matching a configured entity label."""


class IndexFormatError(DivSearchError):
    """An index file is corrupted; carries the file name and 1-based line."""

    def __init__(self, message: str, path: str = "", line: int = 0) -> None:
        super().__init__(message)
        self.path = path
        self.line = line


class IndexVersionError(IndexFormatError):
    """The on-disk index format version is not supported."""


class NoIntentError(DivSearchError):
    """No query keyword has any positive-MI feature, so no intent exists."""
