"""Exception types raised by parsing, model validation, and scoring."""

from __future__ import annotations


class CorefEvalError(Exception):
    """Base class for every error raised by this package.

    ``line`` is the 1-based input line the error is about, when known;
    the message then starts with ``line N:``.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ModelError(CorefEvalError):
    """A domain object would violate a structural invariant."""


class DuplicateSpan(ModelError):
    """One (doc_id, start, end) span is claimed by more than one chain."""


class DocMismatch(CorefEvalError):
    """Key and response disagree about which document is being scored.

    Also raised when pairing two corpora and a document id exists on one
    side only, or the two sides disagree on a document's token count.
    The offending id, when known, is available as ``doc_id``.
    """

    def __init__(self, message: str, doc_id: str | None = None):
        super().__init__(message)
        self.doc_id = doc_id


class EmptySeries(CorefEvalError):
    """A fit was requested on an empty rank-size series."""


class ParseError(CorefEvalError):
    """Malformed input text."""


class UnbalancedBracket(ParseError):
    """A coreference bracket was opened but never closed, or closed unopened."""


class SchemaError(ParseError):
    """A structured record is missing a required field or has a wrong type."""


class RangeError(ParseError):
    """A mention lies outside its document's token range."""
