"""Exception types shared across the toolkit, the faults that make a document
malformed (``MALFORMED``), and ``named``, which says where one arose."""

from contextlib import contextmanager


class WeblyError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(WeblyError, ValueError):
    """A value or structure violates a documented invariant."""


class ParseError(WeblyError, ValueError):
    """A file does not conform to its schema; message names the line."""


class CheckpointError(WeblyError, ValueError):
    """A checkpoint file is malformed or inconsistent with expectations."""


class DivergenceError(WeblyError, RuntimeError):
    """Training produced a non-finite loss or gradient.

    ``members`` lists the rows of a stacked parameter array that diverged.
    """

    def __init__(self, message: str, members: tuple[int, ...] = ()):
        super().__init__(message)
        self.members = members


# What a document's reader turns into its own error: ValueError covers JSON syntax,
# UTF-8 and a broken ValidationError rule; RecursionError a document nested too deep.
MALFORMED = (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError)


@contextmanager
def named(where: str, kind: type | None = None, catch=ValidationError):
    """Re-raise a ``catch`` error of the block as ``kind`` (by default its own class),
    unchained, with ``where`` (a file, key or verb) in front of its message."""
    try:
        yield
    except catch as exc:
        raise (kind or type(exc))(f"{where}{exc}") from None
