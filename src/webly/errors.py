"""Exception types shared across the toolkit, the faults that make a document
malformed (``MALFORMED``), ``named``, which says where one arose, and ``shown``,
how a message quotes a value."""

from contextlib import contextmanager
from itertools import islice


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
    unchained, with ``where`` (a file, key or verb) in front of its message. The text
    of an error that is not a WeblyError, which may quote its input, is ``clipped``."""
    try:
        yield
    except catch as exc:
        text = str(exc) if isinstance(exc, WeblyError) else clipped(str(exc))
        raise (kind or type(exc))(f"{where}{text}") from None


SHOWN = 1000  # characters of a value that a message quotes (``shown``, ``clipped``)


def clipped(text: str) -> str:
    """``text`` cut to ``SHOWN`` characters, the last three "...": as ``shown`` cuts a repr."""
    return text if len(text) <= SHOWN else text[:SHOWN - 3] + "..."


def shown(value) -> str:
    """``repr(value)`` if at most ``SHOWN`` characters and 10 levels of lists, tuples and
    dicts deep, else a form cut to those bounds; it never raises, whatever the value."""
    return clipped(_bounded(value, 10))


def _bounded(value, level: int) -> str:
    """``repr(value)``, but a list, tuple or dict ``level`` deep in it shows "..." for
    its items, and one of more than ``SHOWN`` items shows its first ones and "..."."""
    kind = type(value)
    if kind not in (list, tuple, dict) or not value:
        try:
            return repr(value)
        except Exception:  # a failing repr, or an int past str's digit limit
            return f"<{kind.__name__}>"
    # each item as a 1-tuple, a dict's as (key, value), shown as "key: value"
    items = islice(value.items() if kind is dict else zip(value), SHOWN if level > 0 else 0)
    parts = [": ".join(_bounded(x, level - 1) for x in item) for item in items]
    parts += ["..."] * (len(value) > len(parts))
    left, right = {list: "[]", tuple: "()", dict: "{}"}[kind]
    return left + ", ".join(parts) + "," * (kind is tuple and len(value) == 1) + right
