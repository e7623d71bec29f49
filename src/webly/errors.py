"""Exception types shared across the toolkit."""


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
