"""Exception types shared across the package."""


def quote(text: str) -> str:
    """Rejected input text for a one-line error message, cut to 40 characters."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


class LeibnizError(Exception):
    """Base class for all package errors."""


class DimensionError(LeibnizError):
    """Malformed input: indices or sizes do not match the ambient dimension."""


class ChiralityError(LeibnizError):
    """An operation was asked to run on an algebra of the wrong handedness."""


class ParseError(LeibnizError):
    """Definition-file syntax or consistency error."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
