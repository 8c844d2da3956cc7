"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor extents are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A configuration object violates its invariants."""


class InputError(ValueError):
    """A runtime input (class id, file payload, ...) is out of range."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values; carries the solver step, if any."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ParseError(ValueError):
    """A file could not be parsed; carries the byte offset where parsing failed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
