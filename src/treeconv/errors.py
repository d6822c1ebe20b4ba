"""Exception hierarchy shared across the package.

DataError subclasses mark problems with user-supplied files; the CLI maps
them to a distinct exit code from configuration mistakes.
"""


class TreeConvError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TreeConvError):
    """Operands have incompatible dimensions."""


class ContractError(TreeConvError):
    """A documented precondition was violated by the caller."""


class ConfigError(TreeConvError):
    """Invalid or inconsistent configuration."""


class DivergenceError(ConfigError):
    """Training turned a loss or parameter non-finite (e.g. too high a rate)."""


class DataError(TreeConvError):
    """Problem with an input file."""


class ParseError(DataError):
    """Malformed input text; `offset` or `line` locates the problem."""

    def __init__(self, message, offset=None, line=None):
        if offset is not None:
            message = f"{message} (at character offset {offset})"
        if line is not None:
            message = f"{message} (at line {line})"
        super().__init__(message)
        self.offset = offset
        self.line = line


class StructureError(DataError):
    """Input parsed but violates a structural invariant (e.g. head cycle)."""


class FormatError(DataError):
    """Record does not match the expected file format."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (at line {line})"
        super().__init__(message)
        self.line = line
