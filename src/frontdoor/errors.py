"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for every error raised by this package."""


class DuplicateNodeError(GraphError):
    pass


class UnknownNodeError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class CyclicGraphError(GraphError):
    pass


class OverlappingSetsError(GraphError):
    pass


class PreconditionError(GraphError):
    """A query violates the documented argument constraints."""


class EmptyAdjustmentError(GraphError):
    """The adjustment formula is undefined for an empty set."""


class ParseError(GraphError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
