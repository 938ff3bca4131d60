"""Error types raised by the package.

Each class names the invariant it reports. Most derive from ValueError so
that callers who do not care about the fine distinction can catch broadly.
"""


class GroverWalkError(Exception):
    """Base class for every error raised by this package."""


class EmptyGraphError(GroverWalkError, ValueError):
    """Graph has no vertices."""


class LoopEdgeError(GroverWalkError, ValueError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GroverWalkError, ValueError):
    """The same unordered pair appears twice in the edge list."""


class DisconnectedError(GroverWalkError, ValueError):
    """The graph is not connected."""


class InvalidParameterError(GroverWalkError, ValueError):
    """A parameter is outside its documented domain."""


class ParseError(GroverWalkError, ValueError):
    """A graph file is malformed; the message carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class CapExceededError(GroverWalkError, ValueError):
    """An enumeration or an input graph goes beyond its configured size cap."""


class DimensionMismatchError(GroverWalkError, ValueError):
    """Matrix operands have incompatible shapes."""


class NonSquareError(GroverWalkError, ValueError):
    """A square matrix was required."""


class IndexOutOfRangeError(GroverWalkError, IndexError):
    """A coefficient or matching index falls outside the valid range."""


class ShapeMismatchError(GroverWalkError, ValueError):
    """The graph does not have the structure an identity check requires."""


class ResidualExceededError(GroverWalkError, ArithmeticError):
    """An exact verification found an identity that does not hold."""


class BudgetExceededError(GroverWalkError, ArithmeticError):
    """Exact matrix entries outgrew the configured bit budget."""

    def __init__(self, message, bits=None):
        super().__init__(message)
        self.bits = bits
