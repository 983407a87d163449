"""Exception types shared across the package."""


class ToolError(Exception):
    """Base class for all package-specific errors."""


class ConvergenceFailure(ToolError):
    """An iterative numerical routine failed to converge."""


class IndexOutOfRange(ToolError, IndexError):
    """A node index lies outside the graph's node range."""


class EdgeNotInGraph(ToolError, KeyError):
    """An operation referenced an edge that is not present in the graph."""


class SingularUpdate(ToolError, ArithmeticError):
    """A rank-one move would leave a cached operator singular or indefinite."""


class DisconnectedGraph(ToolError, ValueError):
    """The graph is not connected, so the requested quantity is undefined."""


class UnstableNetwork(ToolError, ValueError):
    """The delay exceeds the stability threshold for this graph."""


class DomainError(ToolError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidOutputMatrix(ToolError, ValueError):
    """A custom output matrix does not annihilate the all-ones vector."""


class NoFeasibleCandidate(ToolError, ValueError):
    """No candidate edge satisfies the stability bound at the first iteration."""


class ConfigError(ToolError, ValueError):
    """Inconsistent or out-of-range configuration values."""


class ParseError(ToolError, ValueError):
    """A text input (graph, candidate list, matrix, report) failed to parse."""
