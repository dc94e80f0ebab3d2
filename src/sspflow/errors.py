"""Exception types shared across the package.

Each class carries the process exit code the CLI returns for it as
exit_code: input-side problems (parsing, invariant violations in user
data, bad parameters) exit 1, a missing source-sink path exits 2, and
failed self-checks (internal invariants, iteration cap, predictions)
exit 3.
"""

from __future__ import annotations


class FlowError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(FlowError):
    """Malformed input: an instance or cost-spec file (with a 1-based line
    number) or a command-line value."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvariantError(FlowError):
    """Network data violates a structural invariant (2-cycle, bad capacity, ...)."""


class BalanceMismatch(InvariantError):
    """Node balances do not sum to zero."""


class InfeasibleFlow(FlowError):
    """A flow vector violates capacity or conservation constraints."""


class NoPath(FlowError):
    """No source-sink path exists where one is required."""

    exit_code = 2


class AuxiliaryArc(FlowError):
    """An operation that needs a cost-bearing edge was given an auxiliary one."""


class IterationCapExceeded(FlowError):
    """Solver exceeded an explicit iteration budget; diagnostic guard."""

    exit_code = 3


class InternalInvariantError(FlowError):
    """A runtime self-check failed (negative reduced cost, broken potential)."""

    exit_code = 3


class InvalidInterval(FlowError):
    """A cost interval violates the density-bound constraints."""


class InfeasibleShape(FlowError):
    """Requested topology parameters cannot be realized."""


class BadParams(FlowError):
    """Lower-bound family parameters out of the admissible range."""


class PredictionMismatch(FlowError):
    """Observed solver behavior diverged from the construction's prediction."""

    exit_code = 3
