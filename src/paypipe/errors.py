"""Exception hierarchy shared across the engine.

Every error that can abort a transaction carries a short machine-readable
``code``; the engine records it as the revert reason.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for errors the engine converts into a reverted transaction."""

    code = "EngineError"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code


class LedgerError(EngineError):
    code = "LedgerError"


class InsufficientBalance(LedgerError):
    code = "InsufficientBalance"


class InsufficientAllowance(LedgerError):
    code = "InsufficientAllowance"


class AmountOverflow(LedgerError, OverflowError):
    """Total supply would leave the supported integer domain."""

    code = "AmountOverflow"


class ZeroAmount(EngineError):
    code = "ZeroAmount"


class UnknownNode(EngineError):
    code = "UnknownNode"


class UnknownEdge(EngineError):
    code = "UnknownEdge"


class EdgeMissing(EngineError):
    """A node dispatched over an edge that is not part of the pipeline."""

    code = "EdgeMissing"


class UntrustedOracle(EngineError):
    code = "UntrustedOracle"


class InsufficientHeld(EngineError):
    code = "InsufficientHeld"


class NothingToClaim(EngineError):
    code = "NothingToClaim"


class NotClaimable(EngineError):
    code = "NotClaimable"


class FatalStreamError(EngineError):
    """A stream error that no policy handled; the transaction must revert."""

    code = "FatalStreamError"


class SpecSyntaxError(Exception):
    """Parse failure in a pipeline spec, scenario, or cost table file."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class SpecValidationError(Exception):
    """Raised when instantiating a spec that has validation errors."""

    def __init__(self, errors):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = list(errors)


class ObservableMismatch(Exception):
    """The two benchmark fixtures disagreed on payouts or reports."""
