"""Exception hierarchy shared across the engine.

Every error that can abort a transaction carries a short machine-readable
``code``; the engine records it as the revert reason. ``int_word``, beside
``SpecSyntaxError``, reads an integer word for every text format, and
``shown_word`` quotes a word a syntax error echoes.
"""

from __future__ import annotations

from typing import Optional


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


class DepthExceeded(EngineError):
    code = "DepthExceeded"


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


def int_word(word: str) -> Optional[int]:
    """The integer a word of any text format spells, or None when it spells
    none; raises nothing. A word is an integer when it is ASCII
    ``-?[0-9]+`` and ``int`` converts it, which a word longer than the
    interpreter's digit limit (``sys.get_int_max_str_digits()``) is not."""
    if word.isascii() and (word.isdigit()
                           or word[:1] == "-" and word[1:].isdigit()):
        try:
            return int(word)
        except ValueError:  # past the digit limit
            pass
    return None


def shown_word(word: str, keep: int = 20) -> str:
    """``word`` quoted for an error message: whole up to 20 characters, else
    its first ``keep`` characters and its length, so one long word cannot
    make the message unreadable."""
    if len(word) <= 20:
        return repr(word)
    return f"{word[:keep]!r}... ({len(word)} characters)"


class SpecValidationError(Exception):
    """Raised when instantiating a spec that has validation errors."""

    def __init__(self, errors):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = list(errors)


class ObservableMismatch(Exception):
    """The two benchmark fixtures disagreed on payouts or reports."""
