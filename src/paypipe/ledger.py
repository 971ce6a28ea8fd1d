"""Fungible-token ledger with balance, allowance, and delegated-transfer semantics.

Amounts are non-negative integers in the smallest denomination. The ledger
enforces conservation (sum of balances equals total supply) and checks all
preconditions before mutating, so a failed operation leaves no trace.

Between ``begin()`` and ``commit()`` / ``revert()`` the ledger keeps an undo
log: the first old value of every balance and allowance key a write touches,
and the supply as it stood at ``begin()``. ``revert()`` writes those values
back, so undoing a transaction costs what the transaction wrote, not the
size of the ledger.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import (
    AmountOverflow,
    InsufficientAllowance,
    InsufficientBalance,
)

# Reserved source address used in mint events.
NULL_ADDRESS = "0x0"

# Amounts live in an unsigned 128-bit domain; growing the supply past it fails.
MAX_AMOUNT = 2**128 - 1

Address = str
Amount = int

EventHook = Callable[[str, str, dict], None]
ChargeHook = Callable[[str], None]

_LEDGER = "ledger"

# Undo-log value for a key that did not exist before the write.
_ABSENT = object()


def _ignore(*args) -> None:
    """The default hook: does nothing."""


def _require_int(name: str, value) -> None:
    """Reject a ledger amount or trigger argument that is not an ``int``
    (``bool`` is not one; an ``int`` subclass is). Each caller tests the
    common case, an exact ``int``, itself and calls this only otherwise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _check_amount(amount: Amount) -> None:
    """Reject a ledger amount that is not a non-negative ``int``."""
    _require_int("amount", amount)
    if amount < 0:
        raise ValueError(f"amount must be non-negative, got {amount}")


class TokenLedger:
    """Single-token account book used by every node in a pipeline.

    ``on_event(kind, emitter, payload)`` and ``on_charge(kind)`` are hooks
    the engine installs to record Transfer/Approval events and meter gas;
    both default to a no-op, so a bare ledger works without them. The
    engine's ``_run_tx`` binds ``on_charge`` to the meter's ``charge`` as a
    transaction opens and puts the no-op back as it closes.
    """

    def __init__(self, on_event: EventHook = _ignore,
                 on_charge: ChargeHook = _ignore):
        self.balances: dict[Address, Amount] = {}
        self.allowances: dict[tuple[Address, Address], Amount] = {}
        self.total_supply: Amount = 0
        self.on_event = on_event
        self.on_charge = on_charge
        # Undo log, None outside begin() ... commit()/revert().
        self._old_balances: Optional[dict] = None
        self._old_allowances: Optional[dict] = None
        self._old_supply: Amount = 0

    # -- reads -------------------------------------------------------------

    def balance_of(self, account: Address) -> Amount:
        self.on_charge("ledger_read")
        return self.balances.get(account, 0)

    def allowance(self, owner: Address, spender: Address) -> Amount:
        self.on_charge("ledger_read")
        return self.allowances.get((owner, spender), 0)

    # -- mutations ---------------------------------------------------------

    def mint(self, to: Address, amount: Amount) -> None:
        if amount.__class__ is not int or amount < 0:
            _check_amount(amount)
        if self.total_supply + amount > MAX_AMOUNT:
            raise AmountOverflow(f"minting {amount} exceeds the amount domain")
        self.on_charge("ledger_write")
        balances = self.balances
        old = self._old_balances
        if old is not None and to not in old:
            old[to] = balances.get(to, _ABSENT)
        balances[to] = balances.get(to, 0) + amount
        self.total_supply += amount
        self.on_event("Transfer", _LEDGER,
                      {"from": NULL_ADDRESS, "to": to, "amount": amount})

    def transfer(self, from_: Address, to: Address, amount: Amount) -> None:
        if amount.__class__ is not int or amount < 0:
            _check_amount(amount)
        balances = self.balances
        if balances.get(from_, 0) < amount:
            raise InsufficientBalance(
                f"{from_} holds {balances.get(from_, 0)}, needs {amount}"
            )
        self.on_charge("ledger_write")
        old = self._old_balances
        if old is not None:
            if from_ not in old:
                old[from_] = balances.get(from_, _ABSENT)
            if to not in old:
                old[to] = balances.get(to, _ABSENT)
        balances[from_] = balances.get(from_, 0) - amount
        balances[to] = balances.get(to, 0) + amount
        self.on_event("Transfer", _LEDGER,
                      {"from": from_, "to": to, "amount": amount})

    def approve(self, owner: Address, spender: Address, amount: Amount) -> None:
        if amount.__class__ is not int or amount < 0:
            _check_amount(amount)
        if amount > MAX_AMOUNT:
            raise AmountOverflow(f"allowance {amount} exceeds the amount domain")
        self.on_charge("ledger_write")
        key = (owner, spender)
        old = self._old_allowances
        if old is not None and key not in old:
            old[key] = self.allowances.get(key, _ABSENT)
        self.allowances[key] = amount
        self.on_event("Approval", _LEDGER,
                      {"owner": owner, "spender": spender, "amount": amount})

    def transfer_from(
        self, spender: Address, owner: Address, to: Address, amount: Amount
    ) -> None:
        """Move ``amount`` from ``owner`` to ``to`` on behalf of ``spender``.

        Allowance is checked before balance; both checks precede any mutation.
        """
        if amount.__class__ is not int or amount < 0:
            _check_amount(amount)
        key = (owner, spender)
        allowances, balances = self.allowances, self.balances
        allowed = allowances.get(key, 0)
        if allowed < amount:
            raise InsufficientAllowance(
                f"{spender} allowed {allowed} by {owner}, needs {amount}"
            )
        if balances.get(owner, 0) < amount:
            raise InsufficientBalance(
                f"{owner} holds {balances.get(owner, 0)}, needs {amount}"
            )
        self.on_charge("ledger_write")
        old_allowances = self._old_allowances
        if old_allowances is not None:
            if key not in old_allowances:
                old_allowances[key] = allowances.get(key, _ABSENT)
            old = self._old_balances
            if owner not in old:
                old[owner] = balances.get(owner, _ABSENT)
            if to not in old:
                old[to] = balances.get(to, _ABSENT)
        allowances[key] = allowed - amount
        balances[owner] = balances.get(owner, 0) - amount
        balances[to] = balances.get(to, 0) + amount
        self.on_event("Transfer", _LEDGER, {"from": owner, "to": to,
                                            "amount": amount, "spender": spender})

    # -- undo log ----------------------------------------------------------

    def begin(self) -> None:
        """Start logging writes so that ``revert()`` can undo them."""
        if self._old_balances is not None:
            raise RuntimeError("ledger undo log is already open")
        self._old_balances = {}
        self._old_allowances = {}
        self._old_supply = self.total_supply

    def commit(self) -> None:
        """Keep every write since ``begin()`` and drop the log."""
        self._old_balances = self._old_allowances = None

    def revert(self) -> None:
        """Undo every write since ``begin()`` and drop the log."""
        for table, old in ((self.balances, self._old_balances),
                           (self.allowances, self._old_allowances)):
            for key, value in old.items():
                if value is _ABSENT:
                    del table[key]
                else:
                    table[key] = value
        self.total_supply = self._old_supply
        self._old_balances = self._old_allowances = None

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> tuple:
        """A copy of the whole book. The engine no longer calls it: a
        transaction rolls back through the undo log. It stays only for the
        benchmark's traced-run wrappers, which count and time it."""
        return (dict(self.balances), dict(self.allowances), self.total_supply)

    def restore(self, snap: tuple) -> None:
        """Replace the whole book with a ``snapshot()``; not while the undo
        log is open. Like ``snapshot``, the engine no longer calls it; it
        stays only for the benchmark's traced-run wrappers."""
        balances, allowances, supply = snap
        self.balances = dict(balances)
        self.allowances = dict(allowances)
        self.total_supply = supply

    def sum_of_balances(self) -> Amount:
        # Internal read, not metered: used by conservation checks.
        return sum(self.balances.values())
