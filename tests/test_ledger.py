"""Ledger semantics: balances, allowances, delegated transfers, conservation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paypipe.errors import (
    AmountOverflow,
    InsufficientAllowance,
    InsufficientBalance,
)
from paypipe.ledger import MAX_AMOUNT, NULL_ADDRESS, TokenLedger

from support import NaiveLedger


def recorder():
    events = []
    ledger = TokenLedger(on_event=lambda kind, emitter, payload:
                         events.append((kind, payload)))
    return ledger, events


class TestMint:
    def test_single_account(self):
        ledger = TokenLedger()
        ledger.mint("alice", 1000)
        assert ledger.balance_of("alice") == 1000
        assert ledger.total_supply == 1000

    def test_zero_amount_records_event(self):
        ledger, events = recorder()
        ledger.mint("alice", 0)
        assert ledger.balance_of("alice") == 0
        assert events == [("Transfer", {"from": NULL_ADDRESS, "to": "alice",
                                        "amount": 0})]

    def test_two_mints_conserve(self):
        ledger = TokenLedger()
        ledger.mint("alice", 500)
        ledger.mint("bob", 500)
        assert ledger.total_supply == 1000
        assert ledger.sum_of_balances() == 1000

    def test_overflow_rejected(self):
        ledger = TokenLedger()
        ledger.mint("alice", MAX_AMOUNT)
        with pytest.raises(AmountOverflow):
            ledger.mint("bob", 1)
        assert ledger.total_supply == MAX_AMOUNT


class TestTransfer:
    def test_moves_funds(self):
        ledger = TokenLedger()
        ledger.mint("alice", 100)
        ledger.transfer("alice", "bob", 40)
        assert ledger.balance_of("alice") == 60
        assert ledger.balance_of("bob") == 40
        assert ledger.total_supply == 100

    def test_zero_amount_records_event(self):
        ledger, events = recorder()
        ledger.mint("alice", 100)
        ledger.transfer("alice", "bob", 0)
        assert ledger.balance_of("alice") == 100
        assert events[-1] == ("Transfer", {"from": "alice", "to": "bob",
                                           "amount": 0})

    def test_insufficient_balance_is_pure(self):
        ledger = TokenLedger()
        ledger.mint("alice", 100)
        before = ledger.snapshot()
        with pytest.raises(InsufficientBalance):
            ledger.transfer("alice", "bob", 101)
        assert ledger.snapshot() == before

    def test_negative_amount_rejected(self):
        ledger = TokenLedger()
        with pytest.raises(ValueError):
            ledger.transfer("alice", "bob", -1)


class TestApprove:
    def test_sets_allowance(self):
        ledger = TokenLedger()
        ledger.approve("alice", "r1", 500)
        assert ledger.allowance("alice", "r1") == 500

    def test_overwrites_not_adds(self):
        ledger = TokenLedger()
        ledger.approve("alice", "r1", 500)
        ledger.approve("alice", "r1", 200)
        assert ledger.allowance("alice", "r1") == 200

    def test_zero_revokes(self):
        ledger = TokenLedger()
        ledger.approve("alice", "r1", 500)
        ledger.approve("alice", "r1", 0)
        assert ledger.allowance("alice", "r1") == 0


class TestTransferFrom:
    def test_full_consumption(self):
        ledger = TokenLedger()
        ledger.mint("alice", 100)
        ledger.approve("alice", "r1", 100)
        ledger.transfer_from("r1", "alice", "r1", 100)
        assert ledger.balance_of("alice") == 0
        assert ledger.balance_of("r1") == 100
        assert ledger.allowance("alice", "r1") == 0

    def test_allowance_bound(self):
        ledger = TokenLedger()
        ledger.mint("alice", 100)
        ledger.approve("alice", "r1", 50)
        before = ledger.snapshot()
        with pytest.raises(InsufficientAllowance):
            ledger.transfer_from("r1", "alice", "r1", 60)
        assert ledger.snapshot() == before

    def test_allowance_checked_before_balance(self):
        ledger = TokenLedger()
        ledger.mint("alice", 100)
        ledger.approve("alice", "r1", 200)
        with pytest.raises(InsufficientBalance):
            ledger.transfer_from("r1", "alice", "r1", 150)

    def test_event_carries_spender(self):
        ledger, events = recorder()
        ledger.mint("alice", 10)
        ledger.approve("alice", "r1", 10)
        ledger.transfer_from("r1", "alice", "bob", 10)
        assert events[-1] == ("Transfer", {"from": "alice", "to": "bob",
                                           "amount": 10, "spender": "r1"})


class IntSubclass(int):
    """An ``int`` subclass: an amount the checks accept."""


# Each write, on a book where alice holds 100 and allows bob 50.
WRITES = {
    "mint": lambda ledger, amount: ledger.mint("bob", amount),
    "transfer": lambda ledger, amount: ledger.transfer("alice", "bob", amount),
    "approve": lambda ledger, amount: ledger.approve("alice", "bob", amount),
    "transfer_from": lambda ledger, amount:
        ledger.transfer_from("bob", "alice", "carol", amount),
}


def funded():
    """A ledger with hooks that record events and charges, both emptied
    after alice is given 100 and allows bob 50."""
    events, charges = [], []
    ledger = TokenLedger(on_event=lambda kind, emitter, payload:
                         events.append((kind, payload)),
                         on_charge=charges.append)
    ledger.mint("alice", 100)
    ledger.approve("alice", "bob", 50)
    events.clear()
    charges.clear()
    return ledger, events, charges


def book(ledger):
    return dict(ledger.balances), dict(ledger.allowances), ledger.total_supply


class TestAmountChecks:
    @pytest.mark.parametrize("write", sorted(WRITES))
    @pytest.mark.parametrize("amount, error, message", [
        (True, TypeError, "amount must be an int, got bool"),
        (1.0, TypeError, "amount must be an int, got float"),
        ("5", TypeError, "amount must be an int, got str"),
        (None, TypeError, "amount must be an int, got NoneType"),
        (-1, ValueError, "amount must be non-negative, got -1"),
    ])
    def test_rejected_amount_changes_nothing(self, write, amount, error,
                                             message):
        ledger, events, charges = funded()
        before = book(ledger)
        with pytest.raises(error) as info:
            WRITES[write](ledger, amount)
        assert str(info.value) == message
        assert book(ledger) == before
        assert events == [] and charges == []

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_int_subclass_is_accepted(self, write):
        ledger, events, charges = funded()
        WRITES[write](ledger, IntSubclass(5))
        assert charges == ["ledger_write"]
        ((_, payload),) = events
        assert payload["amount"] == 5
        assert book(ledger) != book(funded()[0])


class TestReads:
    def test_unknown_account_balance(self):
        assert TokenLedger().balance_of("ghost") == 0

    def test_balance_after_mint(self):
        ledger = TokenLedger()
        ledger.mint("alice", 7)
        assert ledger.balance_of("alice") == 7

    def test_unknown_allowance(self):
        assert TokenLedger().allowance("alice", "bob") == 0


ACCOUNTS = ["a", "b", "c", "d", "e", "f"]


def random_op(rng):
    kind = rng.choice(("transfer", "approve", "transfer_from"))
    if kind == "transfer":
        return (kind, rng.choice(ACCOUNTS), rng.choice(ACCOUNTS),
                rng.randint(0, 120))
    if kind == "approve":
        return (kind, rng.choice(ACCOUNTS), rng.choice(ACCOUNTS),
                rng.randint(0, 120))
    return (kind, rng.choice(ACCOUNTS), rng.choice(ACCOUNTS),
            rng.choice(ACCOUNTS), rng.randint(0, 120))


def apply_real(ledger, op):
    try:
        if op[0] == "transfer":
            ledger.transfer(op[1], op[2], op[3])
        elif op[0] == "approve":
            ledger.approve(op[1], op[2], op[3])
        else:
            ledger.transfer_from(op[1], op[2], op[3], op[4])
        return None
    except (InsufficientBalance, InsufficientAllowance) as err:
        return type(err).__name__


def apply_naive(naive, op):
    if op[0] == "transfer":
        return naive.transfer(op[1], op[2], op[3])
    if op[0] == "approve":
        return naive.approve(op[1], op[2], op[3])
    return naive.transfer_from(op[1], op[2], op[3], op[4])


def test_randomized_against_naive_oracle():
    # 200 runs of <=50 ops over <=6 accounts, compared step by step
    for seed in range(200):
        rng = random.Random(seed)
        ledger, naive = TokenLedger(), NaiveLedger()
        for account in ACCOUNTS[:rng.randint(2, 6)]:
            amount = rng.randint(0, 200)
            ledger.mint(account, amount)
            naive.mint(account, amount)
        for _ in range(rng.randint(1, 50)):
            op = random_op(rng)
            assert apply_real(ledger, op) == apply_naive(naive, op), op
            for account in ACCOUNTS:
                assert ledger.balance_of(account) == \
                    naive.balances.get(account, 0), op
            assert ledger.total_supply == naive.supply
            assert ledger.sum_of_balances() == ledger.total_supply


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(ACCOUNTS), st.sampled_from(ACCOUNTS),
              st.integers(min_value=0, max_value=300)),
    max_size=30,
))
def test_conservation_under_transfers(moves):
    ledger = TokenLedger()
    for account in ACCOUNTS:
        ledger.mint(account, 100)
    for frm, to, amount in moves:
        try:
            ledger.transfer(frm, to, amount)
        except InsufficientBalance:
            pass
        assert ledger.sum_of_balances() == ledger.total_supply == 600
        assert all(v >= 0 for v in ledger.balances.values())


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=500))
def test_transfer_from_equals_transfer_plus_allowance_decrement(
        funds, allowed, request_amount):
    delegated = TokenLedger()
    delegated.mint("owner", funds)
    delegated.approve("owner", "spender", allowed)

    plain = TokenLedger()
    plain.mint("owner", funds)

    ok = request_amount <= allowed and request_amount <= funds
    try:
        delegated.transfer_from("spender", "owner", "dest", request_amount)
        assert ok
    except (InsufficientAllowance, InsufficientBalance):
        assert not ok
        return
    plain.transfer("owner", "dest", request_amount)
    assert delegated.balances == plain.balances
    assert delegated.allowance("owner", "spender") == allowed - request_amount
