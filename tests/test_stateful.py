"""Stateful property test: random trigger sequences over random pipelines.

A Hypothesis state machine builds a pipeline with
``support.random_pipeline_text`` and drives deposits, clock advances, oracle
instructions and claims against it, bad inputs included: non-int amounts
and deltas, unknown nodes, untrusted oracles, unfunded depositors. A tee in
front of the random pipeline pays an endpoint first and sends a last share
through a guard that reverts the deposit when its ``commit`` metadata is 0,
so a reverted deposit has to undo every write the random pipeline made.
Every step also runs on a twin engine built from the same text.

After every step the machine checks conservation, the ledger against a
``NaiveLedger`` replayed from the committed ledger events, contiguous
transaction ids, that no transaction is left open and that the twin saw the
same events and revert traces, and that the due index holds only nodes with a
schedule, each either marked stale or keyed at its ``next_due()``. Every
transaction that reverts is checked to leave the engine's fingerprint as it
found it.
"""

import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from paypipe.ledger import NULL_ADDRESS
from paypipe.pipeline import instantiate, parse_pipeline

from support import (DEPOSITOR, META_KEY, USERS, NaiveLedger, random_pipeline_text,
                     revert_traces, state_fingerprint, teed)

FUNDING = 1_000_000  # the depositor's balance in every random pipeline
BAD_AMOUNTS = (1.5, True, "7", None)
PICK = st.integers(min_value=0, max_value=63)  # index into a list, mod len


def check_reverts_restore(engine):
    """Make every transaction of ``engine`` check that a revert leaves the
    fingerprint it found."""
    run_tx = engine._run_tx

    def checked(trigger, info, body):
        before = state_fingerprint(engine)
        result = run_tx(trigger, info, body)
        if not result.committed:
            assert state_fingerprint(engine) == before, result.reason
        return result
    engine._run_tx = checked


def replay(naive, event):
    """Apply one committed ledger event to ``naive``; returns its error."""
    p = event.payload
    if event.kind == "Approval":
        return naive.approve(p["owner"], p["spender"], p["amount"])
    if p["from"] == NULL_ADDRESS:
        return naive.mint(p["to"], p["amount"])
    if "spender" in p:
        return naive.transfer_from(p["spender"], p["from"], p["to"], p["amount"])
    return naive.transfer(p["from"], p["to"], p["amount"])


def outcome(results):
    return [(r.id, r.trigger, r.status, r.gas, r.reason)
            for r in results]


class EngineMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def build(self, seed):
        text, self.info = random_pipeline_text(random.Random(seed))
        text = teed(text)
        self.engine = instantiate(parse_pipeline(text))
        self.twin = instantiate(parse_pipeline(text))
        check_reverts_restore(self.engine)
        self.naive = NaiveLedger()
        self.replayed = 0
        self.approve(FUNDING)

    # -- driving both engines --------------------------------------------

    def both(self, action):
        """Run ``action`` on the engine and its twin; both must produce the
        same transaction outcomes."""
        results = action(self.engine)
        results = results if isinstance(results, list) else [results]
        twin = action(self.twin)
        twin = twin if isinstance(twin, list) else [twin]
        assert outcome(results) == outcome(twin)
        return results

    def rejected(self, action, error):
        """``action`` must raise ``error`` on both engines before anything
        changes."""
        for engine in (self.engine, self.twin):
            before = state_fingerprint(engine)
            counts = (len(engine.transactions), len(engine.events),
                      len(revert_traces(engine)))
            with pytest.raises(error):
                action(engine)
            assert state_fingerprint(engine) == before
            assert (len(engine.transactions), len(engine.events),
                    len(revert_traces(engine))) == counts

    # -- setup -----------------------------------------------------------

    @rule(amount=st.integers(min_value=0, max_value=FUNDING))
    def approve(self, amount):
        for engine in (self.engine, self.twin):
            engine.ledger.approve(DEPOSITOR, engine.nodes["origin"].address,
                                  amount)

    # -- triggers --------------------------------------------------------

    @rule(amount=st.integers(min_value=0, max_value=600),
          score=st.none() | st.integers(min_value=0, max_value=8),
          commit=st.booleans())
    def deposit(self, amount, score, commit):
        meta = {"commit": int(commit)}
        if score is not None:
            meta[META_KEY] = score
        self.both(lambda e: e.submit_deposit(DEPOSITOR, amount, dict(meta)))

    @rule(account=st.sampled_from(USERS),
          amount=st.integers(min_value=1, max_value=50))
    def deposit_unfunded(self, account, amount):
        (result,) = self.both(lambda e: e.submit_deposit(account, amount))
        assert not result.committed

    @rule(amount=st.sampled_from(BAD_AMOUNTS))
    def deposit_bad_amount(self, amount):
        self.rejected(lambda e: e.submit_deposit(DEPOSITOR, amount), TypeError)

    @rule(delta=st.integers(min_value=0, max_value=15))
    def advance(self, delta):
        self.both(lambda e: e.advance_time(delta))

    @rule(delta=st.sampled_from((-1, 1.5, True, None)))
    def advance_bad_delta(self, delta):
        error = ValueError if delta == -1 else TypeError
        self.rejected(lambda e: e.advance_time(delta), error)

    @rule(pick=PICK, tag_pick=PICK, amount=st.integers(min_value=0, max_value=250),
          trusted=st.booleans())
    def instruct(self, pick, tag_pick, amount, trusted):
        oracles = self.info["oracles"]
        if not oracles:
            node, account, tag = "origin", "nobody", "main"
        else:
            node, account, tags = oracles[pick % len(oracles)]
            tag = tags[tag_pick % len(tags)]
        if not trusted:
            account = "mallory"
        self.both(lambda e: e.submit_oracle_instruct(node, account, tag,
                                                     amount))

    @rule(amount=st.sampled_from(BAD_AMOUNTS))
    def instruct_bad_amount(self, amount):
        node = self.info["oracles"][0][0] if self.info["oracles"] else "origin"
        self.rejected(
            lambda e: e.submit_oracle_instruct(node, "o", "main", amount),
            TypeError)

    @rule(pick=PICK, account=st.sampled_from(USERS))
    def claim(self, pick, account):
        claimables = self.info["claimables"]
        node = claimables[pick % len(claimables)][0] if claimables else "origin"
        self.both(lambda e: e.submit_claim(node, account))

    @rule(trigger=st.sampled_from(("claim", "instruct")))
    def unknown_node(self, trigger):
        if trigger == "claim":
            action = lambda e: e.submit_claim("nowhere", USERS[0])
        else:
            action = lambda e: e.submit_oracle_instruct("nowhere", "o", "t", 5)
        (result,) = self.both(action)
        assert result.reason.startswith("UnknownNode:")

    # -- invariants ------------------------------------------------------

    @invariant()
    def conserved(self):
        ledger = self.engine.ledger
        assert sum(ledger.balances.values()) == ledger.total_supply
        assert all(v >= 0 for v in ledger.balances.values())

    @invariant()
    def ledger_matches_naive_replay(self):
        events = self.engine.events
        for event in events[self.replayed:]:
            if event.emitter == "ledger":
                assert replay(self.naive, event) is None, event
        self.replayed = len(events)
        ledger = self.engine.ledger
        assert ledger.balances == self.naive.balances
        assert ledger.allowances == self.naive.allowances
        assert ledger.total_supply == self.naive.supply

    @invariant()
    def ids_contiguous_and_nothing_open(self):
        engine = self.engine
        ids = [r.id for r in engine.transactions]
        assert ids == list(range(1, len(ids) + 1))
        assert engine._tx is None and engine._touched == {}
        assert engine.ledger._old_balances is None

    @invariant()
    def due_index_is_current(self):
        engine = self.engine
        heap = set(engine._due_heap)
        for node_id, node in engine.nodes.items():
            if not node.scheduled:
                assert node_id not in engine._due_at
            else:
                due = node.next_due()
                assert engine._due_at.get(node_id) == due
                if due is not None:
                    assert (due, node_id) in heap

    @invariant()
    def twin_agrees(self):
        assert self.engine.events == self.twin.events
        assert revert_traces(self.engine) == revert_traces(self.twin)
        assert state_fingerprint(self.engine) == state_fingerprint(self.twin)


EngineMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngineMachine = EngineMachine.TestCase
