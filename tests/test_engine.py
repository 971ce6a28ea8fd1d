"""Engine semantics: transactions, rollback, gas, ordering, exports."""

import random

import pytest

from paypipe.engine import (
    SETUP_TX,
    ConservationBreach,
    CostTable,
    Engine,
    EventRecord,
    format_event,
)
from paypipe.nodes import EndpointNode, Node, OriginatorNode, StreamMessage
from paypipe.pipeline import instantiate, parse_pipeline

from support import apply_action, random_actions, random_pipeline_text

TB = CostTable()  # default costs, used in hand-derived gas sums


def build(text, cost_table=None):
    return instantiate(parse_pipeline(text), cost_table=cost_table)


def approve_entry(engine, account, amount):
    engine.ledger.approve(account, engine.nodes[engine.entry].address, amount)


CHAIN = """pipeline chain

balance acme 1000

node origin
  kind originator
  out main -> rep

node rep
  kind router
  template reporting
  out main -> pay
  config sink audit

node pay
  kind endpoint
  recipient bob
"""


class TestDepositTrace:
    def test_hand_derived_event_sequence(self):
        engine = build(CHAIN)
        approve_entry(engine, "acme", 100)
        result = engine.submit_deposit("acme", 100)
        assert result.committed
        got = [(ev.kind, ev.emitter, ev.payload) for ev in result.events]
        assert got == [
            ("Transfer", "ledger", {"from": "acme", "to": "node:origin",
                                    "amount": 100, "spender": "node:origin"}),
            ("Approval", "ledger", {"owner": "node:origin",
                                    "spender": "node:rep", "amount": 100}),
            ("Transfer", "ledger", {"from": "node:origin", "to": "node:rep",
                                    "amount": 100, "spender": "node:rep"}),
            ("Sent", "node:origin", {"to": "rep", "amount": 100}),
            ("Report", "node:rep", {"sink": "audit", "amount": 100,
                                    "origin": "acme"}),
            ("Approval", "ledger", {"owner": "node:rep", "spender": "node:pay",
                                    "amount": 100}),
            ("Transfer", "ledger", {"from": "node:rep", "to": "node:pay",
                                    "amount": 100, "spender": "node:pay"}),
            ("Sent", "node:rep", {"to": "pay", "amount": 100}),
            ("Transfer", "ledger", {"from": "node:pay", "to": "bob",
                                    "amount": 100}),
        ]
        assert engine.ledger.balance_of("bob") == 100

    def test_hand_derived_gas(self):
        engine = build(CHAIN)
        approve_entry(engine, "acme", 100)
        result = engine.submit_deposit("acme", 100)
        # 3 pulls + 2 approves + 1 payout = 6 writes; 9 events; 2 hops;
        # 2 processed nodes read their config
        expected = (TB.tx_base + 6 * TB.ledger_write + 9 * TB.event_emit
                    + 2 * TB.node_call + 2 * TB.config_read)
        assert result.gas == expected == 65400

    def test_sent_order_outer_hop_first(self):
        engine = build(CHAIN)
        approve_entry(engine, "acme", 100)
        result = engine.submit_deposit("acme", 100)
        sent = [ev for ev in result.events if ev.kind == "Sent"]
        assert [ev.payload["to"] for ev in sent] == ["rep", "pay"]


class TestRevert:
    def test_zero_deposit_reverts_at_tx_base(self):
        engine = build(CHAIN)
        approve_entry(engine, "acme", 100)
        result = engine.submit_deposit("acme", 0)
        assert not result.committed
        assert result.reason.startswith("ZeroAmount:")
        assert result.gas == TB.tx_base  # rejected before any ledger work

    def test_unapproved_deposit_rolls_back(self):
        engine = build(CHAIN)
        before = engine.state_fingerprint()
        result = engine.submit_deposit("acme", 100)
        assert not result.committed
        assert result.reason.startswith("InsufficientAllowance:")
        assert engine.state_fingerprint() == before

    def test_reverted_events_kept_out_of_canonical_log(self):
        engine = build(CHAIN)
        result = engine.submit_deposit("acme", 100)  # no approval
        assert engine.events == [ev for ev in engine.events
                                 if ev.tx_id == SETUP_TX]
        assert result.tx.id in engine.revert_traces
        # the pull is the first thing the tx does, so nothing got emitted
        assert result.events == ()

    def test_reverted_gas_still_logged(self):
        engine = build(CHAIN)
        result = engine.submit_deposit("acme", 100)
        last = engine.transactions[-1]
        assert last.tx.status == "Reverted"
        assert last.gas == result.gas > 0
        assert engine.gas_text().splitlines()[-2].endswith(
            f"status=Reverted gas={result.gas}")

    def test_unknown_node_claim_reverts(self):
        engine = build(CHAIN)
        result = engine.submit_claim("ghost", "bob")
        assert not result.committed
        assert result.reason.startswith("UnknownNode:")

    def test_dispatch_without_edge_reverts(self):
        class Stray(OriginatorNode):
            # test double: streams its deposit to a node it has no output to
            def deposit(self, from_account, amount, metadata):
                self.engine.ledger.transfer_from(self.address, from_account,
                                                 self.address, amount)
                msg = StreamMessage(amount=amount, origin=from_account)
                self.engine.dispatch(self, "y", msg)

        engine = Engine()
        engine.add_node(Stray("o", outputs=[("main", "x")]))
        engine.add_node(EndpointNode("x", recipient="bob"))
        engine.add_node(EndpointNode("y", recipient="carol"))
        engine.set_entry("o")
        engine.setup_balances({"alice": 100})
        engine.ledger.approve("alice", "node:o", 100)
        assert engine.edges == {("o", "x")}
        before = engine.state_fingerprint()
        result = engine.submit_deposit("alice", 100)
        assert not result.committed
        assert result.reason == "EdgeMissing: no edge o -> y"
        assert engine.state_fingerprint() == before


FATAL_GATE = """pipeline gate

balance acme 1000

node origin
  kind originator
  out main -> check

node check
  kind router
  template conditional
  out main -> pay
  config when amount >= 50
  config on_false fatal

node pay
  kind endpoint
  recipient bob
"""


class TestRollback:
    def test_fatal_mid_pipeline_restores_everything(self):
        engine = build(FATAL_GATE)
        approve_entry(engine, "acme", 1000)
        assert engine.submit_deposit("acme", 60).committed
        before = engine.state_fingerprint()
        events_before = list(engine.events)

        result = engine.submit_deposit("acme", 49)
        assert not result.committed
        assert result.reason.startswith("FatalStreamError:")
        assert engine.state_fingerprint() == before
        assert engine.events == events_before
        # the failed attempt still shows its partial work in the revert trace
        kinds = [ev.kind for ev in engine.revert_traces[result.tx.id]]
        assert "StreamError" in kinds

    def test_rollback_restores_node_state(self):
        text = """pipeline locks

balance acme 1000

node origin
  kind originator
  out main -> lock

node lock
  kind router
  template timelock
  out main -> check
  config start 10
  config period 10
  config releases 1
  config fixed 60

node check
  kind router
  template conditional
  out main -> pay
  config when amount >= 100
  config on_false fatal

node pay
  kind endpoint
  recipient bob
"""
        engine = build(text)
        approve_entry(engine, "acme", 1000)
        assert engine.submit_deposit("acme", 60).committed
        (result,) = engine.advance_time(10)
        # crank released 60 < 100, conditional went fatal, crank reverted
        assert not result.committed
        assert engine.nodes["lock"].state["released"] == [False]
        assert engine.nodes["lock"].held == 60
        # the schedule is still due, so the next advance retries it
        (again,) = engine.advance_time(0)
        assert not again.committed


SPLIT_LOCKS = """pipeline two-locks

balance acme 1000

node origin
  kind originator
  out main -> split

node split
  kind router
  template distributing
  out a -> r2
  out b -> r1
  config weight a 1
  config weight b 1

node r2
  kind router
  template timelock
  out main -> pay2
  config start 10
  config period 10
  config releases 1
  config fixed 50

node r1
  kind router
  template timelock
  out main -> pay1
  config start 10
  config period 10
  config releases 1
  config fixed 50

node pay1
  kind endpoint
  recipient alice

node pay2
  kind endpoint
  recipient bob
"""


class TestAdvanceTime:
    def test_no_timelocks_moves_clock_only(self):
        engine = build(CHAIN)
        assert engine.advance_time(100) == []
        assert engine.now == 100

    def test_boundary_release(self):
        text = SPLIT_LOCKS.replace("start 10", "start 50")
        engine = build(text)
        approve_entry(engine, "acme", 100)
        engine.submit_deposit("acme", 100)
        assert engine.advance_time(49) == []
        results = engine.advance_time(1)
        assert len(results) == 2
        assert all(r.tx.info["at"] == 50 for r in results)

    def test_same_instant_cranks_in_node_id_order(self):
        engine = build(SPLIT_LOCKS)
        approve_entry(engine, "acme", 100)
        engine.submit_deposit("acme", 100)
        results = engine.advance_time(10)
        assert [r.tx.info["node"] for r in results] == ["r1", "r2"]

    def test_negative_delta_rejected(self):
        engine = build(CHAIN)
        with pytest.raises(ValueError):
            engine.advance_time(-1)


class TestDeterminism:
    def test_identical_runs_produce_identical_exports(self):
        rng = random.Random(4242)
        text, info = random_pipeline_text(rng)
        actions = random_actions(rng, info)
        engines = [build(text), build(text)]
        for engine in engines:
            for action in actions:
                apply_action(engine, action)
        assert engines[0].trace_text() == engines[1].trace_text()
        assert engines[0].gas_text() == engines[1].gas_text()
        assert engines[0].state_fingerprint() == engines[1].state_fingerprint()


class TestEventRecord:
    EV = EventRecord(3, 1, "node:a", "Sent", {"to": "b", "amount": 7})

    def test_fields_cannot_be_assigned(self):
        for name in EventRecord._fields:
            with pytest.raises(AttributeError):
                setattr(self.EV, name, 0)

    def test_repr_and_tuple_form(self):
        assert repr(self.EV) == ("EventRecord(tx_id=3, seq=1, emitter='node:a', "
                                 "kind='Sent', payload={'to': 'b', 'amount': 7})")
        assert self.EV == (3, 1, "node:a", "Sent", {"to": "b", "amount": 7})
        assert self.EV.kind == "Sent" and list(self.EV)[4] == {"to": "b",
                                                               "amount": 7}

    def test_export_escapes_emitter_keys_and_values(self):
        ev = EventRecord(2, 4, "node:a b", "Report",
                         {"50% off": "x=1 50% done\nnext", "n": -3})
        assert format_event(ev) == ("tx=2 seq=4 emitter=node:a%20b kind=Report "
                                    "50%25%20off=x%3D1%2050%25%20done%0Anext n=-3")

    @pytest.mark.parametrize("raw, escaped", [
        ("a%b", "a%25b"), ("a b", "a%20b"), ("a=b", "a%3Db"), ("a\nb", "a%0Ab"),
        ("plain", "plain"), (-7, "-7")])
    def test_export_escapes_each_special_character_alone(self, raw, escaped):
        ev = EventRecord(1, 0, "e", "Report", {"k": raw})
        assert format_event(ev) == f"tx=1 seq=0 emitter=e kind=Report k={escaped}"

    def test_engines_fed_the_same_triggers_record_equal_events(self):
        for seed in range(40):
            rng = random.Random(seed)
            text, info = random_pipeline_text(rng)
            actions = random_actions(rng, info)
            engines = [build(text), build(text)]
            for engine in engines:
                for action in actions:
                    apply_action(engine, action)
            first, second = engines
            assert first.events == second.events
            assert first.revert_traces == second.revert_traces
            for result in first.transactions:
                assert [ev.seq for ev in result.events] == \
                    list(range(len(result.events)))


class TestHopAccounting:
    def test_sent_count_prices_node_calls_exactly(self):
        rng = random.Random(77)
        text, info = random_pipeline_text(rng)
        actions = random_actions(rng, info)
        lo = build(text, CostTable(node_call=0))
        hi = build(text, CostTable(node_call=2600))
        for action in actions:
            apply_action(lo, action)
            apply_action(hi, action)
        paired = zip(lo.transactions, hi.transactions)
        hops_seen = 0
        for cheap, costly in paired:
            if not cheap.committed:
                continue
            sent = sum(1 for ev in cheap.events if ev.kind == "Sent")
            hops_seen += sent
            assert costly.gas - cheap.gas == 2600 * sent
        assert hops_seen > 0  # the fixture actually exercised dispatch

    def test_no_direct_transfers_between_nodes(self):
        rng = random.Random(99)
        text, info = random_pipeline_text(rng)
        engine = build(text)
        for action in random_actions(rng, info):
            apply_action(engine, action)
        for ev in engine.events:
            if ev.kind != "Transfer":
                continue
            frm, to = ev.payload["from"], ev.payload["to"]
            if frm.startswith("node:") and to.startswith("node:"):
                assert "spender" in ev.payload, ev  # pulls only, never pushes

    def test_held_mirrors_ledger_for_every_node(self):
        rng = random.Random(123)
        text, info = random_pipeline_text(rng)
        engine = build(text)
        for action in random_actions(rng, info):
            apply_action(engine, action)
            for node in engine.nodes.values():
                assert node.held == engine.ledger.balances.get(node.address, 0)


class TestConservationCheck:
    def test_self_check_catches_a_leaky_node(self):
        class LeakyNode(Node):
            # test double: corrupts balances outside mint/transfer
            def on_receive(self, msg):
                bal = self.engine.ledger.balances
                bal["thief"] = bal.get("thief", 0) + 5

        engine = Engine()
        engine.add_node(OriginatorNode("o", outputs=[("main", "leak")]))
        engine.add_node(LeakyNode("leak"))
        engine.set_entry("o")
        engine.setup_balances({"alice": 100})
        engine.ledger.approve("alice", "node:o", 100)
        with pytest.raises(ConservationBreach):
            engine.submit_deposit("alice", 100)


class TestExports:
    def test_gas_report_shape(self):
        engine = build(CHAIN)
        assert engine.gas_text() == "total txs=0 gas=0\n"
        approve_entry(engine, "acme", 100)
        engine.submit_deposit("acme", 100)
        (tx,) = engine.transactions
        assert tx.gas == 65400 and tx.tx.trigger == "Deposit"
        assert engine.gas_text().splitlines()[-1] == "total txs=1 gas=65400"

    def test_gas_text_totals_line(self):
        engine = build(CHAIN)
        approve_entry(engine, "acme", 100)
        engine.submit_deposit("acme", 100)
        lines = engine.gas_text().splitlines()
        assert lines[-1] == "total txs=1 gas=65400"
        assert lines[-2] == "tx=1 trigger=Deposit status=Committed gas=65400"

    def test_trace_line_format_and_sorted_keys(self):
        ev = EventRecord(3, 1, "node:a", "Sent", {"to": "b", "amount": 7})
        assert format_event(ev) == "tx=3 seq=1 emitter=node:a kind=Sent amount=7 to=b"

    def test_trace_escaping(self):
        ev = EventRecord(1, 0, "node:a", "Report",
                         {"reason": "x=1 50% done\nnext"})
        assert format_event(ev) == \
            "tx=1 seq=0 emitter=node:a kind=Report reason=x%3D1%2050%25%20done%0Anext"
