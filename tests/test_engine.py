"""Engine semantics: transactions, rollback, gas, ordering, exports."""

import random
from dataclasses import asdict
from pathlib import Path

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
from paypipe.scenario import apply_step, load_scenario, run_scenario

from support import (next_tx_id, random_actions, random_pipeline_text,
                     revert_traces, schedule_fields, schedule_of_flags)
from test_golden import FIXTURES, GOLDEN, PAIRS

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
        assert result.id in revert_traces(engine)
        # the pull is the first thing the tx does, so nothing got emitted
        assert result.events == ()

    def test_reverted_gas_still_logged(self):
        engine = build(CHAIN)
        result = engine.submit_deposit("acme", 100)
        last = engine.transactions[-1]
        assert last.status == "Reverted"
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
        kinds = [ev.kind for ev in revert_traces(engine)[result.id]]
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
        assert schedule_fields(engine.nodes["lock"].state) \
            == schedule_of_flags([False])
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
        assert all(r.info["at"] == 50 for r in results)

    def test_same_instant_cranks_in_node_id_order(self):
        engine = build(SPLIT_LOCKS)
        approve_entry(engine, "acme", 100)
        engine.submit_deposit("acme", 100)
        results = engine.advance_time(10)
        assert [r.info["node"] for r in results] == ["r1", "r2"]

    def test_negative_delta_rejected(self):
        engine = build(CHAIN)
        with pytest.raises(ValueError):
            engine.advance_time(-1)


class IntSubclass(int):
    """An ``int`` subclass: a trigger argument the checks accept."""


class TestTriggerArguments:
    @pytest.mark.parametrize("value, type_name", [
        (True, "bool"), (1.0, "float"), ("5", "str"), (None, "NoneType")])
    def test_non_int_is_rejected_before_a_transaction(self, value, type_name):
        engine = build(CHAIN)
        approve_entry(engine, "acme", 100)
        before, events = engine.state_fingerprint(), list(engine.events)
        with pytest.raises(TypeError) as info:
            engine.submit_deposit("acme", value)
        assert str(info.value) == f"amount must be an int, got {type_name}"
        with pytest.raises(TypeError) as info:
            engine.submit_oracle_instruct("rep", "ora", "main", value)
        assert str(info.value) == f"amount must be an int, got {type_name}"
        with pytest.raises(TypeError) as info:
            engine.advance_time(value)
        assert str(info.value) == f"delta must be an int, got {type_name}"
        assert engine.state_fingerprint() == before
        assert engine.events == events and engine.transactions == []

    def test_int_subclass_is_accepted(self):
        engine = build(CHAIN)
        approve_entry(engine, "acme", 100)
        assert engine.submit_deposit("acme", IntSubclass(100)).committed
        assert engine.ledger.balances["bob"] == 100
        result = engine.submit_oracle_instruct("rep", "ora", "main",
                                               IntSubclass(5))
        assert result.info["amount"] == 5
        assert engine.advance_time(IntSubclass(5)) == []
        assert engine.now == 5


def wrap_from_outside(engine):
    """Wrap the meter's ``charge`` and the ledger's four writes as instance
    attributes of a built engine, as a tracer does from outside. Returns
    the log of charge kinds and, per write that returned, the kinds it
    charged."""
    charges, writes = [], []
    charge = engine.meter.charge

    def counted(kind):
        charges.append(kind)
        charge(kind)
    engine.meter.charge = counted
    ledger = engine.ledger
    for name in ("mint", "transfer", "approve", "transfer_from"):
        def traced(*args, write=getattr(ledger, name)):
            start = len(charges)
            write(*args)
            writes.append(charges[start:])
        setattr(ledger, name, traced)
    return charges, writes


def per_transaction(charges):
    """A ``wrap_from_outside`` charge log cut into one list per
    transaction: each charges ``tx_base`` first, once."""
    per_tx = []
    for kind in charges:
        if kind == "tx_base":
            per_tx.append([])
        per_tx[-1].append(kind)
    return per_tx


def charge_lines(name):
    """The ordered charge kinds of each transaction of a fixture pair's
    run, one line per transaction: its id, then its kinds."""
    engine = build((FIXTURES / f"{name}.pipe").read_text())
    charges, _ = wrap_from_outside(engine)
    assert run_scenario(engine,
                        load_scenario(str(FIXTURES / f"{name}.scn"))).ok
    return "".join(f"tx={r.id} {' '.join(kinds)}\n" for r, kinds in
                   zip(engine.transactions, per_transaction(charges)))


class TestOutsideWrappers:
    @pytest.mark.parametrize("name", PAIRS)
    def test_charge_order_matches_golden(self, name):
        """A charge that moves within its transaction changes no total, so
        only the order, kind by kind, shows it."""
        assert charge_lines(name) == \
            (GOLDEN / f"{name}.charges").read_text()

    @pytest.mark.parametrize("name", PAIRS)
    def test_counted_charges_price_each_transaction(self, name):
        engine = build((FIXTURES / f"{name}.pipe").read_text())
        scenario = load_scenario(str(FIXTURES / f"{name}.scn"))
        charges, writes = wrap_from_outside(engine)
        engine.ledger.mint("outsider", 7)
        engine.ledger.approve("outsider", "anyone", 7)
        assert charges == [] and writes == [[], []]
        assert run_scenario(engine, scenario).ok
        costs = asdict(CostTable())
        assert [sum(map(costs.__getitem__, kinds))
                for kinds in per_transaction(charges)] == \
            [r.gas for r in engine.transactions]
        # set-up writes charge nothing, a write in a transaction charges
        # itself and its event
        approvals = [step for step in scenario.steps if step.kind == "approve"]
        assert writes.count([]) == 2 + len(approvals)
        inside = [w for w in writes if w]
        assert inside == [["ledger_write", "event_emit"]] * len(inside)
        assert charges.count("ledger_write") == len(inside)


class TestTriggerARouterCannotTake:
    """A router whose template takes no instruction or claim reverts as
    any node does. An instruction reads the node's config first and is
    billed for it, whatever the node; a claim is not."""

    @pytest.mark.parametrize("node_id", ["origin", "pay-emp-1"])
    def test_instruction_to_a_node_that_is_not_a_router_bills_it_too(
            self, node_id):
        engine = build((FIXTURES / "payroll.pipe").read_text())
        charges, _ = wrap_from_outside(engine)
        tx = engine.submit_oracle_instruct(node_id, "acme", "main", 10)
        assert tx.reason == (f"EngineError: node {node_id} does not take "
                             "oracle instructions")
        assert charges == ["tx_base", "config_read"]
        assert tx.gas == 21_100

    def test_instruction_reverts_after_a_config_read(self):
        engine = build((FIXTURES / "payroll.pipe").read_text())
        charges, _ = wrap_from_outside(engine)
        tx = engine.submit_oracle_instruct("lock", "acme", "main", 10)
        assert tx.reason == ("EngineError: node lock does not take oracle "
                             "instructions")
        assert charges == ["tx_base", "config_read"]
        assert tx.gas == TB.tx_base + TB.config_read == 21_100

    def test_claim_reverts_before_any_charge(self):
        engine = build((FIXTURES / "payroll.pipe").read_text())
        charges, _ = wrap_from_outside(engine)
        tx = engine.submit_claim("lock", "acme")
        assert tx.reason == "NotClaimable: node lock holds nothing claimable"
        assert charges == ["tx_base"]
        assert tx.gas == TB.tx_base == 21_000


# A trigger each, called from inside a node's receive.
NESTED = {
    "deposit": lambda engine: engine.submit_deposit("alice", 5),
    "instruct": lambda engine: engine.submit_oracle_instruct(
        "p", "ora", "main", 5),
    "claim": lambda engine: engine.submit_claim("p", "bob"),
    "advance": lambda engine: engine.advance_time(7),
}


def nesting_engine(nested=None, catch=False):
    """An originator paying a claimable endpoint whose ``receive`` holds
    the funds and emits ``Held``, then calls ``nested(engine)`` (catching
    ``RuntimeError`` when ``catch``), then pays bob 1 and emits ``After``.
    Returns the engine and the list of the errors caught."""
    caught = []

    class Nesting(EndpointNode):
        # test double: starts a trigger from inside a transaction
        def receive(self, msg):
            super().receive(msg)
            if self.nested is not None:
                try:
                    self.nested(self.engine)
                except RuntimeError as err:
                    if not catch:
                        raise
                    caught.append(err)
            self.engine.ledger.transfer(self.address, "bob", 1)
            self.engine.emit("After", self.address, {"amount": msg.amount})

    engine = Engine()
    engine.add_node(OriginatorNode("o", outputs=[("main", "p")]))
    node = engine.add_node(Nesting("p", recipient="bob", mode="claimable"))
    node.nested = nested
    engine.set_entry("o")
    engine.setup_balances({"alice": 100})
    engine.ledger.approve("alice", "node:o", 100)
    return engine, caught


class TestNestedTriggers:
    @pytest.mark.parametrize("name", NESTED)
    def test_propagated_refusal_undoes_the_outer_transaction(self, name):
        engine, _ = nesting_engine()
        assert engine.submit_deposit("alice", 10).committed
        before, events = engine.state_fingerprint(), list(engine.events)
        transactions = list(engine.transactions)
        engine.nodes["p"].nested = NESTED[name]
        with pytest.raises(RuntimeError, match="inside an open transaction"):
            engine.submit_deposit("alice", 20)
        assert engine.state_fingerprint() == before
        assert engine.events == events and engine.transactions == transactions
        assert revert_traces(engine) == {} and engine.now == 0
        engine.nodes["p"].nested = None
        assert engine.submit_deposit("alice", 20).id == 2

    @pytest.mark.parametrize("name", NESTED)
    def test_caught_refusal_changes_nothing(self, name):
        engine, caught = nesting_engine(NESTED[name], catch=True)
        twin, _ = nesting_engine()
        for amount in (10, 20):
            result = engine.submit_deposit("alice", amount)
            expected = twin.submit_deposit("alice", amount)
            assert result.committed and result.id == expected.id
            assert result.gas == expected.gas
            assert result.events == expected.events
        assert len(caught) == 2
        assert all("inside an open transaction" in str(err) for err in caught)
        assert engine.state_fingerprint() == twin.state_fingerprint()
        assert engine.trace_text() == twin.trace_text()
        assert engine.gas_text() == twin.gas_text()
        assert next_tx_id(engine) == next_tx_id(twin) == 3
        assert engine.submit_claim("p", "bob").gas == \
            twin.submit_claim("p", "bob").gas

    def test_ledger_log_opened_outside_refuses_a_trigger_unchanged(self):
        engine, _ = nesting_engine()
        engine.ledger.begin()
        before = engine.state_fingerprint()
        with pytest.raises(RuntimeError, match="undo log is already open"):
            engine.submit_deposit("alice", 10)
        assert engine.state_fingerprint() == before
        assert engine._tx is None and next_tx_id(engine) == 1
        engine.charge("config_read")
        assert engine.meter.consumed == 0
        engine.ledger.commit()
        assert engine.submit_deposit("alice", 10).id == 1

    def test_charges_reach_the_meter_only_inside_a_transaction(self):
        """Under an outside wrapper, a trigger's counted charges include the
        nodes' ``config_read`` and the conditional's ``predicate_eval``: as
        many of each kind as a dearer cost for it adds to the transaction's
        gas. Outside a transaction nothing is counted or billed."""
        text = (FIXTURES / "flows.pipe").read_text()
        scenario = load_scenario(str(FIXTURES / "flows.scn"))
        engine = build(text)
        charges, writes = wrap_from_outside(engine)
        assert run_scenario(engine, scenario).ok
        per_tx = per_transaction(charges)
        for kind in ("config_read", "predicate_eval"):
            dearer = build(text, CostTable(**{kind: getattr(TB, kind) + 1}))
            assert run_scenario(dearer, scenario).ok
            counts = [r2.gas - r1.gas for r1, r2 in
                      zip(engine.transactions, dearer.transactions)]
            assert [kinds.count(kind) for kinds in per_tx] == counts
            assert sum(counts) > 0
        consumed, counted = engine.meter.consumed, len(charges)
        engine.charge("config_read")
        engine.charge("predicate_eval")
        engine.ledger.mint("outsider", 7)
        engine.ledger.approve("outsider", "anyone", 7)
        engine.ledger.transfer("outsider", "anyone", 3)
        engine.ledger.transfer_from("anyone", "outsider", "zed", 3)
        engine.ledger.balance_of("outsider")
        assert len(charges) == counted and engine.meter.consumed == consumed
        assert writes[-4:] == [[]] * 4


class TestEmit:
    def test_recorded_payload_is_a_copy(self):
        class Mutating(Node):
            # test double: reuses its payload dict after emitting it
            def receive(self, msg):
                payload = {"amount": msg.amount}
                self.engine.emit("Seen", self.address, payload)
                payload["amount"] = -1
                payload["extra"] = True
                self.engine.ledger.transfer(self.address, "bob", msg.amount)

        engine = Engine()
        engine.add_node(OriginatorNode("o", outputs=[("main", "m")]))
        engine.add_node(Mutating("m"))
        engine.set_entry("o")
        engine.setup_balances({"alice": 100})
        engine.ledger.approve("alice", "node:o", 100)
        setup = {"note": "set-up"}
        engine.emit("Note", "admin", setup)
        setup["note"] = "changed"
        assert engine.submit_deposit("alice", 40).committed
        seen = [ev for ev in engine.events if ev.kind in ("Seen", "Note")]
        assert [(ev.kind, ev.payload) for ev in seen] == [
            ("Note", {"note": "set-up"}), ("Seen", {"amount": 40})]


class TestDeterminism:
    def test_identical_runs_produce_identical_exports(self):
        rng = random.Random(4242)
        text, info = random_pipeline_text(rng)
        actions = random_actions(rng, info)
        engines = [build(text), build(text)]
        for engine in engines:
            for action in actions:
                apply_step(engine, *action)
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
                    apply_step(engine, *action)
            first, second = engines
            assert first.events == second.events
            assert revert_traces(first) == revert_traces(second)
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
            apply_step(lo, *action)
            apply_step(hi, *action)
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
            apply_step(engine, *action)
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
            apply_step(engine, *action)
            for node in engine.nodes.values():
                assert node.held == engine.ledger.balances.get(node.address, 0)


class TestSetUpErrors:
    def test_duplicate_node_id_keeps_the_first(self):
        engine = Engine()
        first = engine.add_node(EndpointNode("pay", recipient="bob"))
        with pytest.raises(ValueError) as err:
            engine.add_node(EndpointNode("pay", recipient="carol"))
        assert str(err.value) == "duplicate node id 'pay'"
        assert engine.nodes == {"pay": first}

    def test_negative_cost_built_directly(self):
        with pytest.raises(ValueError) as err:
            CostTable(node_call=-1)
        assert str(err.value) == "cost node_call must be non-negative"

    def test_dispatch_to_a_node_that_does_not_exist(self):
        engine = Engine()
        engine.add_node(OriginatorNode("o", outputs=[("main", "ghost")]))
        engine.set_entry("o")
        engine.setup_balances({"alice": 100})
        engine.ledger.approve("alice", "node:o", 100)
        result = engine.submit_deposit("alice", 100)
        assert result.reason == "EdgeMissing: o dispatched to unknown node 'ghost'"
        assert engine.ledger.balances == {"alice": 100}


class TestConservationCheck:
    def test_self_check_catches_a_leaky_node(self):
        class LeakyNode(Node):
            # test double: corrupts balances outside mint/transfer
            def receive(self, msg):
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
        assert tx.gas == 65400 and tx.trigger == "Deposit"
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
