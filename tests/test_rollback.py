"""Rollback and clock advance: undo log, copy-on-touch node state, due index.

A transaction undoes exactly what it touched, never stays open, and an
advance cranks exactly what a scan of every node would have found due. The
copy a transaction takes of a node's state equals ``deepcopy``'s.
"""

import copy
import random
from functools import partial
from pathlib import Path

import pytest

from paypipe import engine as engine_module
from paypipe.bench import _drive, build_monolith
from paypipe.engine import SETUP_TX, Engine, _copy_state, _copy_value, _NotPlain
from paypipe.errors import EngineError, InsufficientBalance
from paypipe.ledger import TokenLedger
from paypipe.nodes import (
    EndpointNode,
    ErrorSeverity,
    Node,
    OriginatorNode,
    StreamError,
    StreamMessage,
)
from paypipe.pipeline import instantiate, parse_pipeline
from paypipe.scenario import apply_step, run_scenario
from paypipe.templates import TimelockTemplate

from support import (USERS, load_scenario, payroll_spec, random_actions,
                     random_pipeline_text, revert_traces, schedule_fields,
                     schedule_of_flags, state_fingerprint, teed)
from test_golden import PAIRS

FIXTURES = Path(__file__).parent / "fixtures"


def build(text):
    return instantiate(parse_pipeline(text))


def tx_ids(engine):
    return [r.id for r in engine.transactions]


def check_reverts_restore(engine):
    """Make every transaction of ``engine`` check that a revert leaves the
    fingerprint it found; returns the list the reverted ids go into."""
    run_tx, reverted = engine._run_tx, []

    def checked(trigger, info, body):
        before = state_fingerprint(engine)
        result = run_tx(trigger, info, body)
        if not result.committed:
            assert state_fingerprint(engine) == before, result.reason
            reverted.append(result.id)
        return result
    engine._run_tx = checked
    return reverted


def scan_advance(engine, delta):
    """Reference advance: ask every node for its due releases."""
    engine.now += delta
    entries = sorted((due, node_id, k)
                     for node_id, node in engine.nodes.items()
                     for due, k in node.due_releases(engine.now))
    return [engine._run_tx("AdvanceTime",
                           {"node": node_id, "release": k, "at": due},
                           partial(engine._call, node_id, "crank", k, due))
            for due, node_id, k in entries]


def random_ledger_ops(rng, ledger, count):
    """Apply ``count`` random ledger calls; failed preconditions are skipped,
    as they write nothing."""
    accounts = ["a", "b", "c", "d", "e"]
    for _ in range(count):
        op = rng.choice(["mint", "transfer", "approve", "transfer_from"])
        x, y, z = (rng.choice(accounts) for _ in range(3))
        amount = rng.randint(0, 60)
        try:
            if op == "mint":
                ledger.mint(x, amount)
            elif op == "transfer":
                ledger.transfer(x, y, amount)
            elif op == "approve":
                ledger.approve(x, y, amount)
            else:
                ledger.transfer_from(x, y, z, amount)
        except EngineError:
            pass


def book(ledger):
    """The ledger's tables with their key order, and the supply."""
    return (list(ledger.balances.items()), list(ledger.allowances.items()),
            ledger.total_supply)


class TestLedgerUndoLog:
    def test_revert_restores_every_table_in_key_order(self):
        for seed in range(200):
            rng = random.Random(seed)
            ledger = TokenLedger()
            random_ledger_ops(rng, ledger, rng.randint(0, 8))
            before = book(ledger)
            ledger.begin()
            random_ledger_ops(rng, ledger, rng.randint(1, 12))
            ledger.revert()
            assert book(ledger) == before

    def test_commit_keeps_the_writes_and_closes_the_log(self):
        ledger = TokenLedger()
        ledger.begin()
        ledger.mint("a", 10)
        ledger.approve("a", "b", 4)
        ledger.commit()
        assert book(ledger) == ([("a", 10)], [(("a", "b"), 4)], 10)
        ledger.begin()
        ledger.transfer("a", "c", 3)
        ledger.revert()
        assert book(ledger) == ([("a", 10)], [(("a", "b"), 4)], 10)

    def test_log_cannot_be_opened_twice(self):
        ledger = TokenLedger()
        ledger.begin()
        with pytest.raises(RuntimeError):
            ledger.begin()


class TestFaultsCloseTheTransaction:
    @pytest.mark.parametrize("amount", [1.5, True])
    def test_bad_amount_is_rejected_before_a_transaction(self, amount):
        engine = build((FIXTURES / "error_refund.pipe").read_text())
        entry = engine.nodes[engine.entry].address
        engine.ledger.approve("acme", entry, 1000)
        before = state_fingerprint(engine)
        with pytest.raises(TypeError):
            engine.submit_deposit("acme", amount)
        with pytest.raises(TypeError):
            engine.submit_oracle_instruct("check", "oracle", "main", amount)
        assert state_fingerprint(engine) == before
        assert engine.transactions == []
        engine.ledger.approve("acme", entry, 500)
        assert engine.events[-1].tx_id == SETUP_TX
        assert engine.events[-1].payload["amount"] == 500
        result = engine.submit_deposit("acme", 40)
        assert tx_ids(engine) == [1]
        assert all(ev.tx_id == 1 for ev in result.events)

    def test_bad_delta_is_rejected_before_the_clock_moves(self):
        engine = build((FIXTURES / "error_refund.pipe").read_text())
        with pytest.raises(TypeError):
            engine.advance_time(1.5)
        assert engine.now == 0

    def test_fault_inside_a_transaction_undoes_and_reraises(self):
        class BuggyNode(EndpointNode):
            # test double: writes to the ledger and its state, then crashes
            def receive(self, msg):
                self.state["claimable"]["bob"] = msg.amount
                self.engine.ledger.transfer(self.address, "bob", msg.amount)
                raise ZeroDivisionError("template bug")

        engine = Engine()
        engine.add_node(OriginatorNode("o", outputs=[("main", "bug")]))
        engine.add_node(BuggyNode("bug", recipient="bob"))
        engine.entry = "o"
        engine.ledger.mint("alice", 100)
        engine.ledger.approve("alice", "node:o", 100)
        before = state_fingerprint(engine)
        with pytest.raises(ZeroDivisionError):
            engine.submit_deposit("alice", 60)
        assert state_fingerprint(engine) == before
        assert engine.transactions == [] and revert_traces(engine) == {}
        # the transaction is closed: a setup write is a setup event again
        engine.ledger.approve("alice", "node:o", 7)
        assert engine.events[-1].tx_id == SETUP_TX
        # and the next transaction takes the id the fault handed back
        engine.nodes["bug"].receive = lambda msg: None
        assert engine.submit_deposit("alice", 7).id == 1

    @staticmethod
    def warning_with(continuation):
        """Engine whose endpoint ``b`` takes its pay, then raises a warning
        stream error that proceeds into ``continuation``."""
        class Warns(EndpointNode):
            # test double: the warning's continuation is the code under test
            def receive(self, msg):
                super().receive(msg)
                raise StreamError(ErrorSeverity.WARNING, "w",
                                  continuation=continuation)

        engine = Engine()
        engine.add_node(OriginatorNode("o", outputs=[("main", "b")]))
        engine.add_node(Warns("b", recipient="bob"))
        engine.entry = "o"
        engine.ledger.mint("alice", 100)
        engine.ledger.approve("alice", "node:o", 100)
        return engine

    def test_bug_inside_a_policy_action_is_a_fault_not_a_revert(self):
        engine = self.warning_with(lambda: 1 // 0)
        before = state_fingerprint(engine)
        with pytest.raises(ZeroDivisionError):
            engine.submit_deposit("alice", 60)
        assert state_fingerprint(engine) == before
        assert engine.transactions == [] and revert_traces(engine) == {}
        engine.nodes["b"].receive = lambda msg: None
        assert engine.submit_deposit("alice", 7).id == 1

    def test_engine_error_inside_a_policy_action_reverts(self):
        def overdraw():
            raise InsufficientBalance("short")

        engine = self.warning_with(overdraw)
        before = state_fingerprint(engine)
        result = engine.submit_deposit("alice", 60)
        assert not result.committed
        assert result.reason == ("FatalStreamError: b: proceed failed "
                                 "handling 'w': short")
        assert state_fingerprint(engine) == before

    def test_a_fatal_error_inside_a_proceed_reverts_unwrapped(self):
        """``a``'s warning proceeds into ``b``, whose fatal error reverts
        under its own message, not as ``a``'s failed action."""
        gate = ("node {0}\n  kind router\n  template conditional\n"
                "  out main -> {1}\n  config when amount > 100\n"
                "  config on_false {2}\n")
        engine = build("pipeline relay\n\nbalance acme 100\n\n"
                       "node origin\n  kind originator\n  out main -> a\n\n"
                       + gate.format("a", "b", "warning") + "\n"
                       + gate.format("b", "pay", "fatal") + "\n"
                       "node pay\n  kind endpoint\n  recipient bob\n")
        engine.ledger.approve("acme", "node:origin", 10)
        before = state_fingerprint(engine)
        result = engine.submit_deposit("acme", 10)
        assert result.reason == "FatalStreamError: b: predicate false"
        assert state_fingerprint(engine) == before


def mutable_ids(value, found):
    """Append the id of every list, dict and message reachable in ``value``."""
    if isinstance(value, (list, dict, StreamMessage)):
        found.append(id(value))
        items = (value.values() if isinstance(value, dict)
                 else vars(value).values() if isinstance(value, StreamMessage)
                 else value)
        for item in items:
            mutable_ids(item, found)
    return found


def check_structural_copy(state):
    """The state takes the structural path, which equals ``deepcopy``; the
    state aliases no mutable object, and the copy shares none with it."""
    copied = _copy_value(state)  # raises _NotPlain on the deepcopy path
    assert copied == copy.deepcopy(state)
    original = mutable_ids(state, [])
    assert len(set(original)) == len(original)
    assert not set(original) & set(mutable_ids(copied, []))


def check_every_touch(engine):
    """Check each node state as a transaction copies it."""
    touch = engine._touch

    def checked(node):
        check_structural_copy(node.state)
        return touch(node)
    engine._touch = checked
    return engine


class TestStructuralCopy:
    def test_random_pipeline_states_copy_like_deepcopy(self):
        for seed in range(150):
            rng = random.Random(seed)
            text, info = random_pipeline_text(rng)
            engine = check_every_touch(build(text))
            for action in random_actions(rng, info):
                apply_step(engine, *action)
                for node in engine.nodes.values():
                    check_structural_copy(node.state)

    @pytest.mark.parametrize("name", PAIRS)
    def test_fixture_states_copy_like_deepcopy(self, name):
        engine = build((FIXTURES / f"{name}.pipe").read_text())
        result = run_scenario(check_every_touch(engine),
                              load_scenario(str(FIXTURES / f"{name}.scn")))
        assert result.ok
        for node in engine.nodes.values():
            check_structural_copy(node.state)

    def test_bench_states_copy_like_deepcopy(self):
        pipe = check_every_touch(instantiate(payroll_spec(3, 3)))
        mono = check_every_touch(build_monolith(3, 3))
        for engine in (pipe, mono):
            _drive(engine, 900, 3)
            assert len(engine.transactions) == 4

    def test_message_with_an_error_is_rebuilt(self):
        msg = StreamMessage(5, "acme", {"k": "v", "n": 2},
                            {"severity": "warning", "reason": "x",
                             "failed_node": "r"})
        state = {"last": msg, "filled": {"a": 1}, "released": [True, False]}
        check_structural_copy(state)
        assert _copy_state(state)["last"].__class__ is StreamMessage

    def test_shared_container_is_copied_once_per_entry(self):
        shared = [1]
        copied = _copy_state({"a": shared, "b": shared})
        assert copied == {"a": [1], "b": [1]}
        assert copied["a"] is not copied["b"]

    def test_flat_list_is_a_new_list_sharing_its_items(self):
        flags = [10**30, "x" * 40, True, None, False, -7]
        copied = _copy_value(flags)
        assert copied == flags and copied is not flags
        assert all(a is b for a, b in zip(copied, flags))
        copied[2] = False
        assert flags[2] is True
        assert _copy_value([]) == []

    class Flag(int):
        pass

    @pytest.mark.parametrize("item", [Flag(1), 1.5, (1, 2)],
                             ids=["int-subclass", "float", "tuple"])
    def test_list_with_another_item_takes_the_deepcopy_path(self, item):
        state = {"released": [False, item, True]}
        with pytest.raises(_NotPlain):
            _copy_value(state)
        copied = _copy_state(state)
        assert copied == state and copied["released"] is not state["released"]

    def test_state_that_contains_itself_takes_the_deepcopy_path(self):
        state = {"loop": []}
        state["loop"].append(state)
        copied = _copy_state(state)
        assert copied["loop"][0] is copied and copied is not state

    class SubMessage(StreamMessage):
        pass

    class Opaque:
        def __init__(self):
            self.items = [1]

        def __eq__(self, other):
            return type(other) is type(self) and other.items == self.items

    @pytest.mark.parametrize("value", [
        {1, 2},
        (1, [2]),
        1.5,
        SubMessage(5, "acme"),
        Opaque(),
        {(1, 2): 3},
        [{"deep": {3}}],
        StreamMessage(5, "acme", metadata={"score": 0.5}),
    ], ids=["set", "tuple", "float", "subclass", "object", "tuple-key",
            "nested-set", "float-in-message"])
    def test_other_values_take_the_deepcopy_path(self, value, monkeypatch):
        calls = []
        deepcopy = copy.deepcopy

        def spy(obj, *args):
            calls.append(obj)
            return deepcopy(obj, *args)
        monkeypatch.setattr(engine_module.copy, "deepcopy", spy)
        shared = []
        state = {"value": value, "a": shared, "b": shared}
        with pytest.raises(_NotPlain):
            _copy_value(state)
        copied = _copy_state(state)
        assert calls[0] is state
        assert copied == state
        assert copied["a"] is copied["b"]  # deepcopy keeps the aliasing


def drive_corpus(tee=False):
    """Drive seeds 0-149 of the random corpus, behind ``TEE`` when ``tee``,
    with every revert checked to restore the fingerprint and ids checked to
    stay contiguous; yields each engine and its reverted ids."""
    for seed in range(150):
        rng = random.Random(seed)
        text, info = random_pipeline_text(rng)
        actions = random_actions(rng, info, teed=tee)
        actions += [("advance", {"delta": rng.randint(0, 4)})
                    for _ in range(2)]
        engine = build(teed(text) if tee else text)
        reverted = check_reverts_restore(engine)
        for action in actions:
            apply_step(engine, *action)
        assert tx_ids(engine) == list(range(1, len(engine.transactions) + 1))
        yield engine, reverted


class TestRandomPipelines:
    def test_every_revert_restores_and_ids_stay_contiguous(self):
        reverts = sum(len(reverted) for _, reverted in drive_corpus())
        assert reverts >= 30  # the loop really exercised rollback

    def test_teed_every_revert_restores_and_ids_stay_contiguous(self):
        """The same behind the tee, whose guard reverts a deposit after the
        random pipeline has paid out."""
        reverts = payouts_undone = 0
        for engine, reverted in drive_corpus(tee=True):
            reverts += len(reverted)
            payouts_undone += sum(
                1 for tx in reverted for ev in revert_traces(engine)[tx]
                if ev.kind == "Transfer" and ev.payload["to"] in USERS)
        assert reverts >= 30
        assert payouts_undone >= 80  # reverts really undid payouts

    def test_due_index_cranks_what_a_full_scan_finds(self):
        for seed in range(150):
            rng = random.Random(seed)
            text, info = random_pipeline_text(rng)
            actions = random_actions(rng, info)
            actions += [("advance", {"delta": rng.randint(0, 4)})
                        for _ in range(2)]
            indexed, scanned = build(text), build(text)
            scanned.advance_time = partial(scan_advance, scanned)
            for action in actions:
                apply_step(indexed, *action)
                apply_step(scanned, *action)
                assert state_fingerprint(indexed) == state_fingerprint(scanned)
            assert indexed.trace_text() == scanned.trace_text()
            assert indexed.gas_text() == scanned.gas_text()


THREE_LOCKS = """pipeline three-locks

balance acme 900

node origin
  kind originator
  out main -> split

node split
  kind router
  template distributing
  out a -> a
  out b -> b
  out c -> c
  config weight a 1
  config weight b 1
  config weight c 1

node a
  kind router
  template timelock
  out main -> gate
  config start 10
  config period 10
  config releases 1
  config fixed 300

node gate
  kind router
  template conditional
  out main -> pay-a
  config when now >= 20
  config on_false fatal

node b
  kind router
  template timelock
  out main -> pay-b
  config start 5
  config period 10
  config releases 1
  config fixed 300

node c
  kind router
  template timelock
  out main -> pay-c
  config start 10
  config period 10
  config releases 1
  config fixed 300

node pay-a
  kind endpoint
  recipient alice

node pay-b
  kind endpoint
  recipient bob

node pay-c
  kind endpoint
  recipient carol
"""


def count_due_calls(engine):
    calls = []
    for node in engine.nodes.values():
        def counted(now, _node=node, _due=node.due_releases):
            calls.append(_node.id)
            return _due(now)
        node.due_releases = counted
    return calls


class TestDueIndex:
    def funded(self):
        engine = build(THREE_LOCKS)
        engine.ledger.approve("acme", "node:origin", 900)
        assert engine.submit_deposit("acme", 900).committed
        return engine

    def test_reverted_crank_beside_committed_ones_is_retried(self):
        engine = self.funded()
        first = engine.advance_time(10)
        assert [(r.info["at"], r.info["node"], r.committed)
                for r in first] == [(5, "b", True), (10, "a", False),
                                    (10, "c", True)]
        assert schedule_fields(engine.nodes["a"].state) \
            == schedule_of_flags([False])
        assert engine.ledger.balances["bob"] == 300
        assert engine.ledger.balances["carol"] == 300
        (retry,) = engine.advance_time(0)
        assert (retry.info["node"], retry.committed) == ("a", False)
        (last,) = engine.advance_time(10)
        assert (last.info["node"], last.committed) == ("a", True)
        assert engine.ledger.balances["alice"] == 300
        assert engine.advance_time(100) == []
        assert tx_ids(engine) == list(range(1, 7))

    def test_idle_advance_opens_no_transaction_and_asks_no_node(self):
        engine = self.funded()
        calls = count_due_calls(engine)
        assert engine.advance_time(4) == []
        assert calls == []
        assert tx_ids(engine) == [1]
        engine.ledger.approve("acme", "node:origin", 1)
        assert engine.events[-1].tx_id == SETUP_TX
        assert len(engine.advance_time(1)) == 1
        assert calls == ["b"]

    def test_schedule_made_by_a_commit_is_indexed(self):
        class Alarm(Node):
            # test double: each deposit schedules one release 5 ticks later,
            # so its schedule changes outside any crank
            def __init__(self, node_id):
                super().__init__(node_id)
                self.state = {"due": []}

            def deposit(self, from_account, amount, metadata):
                self.state["due"].append(self.engine.now + 5)

            def due_releases(self, now):
                return [(due, k) for k, due in enumerate(self.state["due"])
                        if due is not None and due <= now]

            def crank(self, k, due):
                self.state["due"][k] = None
                self.engine.emit("Released", self.address,
                                 {"release": k, "at": due, "amount": 0})

        engine = Engine()
        engine.add_node(Alarm("alarm"))
        engine.entry = "alarm"
        assert engine.advance_time(3) == []
        assert engine.submit_deposit("x", 1).committed
        assert engine.advance_time(4) == []
        (fired,) = engine.advance_time(1)
        assert fired.committed and fired.info["at"] == 8
        assert engine.advance_time(10) == []

    def test_node_added_after_an_advance_is_cranked(self):
        engine = self.funded()
        assert len(engine.advance_time(10)) == 3
        lock = TimelockTemplate("late", {
            "start": 25, "period": 5, "releases": 2, "fixed": 1},
            outputs=[("main", "pay-late")])
        engine.add_node(lock)
        engine.add_node(EndpointNode("pay-late", recipient="dave"))
        results = engine.advance_time(20)
        assert [(r.info["node"], r.info["release"]) for r in results] \
            == [("a", 0), ("late", 0), ("late", 1)]
        assert all(r.committed for r in results)
        assert schedule_fields(engine.nodes["late"].state) \
            == schedule_of_flags([True, True])
