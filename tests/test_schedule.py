"""Release schedules: the due scan against a full-list oracle, and the due
index, which holds only the nodes that have a schedule."""

import math
import random

import pytest

from paypipe.bench import PERIOD, START, MonolithicPayroll
from paypipe.engine import Engine
from paypipe.nodes import (EndpointNode, Node, OriginatorNode, RouterNode,
                           earliest_due)
from paypipe.templates import (ReportingTemplate, Template, TimelockTemplate,
                               make_template)

from support import reference_due_releases


def flag_patterns(rng, n):
    """Release flags of length ``n``: none done, all done, and holes such as
    reverted cranks leave behind (later releases done, earlier pending)."""
    patterns = [[False] * n, [True] * n]
    for _ in range(6):
        patterns.append([rng.random() < 0.5 for _ in range(n)])
    for cut in range(n):  # a done suffix after a pending prefix
        patterns.append([k >= cut for k in range(n)])
    return patterns


def now_values(start, period, n):
    """Clock values below the start, on and next to every due time, past the
    last release and at infinity."""
    values = {0, start - 1, start + n * period, start + 10 * n * period,
              math.inf}
    for k in range(n):
        due = start + k * period
        values.update((due - 1, due, due + 1))
    return sorted(v for v in values if v >= 0)


def timelock_node(start, period, n):
    template = TimelockTemplate({"start": start, "period": period,
                                 "releases": n, "fixed": 1})
    return RouterNode("lock", template, outputs=[("main", "pay")])


def check_against_reference(node, start, period, patterns):
    for released in patterns:
        node.state["released"] = list(released)
        for now in now_values(start, period, len(released)):
            expected = reference_due_releases(released, start, period, now)
            assert node.due_releases(now) == expected, (released, now)
        assert node.next_due() == earliest_due(
            reference_due_releases(released, start, period, math.inf))
        assert node.state["released"] == released


class TestDueScan:
    @pytest.mark.parametrize("seed", range(20))
    def test_timelock_matches_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        start, period = rng.randint(0, 50), rng.randint(1, 20)
        check_against_reference(timelock_node(start, period, n), start,
                                period, flag_patterns(rng, n))

    @pytest.mark.parametrize("seed", range(10))
    def test_monolith_matches_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        node = MonolithicPayroll("payroll", ["emp-1", "emp-2"], n)
        check_against_reference(node, START, PERIOD, flag_patterns(rng, n))

    def test_period_one_and_start_zero(self):
        check_against_reference(timelock_node(0, 1, 8), 0, 1,
                                flag_patterns(random.Random(99), 8))


# -- due index -------------------------------------------------------------------


class Beacon(Template):
    """Test double: a template with one release, due at ``config["at"]``."""

    name = "beacon"

    def initial_state(self):
        return {"fired": False}

    def due_releases(self, node, now):
        at = self.config["at"]
        return [] if node.state["fired"] or at > now else [(at, 0)]

    def crank(self, node, k, due):
        node.state["fired"] = True
        node.engine.emit("Released", node.address,
                         {"release": k, "at": due, "amount": 0})


class Counted:
    """Mixin that counts the ``next_due`` calls a node receives."""

    def next_due(self):
        self.asked += 1
        return super().next_due()


class CountedRouter(Counted, RouterNode):
    asked = 0


class CountedEndpoint(Counted, EndpointNode):
    asked = 0


def chain():
    """origin -> lock (timelock) -> rep (reporting) -> pay, with the router
    and the endpoint counting ``next_due`` calls."""
    engine = Engine()
    engine.add_node(OriginatorNode("origin", outputs=[("main", "lock")]))
    engine.add_node(CountedRouter("lock", make_template("timelock", {
        "start": 0, "period": 10, "releases": 3, "fixed": 100}),
        outputs=[("main", "rep")]))
    engine.add_node(CountedRouter("rep", make_template("reporting", {
        "sink": "audit", "keys": []}), outputs=[("main", "pay")]))
    engine.add_node(CountedEndpoint("pay", recipient="bob"))
    engine.set_entry("origin")
    engine.setup_balances({"acme": 300})
    engine.ledger.approve("acme", "node:origin", 300)
    return engine


class TestDueIndex:
    def test_schedule_flag_follows_the_due_releases_override(self):
        assert TimelockTemplate.scheduled and Beacon.scheduled
        assert not ReportingTemplate.scheduled and not Template.scheduled
        assert MonolithicPayroll.scheduled
        assert not Node.scheduled and not OriginatorNode.scheduled
        assert not EndpointNode.scheduled
        router = RouterNode("r", ReportingTemplate({"sink": "s", "keys": []}))
        assert not router.scheduled
        assert RouterNode("b", Beacon({"at": 1})).scheduled

    def test_template_subclass_with_a_schedule_is_indexed_and_cranked(self):
        engine = Engine()
        engine.add_node(RouterNode("beacon", Beacon({"at": 5})))
        engine.add_node(EndpointNode("pay", recipient="bob"))
        assert engine._due_stale == {"beacon"}
        assert engine.advance_time(4) == []
        assert engine._due_at == {"beacon": 5}
        (fired,) = engine.advance_time(1)
        assert fired.committed and fired.tx.info == {
            "node": "beacon", "release": 0, "at": 5}
        assert engine.advance_time(10) == []
        assert engine._due_at == {} and engine._due_stale == set()

    def test_node_subclass_with_a_schedule_is_indexed_and_cranked(self):
        engine = Engine()
        engine.add_node(MonolithicPayroll("payroll", ["emp-1"], 2))
        engine.set_entry("payroll")
        engine.setup_balances({"acme": 200})
        engine.ledger.approve("acme", "node:payroll", 200)
        assert engine.submit_deposit("acme", 200).committed
        assert engine._due_stale == {"payroll"}
        results = engine.advance_time(20)
        assert [r.tx.info["at"] for r in results] == [START, START + PERIOD]
        assert all(r.committed for r in results)
        assert engine.ledger.balances["emp-1"] == 200

    def test_node_without_a_schedule_is_never_asked(self):
        engine = chain()
        assert engine._due_stale == {"lock"}
        assert engine.submit_deposit("acme", 300).committed
        results = engine.advance_time(25)
        assert len(results) == 3 and all(r.committed for r in results)
        assert engine.ledger.balances["bob"] == 300
        assert engine.nodes["lock"].asked > 0
        assert engine.nodes["rep"].asked == engine.nodes["pay"].asked == 0
        assert engine._due_at == {} and engine._due_stale == {"lock"}

    def test_advance_with_nothing_stale_does_not_reindex(self, monkeypatch):
        engine = chain()
        reindex = engine._reindex
        calls = []

        def counted():
            calls.append(set(engine._due_stale))
            reindex()
        monkeypatch.setattr(engine, "_reindex", counted)
        assert engine.submit_deposit("acme", 200).committed
        (crank,) = engine.advance_time(1)  # release 0, due at 0
        assert crank.committed and calls == [{"lock"}]
        assert engine.advance_time(1) == []
        assert len(calls) == 2  # the crank left the lock stale
        assert engine.advance_time(1) == []
        assert engine.submit_claim("pay", "bob").reason.startswith(
            "NotClaimable")
        assert engine.advance_time(1) == []
        assert len(calls) == 2
        assert engine.submit_deposit("acme", 100).committed
        assert engine.advance_time(1) == []
        assert calls[2:] == [{"lock"}]
