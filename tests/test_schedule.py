"""Release schedules: the due scan against a full-list oracle, releasing,
schedules of any length, and the due index, which holds only the nodes that
have a schedule."""

import copy
import math
import random
import resource
import subprocess
import sys

import pytest

from paypipe.bench import PERIOD, START, MonolithicPayroll
from paypipe.engine import Engine
from paypipe.errors import EngineError
from paypipe.nodes import (EndpointNode, Node, OriginatorNode, earliest_due,
                           schedule_release, schedule_state)
from paypipe.pipeline import instantiate, parse_pipeline
from paypipe.templates import (TEMPLATES, ReportingTemplate, Template,
                               TimelockTemplate)

from support import (reference_due_releases, schedule_fields,
                     schedule_of_flags)
from test_cli import CHILD_ENV
from test_golden import FIXTURES


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
    return TimelockTemplate("lock", {"start": start, "period": period,
                                     "releases": n, "fixed": 1},
                            outputs=[("main", "pay")])


def check_against_reference(node, start, period, patterns):
    for released in patterns:
        node.state.update(schedule_of_flags(released))
        for now in now_values(start, period, len(released)):
            expected = reference_due_releases(released, start, period, now)
            assert node.due_releases(now) == expected, (released, now)
        assert node.next_due() == earliest_due(
            reference_due_releases(released, start, period, math.inf))
        assert schedule_fields(node.state) == schedule_of_flags(released)


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


class TestRelease:
    def test_moving_past_releases_leaves_holes_a_later_release_fills(self):
        state = schedule_state(last=None)
        schedule_release(state, 2, "lock")
        assert state == {"next": 3, "holes": [0, 1], "last": None}
        schedule_release(state, 1, "lock")
        schedule_release(state, 3, "lock")
        assert schedule_fields(state) == schedule_of_flags(
            [False, True, True, True])

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_executed_release_raises_and_changes_nothing(self, k):
        state = schedule_state()
        for done in (0, 2, 4):
            schedule_release(state, done, "lock")
        before = copy.deepcopy(state)
        with pytest.raises(EngineError) as caught:
            schedule_release(state, k, "lock")
        assert caught.value.code == "EngineError"
        assert caught.value.message == f"release {k} of lock already executed"
        assert state == before

    def test_monolith_final_release_flushes_what_is_held(self):
        engine = Engine()
        engine.add_node(MonolithicPayroll("payroll", ["emp-1"], 2))
        engine.set_entry("payroll")
        engine.setup_balances({"acme": 250})
        engine.ledger.approve("acme", "node:payroll", 250)
        assert engine.submit_deposit("acme", 250).committed
        results = engine.advance_time(START + PERIOD)
        assert [r.events[0].payload["amount"] for r in results] == [100, 150]
        assert engine.nodes["payroll"].held == 0


# -- schedules of any length ---------------------------------------------------

HUGE = [999_999_999_999, 2**64, 10**30]


def holes_pipe(releases):
    """The ``holes`` fixture's pipeline with ``releases`` releases."""
    text = (FIXTURES / "holes.pipe").read_text()
    assert "config releases 3\n" in text
    return text.replace("config releases 3\n", f"config releases {releases}\n")


def limit_memory():
    """Cap a child's address space at 1 GiB, so that a schedule kept as one
    entry per release fails fast instead of filling the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


class TestLongSchedule:
    @pytest.mark.parametrize("releases", HUGE)
    def test_cli_validates_and_runs_without_a_traceback(self, tmp_path,
                                                        releases):
        pipe = tmp_path / "holes.pipe"
        pipe.write_text(holes_pipe(releases))
        scn = str(FIXTURES / "holes.scn")
        for args, codes in ((["validate", str(pipe)], {0}),
                            (["run", str(pipe), scn], {0, 1})):
            proc = subprocess.run(
                [sys.executable, "-m", "paypipe", *args], env=CHILD_ENV,
                capture_output=True, text=True, preexec_fn=limit_memory)
            assert proc.returncode in codes, (args, proc.stderr)
            assert "Traceback" not in proc.stderr

    def test_lock_of_10_to_the_30_instantiates_and_cranks(self):
        engine = instantiate(parse_pipeline(holes_pipe(10**30)))
        lock = engine.nodes["lock"]
        engine.ledger.approve("acme", "node:origin", 1000)
        assert engine.submit_deposit("acme", 100).committed
        # no release is final, so each pays a quarter, 25, and the check
        # reverts it
        results = engine.advance_time(30)
        assert [r.info["release"] for r in results] == [0, 1, 2]
        assert not any(r.committed for r in results)
        assert schedule_fields(lock.state) == {"next": 0, "holes": []}
        assert engine.submit_deposit("acme", 400).committed
        results = engine.advance_time(0)
        assert [r.committed for r in results] == [True, True, True]
        assert engine.ledger.balance_of("bob") == 125 + 93 + 70
        assert schedule_fields(lock.state) == {"next": 3, "holes": []}
        assert lock.next_due() == 40


# -- due index -------------------------------------------------------------------


class Beacon(Template):
    """Test double: a template with one release, due at ``config["at"]``."""

    name = "beacon"

    def initial_state(self):
        return {"fired": False}

    def due_releases(self, now):
        at = self.config["at"]
        return [] if self.state["fired"] or at > now else [(at, 0)]

    def crank(self, k, due):
        self.state["fired"] = True
        self.engine.emit("Released", self.address,
                         {"release": k, "at": due, "amount": 0})


class Counted:
    """Mixin that counts the ``next_due`` calls a node receives."""

    def next_due(self):
        self.asked += 1
        return super().next_due()


class CountedLock(Counted, TimelockTemplate):
    asked = 0

    def receive(self, msg):
        asked = self.asked
        super().receive(msg)
        self.asked = asked  # its own exhaustion test is not the engine asking


class CountedReporting(Counted, ReportingTemplate):
    asked = 0


class CountedEndpoint(Counted, EndpointNode):
    asked = 0


def chain():
    """origin -> lock (timelock) -> rep (reporting) -> pay, with the
    routers and the endpoint counting ``next_due`` calls."""
    engine = Engine()
    engine.add_node(OriginatorNode("origin", outputs=[("main", "lock")]))
    engine.add_node(CountedLock("lock", {
        "start": 0, "period": 10, "releases": 3, "fixed": 100},
        outputs=[("main", "rep")]))
    engine.add_node(CountedReporting("rep", {
        "sink": "audit", "keys": []}, outputs=[("main", "pay")]))
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
        router = ReportingTemplate("r", {"sink": "s", "keys": []})
        assert not router.scheduled
        assert Beacon("b", {"at": 1}).scheduled

    # config lines of a router of each template without a schedule
    UNSCHEDULED = {
        "reporting": ["sink s"],
        "threshold": ["limit 5"],
        "distributing": ["weight a 1", "fixed b 2", "residual c"],
        "conditional": ["when amount > 1"],
        "oracle": ["oracle o"],
        "waterfall": ["tier a 5", "tier b rest"],
        "goalkeeper": ["mode hold", "admin x"],
    }

    def test_node_without_a_schedule_has_nothing_due(self):
        """The default ``next_due`` derives the answer from
        ``due_releases``, which is empty for every node without a
        schedule, so it is None whatever ``scheduled`` says."""
        assert set(self.UNSCHEDULED) == set(TEMPLATES) - {"timelock"}
        nodes = [OriginatorNode("o", outputs=[("main", "r")]),
                 EndpointNode("e", recipient="bob"),
                 EndpointNode("c", recipient="bob", mode="claimable")]
        for name, lines in self.UNSCHEDULED.items():
            cls = TEMPLATES[name]
            config = cls.empty_config()
            for line in lines:
                cls.parse_config_line(config, line.split())
            nodes.append(cls(name, config))
        for node in nodes:
            assert not node.scheduled, node.id
            assert node.next_due() is None, node.id

    def test_template_subclass_with_a_schedule_is_indexed_and_cranked(self):
        engine = Engine()
        engine.add_node(Beacon("beacon", {"at": 5}))
        engine.add_node(EndpointNode("pay", recipient="bob"))
        assert engine._due_at == {"beacon": 5}
        assert engine.advance_time(4) == []
        (fired,) = engine.advance_time(1)
        assert fired.committed and fired.info == {
            "node": "beacon", "release": 0, "at": 5}
        assert engine._due_at == {}
        assert engine.advance_time(10) == []

    def test_node_subclass_with_a_schedule_is_indexed_and_cranked(self):
        engine = Engine()
        engine.add_node(MonolithicPayroll("payroll", ["emp-1"], 2))
        engine.set_entry("payroll")
        engine.setup_balances({"acme": 200})
        engine.ledger.approve("acme", "node:payroll", 200)
        assert engine._due_at == {"payroll": START}
        assert engine.submit_deposit("acme", 200).committed
        results = engine.advance_time(20)
        assert [r.info["at"] for r in results] == [START, START + PERIOD]
        assert all(r.committed for r in results)
        assert engine.ledger.balances["emp-1"] == 200
        assert engine._due_at == {}

    def test_node_without_a_schedule_is_never_asked(self):
        engine = chain()
        assert engine._due_at == {"lock": 0}
        assert engine.submit_deposit("acme", 300).committed
        results = engine.advance_time(25)
        assert len(results) == 3 and all(r.committed for r in results)
        assert engine.ledger.balances["bob"] == 300
        assert engine.nodes["lock"].asked > 0
        assert engine.nodes["rep"].asked == engine.nodes["pay"].asked == 0
        assert engine._due_at == {}

    def test_only_a_commit_that_touched_the_lock_asks_it(self):
        engine = chain()
        lock = engine.nodes["lock"]
        assert lock.asked == 1  # by add_node
        assert engine.submit_deposit("acme", 200).committed
        assert lock.asked == 2
        (crank,) = engine.advance_time(1)  # release 0, due at 0
        assert crank.committed and lock.asked == 3
        assert engine._due_at == {"lock": 10}
        assert engine.advance_time(1) == []
        assert engine.submit_claim("lock", "bob").reason.startswith(
            "NotClaimable")  # reverted, though it touched the lock
        assert engine.advance_time(1) == []
        assert lock.asked == 3
        assert engine.submit_deposit("acme", 100).committed
        assert engine.advance_time(1) == []
        assert lock.asked == 4
        assert engine.nodes["rep"].asked == engine.nodes["pay"].asked == 0

    def test_catch_up_advance_asks_the_lock_once_and_leaves_no_keys(self):
        engine = chain()
        lock = engine.nodes["lock"]
        assert engine.submit_deposit("acme", 300).committed
        assert lock.asked == 2
        results = engine.advance_time(25)  # releases at 0, 10 and 20
        assert len(results) == 3 and all(r.committed for r in results)
        assert lock.asked == 3
        assert engine._due_heap == [] and engine._due_at == {}

    def test_catch_up_advance_indexes_a_lock_with_releases_left(self):
        engine = chain()
        lock = engine.nodes["lock"]
        assert engine.submit_deposit("acme", 300).committed
        assert len(engine.advance_time(15)) == 2  # releases at 0 and 10
        assert lock.asked == 3
        assert engine._due_heap == [(20, "lock")]
        assert engine._due_at == {"lock": 20}

    def test_the_engine_bills_a_custom_cranks_config_read(self):
        engine = Engine()
        engine.add_node(Beacon("beacon", {"at": 5}))
        (fired,) = engine.advance_time(5)
        assert fired.committed
        assert fired.gas == 21_000 + 100 + 1_000  # tx, config, Released

    def test_fault_in_a_crank_leaves_its_release_indexed(self):
        engine = Engine()
        beacon = engine.add_node(Beacon("beacon", {"at": 5}))

        def fault(k, due):
            raise RuntimeError("template bug")
        beacon.crank = fault
        with pytest.raises(RuntimeError, match="template bug"):
            engine.advance_time(5)
        assert engine.transactions == [] and engine._due_at == {"beacon": 5}
        del beacon.crank
        (fired,) = engine.advance_time(0)
        assert fired.committed and fired.id == 1
        assert engine._due_at == {}
