"""The bound on a stream's path: no valid pipeline takes more than
``MAX_HOPS`` hops, and ``dispatch`` reverts a stream that would nest more in
an engine built without validation, so no trigger recurses past the
interpreter's limit."""

import subprocess
import sys

import pytest

from paypipe import engine as engine_module
from paypipe.engine import Engine
from paypipe.errors import DepthExceeded
from paypipe.nodes import (EndpointNode, ErrorSeverity, OriginatorNode,
                           PolicyAction)
from paypipe.pipeline import (MAX_HOPS, ValidationError, instantiate,
                              parse_pipeline, validate_pipeline)
from paypipe.templates import ConditionalTemplate, ReportingTemplate

from test_cli import CHILD_ENV

ROUTERS = {
    "reporting": "template reporting\n  out main -> {to}\n  config sink audit",
    # a conditional forwards from its predicate test, with no frame between
    "conditional": "template conditional\n  out main -> {to}\n"
                   "  config when amount > 0",
}
GATE = ("template conditional\n  out main -> {after}\n"
        "  config when amount >= 1000\n  on recoverable redirect {to}")
KEEPER = "template goalkeeper\n  out main -> {to}\n  config mode forward"
# a lock whose one release, due at once, pays on all it holds
LOCK = ("template timelock\n  out main -> {to}\n  config start 0\n"
        "  config period 1\n  config releases 1\n  config fixed 40")


def chain(hops, router="reporting", redirect=False):
    """A pipeline whose longest path takes ``hops`` hops: the originator,
    ``hops - 1`` routers, then the endpoint ``pay``. With ``redirect``, a
    gate halfway sends a deposit under 1,000 down its redirect to a
    forwarding goalkeeper, one hop longer than its own output, which skips
    the keeper."""
    ids = ["origin", *(f"r{i}" for i in range(1, hops)), "pay"]
    blocks = ["pipeline chain", "balance acme 1000",
              f"node origin\n  kind originator\n  out main -> {ids[1]}"]
    gate = hops // 2 if redirect else None
    for i in range(1, hops):
        if i == gate:
            body = GATE.format(to=ids[i + 1], after=ids[i + 2])
        elif gate is not None and i == gate + 1:
            body = KEEPER.format(to=ids[i + 1])
        else:
            body = ROUTERS[router].format(to=ids[i + 1])
        blocks.append(f"node {ids[i]}\n  kind router\n  {body}")
    blocks.append("node pay\n  kind endpoint\n  recipient bob")
    return "\n\n".join(blocks) + "\n"


def locked_chain(hops):
    """``chain(hops)`` whose first router is a timelock, so that a crank
    starts the longest path one hop after the originator."""
    return chain(hops).replace(ROUTERS["reporting"].format(to="r2"),
                               LOCK.format(to="r2"), 1)


def deep(frames, fn):
    """``fn()`` called ``frames`` frames below this one."""
    return fn() if frames == 0 else deep(frames - 1, fn)


CHAINS = [pytest.param(router, redirect, id=f"{router}-{way}")
          for router in ROUTERS
          for redirect, way in ((False, "outputs"), (True, "redirect"))]


@pytest.mark.parametrize("router,redirect", CHAINS)
def test_chain_at_the_limit_commits_from_200_frames_deep(router, redirect):
    spec = parse_pipeline(chain(MAX_HOPS, router, redirect))
    assert validate_pipeline(spec) == []
    engine = instantiate(spec)
    engine.ledger.approve("acme", "node:origin", 40)
    result = deep(200, lambda: engine.submit_deposit("acme", 40))
    assert result.committed, result.reason
    assert engine.ledger.balance_of("bob") == 40
    sent = [ev for ev in result.events if ev.kind == "Sent"]
    assert len(sent) == MAX_HOPS  # the redirect chain went the long way


@pytest.mark.parametrize("router,redirect", CHAINS)
def test_one_hop_longer_is_a_validation_error(router, redirect):
    spec = parse_pipeline(chain(MAX_HOPS + 1, router, redirect))
    assert validate_pipeline(spec) == [ValidationError(
        "DepthExceeded", "origin",
        f"a path of {MAX_HOPS + 1} hops starts here, over the limit of "
        f"{MAX_HOPS}")]


def test_a_crank_at_the_limit_commits_from_200_frames_deep():
    spec = parse_pipeline(locked_chain(MAX_HOPS))
    assert validate_pipeline(spec) == []
    engine = instantiate(spec)
    engine.ledger.approve("acme", "node:origin", 40)
    assert engine.submit_deposit("acme", 40).committed
    assert engine.ledger.balance_of("bob") == 0
    (result,) = deep(200, lambda: engine.advance_time(0))
    assert result.committed, result.reason
    assert engine.ledger.balance_of("bob") == 40
    sent = [ev for ev in result.events if ev.kind == "Sent"]
    assert len(sent) == MAX_HOPS - 1


def test_a_crank_one_router_longer_is_a_validation_error():
    spec = parse_pipeline(locked_chain(MAX_HOPS + 1))
    assert validate_pipeline(spec) == [ValidationError(
        "DepthExceeded", "origin",
        f"a path of {MAX_HOPS + 1} hops starts here, over the limit of "
        f"{MAX_HOPS}")]


def test_a_path_that_starts_mid_graph_counts_too():
    """Cranks, claims and instructions start mid-graph, so the longest path
    from any node counts: here the originator's own path is one hop."""
    text = chain(MAX_HOPS + 2).replace("out main -> r1\n",
                                       "out main -> pay\n")
    errors = validate_pipeline(parse_pipeline(text))
    assert errors[0] == ValidationError(
        "DepthExceeded", "r1",
        f"a path of {MAX_HOPS + 1} hops starts here, over the limit of "
        f"{MAX_HOPS}")
    assert {e.code for e in errors[1:]} == {"UnreachableNode"}


def test_a_cycle_is_reported_without_a_depth():
    text = chain(MAX_HOPS + 1).replace("out main -> pay", "out main -> r1")
    errors = validate_pipeline(parse_pipeline(text))
    assert [e.code for e in errors] == ["CycleDetected", "UnreachableNode"]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_exits_one_on_the_longer_chain_without_a_traceback(
        tmp_path, command):
    pipe, scn = tmp_path / "chain.pipe", tmp_path / "chain.scn"
    pipe.write_text(chain(MAX_HOPS + 1))
    scn.write_text("scenario deep\n\napprove acme origin 40\n"
                   "deposit acme 40\n")
    args = [str(pipe)] if command == "validate" else [str(pipe), str(scn)]
    proc = subprocess.run([sys.executable, "-m", "paypipe", command, *args],
                          env=CHILD_ENV, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"DepthExceeded origin: a path of {MAX_HOPS + 1} hops" \
        in proc.stdout + proc.stderr


def test_a_conditional_hop_nests_as_many_frames_as_a_reporting_hop():
    """Frame depth at each router's ``Sent``, on a chain that alternates
    the two templates: every hop adds the same number of frames."""
    kinds = ["reporting", "conditional"] * 3
    ids = ["origin", *(f"r{i}" for i in range(1, len(kinds) + 1)), "pay"]
    blocks = ["pipeline mixed", "balance acme 100",
              "node origin\n  kind originator\n  out main -> r1"]
    for i, kind in enumerate(kinds, 1):
        body = ROUTERS[kind].format(to=ids[i + 1])
        blocks.append(f"node {ids[i]}\n  kind router\n  {body}")
    blocks.append("node pay\n  kind endpoint\n  recipient bob")
    engine = instantiate(parse_pipeline("\n\n".join(blocks) + "\n"))
    engine.ledger.approve("acme", "node:origin", 40)
    depth, emit = {}, engine.emit

    def probe(kind, emitter, payload):
        if kind == "Sent":
            frames, frame = 0, sys._getframe()
            while frame is not None:
                frames, frame = frames + 1, frame.f_back
            depth[emitter] = frames
        emit(kind, emitter, payload)
    engine.emit = probe
    assert engine.submit_deposit("acme", 40).committed
    added = {kind: {depth[f"node:{ids[i]}"] - depth[f"node:{ids[i - 1]}"]
                    for i in range(1, len(kinds) + 1) if kinds[i - 1] == kind}
             for kind in ROUTERS}
    assert added["conditional"] == added["reporting"] == {2}


def unvalidated_chain(hops, first=ReportingTemplate):
    """``chain(hops)`` assembled with ``add_node`` alone, never validated:
    the originator, ``hops - 1`` reporting routers, the first of class
    ``first``, then the endpoint ``pay``."""
    ids = ["origin", *(f"r{i}" for i in range(1, hops)), "pay"]
    engine = Engine()
    engine.add_node(OriginatorNode("origin", outputs=[("main", ids[1])]))
    for i in range(1, hops):
        router = first if i == 1 else ReportingTemplate
        engine.add_node(router(ids[i], {"sink": "audit", "keys": []},
                               outputs=[("main", ids[i + 1])]))
    engine.add_node(EndpointNode("pay", recipient="bob"))
    engine.set_entry("origin")
    engine.setup_balances({"acme": 1000})
    engine.ledger.approve("acme", "node:origin", 1000)
    return engine


def test_max_hops_is_the_engines_and_still_the_pipelines():
    assert MAX_HOPS is engine_module.MAX_HOPS == 128


def test_an_unvalidated_chain_at_the_limit_commits():
    engine = unvalidated_chain(MAX_HOPS)
    result = deep(200, lambda: engine.submit_deposit("acme", 40))
    assert result.committed, result.reason
    assert engine.ledger.balance_of("bob") == 40
    assert sum(ev.kind == "Sent" for ev in result.events) == MAX_HOPS


@pytest.mark.parametrize("hops", [MAX_HOPS + 1, 400])
def test_a_longer_unvalidated_chain_reverts_depth_exceeded(hops):
    """From 200 frames deep, 400 hops would pass the recursion limit: the
    bound reverts the deposit with its code before that."""
    engine = unvalidated_chain(hops)
    before = engine.state_fingerprint()
    result = deep(200, lambda: engine.submit_deposit("acme", 40))
    last, refused = f"r{MAX_HOPS}", "pay" if hops == MAX_HOPS + 1 \
        else f"r{MAX_HOPS + 1}"
    assert result.reason == \
        f"DepthExceeded: {last} -> {refused} nests over {MAX_HOPS} hops"
    assert engine.state_fingerprint() == before
    # the refused hop charged nothing: its last event is the hop before it
    assert result.events[-1].kind == "Report"
    assert result.events[-1].emitter == f"node:{last}"
    assert engine._depth == 0


def test_a_caught_depth_error_leaves_the_count_exact():
    """The first router catches the refusal raised 127 hops below it: it
    sees the count at its own depth, and so does the next deposit."""
    class Catching(ReportingTemplate):
        # test double: swallows the refusal and records the count
        def receive(self, msg):
            try:
                super().receive(msg)
            except DepthExceeded:
                self.engine.emit("Caught", self.address,
                                 {"depth": self.engine._depth})

    engine = unvalidated_chain(MAX_HOPS + 1, first=Catching)
    for held in (40, 80):
        result = engine.submit_deposit("acme", 40)
        assert result.committed, result.reason
        caught = [ev for ev in result.events if ev.kind == "Caught"]
        assert [(ev.emitter, ev.payload) for ev in caught] == \
            [("node:r1", {"depth": 1})]
        assert engine._depth == 0
        assert engine.ledger.balance_of(f"node:r{MAX_HOPS}") == held


def test_a_redirect_past_the_limit_reverts_as_a_failed_policy_action():
    """The last router's redirect would be hop 129: the refusal reaches
    ``handle_error``, which reverts any failed action as fatal."""
    engine = unvalidated_chain(MAX_HOPS)
    gate = ConditionalTemplate(
        "gate", {"when": "amount > 1000"}, outputs=[("main", "pay")],
        error_policy={ErrorSeverity.RECOVERABLE:
                      (PolicyAction.REDIRECT, "keep")})
    engine.nodes[f"r{MAX_HOPS - 1}"].outputs = [("main", "gate")]
    engine.edges.add((f"r{MAX_HOPS - 1}", "gate"))
    engine.add_node(gate)
    engine.add_node(EndpointNode("keep", recipient="admin"))
    before = engine.state_fingerprint()
    result = engine.submit_deposit("acme", 40)
    assert result.reason == (
        "FatalStreamError: gate: redirect failed handling 'predicate false': "
        f"gate -> keep nests over {MAX_HOPS} hops")
    assert engine.state_fingerprint() == before and engine._depth == 0
