"""Fault and revert injection at every charge point.

Each action of the random corpus, behind the reverting tee, and of the
``flows`` fixture's scenario, whose oracle instructions and claim commit,
is run once for every charge it makes: the k-th charge raises, once a plain
exception (a fault) and once an ``EngineError`` (a revert). Afterwards the
engine must be whole: no open transaction, no touched copies, an empty undo
log, nothing charging outside a transaction, conservation, contiguous ids
and a current due index. Its state, events and transactions must equal
those of a twin engine whose same transaction failed at its first step (for
an advance, the same crank), before and after the rest of the actions run.
"""

import functools
import random
from pathlib import Path

import pytest

from paypipe.errors import EngineError
from paypipe.pipeline import instantiate, parse_pipeline
from paypipe.scenario import apply_step, parse_scenario

from support import random_actions, random_pipeline_text, teed

# Seeds 0-3 of the corpus, and four of 0-119 whose advances (17, 88, 118) or
# oracle instructions (38) make the most charges: 1,011 charges in all.
SEEDS = (*range(4), 17, 38, 88, 118)
FIXTURES = Path(__file__).parent / "fixtures"
# The corpora: the seeds, and the flows fixture's pipeline and scenario
# (373 charges more).
CORPORA = (*SEEDS, "flows")


class Injected(Exception):
    """The plain exception a fault injection raises."""


class InjectedRevert(EngineError):
    code = "InjectedRevert"


def build(text):
    return instantiate(parse_pipeline(text))


@functools.lru_cache(maxsize=None)
def corpus(seed):
    """The pipeline text behind the tee and the actions of one seed, with a
    final advance; for "flows", the fixture's pipeline and its scenario's
    approve, deposit, instruct and claim steps."""
    if seed == "flows":
        steps = parse_scenario((FIXTURES / "flows.scn").read_text()).steps
        return (FIXTURES / "flows.pipe").read_text(), tuple(
            (step.kind, step.args) for step in steps
            if step.kind in ("approve", "deposit", "instruct", "claim"))
    rng = random.Random(seed)
    text, info = random_pipeline_text(rng)
    actions = random_actions(rng, info, teed=True)
    return teed(text), (*actions, ("advance", {"delta": info["horizon"] + 1}))


def raising_at(engine, k, error):
    """Make the k-th charge (from 1) raise an ``error``, none for k 0; returns
    the charge count and a cell that gets the number of transactions
    recorded when it raised."""
    charge, count, at = engine.meter.charge, [0], []

    def injected(kind):
        count[0] += 1
        if count[0] == k:
            at.append(len(engine.transactions))
            raise error("injected")
        charge(kind)
    engine.meter.charge = injected
    return count, at


def failing_tx(engine, n, error):
    """Make the n-th transaction from now (from 0) fail at its first step
    with an ``error``."""
    run_tx, calls = engine._run_tx, [0]

    def failing(trigger, info, body):
        calls[0] += 1
        if calls[0] == n + 1:
            def body():
                raise error("injected")
        return run_tx(trigger, info, body)
    engine._run_tx = failing


def run(engine, action, error):
    """``apply_step``, with a fault expected to propagate unless ``error``
    is an ``EngineError``."""
    if issubclass(error, EngineError):
        apply_step(engine, *action)
    else:
        with pytest.raises(Injected):
            apply_step(engine, *action)


def check_whole(engine):
    assert engine._tx is None and engine._touched == {}
    ledger = engine.ledger
    assert ledger._old_balances is None and ledger._old_allowances is None
    consumed = engine.meter.consumed
    engine.charge("config_read")
    ledger.on_charge("ledger_write")
    assert engine.meter.consumed == consumed
    assert sum(ledger.balances.values()) == ledger.total_supply
    ids = [r.id for r in engine.transactions]
    assert ids == list(range(1, len(ids) + 1))
    heap = set(engine._due_heap)
    for node_id, node in engine.nodes.items():
        due = node.next_due() if node.scheduled else None
        assert engine._due_at.get(node_id) == due
        if due is not None:
            assert (due, node_id) in heap


def view(engine, failed):
    """What the injected engine and its twin must share: every field but the
    gas and events of the transaction that failed, which differ by where it
    failed."""
    return (engine.state_fingerprint(), list(engine.events),
            [(r.id, r.trigger, r.status, r.info,
              None if r.id == failed else (r.gas, r.events, r.reason))
             for r in engine.transactions])


@functools.lru_cache(maxsize=None)
def twin_views(seed, i, crank, error):
    """``view`` of the twin whose transaction ``crank`` of action i fails at
    its first step, after the action and after the rest."""
    text, actions = corpus(seed)
    twin = build(text)
    for action in actions[:i]:
        apply_step(twin, *action)
    failed = len(twin.transactions) + crank + 1 \
        if issubclass(error, EngineError) else None
    failing_tx(twin, crank, error)
    run(twin, actions[i], error)
    del twin._run_tx
    after = view(twin, failed)
    for action in actions[i + 1:]:
        apply_step(twin, *action)
    return failed, after, view(twin, failed)


def inject(seed, i, k, error):
    """Raise ``error`` at the k-th charge of action i and check the engine
    against its twin after the action and after the rest."""
    text, actions = corpus(seed)
    engine = build(text)
    for action in actions[:i]:
        apply_step(engine, *action)
    before = engine.state_fingerprint(), list(engine.events), \
        list(engine.transactions)
    _, at = raising_at(engine, k, error)
    run(engine, actions[i], error)
    del engine.meter.charge
    check_whole(engine)
    (recorded,) = at
    failed, after, end = twin_views(seed, i, recorded - len(before[2]), error)
    assert view(engine, failed) == after
    if actions[i][0] != "advance":
        assert engine.state_fingerprint() == before[0]
        assert engine.events == before[1]
        assert engine.transactions[:len(before[2])] == before[2]
        assert len(engine.transactions) == len(before[2]) + (failed is not None)
    for action in actions[i + 1:]:
        apply_step(engine, *action)
    check_whole(engine)
    assert view(engine, failed) == end


def cases():
    """(seed, action index, k) of every charge of the corpora's actions."""
    for seed in CORPORA:
        text, actions = corpus(seed)
        engine = build(text)
        for i, action in enumerate(actions):
            count, _ = raising_at(engine, 0, None)
            apply_step(engine, *action)
            del engine.meter.charge
            for k in range(1, count[0] + 1):
                yield seed, i, k


CASES = list(cases())


@pytest.mark.parametrize("error", [Injected, InjectedRevert],
                         ids=["fault", "revert"])
def test_injection_at_every_charge_leaves_the_engine_whole(error):
    for seed, i, k in CASES:
        inject(seed, i, k, error)
    kinds = {corpus(seed)[1][i][0] for seed, i, _ in CASES}
    assert kinds == {"deposit", "advance", "instruct", "claim"}
    assert len(CASES) >= 1000


def test_flows_corpus_commits_instructions_and_a_claim():
    text, actions = corpus("flows")
    engine = build(text)
    committed = [(action[0], *action[1].values())
                 for action in actions
                 for result in apply_step(engine, *action)
                 if result.committed and action[0] in ("instruct", "claim")]
    assert committed == [("instruct", "desk", "ora", "pay", 25),
                         ("instruct", "desk", "ora", "hold", 30),
                         ("claim", "vault", "carol")]
    assert {actions[i][0] for seed, i, _ in CASES if seed == "flows"} == \
        {"deposit", "instruct", "claim"}
