"""Acceptance gate: the eight release criteria, one test per criterion.

Each test pins its tolerances inline; the conftest summary hook prints one
PASS/FAIL line per criterion after the run.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from paypipe.bench import (
    build_pipeline_fixture,
    format_report,
    observables,
    run_comparison,
)
from paypipe.cli import main
from paypipe.engine import Engine
from paypipe.nodes import EndpointNode, OriginatorNode
from paypipe.pipeline import (
    instantiate,
    parse_pipeline,
    serialize_pipeline,
    validate_pipeline,
)
from paypipe.scenario import apply_step, load_scenario, run_scenario
from paypipe.templates import (
    DistributingTemplate,
    ThresholdTemplate,
    TimelockTemplate,
    WaterfallTemplate,
)

from support import (
    kahn_cyclic,
    random_actions,
    random_graph_spec,
    random_pipeline_text,
    schedule_fields,
    schedule_of_flags,
    waterfall_units,
)
from test_pipeline import KITCHEN_SINK, MINIMAL

FIXTURES = Path(__file__).parent / "fixtures"
POOL = 10_000_000


def conserved(engine):
    balances = engine.ledger.balances
    return (sum(balances.values()) == engine.ledger.total_supply
            and all(v >= 0 for v in balances.values()))


def wire(template, config, tags, router_id="router"):
    """Engine with origin -> one router of class ``template`` -> one
    endpoint per tag."""
    engine = Engine()
    outputs = [(tag, f"end_{tag}") for tag in tags]
    engine.add_node(OriginatorNode("origin", outputs=[("main", router_id)]))
    engine.add_node(template(router_id, config, outputs=outputs))
    for tag, endpoint_id in outputs:
        engine.add_node(EndpointNode(endpoint_id, recipient=f"acct_{tag}"))
    engine.set_entry("origin")
    engine.setup_balances({"acme": POOL})
    engine.ledger.approve("acme", "node:origin", POOL)
    return engine


def acct(engine, name):
    return engine.ledger.balances.get(name, 0)


def test_criterion_1_conservation():
    """1,000 random pipelines x random scripts; supply never drifts; < 30 s."""
    started = time.monotonic()
    committed = 0
    for seed in range(1000):
        rng = random.Random(900_000 + seed)
        text, info = random_pipeline_text(rng)
        spec = parse_pipeline(text)
        assert len(spec.nodes) <= 10
        engine = instantiate(spec)
        for action in random_actions(rng, info):
            for result in apply_step(engine, *action):
                committed += result.committed
            assert conserved(engine), (seed, action)
    elapsed = time.monotonic() - started
    assert committed > 2000  # the corpus does real work, not just reverts
    assert elapsed < 30.0, f"conservation suite took {elapsed:.1f}s"


def test_criterion_2_determinism(tmp_path, capsys):
    """The payroll fixture exports byte-identical traces on repeat runs."""
    outputs = []
    for tag in ("first", "second"):
        trace = tmp_path / f"{tag}.trace"
        gas = tmp_path / f"{tag}.gas"
        code = main(["run", str(FIXTURES / "payroll.pipe"),
                     str(FIXTURES / "payroll.scn"),
                     "--trace", str(trace), "--gas-report", str(gas)])
        assert code == 0
        outputs.append((trace.read_bytes(), gas.read_bytes()))
    capsys.readouterr()
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][0]  # non-empty exports


ROLLBACK_PIPE = """pipeline brittle

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


def test_criterion_3_rollback():
    """A fatal error mid-pipeline leaves no trace in ledger or node state."""
    # deposit-triggered fatal: everything including the clock is untouched
    engine = instantiate(parse_pipeline(ROLLBACK_PIPE.replace(
        "out main -> lock", "out main -> check")
        .replace("""node lock
  kind router
  template timelock
  out main -> check
  config start 10
  config period 10
  config releases 1
  config fixed 60

""", "")))
    engine.ledger.approve("acme", "node:origin", 1000)
    before = engine.state_fingerprint()
    result = engine.submit_deposit("acme", 60)
    assert not result.committed
    assert result.reason.startswith("FatalStreamError:")
    after = engine.state_fingerprint()
    assert after == before

    # crank-triggered fatal: ledger, node states, and schedules all restore
    engine = instantiate(parse_pipeline(ROLLBACK_PIPE))
    engine.ledger.approve("acme", "node:origin", 1000)
    assert engine.submit_deposit("acme", 60).committed
    before = engine.state_fingerprint()
    (crank,) = engine.advance_time(10)
    assert not crank.committed
    after = engine.state_fingerprint()
    assert after["clock"] == 10  # time still advances past a failed crank
    before.pop("clock"), after.pop("clock")
    assert after == before
    assert schedule_fields(engine.nodes["lock"].state) \
        == schedule_of_flags([False])


def test_criterion_4_payroll_gas_comparison():
    """3 recipients x 3 periods: 9 reports, 9 payouts of 100, ratio > 1; <1s."""
    started = time.monotonic()
    report = run_comparison()  # defaults: N=3, K=3, pool 300 per period

    engine = instantiate(build_pipeline_fixture(3, 3))
    engine.ledger.approve("acme", "node:origin", 900)
    assert engine.submit_deposit("acme", 900).committed
    for _ in range(3):
        for crank in engine.advance_time(10):
            assert crank.committed
    obs = observables(engine)
    assert obs["reports"] == 9
    assert len(obs["payouts"]) == 9
    assert all(amount == 100 for _, amount, _ in obs["payouts"])
    assert sorted({at for _, _, at in obs["payouts"]}) == [10, 20, 30]
    assert obs["payouts"] == list(report.payouts)

    assert report.ratio > Fraction(1)
    text = format_report(report)
    assert f"ratio: {float(report.ratio):.2f}x" in text
    assert "257,874 vs 549,995" in text  # printed beside its EVM reference
    # the reference figures come from a different cost model on purpose
    assert report.gas_monolithic != 257_874
    assert report.gas_pipeline != 549_995

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"comparison took {elapsed:.2f}s"


def test_criterion_5_template_oracles():
    """Distributing 10^4, waterfall 10^3, threshold, timelock 10^3."""
    # (a) distributing: sum preserved, weighted deviation under one unit
    rng = random.Random(51)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        tags = [f"t{i}" for i in range(n)]
        shares = []
        residual_free = True
        for tag in tags:
            roll = rng.random()
            if roll < 0.2 and residual_free:
                shares.append(("residual", tag, None))
                residual_free = False
            elif roll < 0.5:
                shares.append(("fixed", tag, rng.randint(1, 50)))
            else:
                shares.append(("weight", tag, rng.randint(1, 9)))
        fixed_total = sum(v for kind, _, v in shares if kind == "fixed")
        weighted = [(tag, v) for kind, tag, v in shares if kind == "weight"]
        residual = next((tag for kind, tag, _ in shares if kind == "residual"),
                        None)
        if rng.random() < 0.1 and fixed_total >= 2:
            amount = rng.randint(1, fixed_total - 1)  # insufficient path
        else:
            amount = fixed_total + rng.randint(0 if weighted or residual
                                               or fixed_total else 1, 400)
            amount = max(amount, 1)

        engine = wire(DistributingTemplate, {"shares": shares}, tags,
                      router_id="split")
        result = engine.submit_deposit("acme", amount)
        assert result.committed and conserved(engine)

        paid = {tag: acct(engine, f"acct_{tag}") for tag in tags}
        returned = acct(engine, "acme") - (POOL - amount)
        assert sum(paid.values()) + returned == amount

        if amount < fixed_total:
            assert sum(paid.values()) == 0  # refused before any dispatch
            continue
        remaining = amount - fixed_total
        for kind, tag, value in shares:
            if kind == "fixed":
                assert paid[tag] == value
        w_sum = sum(v for _, v in weighted)
        for tag, weight in weighted:
            if residual is None:
                assert abs(paid[tag] * w_sum - remaining * weight) < w_sum
            else:
                assert paid[tag] == remaining * weight // w_sum
        if residual is not None:
            floor_sum = sum(remaining * v // w_sum for _, v in weighted) \
                if weighted else 0
            assert paid[residual] == remaining - floor_sum

    # (b) waterfall vs a unit-by-unit greedy oracle
    rng = random.Random(52)
    for _ in range(1000):
        n = rng.randint(1, 5)
        caps = [rng.randint(1, 120) for _ in range(n)]
        if rng.random() < 0.5:
            caps[-1] = None
        tags = [f"t{i}" for i in range(n)]
        tiers = [("tier", tag, cap) for tag, cap in zip(tags, caps)]
        engine = wire(WaterfallTemplate, {"tiers": tiers}, tags,
                      router_id="falls")
        filled = [0] * n
        refunded = 0
        deposited = 0
        for _ in range(rng.randint(1, 4)):
            amount = rng.randint(1, 150)
            fills, surplus = waterfall_units(caps, filled, amount)
            result = engine.submit_deposit("acme", amount)
            assert result.committed and conserved(engine)
            filled = [have + fill for have, fill in zip(filled, fills)]
            deposited += amount
            refunded += surplus
            for i, tag in enumerate(tags):
                assert acct(engine, f"acct_{tag}") == filled[i]
            errors = [ev for ev in result.events if ev.kind == "StreamError"]
            assert len(errors) == (1 if surplus else 0)
            if surplus:
                assert errors[0].payload["amount"] == surplus
            assert acct(engine, "acme") == POOL - deposited + refunded

    # (c) threshold: quiet below the limit, full flush at or above it
    rng = random.Random(53)
    for _ in range(300):
        limit = rng.randint(1, 400)
        engine = wire(ThresholdTemplate, {"limit": limit}, ["out"],
                      router_id="gate")
        pending = 0
        delivered = 0
        for _ in range(rng.randint(2, 8)):
            amount = rng.randint(1, 300)
            result = engine.submit_deposit("acme", amount)
            assert result.committed and conserved(engine)
            pending += amount
            if pending >= limit:
                delivered += pending
                pending = 0
            assert engine.nodes["gate"].held == pending
            assert acct(engine, "acct_out") == delivered
            assert pending < limit  # never left sitting at or past the limit

    # (d) timelock: bounded cumulative release, zero residue at the end
    rng = random.Random(54)
    for _ in range(1000):
        start = rng.randint(0, 20)
        period = rng.randint(1, 8)
        releases = rng.randint(1, 5)
        config = {"start": start, "period": period, "releases": releases}
        fixed = None
        if rng.random() < 0.5:
            fixed = rng.randint(1, 150)
            config["fixed"] = fixed
        else:
            q = rng.randint(1, 6)
            config["fraction"] = (rng.randint(1, q), q)
        engine = wire(TimelockTemplate, config, ["out"], router_id="lock")
        deposited = rng.randint(1, 400)
        assert engine.submit_deposit("acme", deposited).committed

        final_due = start + (releases - 1) * period
        while engine.now <= final_due:
            state = engine.nodes["lock"].state
            unfired = state["holes"] or state["next"] < releases
            if rng.random() < 0.3 and unfired:
                extra = rng.randint(1, 100)
                assert engine.submit_deposit("acme", extra).committed
                deposited += extra
            for crank in engine.advance_time(rng.randint(1, 7)):
                assert crank.committed
            assert conserved(engine)
            out = acct(engine, "acct_out")
            assert out + engine.nodes["lock"].held == deposited
            state = engine.nodes["lock"].state
            fired = state["next"] - len(state["holes"])
            if fixed is not None and fired < releases:
                assert out <= fixed * fired
        assert engine.nodes["lock"].held == 0
        assert acct(engine, "acct_out") == deposited


def test_criterion_6_dag_validation():
    """Random graphs up to 12 nodes: cycle verdicts match Kahn's algorithm."""
    cyclic_seen = acyclic_seen = 0
    for seed in range(800):
        rng = random.Random(7000 + seed)
        spec, edges = random_graph_spec(rng)
        assert len(spec.nodes) <= 12
        expected_cyclic = kahn_cyclic([n.id for n in spec.nodes], edges)
        codes = {e.code for e in validate_pipeline(spec)}
        if expected_cyclic:
            cyclic_seen += 1
            assert "CycleDetected" in codes, (seed, sorted(edges))
        else:
            acyclic_seen += 1
            assert codes == set(), (seed, codes)
    assert cyclic_seen >= 100 and acyclic_seen >= 100  # both sides exercised


def test_criterion_7_error_path_conservation():
    """Each policy action accounts the full amount, with one StreamError."""
    locations = {
        "error_proceed": ("bob", 40),        # forwarded anyway
        "error_hold": ("node:check", 40),    # parked at the failing node
        "error_refund": ("acme", 1000),      # returned to the depositor
        "error_redirect": ("root", 40),      # via goalkeeper, then claimed
    }
    for name, (account, expected) in locations.items():
        spec = parse_pipeline((FIXTURES / f"{name}.pipe").read_text())
        engine = instantiate(spec)
        result = run_scenario(engine, load_scenario(str(FIXTURES / f"{name}.scn")))
        assert result.ok, (name, result.failures)
        stream_errors = [ev for ev in engine.events
                         if ev.kind == "StreamError"]
        assert len(stream_errors) == 1, name
        assert stream_errors[0].payload["amount"] == 40
        assert acct(engine, account) == expected, name
        assert conserved(engine), name


def test_criterion_8_round_trip():
    """parse -> serialize -> parse is identity; mangled input never crashes."""
    corpus = [MINIMAL, KITCHEN_SINK]
    corpus += [path.read_text() for path in sorted(FIXTURES.glob("*.pipe"))]
    for seed in range(150):
        corpus.append(random_pipeline_text(random.Random(3000 + seed))[0])
    for text in corpus:
        spec = parse_pipeline(text)
        canonical = serialize_pipeline(spec)
        assert parse_pipeline(canonical) == spec
        assert serialize_pipeline(parse_pipeline(canonical)) == canonical

    from paypipe.errors import SpecSyntaxError

    rng = random.Random(85)
    junk = " \t\n->pipelinenodeconfigout#=%\"0123456789abcxyz"
    survived = 0
    for _ in range(500):
        chars = list(rng.choice(corpus[:8]))
        for _ in range(rng.randint(1, 15)):
            pos = rng.randrange(len(chars))
            roll = rng.random()
            if roll < 0.4:
                chars[pos] = rng.choice(junk)
            elif roll < 0.7:
                chars.insert(pos, rng.choice(junk))
            else:
                del chars[pos]
        try:
            spec = parse_pipeline("".join(chars))
        except SpecSyntaxError:
            continue
        validate_pipeline(spec)
        survived += 1
    assert survived >= 0  # crash-freedom is the property; count is incidental
