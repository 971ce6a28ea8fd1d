"""The benchmark's tracer, run on fixture engines: it wraps each router's
``template.receive`` and each node's ``crank`` from outside, as instance
attributes. Those are the very methods the engine calls, so
``templates.receives`` and ``nodes.cranks`` count what the engine did."""

import importlib.util

import pytest

from paypipe.pipeline import instantiate, parse_pipeline
from paypipe.scenario import run_scenario

from support import load_scenario
from test_golden import FIXTURES, HERE

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", HERE.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name", ["flows", "holes"])
def test_tracer_counts_every_receive_and_crank(name):
    spec = parse_pipeline((FIXTURES / f"{name}.pipe").read_text())
    routers = {ns.id for ns in spec.nodes if ns.kind == "router"}
    engine = instantiate(spec)
    tracer = tracing.Tracer()
    tracer.instrument(engine)
    assert run_scenario(engine,
                        load_scenario(str(FIXTURES / f"{name}.scn"))).ok
    records = engine.transactions
    assert any(not r.committed for r in records)
    sent_to_routers = sum(1 for r in records for ev in r.events
                          if ev.kind == "Sent" and ev.payload["to"] in routers)
    cranks = sum(1 for r in records if r.trigger == "AdvanceTime")
    assert sent_to_routers > 0
    assert tracer.counts["templates.receive"] == sent_to_routers
    assert tracer.counts["nodes.crank"] == cranks
