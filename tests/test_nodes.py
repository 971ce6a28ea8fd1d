"""Node behaviors outside the routing templates: endpoints and fallbacks."""

import pytest

from paypipe.engine import Engine
from paypipe.errors import EngineError, NotClaimable, NothingToClaim
from paypipe.nodes import EndpointNode, OriginatorNode
from paypipe.pipeline import instantiate, parse_pipeline

CLAIMABLE = """pipeline vaulted

balance acme 1000

node origin
  kind originator
  out main -> vault

node vault
  kind endpoint
  recipient carol
  mode claimable
"""


def build(text):
    return instantiate(parse_pipeline(text))


def fund(engine, amount):
    engine.ledger.approve("acme", "node:origin", amount)
    result = engine.submit_deposit("acme", amount)
    assert result.committed
    return result


class TestClaimableEndpoint:
    def test_accumulates_across_deposits(self):
        engine = build(CLAIMABLE)
        fund(engine, 70)
        result = fund(engine, 30)
        vault = engine.nodes["vault"]
        assert vault.state["claimable"] == {"carol": 100}
        assert vault.held == 100
        held = [ev for ev in result.events if ev.kind == "Held"]
        assert held[-1].payload == {"account": "carol", "amount": 30}

    def test_claim_pays_full_accumulator(self):
        engine = build(CLAIMABLE)
        fund(engine, 100)
        result = engine.submit_claim("vault", "carol")
        assert result.committed
        assert engine.ledger.balance_of("carol") == 100
        assert engine.nodes["vault"].held == 0
        claimed = [ev for ev in result.events if ev.kind == "Claimed"]
        assert claimed[0].payload == {"account": "carol", "amount": 100}

    def test_second_claim_finds_nothing(self):
        engine = build(CLAIMABLE)
        fund(engine, 100)
        assert engine.submit_claim("vault", "carol").committed
        result = engine.submit_claim("vault", "carol")
        assert not result.committed
        assert result.reason.startswith("NothingToClaim:")

    def test_wrong_account_cannot_claim(self):
        engine = build(CLAIMABLE)
        fund(engine, 100)
        result = engine.submit_claim("vault", "mallory")
        assert not result.committed
        assert result.reason.startswith("NothingToClaim:")
        assert engine.nodes["vault"].held == 100  # funds untouched

    def test_direct_endpoint_rejects_claims(self):
        text = CLAIMABLE.replace("  mode claimable\n", "")
        engine = build(text)
        fund(engine, 100)
        assert engine.ledger.balance_of("carol") == 100  # paid on arrival
        result = engine.submit_claim("vault", "carol")
        assert not result.committed
        assert result.reason.startswith("NotClaimable:")


class TestTriggerFallbacks:
    def test_endpoint_refuses_deposits(self):
        node = EndpointNode("pay", recipient="bob")
        with pytest.raises(EngineError):
            node.deposit("acme", 100, {})

    def test_plain_nodes_have_empty_schedules(self):
        assert EndpointNode("pay", recipient="bob").due_releases(999) == []

    def test_plain_nodes_refuse_crank_and_instruct(self):
        node = OriginatorNode("o", outputs=[("main", "x")])
        with pytest.raises(EngineError):
            node.crank(0, 0)
        with pytest.raises(EngineError):
            node.instruct("oracle", "main", 10)
        with pytest.raises(NotClaimable):
            node.claim("anyone")

    def test_zero_deposit_refused_before_pull(self):
        engine = Engine()
        engine.add_node(OriginatorNode("o", outputs=[("main", "x")]))
        engine.add_node(EndpointNode("x", recipient="bob"))
        engine.set_entry("o")
        result = engine.submit_deposit("acme", 0)
        assert not result.committed
        assert result.reason.startswith("ZeroAmount:")


class TestAddressing:
    def test_node_address_prefix(self):
        assert EndpointNode("pay", recipient="bob").address == "node:pay"

    def test_held_goes_through_the_metered_read(self):
        from paypipe.ledger import TokenLedger

        charges = []
        ledger = TokenLedger(on_event=lambda *a: None,
                             on_charge=charges.append)
        ledger.mint("node:vault", 100)
        charges.clear()

        node = EndpointNode("vault", recipient="carol", mode="claimable")
        node.engine = type("Eng", (), {"ledger": ledger})()
        assert node.held == 100
        assert charges == ["ledger_read"]
