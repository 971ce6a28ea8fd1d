"""Router template behaviors, pinned to hand-worked amounts."""

import random

from hypothesis import given, strategies as st

from paypipe.pipeline import instantiate, parse_pipeline
from paypipe.templates import apportion

from support import state_fingerprint


def build(text):
    return instantiate(parse_pipeline(text))


def deposit(engine, amount, metadata=None, account="acme"):
    engine.ledger.approve(account, engine.nodes[engine.entry].address, amount)
    result = engine.submit_deposit(account, amount, metadata)
    assert result.committed, result.reason
    return result


def bal(engine, account):
    return engine.ledger.balances.get(account, 0)


def events_of(result, kind):
    return [ev for ev in result.events if ev.kind == kind]


# -- reporting ---------------------------------------------------------------

REPORTING = """pipeline audit-trail

balance acme 1000

node origin
  kind originator
  out main -> rep

node rep
  kind router
  template reporting
  out main -> pay
  config sink audit
  config keys memo

node pay
  kind endpoint
  recipient bob
"""


class TestReporting:
    def test_report_then_forward(self):
        engine = build(REPORTING)
        result = deposit(engine, 100)
        kinds = [ev.kind for ev in result.events if ev.emitter == "node:rep"]
        assert kinds == ["Report", "Sent"]
        assert bal(engine, "bob") == 100

    def test_selected_metadata_echoed(self):
        engine = build(REPORTING)
        result = deposit(engine, 100, metadata={"memo": "salary", "other": 1})
        (report,) = events_of(result, "Report")
        assert report.payload == {"sink": "audit", "amount": 100,
                                  "origin": "acme", "memo": "salary"}

    def test_absent_key_left_out(self):
        engine = build(REPORTING)
        result = deposit(engine, 100)
        (report,) = events_of(result, "Report")
        assert "memo" not in report.payload

    def test_sequential_receipts_report_in_order(self):
        engine = build(REPORTING)
        deposit(engine, 10)
        deposit(engine, 20)
        amounts = [ev.payload["amount"] for ev in engine.events
                   if ev.kind == "Report"]
        assert amounts == [10, 20]


# -- threshold ---------------------------------------------------------------

THRESHOLD = """pipeline batcher

balance acme 10000

node origin
  kind originator
  out main -> gate

node gate
  kind router
  template threshold
  out main -> pay
  config limit 500

node pay
  kind endpoint
  recipient bob
"""


class TestThreshold:
    def test_accumulates_then_flushes_everything(self):
        engine = build(THRESHOLD)
        for amount in (200, 200):
            result = deposit(engine, amount)
            assert events_of(result, "Sent")[1:] == []  # entry hop only
        result = deposit(engine, 200)
        sent = events_of(result, "Sent")
        assert sent[-1].payload == {"to": "pay", "amount": 600}
        assert bal(engine, "bob") == 600
        assert engine.nodes["gate"].held == 0

    def test_exact_limit_forwards_immediately(self):
        engine = build(THRESHOLD)
        deposit(engine, 500)
        assert bal(engine, "bob") == 500

    def test_below_limit_held(self):
        engine = build(THRESHOLD)
        deposit(engine, 499)
        assert bal(engine, "bob") == 0
        assert engine.nodes["gate"].held == 499

    def test_never_fires_below_limit_and_always_flushes(self):
        rng = random.Random(31)
        engine = build(THRESHOLD)
        pending = 0
        for _ in range(40):
            amount = rng.randint(1, 220)
            result = deposit(engine, amount)
            pending += amount
            fired = [ev for ev in events_of(result, "Sent")
                     if ev.emitter == "node:gate"]
            if pending >= 500:
                assert fired[0].payload["amount"] == pending
                pending = 0
            else:
                assert not fired
            assert engine.nodes["gate"].held == pending


# -- timelock ----------------------------------------------------------------

TIMELOCK = """pipeline vesting

balance acme 10000

node origin
  kind originator
  out main -> lock

node lock
  kind router
  template timelock
  out main -> pay
  config start 0
  config period 10
  config releases 3
  config fixed 100

node pay
  kind endpoint
  recipient bob
"""


class TestTimelock:
    def test_fixed_schedule_drains_exactly(self):
        engine = build(TIMELOCK)
        deposit(engine, 300)
        assert bal(engine, "bob") == 0  # receive holds, never forwards
        results = engine.advance_time(25)
        assert [r.info["at"] for r in results] == [0, 10, 20]
        assert all(r.committed for r in results)
        assert bal(engine, "bob") == 300
        assert engine.nodes["lock"].held == 0

    def test_fraction_mode_halves_then_flushes(self):
        text = (TIMELOCK.replace("config releases 3", "config releases 2")
                        .replace("config fixed 100", "config fraction 1 2"))
        engine = build(text)
        deposit(engine, 100)
        first, final = engine.advance_time(15)
        released = [ev.payload["amount"]
                    for r in (first, final)
                    for ev in r.events if ev.kind == "Sent"]
        assert released == [50, 50]  # half, then the final flush
        assert engine.nodes["lock"].held == 0

    def test_fraction_release_rounds_down(self):
        text = (TIMELOCK.replace("config releases 3", "config releases 2")
                        .replace("config fixed 100", "config fraction 1 3"))
        engine = build(text)
        deposit(engine, 100)
        (first,) = engine.advance_time(5)
        (released,) = events_of(first, "Released")
        assert released.payload["amount"] == 33  # 100 // 3, not 34
        assert bal(engine, "bob") == 33
        assert engine.nodes["lock"].held == 67

    def test_nothing_due_before_start(self):
        text = TIMELOCK.replace("config start 0", "config start 10")
        engine = build(text)
        deposit(engine, 300)
        assert engine.advance_time(5) == []
        assert bal(engine, "bob") == 0

    def test_deposit_after_exhaustion_is_held(self):
        text = (TIMELOCK.replace("config releases 3", "config releases 1")
                        .replace("config fixed 100", "config fixed 300"))
        engine = build(text)
        deposit(engine, 300)
        engine.advance_time(1)
        assert bal(engine, "bob") == 300

        result = deposit(engine, 40)
        (err,) = events_of(result, "StreamError")
        assert err.payload == {"severity": "recoverable",
                               "reason": "schedule exhausted",
                               "amount": 40, "action": "hold"}
        assert engine.nodes["lock"].held == 40
        assert bal(engine, "bob") == 300

    def test_minted_funds_with_no_stream_revert_the_release(self):
        # a balance line may name a node's address, so the lock holds funds
        # that no stream brought
        text = (TIMELOCK.replace("config releases 3", "config releases 1")
                        .replace("balance acme 10000",
                                 "balance acme 10000\nbalance node:lock 100"))
        engine = build(text)
        before = state_fingerprint(engine)
        (crank,) = engine.advance_time(0)
        assert crank.reason == ("EngineError: lock holds funds with no "
                                "recorded stream")
        assert state_fingerprint(engine) == before

    def test_cumulative_release_never_exceeds_due(self):
        engine = build(TIMELOCK)
        deposit(engine, 300)
        total = 0
        for step, due_count in ((0, 1), (9, 1), (1, 2), (10, 3)):
            engine.advance_time(step)
            total = bal(engine, "bob")
            assert total <= 100 * due_count


# -- distributing ------------------------------------------------------------

def split_pipeline(config_lines, outputs=("a", "b")):
    targets = {tag: f"pay_{tag}" for tag in outputs}
    out_block = "\n".join(f"  out {tag} -> {targets[tag]}" for tag in outputs)
    cfg_block = "\n".join(f"  config {line}" for line in config_lines)
    endpoints = "\n\n".join(
        f"node {target}\n  kind endpoint\n  recipient acct_{tag}"
        for tag, target in targets.items()
    )
    return f"""pipeline splitter

balance acme 10000

node origin
  kind originator
  out main -> split

node split
  kind router
  template distributing
{out_block}
{cfg_block}

{endpoints}
"""


class TestDistributing:
    def test_proportional_weights(self):
        engine = build(split_pipeline(["weight a 3", "weight b 1"]))
        deposit(engine, 100)
        assert (bal(engine, "acct_a"), bal(engine, "acct_b")) == (75, 25)

    def test_leftover_units_favor_declaration_order(self):
        engine = build(split_pipeline(
            ["weight a 1", "weight b 1", "weight c 1"], outputs=("a", "b", "c")))
        deposit(engine, 100)
        shares = tuple(bal(engine, f"acct_{t}") for t in ("a", "b", "c"))
        assert shares == (34, 33, 33)

    def test_fixed_before_weights(self):
        engine = build(split_pipeline(["fixed a 60", "weight b 1"]))
        deposit(engine, 100)
        assert (bal(engine, "acct_a"), bal(engine, "acct_b")) == (60, 40)

    def test_input_below_fixed_errors_before_any_dispatch(self):
        engine = build(split_pipeline(["fixed a 60", "weight b 1"]))
        result = deposit(engine, 50)
        (err,) = events_of(result, "StreamError")
        assert err.payload["severity"] == "recoverable"
        assert err.payload["action"] == "refund"
        assert bal(engine, "acct_a") == bal(engine, "acct_b") == 0
        assert bal(engine, "acme") == 10000  # refunded in full

    def test_residual_takes_what_weights_leave(self):
        engine = build(split_pipeline(
            ["fixed a 60", "residual b"], outputs=("a", "b")))
        deposit(engine, 100)
        assert (bal(engine, "acct_a"), bal(engine, "acct_b")) == (60, 40)


class TestApportion:
    def test_spec_splits(self):
        assert apportion(100, [3, 1]) == [75, 25]
        assert apportion(100, [1, 1, 1]) == [34, 33, 33]

    def test_largest_remainder_beats_declaration_order(self):
        # [2,1,1] would satisfy declaration order but deviates a full unit
        assert apportion(4, [2, 3, 3]) == [1, 2, 1]

    @given(st.integers(0, 10**9),
           st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
    def test_sums_exactly_with_bounded_deviation(self, total, weights):
        shares = apportion(total, weights)
        assert sum(shares) == total
        assert all(s >= 0 for s in shares)
        w_sum = sum(weights)
        for share, weight in zip(shares, weights):
            assert abs(share * w_sum - total * weight) < w_sum  # |dev| < 1 unit


# -- conditional -------------------------------------------------------------

CONDITIONAL = """pipeline kyc-gate

balance acme 1000

node origin
  kind originator
  out main -> check

node check
  kind router
  template conditional
  out main -> pay
  config when amount >= 10

node pay
  kind endpoint
  recipient bob
"""


class TestConditional:
    def test_boundary_true_forwards(self):
        engine = build(CONDITIONAL)
        deposit(engine, 10)
        assert bal(engine, "bob") == 10

    def test_false_refunds_origin_by_default(self):
        engine = build(CONDITIONAL)
        result = deposit(engine, 9)
        (err,) = events_of(result, "StreamError")
        assert err.payload == {"severity": "recoverable",
                               "reason": "predicate false",
                               "amount": 9, "action": "refund"}
        assert bal(engine, "acme") == 1000
        assert bal(engine, "bob") == 0

    def test_missing_metadata_key_counts_as_false(self):
        text = CONDITIONAL.replace('config when amount >= 10',
                                   'config when metadata.kyc = "ok"')
        engine = build(text)
        result = deposit(engine, 50)
        (err,) = events_of(result, "StreamError")
        assert err.payload["severity"] == "recoverable"
        assert err.payload["action"] == "refund"
        assert bal(engine, "acme") == 1000

        deposit(engine, 50, metadata={"kyc": "ok"})
        assert bal(engine, "bob") == 50

    def test_warning_severity_proceeds_through(self):
        text = CONDITIONAL.replace(
            "  config when amount >= 10\n",
            "  config when amount >= 10\n  config on_false warning\n")
        engine = build(text)
        result = deposit(engine, 9)
        (err,) = events_of(result, "StreamError")
        assert err.payload["action"] == "proceed"
        assert bal(engine, "bob") == 9  # continuation resumed the forward

    def test_clock_predicate(self):
        text = CONDITIONAL.replace("config when amount >= 10",
                                   "config when now >= 100")
        engine = build(text)
        deposit(engine, 10)
        assert bal(engine, "bob") == 0  # refunded, too early
        engine.advance_time(100)
        deposit(engine, 10)
        assert bal(engine, "bob") == 10


# -- oracle ------------------------------------------------------------------

ORACLE = """pipeline escrow

balance acme 1000

node origin
  kind originator
  out main -> orc

node orc
  kind router
  template oracle
  out a -> pay_a
  out b -> pay_b
  config oracle alice

node pay_a
  kind endpoint
  recipient acct_a

node pay_b
  kind endpoint
  recipient acct_b
"""


class TestOracle:
    def test_instructed_dispatches_drain_holdings(self):
        engine = build(ORACLE)
        deposit(engine, 100)
        assert engine.nodes["orc"].held == 100
        assert engine.submit_oracle_instruct("orc", "alice", "a", 60).committed
        assert engine.submit_oracle_instruct("orc", "alice", "b", 40).committed
        assert bal(engine, "acct_a") == 60
        assert bal(engine, "acct_b") == 40
        assert engine.nodes["orc"].held == 0

    def test_untrusted_account_reverted(self):
        engine = build(ORACLE)
        deposit(engine, 100)
        result = engine.submit_oracle_instruct("orc", "mallory", "a", 60)
        assert not result.committed
        assert result.reason.startswith("UntrustedOracle:")
        assert engine.nodes["orc"].held == 100

    def test_overdraw_reverted(self):
        engine = build(ORACLE)
        deposit(engine, 100)
        result = engine.submit_oracle_instruct("orc", "alice", "a", 120)
        assert not result.committed
        assert result.reason.startswith("InsufficientHeld:")
        assert engine.nodes["orc"].held == 100

    def test_amount_below_one_reverted(self):
        engine = build(ORACLE)
        deposit(engine, 100)
        for amount in (0, -5):
            result = engine.submit_oracle_instruct("orc", "alice", "a", amount)
            assert result.reason == (
                "ZeroAmount: instructed amount must be positive")
        assert engine.nodes["orc"].held == 100

    def test_unknown_tag_reverted(self):
        engine = build(ORACLE)
        deposit(engine, 100)
        result = engine.submit_oracle_instruct("orc", "alice", "z", 10)
        assert not result.committed
        assert result.reason.startswith("UnknownEdge:")

    def test_instructions_cannot_respend_committed_amounts(self):
        engine = build(ORACLE)
        deposit(engine, 100)
        engine.submit_oracle_instruct("orc", "alice", "a", 80)
        result = engine.submit_oracle_instruct("orc", "alice", "b", 30)
        assert not result.committed
        assert result.reason.startswith("InsufficientHeld:")


# -- waterfall ---------------------------------------------------------------

WATERFALL = """pipeline senior-debt

balance acme 10000

node origin
  kind originator
  out main -> falls

node falls
  kind router
  template waterfall
  out a -> pay_a
  out b -> pay_b
  out c -> pay_c
  config tier a 100
  config tier b 200
  config tier c rest

node pay_a
  kind endpoint
  recipient acct_a

node pay_b
  kind endpoint
  recipient acct_b

node pay_c
  kind endpoint
  recipient acct_c
"""


class TestWaterfall:
    def test_caps_are_lifetime_cumulative(self):
        engine = build(WATERFALL)
        deposit(engine, 250)
        assert (bal(engine, "acct_a"), bal(engine, "acct_b"),
                bal(engine, "acct_c")) == (100, 150, 0)
        deposit(engine, 100)
        assert (bal(engine, "acct_a"), bal(engine, "acct_b"),
                bal(engine, "acct_c")) == (100, 200, 50)

    def test_below_first_cap_stays_in_tier_one(self):
        engine = build(WATERFALL)
        deposit(engine, 90)
        assert (bal(engine, "acct_a"), bal(engine, "acct_b"),
                bal(engine, "acct_c")) == (90, 0, 0)

    def test_surplus_without_rest_tier_errors(self):
        text = """pipeline capped

balance acme 1000

node origin
  kind originator
  out main -> falls

node falls
  kind router
  template waterfall
  out a -> pay_a
  config tier a 100

node pay_a
  kind endpoint
  recipient acct_a
"""
        engine = build(text)
        result = deposit(engine, 150)
        assert bal(engine, "acct_a") == 100
        (err,) = events_of(result, "StreamError")
        assert err.payload["amount"] == 50
        assert err.payload["action"] == "refund"
        assert bal(engine, "acme") == 1000 - 100

    def test_lower_tier_untouched_until_higher_full(self):
        engine = build(WATERFALL)
        for amount in (30, 40, 50, 60, 70):
            deposit(engine, amount)
            a = bal(engine, "acct_a")
            if bal(engine, "acct_b") > 0:
                assert a == 100
            if bal(engine, "acct_c") > 0:
                assert bal(engine, "acct_b") == 200


# -- goalkeeper --------------------------------------------------------------

def gated_pipeline(keeper_block):
    return f"""pipeline guarded

balance acme 1000

node origin
  kind originator
  out main -> check

node check
  kind router
  template conditional
  out main -> pay
  config when amount >= 50
  on recoverable redirect keeper

node pay
  kind endpoint
  recipient bob

{keeper_block}
"""


class TestGoalkeeper:
    def test_refund_strategy(self):
        engine = build(gated_pipeline(
            "node keeper\n  kind router\n  template goalkeeper\n"
            "  config mode refund"))
        result = deposit(engine, 40)
        assert bal(engine, "acme") == 1000
        report = [ev for ev in events_of(result, "Report")
                  if ev.emitter == "node:keeper"][0]
        assert report.payload == {"amount": 40, "origin": "acme",
                                  "reason": "predicate false",
                                  "failed_node": "check"}

    def test_refund_returns_only_the_stream_amount(self):
        """A keeper that already holds funds refunds the redirected
        stream's amount, not its whole holding."""
        text = gated_pipeline(
            "node keeper\n  kind router\n  template goalkeeper\n"
            "  config mode refund")
        engine = build(text.replace("balance acme 1000",
                                    "balance acme 1000\nbalance node:keeper 50"))
        deposit(engine, 40)
        assert bal(engine, "acme") == 1000
        assert engine.nodes["keeper"].held == 50

    def test_hold_strategy_until_admin_claims(self):
        engine = build(gated_pipeline(
            "node keeper\n  kind router\n  template goalkeeper\n"
            "  config mode hold\n  config admin root"))
        deposit(engine, 40)
        assert engine.nodes["keeper"].held == 40

        denied = engine.submit_claim("keeper", "mallory")
        assert not denied.committed
        assert denied.reason.startswith("NotClaimable:")

        granted = engine.submit_claim("keeper", "root")
        assert granted.committed
        assert bal(engine, "root") == 40

        again = engine.submit_claim("keeper", "root")
        assert not again.committed
        assert again.reason.startswith("NothingToClaim:")

    def test_claim_outside_hold_mode_reverted(self):
        for block in ("config mode refund",
                      "out main -> pay\n  config mode forward"):
            engine = build(gated_pipeline(
                "node keeper\n  kind router\n  template goalkeeper\n  "
                + block))
            result = engine.submit_claim("keeper", "root")
            assert result.reason == (
                "NotClaimable: keeper does not hold for claiming")

    def test_forward_strategy(self):
        engine = build(gated_pipeline(
            "node keeper\n  kind router\n  template goalkeeper\n"
            "  out main -> fallback\n  config mode forward\n\n"
            "node fallback\n  kind endpoint\n  recipient sink-acct"))
        deposit(engine, 40)
        assert bal(engine, "sink-acct") == 40

    def test_direct_wiring_reports_direct_arrival(self):
        text = """pipeline straight

balance acme 1000

node origin
  kind originator
  out main -> keeper

node keeper
  kind router
  template goalkeeper
  config mode refund
"""
        engine = build(text)
        result = deposit(engine, 70)
        (report,) = events_of(result, "Report")
        assert report.payload["reason"] == "direct arrival"
        assert "failed_node" not in report.payload
        assert bal(engine, "acme") == 1000

    def test_good_amounts_pass_the_gate(self):
        engine = build(gated_pipeline(
            "node keeper\n  kind router\n  template goalkeeper\n"
            "  config mode refund"))
        deposit(engine, 50)
        assert bal(engine, "bob") == 50
