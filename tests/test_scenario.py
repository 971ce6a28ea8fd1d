"""Scenario files: parsing, scripted execution, and the step table that
the parser, the runner, the test corpus and the scenario writer share."""

import random
from pathlib import Path

import pytest

from paypipe.errors import SpecSyntaxError
from paypipe.ledger import MAX_AMOUNT
from paypipe.pipeline import instantiate, parse_pipeline, serialize_pipeline
from paypipe.scenario import STEPS, apply_step, parse_scenario, run_scenario

from support import random_actions, random_pipeline_text, scenario_text
from test_golden import FIXTURES, PAIRS

PIPE = """pipeline vested

balance acme 10000

node origin
  kind originator
  out main -> lock

node lock
  kind router
  template timelock
  out main -> vault
  config start 10
  config period 10
  config releases 2
  config fixed 50

node vault
  kind endpoint
  recipient alice
  mode claimable
"""


def engine():
    return instantiate(parse_pipeline(PIPE))


def run(text):
    return run_scenario(engine(), parse_scenario(text))


class TestParse:
    def test_full_script(self):
        scenario = parse_scenario("""scenario happy

approve acme origin 10000
deposit acme 100 dept=sales level=3
advance 20
claim vault alice
assert balance alice 100
assert held lock 0
assert claimable vault alice 0
assert events Sent 3
""")
        assert scenario.name == "happy"
        kinds = [s.kind for s in scenario.steps]
        assert kinds == ["approve", "deposit", "advance", "claim",
                         "assert_balance", "assert_held", "assert_claimable",
                         "assert_events"]
        deposit = scenario.steps[1]
        assert deposit.args["metadata"] == {"dept": "sales", "level": 3}

    def test_integers_in_metadata_detected(self):
        scenario = parse_scenario(
            "scenario m\n\ndeposit acme 5 a=7 b=x7 c=-2\n")
        assert scenario.steps[0].args["metadata"] == {"a": 7, "b": "x7",
                                                      "c": -2}

    def test_expect_attaches_to_next_tx(self):
        scenario = parse_scenario("""scenario r

expect revert ZeroAmount
deposit acme 0
deposit acme 5
""")
        assert scenario.steps[0].expect == "ZeroAmount"
        assert scenario.steps[1].expect is None

    def test_bare_expect_means_any_code(self):
        scenario = parse_scenario("scenario r\n\nexpect revert\nclaim v a\n")
        assert scenario.steps[0].expect == "any"

    def test_expect_cannot_precede_non_tx(self):
        with pytest.raises(SpecSyntaxError, match="must precede"):
            parse_scenario("scenario r\n\nexpect revert\nadvance 10\n")

    def test_expect_cannot_dangle(self):
        with pytest.raises(SpecSyntaxError, match="no following action"):
            parse_scenario("scenario r\n\nexpect revert\n")

    def test_header_required(self):
        with pytest.raises(SpecSyntaxError, match="header"):
            parse_scenario("deposit acme 5\n")

    def test_unknown_action_located(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_scenario("scenario x\n\nwithdraw acme 5\n")
        assert exc.value.line == 3

    def test_bad_assert_subject(self):
        with pytest.raises(SpecSyntaxError, match="subject"):
            parse_scenario("scenario x\n\nassert vibes good\n")

    def test_negative_advance_rejected_at_parse(self):
        with pytest.raises(SpecSyntaxError, match=">= 0"):
            parse_scenario("scenario x\n\nadvance -5\n")

    def test_negative_approve_rejected_at_parse(self):
        with pytest.raises(SpecSyntaxError, match=">= 0") as exc:
            parse_scenario("scenario x\n\napprove acme origin -5\n")
        assert (exc.value.line, exc.value.column) == (3, 21)

    def test_approve_above_the_amount_domain_rejected_at_parse(self):
        text = f"scenario x\n\napprove acme origin {MAX_AMOUNT + 1}\n"
        with pytest.raises(SpecSyntaxError, match=f"<= {MAX_AMOUNT}") as exc:
            parse_scenario(text)
        assert (exc.value.line, exc.value.column) == (3, 21)
        ok = parse_scenario(f"scenario x\n\napprove acme origin {MAX_AMOUNT}\n")
        assert ok.steps[0].args["amount"] == MAX_AMOUNT

    def test_comments_and_blanks_skipped(self):
        scenario = parse_scenario(
            "# prologue\nscenario x\n\n# funding\napprove acme origin 5\n")
        assert len(scenario.steps) == 1


class TestRun:
    def test_green_path(self):
        result = run("""scenario green

approve acme origin 10000
deposit acme 100
advance 20
assert held lock 0
assert claimable vault alice 100
claim vault alice
assert balance alice 100
assert events Claimed 1
""")
        assert result.ok
        assert result.failures == []
        # deposit + 2 cranks + claim
        assert len(result.transactions) == 4

    def test_assert_failure_reported_with_line(self):
        result = run("""scenario red

approve acme origin 10000
deposit acme 100
assert balance alice 999
""")
        assert not result.ok
        assert result.tx_failures == []
        assert len(result.assert_failures) == 1
        assert result.assert_failures[0].startswith("line 5:")
        assert "expected 999" in result.assert_failures[0]

    def test_assert_on_unknown_or_unclaimable_nodes(self):
        result = run("""scenario red

approve acme origin 10000
deposit acme 100
assert held ghost 0
assert claimable ghost alice 0
assert claimable origin alice 0
assert claimable vault alice 7
""")
        assert result.tx_failures == []
        assert result.assert_failures == [
            "line 5: unknown node 'ghost'",
            "line 6: unknown node 'ghost'",
            "line 7: origin tracks nothing claimable",
            "line 8: claimable for alice at vault is 0, expected 7",
        ]

    def test_unexpected_revert_is_a_tx_failure(self):
        result = run("scenario red\n\ndeposit acme 100\n")  # no approve
        assert not result.ok
        assert result.assert_failures == []
        assert "unexpected revert" in result.tx_failures[0]

    def test_expected_revert_passes(self):
        result = run("""scenario ok

approve acme origin 10000
expect revert ZeroAmount
deposit acme 0
""")
        assert result.ok

    def test_expected_revert_wrong_code_fails(self):
        result = run("""scenario wrong

approve acme origin 10000
expect revert UntrustedOracle
deposit acme 0
""")
        assert not result.ok
        assert "expected revert UntrustedOracle" in result.tx_failures[0]

    def test_expected_revert_that_commits_fails(self):
        result = run("""scenario wrong

approve acme origin 10000
expect revert ZeroAmount
deposit acme 5
""")
        assert not result.ok
        assert "transaction committed" in result.tx_failures[0]

    def test_reverted_cranks_do_not_fail_the_scenario(self):
        # the crank releases 50, the gate goes fatal below 100, the crank
        # reverts; the scenario format tolerates that by design
        gated = instantiate(parse_pipeline("""pipeline gated-vesting

balance acme 10000

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
  config fixed 50

node check
  kind router
  template conditional
  out main -> pay
  config when amount >= 100
  config on_false fatal

node pay
  kind endpoint
  recipient alice
"""))
        result = run_scenario(gated, parse_scenario("""scenario sparse

approve acme origin 10000
deposit acme 50
advance 20
assert held lock 50
assert balance alice 0
"""))
        assert result.ok
        statuses = [r.status for r in result.transactions]
        assert "Reverted" in statuses

    def test_approve_unknown_node_fails(self):
        result = run("scenario bad\n\napprove acme ghost 5\n")
        assert not result.ok
        assert "unknown node" in result.tx_failures[0]

    def test_failures_accumulate_in_order(self):
        result = run("""scenario multi

assert balance alice 7
deposit acme 3
assert held lock 9
""")
        assert len(result.failures) == 3
        assert result.failures == (result.assert_failures[:1]
                                   + result.tx_failures
                                   + result.assert_failures[1:])


def steps_of(scenario):
    return [(step.kind, step.args, step.expect) for step in scenario.steps]


class TestStepTable:
    @pytest.mark.parametrize("name", [*PAIRS, "any-revert"])
    def test_fixture_round_trips_through_the_writer(self, name):
        # no fixture has an expect revert without a code
        text = "scenario any\nexpect revert\nclaim vault alice\n" \
            if name == "any-revert" else (FIXTURES / f"{name}.scn").read_text()
        scenario = parse_scenario(text)
        text = scenario_text(scenario.name, steps_of(scenario))
        assert steps_of(parse_scenario(text)) == steps_of(scenario)

    def test_corpus_replays_as_scenario_text(self):
        """Each seed's actions, written as a scenario with an ``expect
        revert CODE`` before every trigger that reverted, replay against
        the canonical pipeline with the direct run's trace and gas."""
        codes = set()
        for seed in range(400):
            rng = random.Random(seed)
            text, info = random_pipeline_text(rng)
            direct = instantiate(parse_pipeline(text))
            steps = []
            for kind, args in random_actions(rng, info):
                results = apply_step(direct, kind, args)
                reason = results[0].reason if kind in (
                    "deposit", "instruct", "claim") else None
                steps.append((kind, args, reason and reason.split(":")[0]))
                codes.add(steps[-1][2])
            replay = instantiate(parse_pipeline(
                serialize_pipeline(parse_pipeline(text))))
            result = run_scenario(replay, parse_scenario(
                scenario_text(f"seed-{seed}", steps)))
            assert result.ok, (seed, result.failures)
            assert replay.trace_text() == direct.trace_text(), seed
            assert replay.gas_text() == direct.gas_text(), seed
        assert {"NothingToClaim", "InsufficientHeld", "FatalStreamError"} <= codes

    def test_docs_show_every_row(self):
        """The grammar block of "Scenario files" in docs/formats.md, comments
        dropped, lists each row as its words, upper-cased arguments and
        ``[k=v ...]`` where metadata follows."""
        text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(
            encoding="utf-8")
        block = text.split("\n## Scenario files\n", 1)[1].split("```\n")[1]
        lines = [" ".join(line.split("#", 1)[0].split())
                 for line in block.splitlines()]
        rows = [" ".join([kind.replace("_", " "),
                          *(word.upper() for word in row.words),
                          *["[k=v ...]"] * row.meta])
                for kind, row in STEPS.items()]
        assert [line for line in lines if line and line.split()[0]
                not in ("scenario", "expect")] == rows
