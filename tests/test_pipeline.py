"""Pipeline text: parsing, structural validation, canonical form."""

import random

import pytest

from paypipe.errors import SpecSyntaxError, SpecValidationError
from paypipe.ledger import MAX_AMOUNT
from paypipe.pipeline import (
    instantiate,
    parse_pipeline,
    serialize_pipeline,
    validate_pipeline,
)

from support import kahn_cyclic, random_graph_spec, random_pipeline_text

MINIMAL = """pipeline tiny

balance acme 100

node origin
  kind originator
  out main -> pay

node pay
  kind endpoint
  recipient bob
"""

KITCHEN_SINK = """pipeline everything

balance acme 100000
balance reserve 5000

node origin
  kind originator
  out main -> rep

node rep
  kind router
  template reporting
  out main -> gate
  config sink audit
  config keys memo score

node gate
  kind router
  template threshold
  out main -> cond
  config limit 50

node cond
  kind router
  template conditional
  out main -> lock
  config when amount >= 10 and (metadata.score > 3 or not now < 5)
  config on_false warning
  on recoverable redirect keeper
  on fatal redirect keeper

node lock
  kind router
  template timelock
  out main -> split
  config start 10
  config period 5
  config releases 4
  config fraction 1 3

node split
  kind router
  template distributing
  out a -> falls
  out b -> orc
  out fee -> fees
  config fixed fee 7
  config weight a 3
  config weight b 2

node falls
  kind router
  template waterfall
  out senior -> pay_senior
  out junior -> pay_junior
  config tier senior 1000
  config tier junior rest

node orc
  kind router
  template oracle
  out main -> vault
  config oracle alice
  config oracle carol

node keeper
  kind router
  template goalkeeper
  config mode hold
  config admin root

node fees
  kind endpoint
  recipient fee-collector

node pay_senior
  kind endpoint
  recipient senior-acct

node pay_junior
  kind endpoint
  recipient junior-acct

node vault
  kind endpoint
  recipient carol
  mode claimable
"""

# What KITCHEN_SINK lacks (a residual share, allow_single, a fixed timelock,
# goalkeepers that refund and forward, keys over two lines), with config
# lines out of canonical order.
OUT_OF_ORDER = """pipeline extras

balance acme 500

node origin
  kind originator
  out main -> rep

node rep
  kind router
  template reporting
  out main -> lock
  config keys memo
  config sink audit
  config keys tier

node lock
  kind router
  template timelock
  out main -> check
  config releases 3
  config fixed 40
  config period 2
  config start 0

node check
  kind router
  template conditional
  out main -> solo
  config on_false fatal
  config when not (amount<5 or metadata.tier != "gold")
  on fatal redirect back
  on recoverable redirect pass

node solo
  kind router
  template distributing
  out only -> split
  config allow_single
  config residual only

node split
  kind router
  template distributing
  out x -> pay_x
  out y -> pay_y
  config residual y
  config weight x 2

node back
  kind router
  template goalkeeper
  config admin root
  config mode refund

node pass
  kind router
  template goalkeeper
  out main -> pay_y
  config mode forward

node pay_x
  kind endpoint
  recipient xavier

node pay_y
  kind endpoint
  recipient yvonne
"""


def codes(text):
    return {e.code for e in validate_pipeline(parse_pipeline(text))}


# One text that fails every check that a spec with one originator can reach
# (reachability runs only then), and one with two originators.
EVERY_CHECK = f"""pipeline order

balance neg -5
balance big {MAX_AMOUNT + 1}
balance a {MAX_AMOUNT}
balance b 1

node origin
  kind originator
  template reporting
  recipient x
  out main -> split
  out extra -> ghost
  on fatal redirect nowhere

node split
  kind router
  template distributing
  out a -> pay
  out b -> origin
  config weight a 1
  on warning redirect pay
  on recoverable redirect relay
  on fatal redirect lost

node relay
  kind router
  template reporting
  out next -> pay2
  config sink s

node split
  kind endpoint
  recipient dup

node pay
  kind endpoint
  template reporting
  out z -> pay2

node pay2
  kind endpoint
  recipient bob

node bare

node lonely
  kind router
  mode direct

node empty
  kind router
  template reporting
"""
TWO_ORIGINATORS = """pipeline two

node first
  kind originator
  out main -> pay
  out spare -> gone

node second
  kind originator
  out main -> first

node pay
  kind endpoint
  recipient bob

node stray
  kind endpoint
"""


class TestParse:
    def test_minimal(self):
        spec = parse_pipeline(MINIMAL)
        assert spec.name == "tiny"
        assert spec.balances == {"acme": 100}
        assert [n.id for n in spec.nodes] == ["origin", "pay"]
        assert spec.nodes[0].outputs == [("main", "pay")]
        assert spec.nodes[1].mode == "direct"  # filled in by the parser

    def test_header_required_first(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_pipeline("balance acme 100\n")
        assert exc.value.line == 1

    def test_duplicate_balance(self):
        text = MINIMAL.replace("balance acme 100",
                               "balance acme 100\nbalance acme 50")
        with pytest.raises(SpecSyntaxError, match="duplicate balance"):
            parse_pipeline(text)

    def test_unknown_template(self):
        text = MINIMAL.replace("kind originator", "kind router\n  template magic")
        with pytest.raises(SpecSyntaxError, match="magic"):
            parse_pipeline(text)

    def test_config_requires_template(self):
        text = MINIMAL.replace("  kind originator\n",
                               "  kind originator\n  config limit 5\n")
        with pytest.raises(SpecSyntaxError, match="template"):
            parse_pipeline(text)

    def test_bad_out_arrow_position(self):
        text = MINIMAL.replace("out main -> pay", "out main pay")
        with pytest.raises(SpecSyntaxError, match="out syntax"):
            parse_pipeline(text)

    def test_error_carries_line_and_column(self):
        text = "pipeline x\n\nnode a\n  kind mystery\n"
        with pytest.raises(SpecSyntaxError) as exc:
            parse_pipeline(text)
        assert exc.value.line == 4
        assert exc.value.column >= 3

    def test_duplicate_output_tag(self):
        text = MINIMAL.replace("out main -> pay",
                               "out main -> pay\n  out main -> pay")
        with pytest.raises(SpecSyntaxError, match="duplicate output tag"):
            parse_pipeline(text)

    def test_non_integer_amount(self):
        with pytest.raises(SpecSyntaxError, match="integer"):
            parse_pipeline("pipeline x\n\nbalance acme lots\n")

    @pytest.mark.parametrize("name", ["0a", "a.b", "-x"])
    def test_names_of_letters_digits_and_underscore_dot_dash(self, name):
        text = MINIMAL.replace("pipeline tiny", f"pipeline {name}") \
            .replace("pay", name).replace("main", name)
        spec = parse_pipeline(text)
        assert spec.name == name
        assert spec.nodes[0].outputs == [(name, name)]
        assert spec.nodes[1].id == name

    @pytest.mark.parametrize("name", ["a/b", "\u00e9"])
    @pytest.mark.parametrize("what, old", [
        ("pipeline name", "pipeline tiny"), ("node id", "node pay"),
        ("output tag", "out main"), ("target id", "-> pay")])
    def test_other_characters_in_a_name_are_rejected(self, name, what, old):
        new = old.replace(old.split()[1], name)
        with pytest.raises(SpecSyntaxError, match=f"bad {what} {name!r}"):
            parse_pipeline(MINIMAL.replace(old, new))

    def test_policy_redirect_needs_target(self):
        text = MINIMAL.replace("  kind originator\n",
                               "  kind originator\n  on fatal redirect\n")
        with pytest.raises(SpecSyntaxError):
            parse_pipeline(text)


class TestValidate:
    def test_minimal_is_clean(self):
        assert validate_pipeline(parse_pipeline(MINIMAL)) == []

    def test_kitchen_sink_is_clean(self):
        assert validate_pipeline(parse_pipeline(KITCHEN_SINK)) == []

    def test_duplicate_id(self):
        text = MINIMAL + "\nnode pay\n  kind endpoint\n  recipient eve\n"
        assert "DuplicateId" in codes(text)

    def test_unknown_target(self):
        text = MINIMAL.replace("out main -> pay", "out main -> ghost")
        found = codes(text)
        assert "UnknownTarget" in found
        assert "UnreachableNode" in found  # pay is now orphaned

    def test_cycle_detected_names_back_edge(self):
        text = """pipeline loop

node origin
  kind originator
  out main -> a

node a
  kind router
  template reporting
  out main -> b
  config sink s

node b
  kind router
  template reporting
  out main -> a
  config sink s
"""
        errors = validate_pipeline(parse_pipeline(text))
        cycles = [e for e in errors if e.code == "CycleDetected"]
        assert len(cycles) == 1
        assert "->" in cycles[0].message

    def test_zero_originators(self):
        text = "pipeline empty\n\nnode pay\n  kind endpoint\n  recipient bob\n"
        assert "MultipleOriginators" in codes(text)

    def test_two_originators(self):
        text = MINIMAL + "\nnode origin2\n  kind originator\n  out main -> pay\n"
        assert "MultipleOriginators" in codes(text)

    def test_originator_arity(self):
        text = "pipeline x\n\nnode origin\n  kind originator\n"
        assert "ArityViolation" in codes(text)

    def test_edge_into_originator(self):
        text = """pipeline feedback

node origin
  kind originator
  out main -> rep

node rep
  kind router
  template reporting
  out main -> origin
  config sink s
"""
        errors = validate_pipeline(parse_pipeline(text))
        arity = [e for e in errors if e.code == "ArityViolation"]
        assert any("feeds originator" in e.message for e in arity)

    def test_endpoint_with_output(self):
        text = MINIMAL.replace("  recipient bob",
                               "  recipient bob\n  out x -> origin")
        assert "ArityViolation" in codes(text)

    def test_router_without_template(self):
        text = MINIMAL.replace("kind originator", "kind router")
        assert "BadConfig" in codes(text)

    def test_redirect_must_hit_terminal_handler(self):
        text = KITCHEN_SINK.replace("on recoverable redirect keeper",
                                    "on recoverable redirect lock")
        errors = validate_pipeline(parse_pipeline(text))
        assert any(e.code == "BadConfig" and "redirect target" in e.message
                   for e in errors)

    def test_redirect_to_endpoint_allowed(self):
        text = KITCHEN_SINK.replace("on recoverable redirect keeper",
                                    "on recoverable redirect vault")
        errors = validate_pipeline(parse_pipeline(text))
        assert not [e for e in errors if "redirect target" in e.message]

    def test_negative_balance(self):
        text = MINIMAL.replace("balance acme 100", "balance acme -5")
        assert "BadConfig" in codes(text)

    def test_balance_above_the_amount_domain(self):
        text = MINIMAL.replace("balance acme 100", f"balance acme {MAX_AMOUNT + 1}")
        assert [str(e) for e in validate_pipeline(parse_pipeline(text))] == [
            f"BadConfig -: balance for 'acme' must be <= {MAX_AMOUNT}"]
        at_max = MINIMAL.replace("balance acme 100", f"balance acme {MAX_AMOUNT}")
        assert validate_pipeline(parse_pipeline(at_max)) == []

    def test_balances_summing_above_the_amount_domain(self):
        text = MINIMAL.replace("balance acme 100", f"balance acme {MAX_AMOUNT}\n"
                               "balance bob 1")
        assert [str(e) for e in validate_pipeline(parse_pipeline(text))] == [
            f"BadConfig -: balances sum to more than {MAX_AMOUNT}"]
        with pytest.raises(SpecValidationError):
            instantiate(parse_pipeline(text))

    def test_unreachable_node(self):
        text = MINIMAL + "\nnode island\n  kind endpoint\n  recipient eve\n"
        errors = validate_pipeline(parse_pipeline(text))
        assert [e.node_id for e in errors
                if e.code == "UnreachableNode"] == ["island"]

    def test_redirect_edges_count_for_reachability(self):
        text = """pipeline rescue

node origin
  kind originator
  out main -> check

node check
  kind router
  template conditional
  out main -> pay
  config when amount > 0
  on recoverable redirect keeper

node keeper
  kind router
  template goalkeeper
  config mode refund

node pay
  kind endpoint
  recipient bob
"""
        assert validate_pipeline(parse_pipeline(text)) == []

    def test_error_string_format(self):
        text = MINIMAL + "\nnode island\n  kind endpoint\n  recipient eve\n"
        (error,) = validate_pipeline(parse_pipeline(text))
        assert str(error) == ("UnreachableNode island: no path from the "
                              "originator reaches this node")

    def test_template_config_problems_surface(self):
        text = KITCHEN_SINK.replace("  config limit 50\n", "")
        errors = validate_pipeline(parse_pipeline(text))
        assert any(e.code == "BadConfig" and e.node_id == "gate"
                   for e in errors)

    def test_distributing_single_output_needs_opt_in(self):
        base = """pipeline narrow

node origin
  kind originator
  out main -> split

node split
  kind router
  template distributing
  out a -> pay
  config weight a 1
{opt_in}
node pay
  kind endpoint
  recipient bob
"""
        assert "BadConfig" in codes(base.format(opt_in=""))
        clean = base.format(opt_in="  config allow_single\n")
        assert validate_pipeline(parse_pipeline(clean)) == []


    def test_every_check_in_order(self):
        """The full ordered list, not only the set of codes: checks run in
        a fixed order, each over the nodes in declaration order."""
        assert [str(e) for e in validate_pipeline(parse_pipeline(EVERY_CHECK))] == [
            "BadConfig -: balance for 'neg' must be >= 0",
            f"BadConfig -: balance for 'big' must be <= {MAX_AMOUNT}",
            f"BadConfig -: balances sum to more than {MAX_AMOUNT}",
            "DuplicateId split: node id declared more than once",
            "UnknownTarget origin: output 'extra' targets unknown node 'ghost'",
            "UnknownTarget origin: policy redirects to unknown node 'nowhere'",
            "UnknownTarget split: policy redirects to unknown node 'lost'",
            "ArityViolation split: output 'b' feeds originator 'origin'",
            "BadConfig split: redirect target 'relay' must be a goalkeeper "
            "router or an endpoint",
            "BadConfig origin: originators take no template",
            "BadConfig origin: mode and recipient apply to endpoints only",
            "ArityViolation origin: originator requires exactly 1 output, has 2",
            "BadConfig pay: endpoints take no template",
            "ArityViolation pay: endpoint takes no outputs, has 1",
            "BadConfig pay: endpoint requires recipient",
            "BadConfig bare: node must declare kind",
            "BadConfig lonely: mode and recipient apply to endpoints only",
            "BadConfig lonely: router requires a template",
            "ArityViolation empty: router requires at least 1 output",
            "CycleDetected split: cycle via edge split -> origin",
            "BadConfig split: output 'b' has no share",
            "BadConfig empty: reporting requires exactly 1 output, has 0",
            "BadConfig empty: reporting requires a sink label",
            "UnreachableNode bare: no path from the originator reaches this node",
            "UnreachableNode lonely: no path from the originator reaches this "
            "node",
            "UnreachableNode empty: no path from the originator reaches this node",
        ]
        spec = parse_pipeline(TWO_ORIGINATORS)
        assert [str(e) for e in validate_pipeline(spec)] == [
            "UnknownTarget first: output 'spare' targets unknown node 'gone'",
            "MultipleOriginators -: pipeline has 2 originators, needs exactly 1",
            "ArityViolation second: output 'main' feeds originator 'first'",
            "ArityViolation first: originator requires exactly 1 output, has 2",
            "BadConfig stray: endpoint requires recipient",
        ]


class TestInstantiate:
    def test_rejects_invalid_spec(self):
        text = MINIMAL.replace("out main -> pay", "out main -> ghost")
        with pytest.raises(SpecValidationError):
            instantiate(parse_pipeline(text))

    def test_wires_balances_and_entry(self):
        engine = instantiate(parse_pipeline(MINIMAL))
        assert engine.entry == "origin"
        assert engine.ledger.balances["acme"] == 100
        assert engine.ledger.total_supply == 100


# The canonical text of KITCHEN_SINK and OUT_OF_ORDER, byte for byte.
KITCHEN_SINK_CANONICAL = """pipeline everything

balance acme 100000
balance reserve 5000

node origin
  kind originator
  out main -> rep

node rep
  kind router
  template reporting
  out main -> gate
  config sink audit
  config keys memo score

node gate
  kind router
  template threshold
  out main -> cond
  config limit 50

node cond
  kind router
  template conditional
  out main -> lock
  config when amount >= 10 and (metadata.score > 3 or not now < 5)
  config on_false warning
  on recoverable redirect keeper
  on fatal redirect keeper

node lock
  kind router
  template timelock
  out main -> split
  config start 10
  config period 5
  config releases 4
  config fraction 1 3

node split
  kind router
  template distributing
  out a -> falls
  out b -> orc
  out fee -> fees
  config fixed fee 7
  config weight a 3
  config weight b 2

node falls
  kind router
  template waterfall
  out senior -> pay_senior
  out junior -> pay_junior
  config tier senior 1000
  config tier junior rest

node orc
  kind router
  template oracle
  out main -> vault
  config oracle alice
  config oracle carol

node keeper
  kind router
  template goalkeeper
  config mode hold
  config admin root

node fees
  kind endpoint
  recipient fee-collector
  mode direct

node pay_senior
  kind endpoint
  recipient senior-acct
  mode direct

node pay_junior
  kind endpoint
  recipient junior-acct
  mode direct

node vault
  kind endpoint
  recipient carol
  mode claimable
"""

OUT_OF_ORDER_CANONICAL = """pipeline extras

balance acme 500

node origin
  kind originator
  out main -> rep

node rep
  kind router
  template reporting
  out main -> lock
  config sink audit
  config keys memo tier

node lock
  kind router
  template timelock
  out main -> check
  config start 0
  config period 2
  config releases 3
  config fixed 40

node check
  kind router
  template conditional
  out main -> solo
  config when not (amount < 5 or metadata.tier != "gold")
  config on_false fatal
  on recoverable redirect pass
  on fatal redirect back

node solo
  kind router
  template distributing
  out only -> split
  config residual only
  config allow_single

node split
  kind router
  template distributing
  out x -> pay_x
  out y -> pay_y
  config residual y
  config weight x 2

node back
  kind router
  template goalkeeper
  config mode refund
  config admin root

node pass
  kind router
  template goalkeeper
  out main -> pay_y
  config mode forward

node pay_x
  kind endpoint
  recipient xavier
  mode direct

node pay_y
  kind endpoint
  recipient yvonne
  mode direct
"""


class TestCanonicalForm:
    @pytest.mark.parametrize("text, canonical", [
        (KITCHEN_SINK, KITCHEN_SINK_CANONICAL),
        (OUT_OF_ORDER, OUT_OF_ORDER_CANONICAL),
    ], ids=["kitchen-sink", "out-of-order"])
    def test_canonical_text(self, text, canonical):
        spec = parse_pipeline(text)
        assert validate_pipeline(spec) == []
        assert serialize_pipeline(spec) == canonical

    def test_round_trip_is_fixpoint(self):
        for text in (MINIMAL, KITCHEN_SINK, OUT_OF_ORDER):
            first = serialize_pipeline(parse_pipeline(text))
            second = serialize_pipeline(parse_pipeline(first))
            assert first == second

    def test_round_trip_preserves_structure(self):
        spec = parse_pipeline(KITCHEN_SINK)
        again = parse_pipeline(serialize_pipeline(spec))
        assert again == spec

    def test_balances_sorted(self):
        text = MINIMAL.replace("balance acme 100",
                               "balance zeta 5\nbalance acme 100")
        canonical = serialize_pipeline(parse_pipeline(text))
        assert canonical.index("balance acme") < canonical.index("balance zeta")

    def test_random_pipelines_round_trip(self):
        for seed in range(60):
            rng = random.Random(seed)
            text, _ = random_pipeline_text(rng)
            spec = parse_pipeline(text)
            assert validate_pipeline(spec) == []
            canonical = serialize_pipeline(spec)
            assert parse_pipeline(canonical) == spec
            assert serialize_pipeline(parse_pipeline(canonical)) == canonical


class TestAgainstGraphOracle:
    def test_cycle_report_matches_kahn(self):
        for seed in range(300):
            rng = random.Random(seed)
            spec, edges = random_graph_spec(rng)
            node_ids = [n.id for n in spec.nodes]
            expected_cyclic = kahn_cyclic(node_ids, edges)
            found = {e.code for e in validate_pipeline(spec)}
            assert ("CycleDetected" in found) == expected_cyclic, (
                seed, sorted(edges))
            if not expected_cyclic:
                # acyclic generator output is fully valid by construction
                assert found == set()


class TestParserTotality:
    def test_fuzzed_text_never_crashes_unexpectedly(self):
        rng = random.Random(8)
        corpus = [MINIMAL, KITCHEN_SINK]
        junk = " \t\n->pipelinenodeconfigout#=%\"0123456789abcxyz"
        for _ in range(400):
            base = list(rng.choice(corpus))
            for _ in range(rng.randint(1, 12)):
                pos = rng.randrange(len(base))
                op = rng.random()
                if op < 0.4:
                    base[pos] = rng.choice(junk)
                elif op < 0.7:
                    base.insert(pos, rng.choice(junk))
                else:
                    del base[pos]
            mangled = "".join(base)
            try:
                spec = parse_pipeline(mangled)
            except SpecSyntaxError:
                continue
            validate_pipeline(spec)  # must be total on anything that parses
