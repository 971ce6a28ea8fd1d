"""Predicate parsing, evaluation, and canonical-text round trips."""

import random
import re

import pytest

from paypipe import predicates
from paypipe.cli import main
from paypipe.errors import SpecSyntaxError
from paypipe.predicates import (
    MAX_NESTING,
    And,
    Cmp,
    Field,
    Lit,
    Meta,
    Not,
    Or,
    PredicateEvalError,
    evaluate,
    parse_predicate,
    predicate_text,
)

from support import mangled_text
from test_golden import FIXTURES
from test_pipeline import MANGLE_CORPUS

TOO_DEEP = f"predicate nests deeper than {MAX_NESTING}"


def ev(text, amount=0, now=0, metadata=None):
    return evaluate(parse_predicate(text), amount, now, metadata or {})


class TestParsing:
    def test_comparison_shape(self):
        assert parse_predicate("amount >= 10") == \
            Cmp(">=", Field("amount"), Lit(10))

    def test_double_equals_normalizes(self):
        assert parse_predicate("amount == 3") == parse_predicate("amount = 3")

    def test_metadata_operand(self):
        assert parse_predicate('metadata.kyc = "ok"') == \
            Cmp("=", Meta("kyc"), Lit("ok"))

    def test_connective_precedence(self):
        # and binds tighter than or
        node = parse_predicate("amount > 1 or amount > 2 and now < 5")
        assert isinstance(node, Or)
        assert isinstance(node.items[1], And)

    def test_nested_connectives_flatten(self):
        flat = parse_predicate("amount > 1 or amount > 2 or amount > 3")
        grouped = parse_predicate("(amount > 1 or amount > 2) or amount > 3")
        assert flat == grouped

    def test_not_and_parens(self):
        node = parse_predicate("not (amount < 5 and now = 0)")
        assert isinstance(node, Not)
        assert isinstance(node.item, And)

    @pytest.mark.parametrize("bad", [
        "", "amount", "amount >=", ">= 10", "amount >= 10 extra",
        "(amount > 1", "amount > 1)", "salary > 3", "metadata. > 1",
        "amount ~ 1", 'amount > "unclosed',
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SpecSyntaxError):
            parse_predicate(bad)

    def test_a_trailing_connective_is_an_unexpected_end(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_predicate("amount > 1 and")
        assert exc.value.message == "unexpected end of predicate"


SHAPES = ("nots", "parens", "mixed", "alternating")


def nested_predicates(levels):
    """Predicates true for a positive amount whose comparison sits inside
    ``levels`` ``not``s and ``(``s: all ``not``s, all parentheses, both in
    turn, and parentheses whose connectives alternate, which ``evaluate``
    descends with the most frames."""
    mixed = alternating = "amount > 0"
    for i in range(levels):
        mixed = f"not {mixed}" if i % 2 else f"({mixed})"
        alternating = f"({alternating}) {('or', 'and')[i % 2]} amount > 0"
    return ["not " * levels + f"amount {('>', '<=')[levels % 2]} 0",
            "(" * levels + "amount > 0" + ")" * levels, mixed, alternating]


class TestNesting:
    @pytest.mark.parametrize("text", nested_predicates(MAX_NESTING), ids=SHAPES)
    def test_the_limit_parses_and_round_trips(self, text):
        node = parse_predicate(text)
        assert ev(text, amount=1) and not ev(text, amount=0)
        assert parse_predicate(predicate_text(node)) == node

    @pytest.mark.parametrize("text", [
        *nested_predicates(MAX_NESTING + 1), "not " * 10**5 + "amount > 0",
        "(" * 10**5 + "amount > 0" + ")" * 10**5,
    ], ids=[*SHAPES, "nots-100000", "parens-100000"])
    def test_past_the_limit_is_refused(self, text):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_predicate(text)
        assert exc.value.message == TOO_DEEP


class TestEvaluation:
    def test_amount_and_now_fields(self):
        assert ev("amount >= 10", amount=10)
        assert not ev("amount >= 10", amount=9)
        assert ev("now < 2", now=1)

    def test_metadata_lookup(self):
        assert ev('metadata.kyc = "ok"', metadata={"kyc": "ok"})
        assert not ev('metadata.kyc = "ok"', metadata={"kyc": "no"})

    def test_missing_metadata_key_raises(self):
        with pytest.raises(PredicateEvalError):
            ev('metadata.kyc = "ok"')

    def test_equality_across_types_is_false(self):
        assert not ev('metadata.kyc = "7"', metadata={"kyc": 7})
        assert ev('metadata.kyc != "7"', metadata={"kyc": 7})

    def test_ordering_across_types_raises(self):
        with pytest.raises(PredicateEvalError):
            ev("metadata.kyc > 7", metadata={"kyc": "high"})

    def test_connectives(self):
        assert ev("amount > 1 and amount < 5", amount=3)
        assert not ev("amount > 1 and amount < 5", amount=5)
        assert ev("amount > 1 or amount < 0", amount=2)
        assert ev("not amount > 1", amount=1)

    def test_all_comparators(self):
        assert ev("amount < 2", amount=1)
        assert ev("amount <= 1", amount=1)
        assert ev("amount = 1", amount=1)
        assert ev("amount >= 1", amount=1)
        assert ev("amount > 0", amount=1)
        assert ev("amount != 2", amount=1)

    def test_a_hand_built_ast_of_unknown_nodes_raises(self):
        """The parser never builds these nodes; a hand-built AST that holds
        one gets a ``TypeError`` naming it, not a wrong answer."""
        with pytest.raises(TypeError, match="not an operand"):
            evaluate(Cmp("=", object(), Lit(1)), 1, 0, {})
        with pytest.raises(TypeError, match="not a predicate node"):
            evaluate(object(), 1, 0, {})
        with pytest.raises(TypeError, match="not a predicate node"):
            predicate_text(object())


def random_ast(rng, depth=0):
    if depth < 3 and rng.random() < 0.5:
        kind = rng.choice(("and", "or", "not"))
        if kind == "not":
            return Not(random_ast(rng, depth + 1))
        items = []
        for _ in range(rng.randint(2, 3)):
            child = random_ast(rng, depth + 1)
            # parser flattens same-connective nesting, so the generator must
            # never produce an Or directly inside an Or (same for And)
            while isinstance(child, Or if kind == "or" else And):
                child = random_ast(rng, depth + 1)
            items.append(child)
        return (Or if kind == "or" else And)(tuple(items))
    op = rng.choice(("<", "<=", "=", ">=", ">", "!="))
    operand = rng.choice((Field("amount"), Field("now"),
                          Meta(rng.choice(("kyc", "dept"))),
                          Lit(rng.randint(0, 99)), Lit("tag")))
    other = Lit(rng.randint(0, 99))
    return Cmp(op, operand, other) if rng.random() < 0.8 else \
        Cmp(op, other, operand)


def test_canonical_text_round_trips_random_asts():
    for seed in range(300):
        node = random_ast(random.Random(seed))
        text = predicate_text(node)
        assert parse_predicate(text) == node, text


def test_canonical_text_is_fixpoint():
    for seed in range(100):
        node = random_ast(random.Random(seed))
        once = predicate_text(node)
        assert predicate_text(parse_predicate(once)) == once


def test_run_parses_each_predicate_text_once(monkeypatch):
    """Validation and instantiation both read a conditional's ``when``;
    ``paypipe run`` on the flows fixture tokenizes each of its two
    predicates once."""
    texts, tokenize = [], predicates._tokenize

    def counted(text):
        texts.append(text)
        return tokenize(text)
    monkeypatch.setattr(predicates, "_tokenize", counted)
    parse_predicate.cache_clear()
    assert main(["run", str(FIXTURES / "flows.pipe"),
                 str(FIXTURES / "flows.scn")]) == 0
    assert sorted(texts) == ["amount <= 100", "amount >= 10"]


PREDICATE_JUNK = " ()<>=!\"notandr.metadamouw0129_~"


def totality_corpus():
    """About 2,000 predicate texts: character edits of every predicate in
    the fixtures and the pipeline parser's corpus, then runs of ``(`` and
    ``not`` that nest from nothing to thousands of levels deep."""
    sources = [path.read_text() for path in sorted(FIXTURES.glob("*.pipe"))]
    found = re.findall(r"config when (.*)", "\n".join(sources + MANGLE_CORPUS))
    bases = sorted(set(found)) + nested_predicates(MAX_NESTING)
    rng = random.Random(0)
    texts = [mangled_text(rng, bases, PREDICATE_JUNK) for _ in range(1800)]
    for _ in range(200):
        depth = rng.choice((rng.randint(0, 2 * MAX_NESTING),
                            rng.randint(0, 3000)))
        opened = "".join(rng.choice(("(", "not ")) for _ in range(depth))
        closed = ")" * (opened.count("(") + rng.randint(-1, 1))
        texts.append(opened + rng.choice(bases) + closed)
    return texts


def test_every_mangled_predicate_parses_or_is_a_syntax_error():
    """The parser is total: each text parses, to an AST whose canonical
    text parses back to it, or raises ``SpecSyntaxError``; any other
    exception, ``RecursionError`` among them, fails."""
    parsed = refused = 0
    for text in totality_corpus():
        try:
            node = parse_predicate(text)
        except SpecSyntaxError:
            refused += 1
            continue
        parsed += 1
        assert parse_predicate(predicate_text(node)) == node, text
    assert parsed and refused
