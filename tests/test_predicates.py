"""Predicate parsing, evaluation, and canonical-text round trips."""

import random

import pytest

from paypipe import predicates
from paypipe.cli import main
from paypipe.errors import SpecSyntaxError
from paypipe.predicates import (
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

from test_golden import FIXTURES


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
