"""Boolean predicate expressions for conditional routers.

An expression reads the stream amount, the simulated clock, and message
metadata, e.g.::

    amount >= 100 and (metadata.kyc = "ok" or now < 500)

Comparators: ``<  <=  =  >=  >  !=`` (``==`` is accepted for ``=``).
Connectives: ``and  or  not``, with the usual precedence (not > and > or).
Operands: ``amount``, ``now``, ``metadata.<key>``, integer and double-quoted
string literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import SpecSyntaxError, int_word, shown_word


class PredicateEvalError(Exception):
    """Missing metadata key or an ordering comparison across types."""


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    name: str  # "amount" or "now"


@dataclass(frozen=True)
class Meta:
    key: str


@dataclass(frozen=True)
class Lit:
    value: Union[int, str]


@dataclass(frozen=True)
class Cmp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Not:
    item: object


_LEXEME_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<str>"[^"\n]*")
  | (?P<int>[0-9]+)
  | (?P<op><=|>=|!=|==|=|<|>)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<meta>metadata\.[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_\-]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _LEXEME_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(f"bad character {text[pos]!r} in predicate")
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group()))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise SpecSyntaxError("unexpected end of predicate")
        self.i += 1
        return tok

    def parse(self):
        node = self.chain(Or)
        if self.peek() is not None:
            raise SpecSyntaxError(f"unexpected token {shown_word(self.peek()[1])}")
        return node

    def chain(self, cls):
        """A chain of ``Or`` over ``And`` chains, or of ``And`` over unary
        terms, flattened so "(a or b) or c" and "a or b or c" share one
        canonical form."""
        word, term = ("or", lambda: self.chain(And)) if cls is Or \
            else ("and", self.unary)
        items = [term()]
        while self.peek() and self.peek()[1] == word:
            self.take()
            items.append(term())
        if len(items) == 1:
            return items[0]
        flat = []
        for item in items:
            flat.extend(item.items if isinstance(item, cls) else (item,))
        return cls(tuple(flat))

    def unary(self):
        tok = self.peek()
        if tok is None:
            raise SpecSyntaxError("unexpected end of predicate")
        if tok[1] == "not":
            self.take()
            return Not(self.unary())
        if tok[0] == "lpar":
            self.take()
            node = self.chain(Or)
            closing = self.peek()
            if closing is None or closing[0] != "rpar":
                raise SpecSyntaxError("expected ')'")
            self.take()
            return node
        return self.comparison()

    def comparison(self):
        left = self.operand()
        tok = self.peek()
        if tok is None or tok[0] != "op":
            raise SpecSyntaxError("expected a comparator")
        op = self.take()[1]
        if op == "==":
            op = "="
        right = self.operand()
        return Cmp(op, left, right)

    def operand(self):
        kind, text = self.take()
        if kind == "int":
            value = int_word(text)
            if value is None:
                raise SpecSyntaxError(
                    f"integer literal of {len(text)} digits is too long")
            return Lit(value)
        if kind == "str":
            return Lit(text[1:-1])
        if kind == "meta":
            return Meta(text.split(".", 1)[1])
        if kind == "word":
            if text in ("amount", "now"):
                return Field(text)
            raise SpecSyntaxError(f"unknown operand {shown_word(text)}")
        raise SpecSyntaxError(f"expected an operand, got {shown_word(text)}")


def parse_predicate(text: str):
    """Parse an expression into an AST; raises SpecSyntaxError, whose
    message alone says what is wrong."""
    tokens = _tokenize(text)
    if not tokens:
        raise SpecSyntaxError("empty predicate")
    return _Parser(tokens).parse()


# -- evaluation ----------------------------------------------------------------


def _operand_value(node, amount, now, metadata):
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Field):
        return amount if node.name == "amount" else now
    if isinstance(node, Meta):
        if node.key not in metadata:
            raise PredicateEvalError(f"missing metadata key {node.key!r}")
        return metadata[node.key]
    raise TypeError(f"not an operand: {node!r}")


def evaluate(node, amount: int, now: int, metadata: dict) -> bool:
    """Evaluate an AST against a message.

    Raises PredicateEvalError when a metadata key is absent or an ordering
    comparison mixes ints and strings; equality across types is just False.
    """
    if isinstance(node, Or):
        return any(evaluate(n, amount, now, metadata) for n in node.items)
    if isinstance(node, And):
        return all(evaluate(n, amount, now, metadata) for n in node.items)
    if isinstance(node, Not):
        return not evaluate(node.item, amount, now, metadata)
    if isinstance(node, Cmp):
        left = _operand_value(node.left, amount, now, metadata)
        right = _operand_value(node.right, amount, now, metadata)
        if node.op == "=":
            return left == right
        if node.op == "!=":
            return left != right
        if type(left) is not type(right):
            raise PredicateEvalError(
                f"cannot order {type(left).__name__} against {type(right).__name__}"
            )
        if node.op == "<":
            return left < right
        if node.op == "<=":
            return left <= right
        if node.op == ">":
            return left > right
        return left >= right
    raise TypeError(f"not a predicate node: {node!r}")


# -- canonical text ----------------------------------------------------------


def _operand_text(node) -> str:
    if isinstance(node, Lit):
        return f'"{node.value}"' if isinstance(node.value, str) else str(node.value)
    if isinstance(node, Field):
        return node.name
    return f"metadata.{node.key}"


def predicate_text(node) -> str:
    """Render an AST so that parsing the result gives an equal AST."""
    if isinstance(node, Cmp):
        return f"{_operand_text(node.left)} {node.op} {_operand_text(node.right)}"
    if isinstance(node, Not):
        inner = predicate_text(node.item)
        if isinstance(node.item, (And, Or)):
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(node, And):
        parts = []
        for item in node.items:
            text = predicate_text(item)
            if isinstance(item, Or):
                text = f"({text})"
            parts.append(text)
        return " and ".join(parts)
    if isinstance(node, Or):
        return " or ".join(predicate_text(item) for item in node.items)
    raise TypeError(f"not a predicate node: {node!r}")
