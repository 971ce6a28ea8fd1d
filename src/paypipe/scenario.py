"""Scenario files: scripted triggers and assertions against one pipeline.

A scenario is line oriented like the pipeline format, and its header goes
through the same reader, ``pipeline.headed``. It names itself, then lists
actions in order, each written as its ``STEPS`` row says:

    scenario payday-happy-path

    approve acme origin 50000
    deposit acme 600 dept=sales
    advance 20
    claim vault alice
    assert balance alice 400
    assert events Report 2

``approve`` grants a node's address an allowance directly on the ledger (it
is setup, not a transaction). ``deposit``, ``advance``, ``instruct``, and
``claim`` submit transactions. An ``expect revert [CODE]`` line marks the
next deposit/instruct/claim as intentionally failing; a commit, or a revert
with a different code, fails the scenario. Reverted time-advance cranks
never fail a scenario directly since later releases proceed regardless;
assert the resulting state instead.

Assertions check committed state: account balances, a node's held funds,
claimable amounts, and event counts by kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .engine import Engine, TxResult
from .errors import SpecSyntaxError, int_word, shown_word
from .ledger import MAX_AMOUNT
from .nodes import node_address
from .pipeline import headed, syntax_error


class StepKind(NamedTuple):
    """One row of ``STEPS``, keyed by the step's words joined by ``_``: the
    argument names, in order (``amount``, ``delta`` and ``count`` are
    integers from ``low`` to ``high``), the message for a wrong word count,
    whether ``key=value`` metadata follows, and a trigger's method."""

    words: tuple
    arity: str
    meta: bool = False
    low: Optional[int] = None
    high: Optional[int] = None
    method: Optional[str] = None


STEPS = {
    "approve": StepKind(("account", "node", "amount"),
                        "approve syntax: approve ACCOUNT NODE AMOUNT",
                        low=0, high=MAX_AMOUNT),
    "deposit": StepKind(("account", "amount"),
                        "deposit syntax: deposit ACCOUNT AMOUNT [k=v ...]",
                        meta=True, method="submit_deposit"),
    "advance": StepKind(("delta",), "advance takes a time delta", low=0,
                        method="advance_time"),
    "instruct": StepKind(("node", "oracle", "tag", "amount"),
                         "instruct syntax: instruct NODE ORACLE TAG AMOUNT",
                         method="submit_oracle_instruct"),
    "claim": StepKind(("node", "account"), "claim syntax: claim NODE ACCOUNT",
                      method="submit_claim"),
    "assert_balance": StepKind(("account", "amount"),
                               "assert balance ACCOUNT AMOUNT"),
    "assert_held": StepKind(("node", "amount"), "assert held NODE AMOUNT"),
    "assert_claimable": StepKind(("node", "account", "amount"),
                                 "assert claimable NODE ACCOUNT AMOUNT"),
    "assert_events": StepKind(("kind", "count"), "assert events KIND COUNT"),
}
_INTS = ("amount", "delta", "count")
# the steps that submit one transaction, which an expect revert may mark
_SUBMITS = {k for k, row in STEPS.items() if "submit" in (row.method or "")}


@dataclass
class Step:
    kind: str
    line: int
    args: dict = field(default_factory=dict)
    expect: Optional[str] = None  # None = must commit, "any" or a code otherwise


@dataclass
class Scenario:
    name: str
    steps: list = field(default_factory=list)


@dataclass
class ScenarioResult:
    ok: bool
    failures: list  # every failure, in encounter order
    assert_failures: list  # state assertions that did not hold
    tx_failures: list  # reverts or commits that defied expectations
    transactions: list


def _metadata(line, start):
    """The ``key=value`` words of ``line`` from word ``start`` on."""
    meta = {}
    for i in range(start, len(line[2])):
        tok = line[2][i]
        if "=" not in tok:
            raise syntax_error(
                f"metadata must be key=value, got {shown_word(tok)}", line, i)
        key, _, value = tok.partition("=")
        if not key:
            raise syntax_error("metadata key is empty", line, i)
        if key in meta:
            raise syntax_error(f"duplicate metadata key {shown_word(key)}", line, i)
        number = int_word(value)
        meta[key] = value if number is None else number
    return meta


def _parse_step(line) -> Step:
    """The action or assertion on ``line``, read by its ``STEPS`` row."""
    tokens = line[2]
    kind, start = tokens[0], 1
    if kind == "assert":
        if len(tokens) < 2:
            raise syntax_error("assert takes a subject", line, 0)
        kind, start = f"assert_{tokens[1]}", 2
        if kind not in STEPS:
            raise syntax_error("assert subject must be balance, held, "
                               "claimable, or events", line, 1)
    elif kind not in STEPS or "_" in kind:  # one word names no assertion
        raise syntax_error(f"unknown action {shown_word(kind)}", line, 0)
    row = STEPS[kind]
    end = start + len(row.words)
    if (len(tokens) < end) if row.meta else (len(tokens) != end):
        raise syntax_error(row.arity, line, 0)
    args = dict(zip(row.words, tokens[start:end]))
    for i, name in enumerate(row.words, start):
        if name in _INTS:
            value = args[name] = int_word(tokens[i])
            if value is None:
                raise syntax_error(f"{name} must be an integer, got "
                                   f"{shown_word(tokens[i])}", line, i)
            if row.low is not None and value < row.low:
                raise syntax_error(f"{name} must be >= {row.low}", line, i)
            if row.high is not None and value > row.high:
                raise syntax_error(f"{name} must be <= {row.high}", line, i)
    if row.meta:
        args["metadata"] = _metadata(line, end)
    return Step(kind, line[0], args)


def parse_scenario(text: str) -> Scenario:
    header, lines = headed(text, "scenario")
    scenario = Scenario(name=header[2][1])
    pending: Optional[tuple[str, int]] = None  # (code|"any", line of expect)

    for line in lines:
        lineno, _, tokens = line
        head = tokens[0]

        if head == "scenario":
            raise syntax_error("duplicate scenario header", line, 0)
        if pending is not None and head not in _SUBMITS:
            raise syntax_error(
                "expect revert must precede deposit, instruct, or claim",
                line, 0)

        if head == "expect":
            if len(tokens) < 2 or tokens[1] != "revert" or len(tokens) > 3:
                raise syntax_error("expect syntax: expect revert [CODE]",
                                   line, 0)
            pending = (tokens[2] if len(tokens) == 3 else "any", lineno)
            continue
        scenario.steps.append(_parse_step(line))
        if pending is not None:
            scenario.steps[-1].expect = pending[0]
            pending = None

    if pending is not None:
        raise SpecSyntaxError("expect revert with no following action",
                              pending[1], 1)
    return scenario


def apply_step(engine: Engine, kind: str, args: dict) -> list[TxResult]:
    """Run an approval or a trigger step, ``args`` in its ``STEPS`` order;
    returns the transactions it made. An unknown node raises ``KeyError``."""
    method = STEPS[kind].method
    if method is None:
        node = engine.nodes[args["node"]]
        engine.ledger.approve(args["account"], node.address, args["amount"])
        return []
    result = getattr(engine, method)(*args.values())
    return [result] if kind in _SUBMITS else result


def _assert_problem(engine: Engine, kind: str, a: dict) -> Optional[str]:
    """Why the assertion ``kind`` with arguments ``a`` does not hold, or
    None when it does; a word past 20 characters echoes as ``shown_word``,
    which keeps 20 characters of it, or 10 of each when two are that long,
    so the line stays under 120 bytes."""
    node = engine.nodes.get(a.get("node"))
    if node is None and "node" in a:
        return f"unknown node {shown_word(a['node'])}"
    long = [k for k, v in a.items() if k not in _INTS and len(v) > 20]
    w = {k: shown_word(v, 20 // len(long)) if k in long else v
         for k, v in a.items()}
    if kind == "assert_balance":
        actual = engine.ledger.balances.get(a["account"], 0)
        said = f"balance of {w['account']} is {actual}"
    elif kind == "assert_held":
        actual = engine.ledger.balances.get(node_address(a["node"]), 0)
        said = f"{w['node']} holds {actual}"
    elif kind == "assert_claimable":
        claimable = node.state.get("claimable")
        if claimable is None:
            return f"{w['node']} tracks nothing claimable"
        actual = claimable.get(a["account"], 0)
        said = f"claimable for {w['account']} at {w['node']} is {actual}"
    else:
        actual = sum(1 for ev in engine.events if ev.kind == a["kind"])
        said = f"{actual} {w['kind']} events"
    expected = a[STEPS[kind].words[-1]]
    return None if actual == expected else f"{said}, expected {expected}"


def _tx_problem(expect: Optional[str], reason: Optional[str]) -> Optional[str]:
    """Why a transaction that ended with ``reason`` defies ``expect``, or
    None when it does not."""
    if expect is None:
        return None if reason is None else f"unexpected revert: {reason}"
    if reason is None:
        return "expected a revert, transaction committed"
    if expect != "any" and not reason.startswith(expect + ":"):
        return f"expected revert {expect}, got {reason}"
    return None


def run_scenario(engine: Engine, scenario: Scenario) -> ScenarioResult:
    """Execute every step, collecting failures instead of stopping early."""
    failures: list[str] = []
    assert_failures: list[str] = []
    tx_failures: list[str] = []
    transactions: list[TxResult] = []

    def fail(step, msg, bucket):
        if msg is not None:
            failures.append(f"line {step.line}: {msg}")
            bucket.append(failures[-1])

    for step in scenario.steps:
        kind, a = step.kind, step.args
        if kind.startswith("assert"):
            fail(step, _assert_problem(engine, kind, a), assert_failures)
        elif kind == "approve" and a["node"] not in engine.nodes:
            fail(step, f"unknown node {shown_word(a['node'])}", tx_failures)
        else:
            results = apply_step(engine, kind, a)
            transactions += results
            if kind in _SUBMITS:
                fail(step, _tx_problem(step.expect, results[0].reason),
                     tx_failures)

    return ScenarioResult(ok=not failures, failures=failures,
                          assert_failures=assert_failures,
                          tx_failures=tx_failures,
                          transactions=transactions)
