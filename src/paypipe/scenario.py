"""Scenario files: scripted triggers and assertions against one pipeline.

A scenario is line oriented like the pipeline format. It names itself, then
lists actions in order:

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
from typing import Optional

from .engine import Engine, TxResult
from .errors import SpecSyntaxError, int_word, shown_word
from .ledger import MAX_AMOUNT
from .nodes import node_address
from .pipeline import syntax_error, token_lines

# steps that submit a transaction and may carry an expect-revert mark
_TX_STEPS = ("deposit", "instruct", "claim")


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


def _int_arg(line, i, what):
    value = int_word(line[2][i])
    if value is None:
        raise syntax_error(
            f"{what} must be an integer, got {shown_word(line[2][i])}", line, i)
    return value


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


def parse_scenario(text: str) -> Scenario:
    scenario: Optional[Scenario] = None
    pending: Optional[tuple[str, int]] = None  # (code|"any", line of expect)

    for line in token_lines(text):
        lineno, _, tokens = line
        head = tokens[0]

        if head == "scenario":
            if scenario is not None:
                raise syntax_error("duplicate scenario header", line, 0)
            if len(tokens) != 2:
                raise syntax_error("scenario takes a name", line, 0)
            scenario = Scenario(name=tokens[1])
            continue
        if scenario is None:
            raise syntax_error("expected a scenario header first", line, 0)

        if pending is not None and head not in _TX_STEPS:
            raise syntax_error(
                "expect revert must precede deposit, instruct, or claim",
                line, 0)

        if head == "expect":
            if len(tokens) < 2 or tokens[1] != "revert" or len(tokens) > 3:
                raise syntax_error("expect syntax: expect revert [CODE]",
                                   line, 0)
            pending = (tokens[2] if len(tokens) == 3 else "any", lineno)
        elif head == "approve":
            if len(tokens) != 4:
                raise syntax_error(
                    "approve syntax: approve ACCOUNT NODE AMOUNT", line, 0)
            amount = _int_arg(line, 3, "amount")
            if amount < 0:
                raise syntax_error("amount must be >= 0", line, 3)
            if amount > MAX_AMOUNT:
                raise syntax_error(f"amount must be <= {MAX_AMOUNT}", line, 3)
            scenario.steps.append(Step("approve", lineno, {
                "account": tokens[1], "node": tokens[2], "amount": amount}))
        elif head == "deposit":
            if len(tokens) < 3:
                raise syntax_error(
                    "deposit syntax: deposit ACCOUNT AMOUNT [k=v ...]",
                    line, 0)
            step = Step("deposit", lineno, {
                "account": tokens[1],
                "amount": _int_arg(line, 2, "amount"),
                "metadata": _metadata(line, 3)})
            scenario.steps.append(step)
        elif head == "advance":
            if len(tokens) != 2:
                raise syntax_error("advance takes a time delta", line, 0)
            delta = _int_arg(line, 1, "delta")
            if delta < 0:
                raise syntax_error("delta must be >= 0", line, 1)
            scenario.steps.append(Step("advance", lineno, {"delta": delta}))
        elif head == "instruct":
            if len(tokens) != 5:
                raise syntax_error(
                    "instruct syntax: instruct NODE ORACLE TAG AMOUNT",
                    line, 0)
            scenario.steps.append(Step("instruct", lineno, {
                "node": tokens[1], "oracle": tokens[2], "tag": tokens[3],
                "amount": _int_arg(line, 4, "amount")}))
        elif head == "claim":
            if len(tokens) != 3:
                raise syntax_error("claim syntax: claim NODE ACCOUNT", line, 0)
            scenario.steps.append(Step("claim", lineno, {
                "node": tokens[1], "account": tokens[2]}))
        elif head == "assert":
            scenario.steps.append(_parse_assert(line))
        else:
            raise syntax_error(f"unknown action {shown_word(head)}", line, 0)

        if pending is not None and head in _TX_STEPS:
            scenario.steps[-1].expect = pending[0]
            pending = None

    if scenario is None:
        raise SpecSyntaxError("missing scenario header", 1, 1)
    if pending is not None:
        raise SpecSyntaxError("expect revert with no following action",
                              pending[1], 1)
    return scenario


def _parse_assert(line) -> Step:
    lineno, _, tokens = line
    if len(tokens) < 2:
        raise syntax_error("assert takes a subject", line, 0)
    what = tokens[1]
    if what == "balance":
        if len(tokens) != 4:
            raise syntax_error("assert balance ACCOUNT AMOUNT", line, 0)
        return Step("assert_balance", lineno, {
            "account": tokens[2], "amount": _int_arg(line, 3, "amount")})
    if what == "held":
        if len(tokens) != 4:
            raise syntax_error("assert held NODE AMOUNT", line, 0)
        return Step("assert_held", lineno, {
            "node": tokens[2], "amount": _int_arg(line, 3, "amount")})
    if what == "claimable":
        if len(tokens) != 5:
            raise syntax_error("assert claimable NODE ACCOUNT AMOUNT", line, 0)
        return Step("assert_claimable", lineno, {
            "node": tokens[2], "account": tokens[3],
            "amount": _int_arg(line, 4, "amount")})
    if what == "events":
        if len(tokens) != 4:
            raise syntax_error("assert events KIND COUNT", line, 0)
        return Step("assert_events", lineno, {
            "kind": tokens[2], "count": _int_arg(line, 3, "count")})
    raise syntax_error(
        "assert subject must be balance, held, claimable, or events", line, 1)


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def run_scenario(engine: Engine, scenario: Scenario) -> ScenarioResult:
    """Execute every step, collecting failures instead of stopping early."""
    failures: list[str] = []
    assert_failures: list[str] = []
    tx_failures: list[str] = []
    transactions: list[TxResult] = []

    def fail(step, msg, bucket=assert_failures):
        line = f"line {step.line}: {msg}"
        failures.append(line)
        bucket.append(line)

    def check_tx(step: Step, result: TxResult):
        transactions.append(result)
        if step.expect is None:
            if not result.committed:
                fail(step, f"unexpected revert: {result.reason}", tx_failures)
        elif result.committed:
            fail(step, "expected a revert, transaction committed", tx_failures)
        elif step.expect != "any" and not result.reason.startswith(step.expect + ":"):
            fail(step, f"expected revert {step.expect}, got {result.reason}",
                 tx_failures)

    for step in scenario.steps:
        a = step.args
        if step.kind == "approve":
            node = engine.nodes.get(a["node"])
            if node is None:
                fail(step, f"unknown node {a['node']!r}", tx_failures)
                continue
            engine.ledger.approve(a["account"], node.address, a["amount"])
        elif step.kind == "deposit":
            check_tx(step, engine.submit_deposit(a["account"], a["amount"],
                                                 a["metadata"]))
        elif step.kind == "advance":
            transactions.extend(engine.advance_time(a["delta"]))
        elif step.kind == "instruct":
            check_tx(step, engine.submit_oracle_instruct(
                a["node"], a["oracle"], a["tag"], a["amount"]))
        elif step.kind == "claim":
            check_tx(step, engine.submit_claim(a["node"], a["account"]))
        elif step.kind == "assert_balance":
            actual = engine.ledger.balances.get(a["account"], 0)
            if actual != a["amount"]:
                fail(step, f"balance of {a['account']} is {actual}, "
                           f"expected {a['amount']}")
        elif step.kind == "assert_held":
            if a["node"] not in engine.nodes:
                fail(step, f"unknown node {a['node']!r}")
                continue
            actual = engine.ledger.balances.get(node_address(a["node"]), 0)
            if actual != a["amount"]:
                fail(step, f"{a['node']} holds {actual}, expected {a['amount']}")
        elif step.kind == "assert_claimable":
            node = engine.nodes.get(a["node"])
            if node is None:
                fail(step, f"unknown node {a['node']!r}")
                continue
            claimable = node.state.get("claimable")
            if claimable is None:
                fail(step, f"{a['node']} tracks nothing claimable")
                continue
            actual = claimable.get(a["account"], 0)
            if actual != a["amount"]:
                fail(step, f"claimable for {a['account']} at {a['node']} is "
                           f"{actual}, expected {a['amount']}")
        elif step.kind == "assert_events":
            actual = sum(1 for ev in engine.events if ev.kind == a["kind"])
            if actual != a["count"]:
                fail(step, f"{actual} {a['kind']} events, expected {a['count']}")

    return ScenarioResult(ok=not failures, failures=failures,
                          assert_failures=assert_failures,
                          tx_failures=tx_failures,
                          transactions=transactions)
