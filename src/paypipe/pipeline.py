"""Textual pipeline format: parse, validate, canonicalize, instantiate.

A pipeline file is line oriented. ``#`` starts a full-line comment, blank
lines separate blocks, and indentation is cosmetic. One ``pipeline NAME``
header comes first, followed by ``balance ACCOUNT AMOUNT`` lines and ``node
ID`` blocks whose field lines describe the node:

    pipeline payday

    balance acme 120000

    node origin
      kind originator
      out main -> split

    node split
      kind router
      template distributing
      out a -> pay-a
      out b -> pay-b
      config weight a 1
      config weight b 1
      on recoverable redirect safety

    node pay-a
      kind endpoint
      recipient alice

Parsing rejects malformed lines with a position; validation collects every
structural problem (duplicate ids, unknown targets, originator count, arity,
cycles, bad template config, unreachable nodes) instead of stopping at the
first. Serialization is canonical: parse, serialize, parse again yields the
same structure byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .engine import CostTable, Engine
from .errors import SpecSyntaxError, SpecValidationError
from .ledger import MAX_AMOUNT
from .nodes import (
    EndpointNode,
    ErrorSeverity,
    OriginatorNode,
    PolicyAction,
    RouterNode,
)
from .templates import TEMPLATES, make_template

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
_TOKEN_RE = re.compile(r"\S+")

_KINDS = ("originator", "router", "endpoint")
_MODES = ("direct", "claimable")
_ACTIONS = {a.value: a for a in PolicyAction}
_SEVERITIES = {s.label: s for s in ErrorSeverity}


@dataclass
class NodeSpec:
    id: str
    line: int = field(compare=False, default=0)
    kind: Optional[str] = None
    template: Optional[str] = None
    outputs: list = field(default_factory=list)  # [(tag, target_id)]
    config: dict = field(default_factory=dict)
    policy: dict = field(default_factory=dict)  # severity -> (action, target|None)
    mode: Optional[str] = None
    recipient: Optional[str] = None


@dataclass
class PipelineSpec:
    name: str
    balances: dict = field(default_factory=dict)  # account -> starting amount
    nodes: list = field(default_factory=list)


@dataclass(frozen=True)
class ValidationError:
    code: str
    node_id: str
    message: str

    def __str__(self):
        return f"{self.code} {self.node_id}: {self.message}"


def token_lines(text: str) -> Iterator[tuple[int, list[tuple[str, int]]]]:
    """The line reader of every text format: yields ``(lineno, [(token,
    col), ...])`` for each line that is neither blank nor a ``#`` comment.
    Tokens are whitespace separated; lines and columns count from 1."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(raw)]
        if tokens and not tokens[0][0].startswith("#"):
            yield lineno, tokens


def _check_name(token: str, what: str, line: int, col: int) -> str:
    if not _NAME_RE.match(token):
        raise SpecSyntaxError(f"bad {what} {token!r}", line, col)
    return token


def parse_pipeline(text: str) -> PipelineSpec:
    """Parse pipeline text; raises SpecSyntaxError with line and column."""
    spec: Optional[PipelineSpec] = None
    node: Optional[NodeSpec] = None
    out_tags: set[str] = set()  # output tags of the current node block

    for lineno, tokens in token_lines(text):
        head, hcol = tokens[0]

        if head == "pipeline":
            if spec is not None:
                raise SpecSyntaxError("duplicate pipeline header", lineno, hcol)
            if len(tokens) != 2:
                raise SpecSyntaxError("pipeline takes a name", lineno, hcol)
            name = _check_name(tokens[1][0], "pipeline name", lineno, tokens[1][1])
            spec = PipelineSpec(name=name)
            continue

        if spec is None:
            raise SpecSyntaxError("expected a pipeline header first", lineno, hcol)

        if head == "balance":
            node = None
            if len(tokens) != 3:
                raise SpecSyntaxError("balance takes an account and an amount",
                                      lineno, hcol)
            account = tokens[1][0]
            try:
                amount = int(tokens[2][0], 10)
            except ValueError:
                raise SpecSyntaxError(
                    f"balance amount must be an integer, got {tokens[2][0]!r}",
                    lineno, tokens[2][1]) from None
            if account in spec.balances:
                raise SpecSyntaxError(f"duplicate balance for {account!r}",
                                      lineno, tokens[1][1])
            spec.balances[account] = amount
            continue

        if head == "node":
            if len(tokens) != 2:
                raise SpecSyntaxError("node takes an id", lineno, hcol)
            nid = _check_name(tokens[1][0], "node id", lineno, tokens[1][1])
            node = NodeSpec(id=nid, line=lineno)
            out_tags = set()
            spec.nodes.append(node)
            continue

        # everything else is a field line of the current node block
        if node is None:
            raise SpecSyntaxError(f"{head!r} outside a node block", lineno, hcol)

        if head == "kind":
            if len(tokens) != 2 or tokens[1][0] not in _KINDS:
                raise SpecSyntaxError(
                    "kind must be originator, router, or endpoint", lineno, hcol)
            if node.kind is not None:
                raise SpecSyntaxError("duplicate kind", lineno, hcol)
            node.kind = tokens[1][0]
        elif head == "template":
            if len(tokens) != 2:
                raise SpecSyntaxError("template takes a name", lineno, hcol)
            tname, tcol = tokens[1]
            if tname not in TEMPLATES:
                raise SpecSyntaxError(f"unknown template {tname!r}", lineno, tcol)
            if node.template is not None:
                raise SpecSyntaxError("duplicate template", lineno, hcol)
            node.template = tname
            node.config = TEMPLATES[tname].empty_config()
        elif head == "out":
            if len(tokens) != 4 or tokens[2][0] != "->":
                raise SpecSyntaxError("out syntax: out TAG -> TARGET", lineno, hcol)
            tag = _check_name(tokens[1][0], "output tag", lineno, tokens[1][1])
            target = _check_name(tokens[3][0], "target id", lineno, tokens[3][1])
            if tag in out_tags:
                raise SpecSyntaxError(f"duplicate output tag {tag!r}", lineno,
                                      tokens[1][1])
            out_tags.add(tag)
            node.outputs.append((tag, target))
        elif head == "config":
            if len(tokens) < 2:
                raise SpecSyntaxError("config takes a key", lineno, hcol)
            if node.template is None:
                raise SpecSyntaxError(
                    "config requires a template declared first", lineno, hcol)
            try:
                TEMPLATES[node.template].parse_config_line(
                    node.config, [t for t, _ in tokens[1:]])
            except ValueError as err:
                raise SpecSyntaxError(str(err), lineno, tokens[1][1]) from None
        elif head == "on":
            if len(tokens) < 3:
                raise SpecSyntaxError(
                    "on syntax: on SEVERITY ACTION [TARGET]", lineno, hcol)
            sev_tok, sev_col = tokens[1]
            if sev_tok not in _SEVERITIES:
                raise SpecSyntaxError(
                    "severity must be warning, recoverable, or fatal",
                    lineno, sev_col)
            act_tok, act_col = tokens[2]
            if act_tok not in _ACTIONS:
                raise SpecSyntaxError(
                    "action must be proceed, hold, refund, or redirect",
                    lineno, act_col)
            severity = _SEVERITIES[sev_tok]
            action = _ACTIONS[act_tok]
            if action is PolicyAction.REDIRECT:
                if len(tokens) != 4:
                    raise SpecSyntaxError("redirect takes a target node",
                                          lineno, act_col)
                target = _check_name(tokens[3][0], "redirect target", lineno,
                                     tokens[3][1])
            else:
                if len(tokens) != 3:
                    raise SpecSyntaxError(f"{act_tok} takes no target", lineno,
                                          tokens[3][1])
                target = None
            if severity in node.policy:
                raise SpecSyntaxError(f"duplicate policy for {sev_tok}",
                                      lineno, sev_col)
            node.policy[severity] = (action, target)
        elif head == "mode":
            if len(tokens) != 2 or tokens[1][0] not in _MODES:
                raise SpecSyntaxError("mode must be direct or claimable",
                                      lineno, hcol)
            if node.mode is not None:
                raise SpecSyntaxError("duplicate mode", lineno, hcol)
            node.mode = tokens[1][0]
        elif head == "recipient":
            if len(tokens) != 2:
                raise SpecSyntaxError("recipient takes one account", lineno, hcol)
            if node.recipient is not None:
                raise SpecSyntaxError("duplicate recipient", lineno, hcol)
            node.recipient = tokens[1][0]
        else:
            raise SpecSyntaxError(f"unknown directive {head!r}", lineno, hcol)

    if spec is None:
        raise SpecSyntaxError("missing pipeline header", 1, 1)
    for node in spec.nodes:
        if node.kind == "endpoint" and node.mode is None:
            node.mode = "direct"  # parse-level default, keeps round-trips exact
    return spec


# -- validation ----------------------------------------------------------------


def _policy_targets(node: NodeSpec) -> list[str]:
    """Redirect targets in ascending severity order."""
    return [
        node.policy[sev][1]
        for sev in sorted(node.policy)
        if node.policy[sev][0] is PolicyAction.REDIRECT
    ]


def _neighbors(node: NodeSpec, known: set) -> list[str]:
    """Successors along declared outputs then redirect edges, declaration order."""
    targets = [target for _, target in node.outputs]
    targets += _policy_targets(node)
    return [target for target in dict.fromkeys(targets) if target in known]


def _find_cycle(successors: dict) -> Optional[tuple[str, str]]:
    """First back edge found by depth-first search, or None if acyclic;
    ``successors`` maps each node id to its ``_neighbors``."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {nid: WHITE for nid in successors}
    for root in successors:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        stack = [(root, iter(successors[root]))]
        while stack:
            nid, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[nid] = BLACK
                stack.pop()
                continue
            if color[nxt] == GRAY:
                return (nid, nxt)
            if color[nxt] == WHITE:
                color[nxt] = GRAY
                stack.append((nxt, iter(successors[nxt])))
    return None


def validate_pipeline(spec: PipelineSpec) -> list[ValidationError]:
    """Collect every validation problem; empty list means instantiable."""
    errors: list[ValidationError] = []
    err = lambda code, nid, msg: errors.append(ValidationError(code, nid, msg))

    # balances: each, and their sum, must fit the ledger's amount domain
    supply = 0
    for account, amount in spec.balances.items():
        if amount < 0:
            err("BadConfig", "-", f"balance for {account!r} must be >= 0")
        elif amount > MAX_AMOUNT:
            err("BadConfig", "-",
                f"balance for {account!r} must be <= {MAX_AMOUNT}")
        else:
            supply += amount
    if supply > MAX_AMOUNT:
        err("BadConfig", "-", f"balances sum to more than {MAX_AMOUNT}")

    # duplicate ids; later stages use the first occurrence of each id
    nodes: dict[str, NodeSpec] = {}
    for node in spec.nodes:
        if node.id in nodes:
            err("DuplicateId", node.id, "node id declared more than once")
        else:
            nodes[node.id] = node

    # unknown targets
    for node in nodes.values():
        for tag, target in node.outputs:
            if target not in nodes:
                err("UnknownTarget", node.id,
                    f"output {tag!r} targets unknown node {target!r}")
        for target in _policy_targets(node):
            if target not in nodes:
                err("UnknownTarget", node.id,
                    f"policy redirects to unknown node {target!r}")

    # exactly one originator
    originators = [n for n in nodes.values() if n.kind == "originator"]
    if len(originators) != 1:
        err("MultipleOriginators", "-",
            f"pipeline has {len(originators)} originators, needs exactly 1")

    # originators only feed the graph; nothing may feed them back
    originator_ids = {n.id for n in originators}
    for node in nodes.values():
        for tag, target in node.outputs:
            if target in originator_ids:
                err("ArityViolation", node.id,
                    f"output {tag!r} feeds originator {target!r}")

    # diverted funds must land somewhere terminal, not re-enter routing
    for node in nodes.values():
        for target in _policy_targets(node):
            tgt = nodes.get(target)
            if tgt is None:
                continue
            terminal = (tgt.kind == "endpoint"
                        or (tgt.kind == "router"
                            and tgt.template == "goalkeeper"))
            if not terminal:
                err("BadConfig", node.id,
                    f"redirect target {target!r} must be a goalkeeper "
                    "router or an endpoint")

    # per-kind structure and arity
    for node in nodes.values():
        if node.kind is None:
            err("BadConfig", node.id, "node must declare kind")
            continue
        if node.kind == "originator":
            if node.template is not None:
                err("BadConfig", node.id, "originators take no template")
            if node.mode is not None or node.recipient is not None:
                err("BadConfig", node.id,
                    "mode and recipient apply to endpoints only")
            if len(node.outputs) != 1:
                err("ArityViolation", node.id,
                    f"originator requires exactly 1 output, has {len(node.outputs)}")
        elif node.kind == "endpoint":
            if node.template is not None:
                err("BadConfig", node.id, "endpoints take no template")
            if node.outputs:
                err("ArityViolation", node.id,
                    f"endpoint takes no outputs, has {len(node.outputs)}")
            if node.recipient is None:
                err("BadConfig", node.id, "endpoint requires recipient")
        else:  # router
            if node.mode is not None or node.recipient is not None:
                err("BadConfig", node.id,
                    "mode and recipient apply to endpoints only")
            if node.template is None:
                err("BadConfig", node.id, "router requires a template")
            elif not node.outputs and node.template != "goalkeeper":
                err("ArityViolation", node.id,
                    "router requires at least 1 output")

    # cycles over declared and redirect edges
    known = set(nodes)
    successors = {nid: _neighbors(node, known) for nid, node in nodes.items()}
    back_edge = _find_cycle(successors)
    if back_edge is not None:
        frm, to = back_edge
        err("CycleDetected", frm, f"cycle via edge {frm} -> {to}")

    # template config
    for node in nodes.values():
        if node.kind == "router" and node.template is not None:
            for problem in TEMPLATES[node.template].validate(node.config,
                                                             node.outputs):
                err("BadConfig", node.id, problem)

    # reachability from the originator
    if len(originators) == 1:
        reached = {originators[0].id}
        frontier = [originators[0].id]
        while frontier:
            nid = frontier.pop()
            for nxt in successors[nid]:
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        for node in nodes.values():
            if node.id not in reached:
                err("UnreachableNode", node.id,
                    "no path from the originator reaches this node")

    return errors


# -- canonical form ----------------------------------------------------------


def serialize_pipeline(spec: PipelineSpec) -> str:
    """Canonical text: stable field order, sorted balances, two-space indent.

    Serializing, parsing, and serializing again is byte-stable.
    """
    out = [f"pipeline {spec.name}"]
    if spec.balances:
        out.append("")
        for account, amount in sorted(spec.balances.items()):
            out.append(f"balance {account} {amount}")
    for node in spec.nodes:
        out.append("")
        out.append(f"node {node.id}")
        if node.kind is not None:
            out.append(f"  kind {node.kind}")
        if node.template is not None:
            out.append(f"  template {node.template}")
        if node.recipient is not None:
            out.append(f"  recipient {node.recipient}")
        if node.mode is not None:
            out.append(f"  mode {node.mode}")
        for tag, target in node.outputs:
            out.append(f"  out {tag} -> {target}")
        if node.template is not None:
            for line in TEMPLATES[node.template].config_lines(node.config):
                out.append(f"  config {line}")
        for severity in sorted(node.policy):
            action, target = node.policy[severity]
            suffix = f" {target}" if target is not None else ""
            out.append(f"  on {severity.label} {action.value}{suffix}")
    return "\n".join(out) + "\n"


# -- instantiation -----------------------------------------------------------


def instantiate(spec: PipelineSpec,
                cost_table: Optional[CostTable] = None) -> Engine:
    """Build a ready engine from a valid pipeline.

    Raises SpecValidationError when validation finds problems.
    """
    problems = validate_pipeline(spec)
    if problems:
        raise SpecValidationError(problems)
    engine = Engine(cost_table=cost_table)
    for ns in spec.nodes:
        if ns.kind == "originator":
            node = OriginatorNode(ns.id, outputs=ns.outputs,
                                  error_policy=ns.policy)
            engine.set_entry(ns.id)
        elif ns.kind == "endpoint":
            node = EndpointNode(ns.id, recipient=ns.recipient,
                                mode=ns.mode or "direct",
                                error_policy=ns.policy)
        else:
            node = RouterNode(ns.id, make_template(ns.template, ns.config),
                              outputs=ns.outputs, error_policy=ns.policy)
        engine.add_node(node)
    engine.setup_balances(spec.balances)
    return engine
