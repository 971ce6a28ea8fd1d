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
cycles, a path longer than ``MAX_HOPS``, bad template config, unreachable
nodes) instead of stopping at the first. Serialization is canonical: parse,
serialize, parse again yields the same structure byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .engine import CostTable, Engine
from .errors import SpecSyntaxError, SpecValidationError, int_word, shown_word
from .ledger import MAX_AMOUNT
from .nodes import (
    EndpointNode,
    ErrorSeverity,
    OriginatorNode,
    PolicyAction,
    RouterNode,
)
from .templates import TEMPLATES

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# A line of text as ``token_lines`` yields it: (lineno, raw text, words).
_Line = tuple[int, str, list[str]]

# The most hops any stream path may take. Each hop nests three Python
# frames, so a trigger at the limit stays inside the default recursion
# limit of 1,000 from 200 frames deep. Cranks, claims and instructions
# start mid-graph, so the longest path from any node bounds them all.
MAX_HOPS = 128

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


def token_lines(text: str) -> Iterator[_Line]:
    """The line reader of every text format: yields ``(lineno, raw,
    words)`` for each line that is neither blank nor a ``#`` comment. Lines
    end at ``\\n``, ``\\r\\n`` or ``\\r`` and count from 1; words are
    split at whitespace as by ``str.split()``. ``column`` finds a word's
    column."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), 1):
        words = raw.split()
        if words and words[0][0] != "#":
            yield lineno, raw, words


def column(line: _Line, i: int) -> int:
    """The column of word ``i`` of a ``token_lines`` line, counting
    characters from 1 (a tab counts as one). Each word is searched for from
    the end of the one before it, so a repeated word is found at its own
    position."""
    _, raw, words = line
    pos = 0
    for word in words[:i]:
        pos = raw.find(word, pos) + len(word)
    return raw.find(words[i], pos) + 1


def syntax_error(message: str, line: _Line, i: int) -> SpecSyntaxError:
    """A syntax error at word ``i`` of a ``token_lines`` line."""
    return SpecSyntaxError(message, line[0], column(line, i))


def _check_name(what: str, line: _Line, i: int) -> str:
    token = line[2][i]
    if not _NAME_RE.match(token):
        raise syntax_error(f"bad {what} {shown_word(token)}", line, i)
    return token


def parse_pipeline(text: str) -> PipelineSpec:
    """Parse pipeline text; raises SpecSyntaxError with line and column."""
    spec: Optional[PipelineSpec] = None
    node: Optional[NodeSpec] = None
    out_tags: set[str] = set()  # output tags of the current node block

    for line in token_lines(text):
        tokens = line[2]
        head = tokens[0]

        if head == "pipeline":
            if spec is not None:
                raise syntax_error("duplicate pipeline header", line, 0)
            if len(tokens) != 2:
                raise syntax_error("pipeline takes a name", line, 0)
            spec = PipelineSpec(name=_check_name("pipeline name", line, 1))
            continue

        if spec is None:
            raise syntax_error("expected a pipeline header first", line, 0)

        if head == "balance":
            node = None
            if len(tokens) != 3:
                raise syntax_error("balance takes an account and an amount",
                                   line, 0)
            account, amount = tokens[1], int_word(tokens[2])
            if amount is None:
                raise syntax_error(
                    "balance amount must be an integer, "
                    f"got {shown_word(tokens[2])}", line, 2)
            if account in spec.balances:
                raise syntax_error(
                    f"duplicate balance for {shown_word(account)}", line, 1)
            spec.balances[account] = amount
            continue

        if head == "node":
            if len(tokens) != 2:
                raise syntax_error("node takes an id", line, 0)
            node = NodeSpec(id=_check_name("node id", line, 1), line=line[0])
            out_tags = set()
            spec.nodes.append(node)
            continue

        # everything else is a field line of the current node block
        if node is None:
            raise syntax_error(f"{shown_word(head)} outside a node block", line, 0)

        if head == "kind":
            if len(tokens) != 2 or tokens[1] not in _KINDS:
                raise syntax_error(
                    "kind must be originator, router, or endpoint", line, 0)
            if node.kind is not None:
                raise syntax_error("duplicate kind", line, 0)
            node.kind = tokens[1]
        elif head == "template":
            if len(tokens) != 2:
                raise syntax_error("template takes a name", line, 0)
            tname = tokens[1]
            if tname not in TEMPLATES:
                raise syntax_error(f"unknown template {shown_word(tname)}", line, 1)
            if node.template is not None:
                raise syntax_error("duplicate template", line, 0)
            node.template = tname
            node.config = TEMPLATES[tname].empty_config()
        elif head == "out":
            if len(tokens) != 4 or tokens[2] != "->":
                raise syntax_error("out syntax: out TAG -> TARGET", line, 0)
            tag = _check_name("output tag", line, 1)
            target = _check_name("target id", line, 3)
            if tag in out_tags:
                raise syntax_error(
                    f"duplicate output tag {shown_word(tag)}", line, 1)
            out_tags.add(tag)
            node.outputs.append((tag, target))
        elif head == "config":
            if len(tokens) < 2:
                raise syntax_error("config takes a key", line, 0)
            if node.template is None:
                raise syntax_error(
                    "config requires a template declared first", line, 0)
            try:
                TEMPLATES[node.template].parse_config_line(node.config,
                                                           tokens[1:])
            except ValueError as err:
                raise syntax_error(str(err), line, 1) from None
        elif head == "on":
            if len(tokens) < 3:
                raise syntax_error(
                    "on syntax: on SEVERITY ACTION [TARGET]", line, 0)
            sev_tok, act_tok = tokens[1], tokens[2]
            if sev_tok not in _SEVERITIES:
                raise syntax_error(
                    "severity must be warning, recoverable, or fatal", line, 1)
            if act_tok not in _ACTIONS:
                raise syntax_error(
                    "action must be proceed, hold, refund, or redirect",
                    line, 2)
            severity = _SEVERITIES[sev_tok]
            action = _ACTIONS[act_tok]
            if action is PolicyAction.REDIRECT:
                if len(tokens) != 4:
                    raise syntax_error("redirect takes a target node", line, 2)
                target = _check_name("redirect target", line, 3)
            else:
                if len(tokens) != 3:
                    raise syntax_error(f"{act_tok} takes no target", line, 3)
                target = None
            if severity in node.policy:
                raise syntax_error(f"duplicate policy for {sev_tok}", line, 1)
            node.policy[severity] = (action, target)
        elif head == "mode":
            if len(tokens) != 2 or tokens[1] not in _MODES:
                raise syntax_error("mode must be direct or claimable", line, 0)
            if node.mode is not None:
                raise syntax_error("duplicate mode", line, 0)
            node.mode = tokens[1]
        elif head == "recipient":
            if len(tokens) != 2:
                raise syntax_error("recipient takes one account", line, 0)
            if node.recipient is not None:
                raise syntax_error("duplicate recipient", line, 0)
            node.recipient = tokens[1]
        else:
            raise syntax_error(f"unknown directive {shown_word(head)}", line, 0)

    if spec is None:
        raise SpecSyntaxError("missing pipeline header", 1, 1)
    for node in spec.nodes:
        if node.kind == "endpoint" and node.mode is None:
            node.mode = "direct"  # parse-level default, keeps round-trips exact
    return spec


# -- validation ----------------------------------------------------------------


def _policy_targets(node: NodeSpec) -> list[str]:
    """Redirect targets in ascending severity order."""
    policy = node.policy
    if not policy:
        return []
    return [policy[sev][1] for sev in sorted(policy)
            if policy[sev][0] is PolicyAction.REDIRECT]


def _cycle_and_depth(successors: dict) -> tuple[Optional[tuple], int, str]:
    """Depth-first search over ``successors``, which maps each node id to the
    ids its edges lead to: the first back edge found, or None if the graph
    is acyclic, and then the hops of its longest path and the node that path
    starts from."""
    GRAY = -1  # on the stack; a finished node maps to its longest path
    hops: dict[str, int] = {}
    deepest, start = 0, ""
    for root in successors:
        if root in hops:
            continue
        hops[root] = GRAY
        stack = [(root, iter(successors[root]))]
        while stack:
            nid, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                longest = 0  # every successor is finished
                for succ in successors[nid]:
                    if hops[succ] >= longest:
                        longest = hops[succ] + 1
                hops[nid] = longest
                if longest > deepest:
                    deepest, start = longest, nid
                stack.pop()
                continue
            seen = hops.get(nxt)
            if seen == GRAY:
                return (nid, nxt), 0, ""
            if seen is None:
                hops[nxt] = GRAY
                stack.append((nxt, iter(successors[nxt])))
    return None, deepest, start


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
    redirects = {nid: _policy_targets(node) for nid, node in nodes.items()}

    # unknown targets
    for node in nodes.values():
        for tag, target in node.outputs:
            if target not in nodes:
                err("UnknownTarget", node.id,
                    f"output {tag!r} targets unknown node {target!r}")
        for target in redirects[node.id]:
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
        for target in redirects[node.id]:
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

    # cycles over declared and redirect edges, outputs first; a target an
    # output names twice is met twice, which neither walk below minds
    successors = {}
    for nid, node in nodes.items():
        targets = [target for _, target in node.outputs]
        if redirects[nid]:
            targets = list(dict.fromkeys(targets + redirects[nid]))
        successors[nid] = [target for target in targets if target in nodes]
    back_edge, hops, start = _cycle_and_depth(successors)
    if back_edge is not None:
        frm, to = back_edge
        err("CycleDetected", frm, f"cycle via edge {frm} -> {to}")
    elif hops > MAX_HOPS:
        err("DepthExceeded", start,
            f"a path of {hops} hops starts here, over the limit of {MAX_HOPS}")

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
            node = RouterNode(ns.id, TEMPLATES[ns.template](ns.config),
                              outputs=ns.outputs, error_policy=ns.policy)
        engine.add_node(node)
    engine.setup_balances(spec.balances)
    return engine
