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

``headed`` reads the header of this format and of scenarios alike, and
each ``config`` line goes to its template's single config-line parser.
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

from .engine import MAX_HOPS, CostTable, Engine
from .errors import SpecSyntaxError, SpecValidationError, int_word, shown_word
from .ledger import MAX_AMOUNT
from .nodes import (
    EndpointNode,
    ErrorSeverity,
    OriginatorNode,
    PolicyAction,
    redirect_targets,
)
from .templates import TEMPLATES

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# A line of text as ``token_lines`` yields it: (lineno, raw text, words).
_Line = tuple[int, str, list[str]]

# node fields of one word: the message for a wrong line, the words allowed
_FIELDS = {"kind": ("kind must be originator, router, or endpoint",
                    ("originator", "router", "endpoint")),
           "mode": ("mode must be direct or claimable", ("direct", "claimable")),
           "recipient": ("recipient takes one account", None)}
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


def headed(text: str, word: str) -> tuple[_Line, Iterator[_Line]]:
    """The ``WORD NAME`` header line of ``text`` and a reader of the lines
    after it; raises the header errors of every format but a duplicate."""
    lines = token_lines(text)
    line = next(lines, None)
    if line is None:
        raise SpecSyntaxError(f"missing {word} header", 1, 1)
    if line[2][0] != word:
        raise syntax_error(f"expected a {word} header first", line, 0)
    if len(line[2]) != 2:
        raise syntax_error(f"{word} takes a name", line, 0)
    return line, lines


def parse_pipeline(text: str) -> PipelineSpec:
    """Parse pipeline text; raises SpecSyntaxError with line and column."""
    header, lines = headed(text, "pipeline")
    spec = PipelineSpec(name=_check_name("pipeline name", header, 1))
    node: Optional[NodeSpec] = None
    out_tags: set[str] = set()  # output tags of the current node block

    for line in lines:
        tokens = line[2]
        head = tokens[0]

        if node is None and head not in ("node", "balance", "pipeline"):
            raise syntax_error(f"{shown_word(head)} outside a node block",
                               line, 0)
        # most lines are field lines, so those come first
        if head in _FIELDS:
            message, allowed = _FIELDS[head]
            if len(tokens) != 2 or allowed and tokens[1] not in allowed:
                raise syntax_error(message, line, 0)
            if getattr(node, head) is not None:
                raise syntax_error(f"duplicate {head}", line, 0)
            setattr(node, head, tokens[1])
        elif head == "out":
            if len(tokens) != 4 or tokens[2] != "->":
                raise syntax_error("out syntax: out TAG -> TARGET", line, 0)
            tag, target = tokens[1], tokens[3]
            if not (_NAME_RE.match(tag) and _NAME_RE.match(target)):
                _check_name("output tag", line, 1)
                _check_name("target id", line, 3)
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
        elif head == "node":
            if len(tokens) != 2:
                raise syntax_error("node takes an id", line, 0)
            node = NodeSpec(id=_check_name("node id", line, 1), line=line[0])
            out_tags = set()
            spec.nodes.append(node)
        elif head == "balance":
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
        elif head == "pipeline":
            raise syntax_error("duplicate pipeline header", line, 0)
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
        else:
            raise syntax_error(f"unknown directive {shown_word(head)}", line, 0)

    for node in spec.nodes:
        if node.kind == "endpoint" and node.mode is None:
            node.mode = "direct"  # parse-level default, keeps round-trips exact
    return spec


# -- validation ----------------------------------------------------------------


def _cycle_and_depth(successors: dict) -> tuple[Optional[tuple], int, str]:
    """Depth-first search over ``successors``, which maps each node id to the
    ids its edges lead to: the first back edge found, or None if the graph
    is acyclic, and then the hops of its longest path and the node that path
    starts from: the first node to finish with a strictly longer path."""
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
            for nxt in it:
                seen = hops.get(nxt)
                if seen is None:
                    if successors[nxt]:
                        hops[nxt] = GRAY
                        stack.append((nxt, iter(successors[nxt])))
                        break
                    hops[nxt] = 0  # a leaf finishes where the walk meets it
                elif seen == GRAY:
                    return (nid, nxt), 0, ""
            else:
                longest = 0  # every successor is finished
                for succ in successors[nid]:
                    if hops[succ] >= longest:
                        longest = hops[succ] + 1
                hops[nid] = longest
                if longest > deepest:
                    deepest, start = longest, nid
                stack.pop()
    return None, deepest, start


def validate_pipeline(spec: PipelineSpec) -> list[ValidationError]:
    """Collect every validation problem; empty list means instantiable.

    Problems come check by check, in this order: each balance, then their
    sum; duplicate ids; unknown targets (a node's outputs, then its
    redirects); the originator count; outputs that feed an originator;
    redirect targets that are not terminal; per-kind structure and arity; a
    cycle or an over-long path; template config; unreachable nodes. Within
    a check, nodes come in declaration order, and only the first node of a
    duplicate id is checked. ``CycleDetected`` names the first back edge
    of a depth-first search that tries nodes in declaration order and
    edges outputs first; ``DepthExceeded`` names the first node that search
    finishes with the longest path.
    """
    # one list of (code, node id, message) per check, joined in that order
    balances, dups, unknown, count, feeds, diverts, shapes, graph, configs, \
        unreached = checks = [[] for _ in range(10)]

    # balances: each, and their sum, must fit the ledger's amount domain
    supply = 0
    for account, amount in spec.balances.items():
        if amount < 0:
            balances.append(("BadConfig", "-",
                             f"balance for {account!r} must be >= 0"))
        elif amount > MAX_AMOUNT:
            balances.append(("BadConfig", "-",
                             f"balance for {account!r} must be <= {MAX_AMOUNT}"))
        else:
            supply += amount
    if supply > MAX_AMOUNT:
        balances.append(("BadConfig", "-",
                         f"balances sum to more than {MAX_AMOUNT}"))

    # duplicate ids; later checks use the first occurrence of each id
    nodes: dict[str, NodeSpec] = {}
    originators = []
    for node in spec.nodes:
        if node.id in nodes:
            dups.append(("DuplicateId", node.id,
                         "node id declared more than once"))
        else:
            nodes[node.id] = node
            if node.kind == "originator":
                originators.append(node.id)
    if len(originators) != 1:
        count.append(("MultipleOriginators", "-", f"pipeline has "
                      f"{len(originators)} originators, needs exactly 1"))
    originator_ids = set(originators)

    # The successors are the declared and redirect edges, outputs first; a
    # target an output names twice is met twice, which neither walk below
    # minds; the longest path from any node counts, as cranks start
    # mid-graph.
    successors = {}
    for nid, node in nodes.items():
        outputs = node.outputs
        targets = []
        for tag, target in outputs:
            if target not in nodes:
                unknown.append(("UnknownTarget", nid, f"output {tag!r} "
                                f"targets unknown node {target!r}"))
                continue
            targets.append(target)
            if target in originator_ids:  # nothing may feed them back
                feeds.append(("ArityViolation", nid,
                              f"output {tag!r} feeds originator {target!r}"))
        if node.policy:
            redirects = []
            for target in redirect_targets(node.policy):
                tgt = nodes.get(target)
                if tgt is None:
                    unknown.append(("UnknownTarget", nid, "policy redirects "
                                    f"to unknown node {target!r}"))
                    continue
                redirects.append(target)
                # diverted funds must land somewhere terminal
                if tgt.kind != "endpoint" and (tgt.kind != "router"
                                               or tgt.template != "goalkeeper"):
                    diverts.append(("BadConfig", nid, f"redirect target "
                                    f"{target!r} must be a goalkeeper router "
                                    "or an endpoint"))
            if redirects:
                targets = list(dict.fromkeys(targets + redirects))
        successors[nid] = targets

        # per-kind structure and arity, and a router's template config
        kind = node.kind
        if kind is None:
            shapes.append(("BadConfig", nid, "node must declare kind"))
        elif kind == "originator":
            if node.template is not None:
                shapes.append(("BadConfig", nid, "originators take no template"))
            if node.mode is not None or node.recipient is not None:
                shapes.append(("BadConfig", nid,
                               "mode and recipient apply to endpoints only"))
            if len(outputs) != 1:
                shapes.append(("ArityViolation", nid, "originator requires "
                               f"exactly 1 output, has {len(outputs)}"))
        elif kind == "endpoint":
            if node.template is not None:
                shapes.append(("BadConfig", nid, "endpoints take no template"))
            if outputs:
                shapes.append(("ArityViolation", nid,
                               f"endpoint takes no outputs, has {len(outputs)}"))
            if node.recipient is None:
                shapes.append(("BadConfig", nid, "endpoint requires recipient"))
        else:  # router
            if node.mode is not None or node.recipient is not None:
                shapes.append(("BadConfig", nid,
                               "mode and recipient apply to endpoints only"))
            if node.template is None:
                shapes.append(("BadConfig", nid, "router requires a template"))
            elif kind == "router":
                for problem in TEMPLATES[node.template].validate(node.config,
                                                                 outputs):
                    configs.append(("BadConfig", nid, problem))

    back_edge, hops, start = _cycle_and_depth(successors)
    if back_edge is not None:
        frm, to = back_edge
        graph.append(("CycleDetected", frm, f"cycle via edge {frm} -> {to}"))
    elif hops > MAX_HOPS:
        graph.append(("DepthExceeded", start, f"a path of {hops} hops starts "
                      f"here, over the limit of {MAX_HOPS}"))

    # reachability from the originator
    if len(originators) == 1:
        reached = {originators[0]}
        frontier = [originators[0]]
        while frontier:
            nid = frontier.pop()
            for nxt in successors[nid]:
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        for nid in nodes:
            if nid not in reached:
                unreached.append(("UnreachableNode", nid,
                                  "no path from the originator reaches this node"))

    return [ValidationError(*problem) for check in checks for problem in check]


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
            engine.entry = ns.id
        elif ns.kind == "endpoint":
            node = EndpointNode(ns.id, recipient=ns.recipient,
                                mode=ns.mode or "direct",
                                error_policy=ns.policy)
        else:
            node = TEMPLATES[ns.template](ns.id, ns.config, outputs=ns.outputs,
                                          error_policy=ns.policy)
        engine.add_node(node)
    for account, amount in spec.balances.items():
        engine.ledger.mint(account, amount)
    return engine
