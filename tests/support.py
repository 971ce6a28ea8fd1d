"""Shared test helpers: independent oracles, random fixture generators and a
scenario writer.

Everything here is deliberately naive. Oracles recompute expected results
with the dumbest correct algorithm available (dict bookkeeping, Kahn's
algorithm, unit-by-unit greedy fill) so they share no code with the
implementations they check.
"""

from __future__ import annotations

import copy
import hashlib
import random
import re

from paypipe.bench import build_pipeline_text
from paypipe.errors import SpecSyntaxError
from paypipe.pipeline import (NodeSpec, PipelineSpec, instantiate,
                              parse_pipeline, serialize_pipeline,
                              validate_pipeline)
from paypipe.scenario import STEPS, apply_step, parse_scenario, run_scenario

# -- naive ledger oracle -------------------------------------------------------


class NaiveLedger:
    """Dict bookkeeping with the same preconditions as TokenLedger.

    Mutating calls return None on success or the expected error name, and
    never mutate on failure.
    """

    def __init__(self):
        self.balances = {}
        self.allowances = {}
        self.supply = 0

    def mint(self, to, amount):
        self.balances[to] = self.balances.get(to, 0) + amount
        self.supply += amount
        return None

    def transfer(self, frm, to, amount):
        if self.balances.get(frm, 0) < amount:
            return "InsufficientBalance"
        self.balances[frm] = self.balances.get(frm, 0) - amount
        self.balances[to] = self.balances.get(to, 0) + amount
        return None

    def approve(self, owner, spender, amount):
        self.allowances[(owner, spender)] = amount
        return None

    def transfer_from(self, spender, owner, to, amount):
        if self.allowances.get((owner, spender), 0) < amount:
            return "InsufficientAllowance"
        if self.balances.get(owner, 0) < amount:
            return "InsufficientBalance"
        self.allowances[(owner, spender)] = \
            self.allowances.get((owner, spender), 0) - amount
        self.balances[owner] = self.balances.get(owner, 0) - amount
        self.balances[to] = self.balances.get(to, 0) + amount
        return None


# -- export oracle ---------------------------------------------------------------


def _reference_esc(value) -> str:
    text = str(value)
    return (
        text.replace("%", "%25")
        .replace(" ", "%20")
        .replace("=", "%3D")
        .replace("\n", "%0A")
    )


def reference_trace_text(events) -> str:
    """The ``--trace`` text of ``events``, by the documented rule one field
    at a time: tx, seq, the escaped emitter, the escaped kind, then each
    payload key in sorted order with key and value escaped; one line per
    event, each ending in a newline."""
    lines = []
    for tx_id, seq, emitter, kind, payload in events:
        parts = [f"tx={tx_id} seq={seq} emitter={_reference_esc(emitter)} "
                 f"kind={_reference_esc(kind)}"]
        for key in sorted(payload):
            parts.append(f"{_reference_esc(key)}={_reference_esc(payload[key])}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


# -- line reader oracle --------------------------------------------------------

_REFERENCE_LINE_END = re.compile(r"\r\n|\r|\n")
_REFERENCE_WORD = re.compile(r"\S+")


def reference_token_lines(text: str) -> list:
    """The documented reader of the text formats, by regular expressions:
    lines end at ``\\n``, ``\\r\\n`` or ``\\r``; words are runs of
    non-whitespace; a line whose first word starts with ``#`` is a comment.
    Returns ``[(lineno, [(word, column), ...])]`` for every line with a word
    that is not a comment, lines and columns counting from 1."""
    out = []
    for lineno, raw in enumerate(_REFERENCE_LINE_END.split(text), 1):
        words = [(m.group(), m.start() + 1)
                 for m in _REFERENCE_WORD.finditer(raw)]
        if words and not words[0][0].startswith("#"):
            out.append((lineno, words))
    return out


# -- due-release oracle ----------------------------------------------------------


def reference_due_releases(released, start, period, now):
    """``(due, k)`` of every pending release whose due time
    ``start + k * period`` has come by ``now``, checking every flag."""
    return [
        (start + k * period, k)
        for k, done in enumerate(released)
        if not done and start + k * period <= now
    ]


def schedule_of_flags(released):
    """The ``next`` and ``holes`` fields of a schedule whose releases are
    executed where ``released`` is true: ``next`` is one past the last
    executed release, and the holes are the pending releases below it."""
    first = max((k + 1 for k, done in enumerate(released) if done), default=0)
    return {"next": first, "holes": [k for k in range(first) if not released[k]]}


def schedule_fields(state):
    """The schedule fields of a node state, to compare with
    ``schedule_of_flags``."""
    return {"next": state["next"], "holes": state["holes"]}


# -- graph oracles -------------------------------------------------------------


def kahn_cyclic(node_ids, edges) -> bool:
    """True when the directed graph has a cycle (Kahn's algorithm)."""
    indeg = {nid: 0 for nid in node_ids}
    succ = {nid: [] for nid in node_ids}
    for frm, to in edges:
        succ[frm].append(to)
        indeg[to] += 1
    queue = [nid for nid, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        nid = queue.pop()
        seen += 1
        for nxt in succ[nid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return seen != len(node_ids)


class _BackEdge(Exception):
    pass


def reference_cycle_and_depth(successors: dict):
    """What ``pipeline._cycle_and_depth`` returns, by recursion.

    A depth-first search starts at each unvisited node in dict order and
    follows successors in list order. The first edge that reaches a node
    still on the path is the back edge, returned as ``((frm, to), 0, "")``.
    Otherwise every node finishes with its longest path in hops, and the
    result is ``(None, deepest, start)``: ``start`` is the first node, in
    finish order, whose path is strictly longer than every node's finished
    before it ("" and 0 when no path has an edge).
    """
    on_path, hops, finished = set(), {}, []

    def visit(nid):
        on_path.add(nid)
        longest = 0
        for nxt in successors[nid]:
            if nxt in on_path:
                raise _BackEdge((nid, nxt))
            if nxt not in hops:
                visit(nxt)
            longest = max(longest, hops[nxt] + 1)
        on_path.remove(nid)
        hops[nid] = longest
        finished.append(nid)

    try:
        for root in successors:
            if root not in hops:
                visit(root)
    except _BackEdge as back:
        return back.args[0], 0, ""
    deepest, start = 0, ""
    for nid in finished:
        if hops[nid] > deepest:
            deepest, start = hops[nid], nid
    return None, deepest, start


def random_successors(rng: random.Random, max_nodes: int = 12) -> dict:
    """A random successor map in a shuffled key order. Half are acyclic,
    with edges only down a random ranking, so that paths of equal length
    tie; the rest may hold any edge, self-loops too. Either kind may list
    a successor twice."""
    ids = [f"n{i}" for i in range(rng.randint(1, max_nodes))]
    rng.shuffle(ids)
    acyclic = rng.random() < 0.5
    successors = {}
    for rank, nid in enumerate(ids):
        pool = ids[rank + 1:] if acyclic else ids
        degree = rng.choice((0, 0, 1, 1, 2, 3, 4)) if pool else 0
        successors[nid] = [rng.choice(pool) for _ in range(degree)]
    keys = list(successors)
    rng.shuffle(keys)
    return {nid: successors[nid] for nid in keys}


def reachable_from(start, node_ids, edges) -> set:
    succ = {nid: [] for nid in node_ids}
    for frm, to in edges:
        succ[frm].append(to)
    seen = {start}
    frontier = [start]
    while frontier:
        nid = frontier.pop()
        for nxt in succ[nid]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# -- greedy fill oracle ----------------------------------------------------------


def waterfall_units(caps, filled, amount):
    """Allocate one unit at a time: each goes to the first tier with room.

    caps uses None for an uncapped tier. Returns (per-tier fills, surplus).
    """
    fills = [0] * len(caps)
    level = list(filled)
    surplus = 0
    for _ in range(amount):
        for i, cap in enumerate(caps):
            if cap is None or level[i] < cap:
                level[i] += 1
                fills[i] += 1
                break
        else:
            surplus += 1
    return fills, surplus


# -- random structural graphs (shape-level validation) ---------------------------


def random_graph_spec(rng: random.Random, max_nodes: int = 12):
    """Random directed graph dressed up as an arity-correct PipelineSpec.

    Node kinds are assigned from out-degree so the only possible validation
    failure is a cycle. Unreachable nodes are pruned with an independent
    BFS. Returns (spec, edges) with edges as (from, to) pairs.
    """
    n = rng.randint(2, max_nodes)
    ids = [f"n{i}" for i in range(n)]
    edges = []
    for i, nid in enumerate(ids):
        if i == 0:
            degree = 1
        else:
            degree = rng.choice((0, 0, 1, 1, 1, 2, 3))
        targets = set()
        for _ in range(degree):
            to = rng.randrange(1, n)  # nothing feeds the entry node
            targets.add(ids[to])
        for to in sorted(targets):
            edges.append((nid, to))

    keep = reachable_from(ids[0], ids, edges)
    ids = [nid for nid in ids if nid in keep]
    edges = [(a, b) for a, b in edges if a in keep]

    out = {nid: [] for nid in ids}
    for frm, to in edges:
        out[frm].append(to)

    nodes = []
    for i, nid in enumerate(ids):
        targets = out[nid]
        outputs = [(f"t{j}", to) for j, to in enumerate(targets)]
        if i == 0:
            nodes.append(NodeSpec(id=nid, kind="originator", outputs=outputs))
        elif not targets:
            if rng.random() < 0.5:
                nodes.append(NodeSpec(id=nid, kind="endpoint",
                                      recipient=f"user-{i}", mode="direct"))
            else:
                nodes.append(NodeSpec(id=nid, kind="router",
                                      template="goalkeeper",
                                      config={"mode": "refund"}))
        elif len(targets) == 1:
            nodes.append(NodeSpec(id=nid, kind="router", template="reporting",
                                  outputs=outputs,
                                  config={"sink": "audit", "keys": []}))
        else:
            shares = [("weight", tag, 1) for tag, _ in outputs]
            nodes.append(NodeSpec(id=nid, kind="router", template="distributing",
                                  outputs=outputs,
                                  config={"shares": shares,
                                          "allow_single": False}))
    return PipelineSpec(name="random-graph", nodes=nodes), edges


# -- mangled text (parser totality) ----------------------------------------------

MANGLE_JUNK = " \t\n->pipelinenodeconfigout#=%\"0123456789abcxyz"


def mangled_text(rng: random.Random, corpus, junk=MANGLE_JUNK) -> str:
    """One text of ``corpus`` with 1-12 characters replaced by, or with
    inserted, ``junk`` characters, or deleted."""
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
    return "".join(base)


def validate_golden_text(corpus) -> str:
    """``case N`` (the Nth mangled text of ``corpus`` tried, seed 35) and
    the ``str`` of each of its problems, for the first 400 texts that
    parse: the text of ``tests/golden/validate.out``."""
    rng = random.Random(35)
    out, cases, tried = [], 0, 0
    while cases < 400:
        tried += 1
        try:
            spec = parse_pipeline(mangled_text(rng, corpus))
        except SpecSyntaxError:
            continue
        cases += 1
        out.append(f"case {tried}")
        out.extend(str(problem) for problem in validate_pipeline(spec))
    return "\n".join(out) + "\n"


# -- random runnable pipelines (behaviour-level fuzzing) --------------------------

USERS = ("ua", "ub", "uc")
DEPOSITOR = "funder"
META_KEY = "score"


def random_pipeline_text(rng: random.Random, max_nodes: int = 10):
    """A random valid pipeline plus the facts needed to drive it.

    Returns (text, info). info keys: oracles [(node, account, [tags])],
    claimables [(node, recipient)], horizon (latest timelock due time).
    """
    info = {"oracles": [], "claimables": [], "horizon": 0}
    blocks = []
    endpoints = []
    counter = 0
    # nodes beyond the originator; a forced terminal may overrun by one,
    # so draw two under the cap to keep the total at or below max_nodes
    budget = rng.randint(2, max_nodes - 2)

    def fresh(prefix):
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    def room():
        return budget - counter

    def make_endpoint():
        eid = fresh("e")
        recipient = rng.choice(USERS)
        lines = [f"node {eid}", "  kind endpoint", f"  recipient {recipient}"]
        if rng.random() < 0.4:
            lines.append("  mode claimable")
            info["claimables"].append((eid, recipient))
        blocks.append("\n".join(lines))
        endpoints.append(eid)
        return eid

    def make_target(depth):
        exhausted = room() <= 1 or depth >= 3
        if exhausted or rng.random() < 0.4:
            if endpoints and (room() < 1 or rng.random() < 0.5):
                return rng.choice(endpoints)
            return make_endpoint()
        return make_router(depth)

    def make_router(depth):
        rid = fresh("r")
        choices = ["reporting", "threshold", "timelock", "conditional"]
        if room() >= 2:
            choices += ["distributing", "waterfall", "oracle"]
        tmpl = rng.choice(choices)
        lines = [f"node {rid}", "  kind router", f"  template {tmpl}"]

        if tmpl == "reporting":
            lines.append(f"  out main -> {make_target(depth + 1)}")
            lines.append("  config sink audit")
            if rng.random() < 0.5:
                lines.append(f"  config keys {META_KEY}")
        elif tmpl == "threshold":
            lines.append(f"  out main -> {make_target(depth + 1)}")
            lines.append(f"  config limit {rng.randint(1, 400)}")
        elif tmpl == "timelock":
            start = rng.randint(0, 10)
            period = rng.randint(1, 10)
            releases = rng.randint(1, 3)
            lines.append(f"  out main -> {make_target(depth + 1)}")
            lines += [f"  config start {start}", f"  config period {period}",
                      f"  config releases {releases}"]
            if rng.random() < 0.5:
                lines.append(f"  config fixed {rng.randint(1, 300)}")
            else:
                q = rng.randint(1, 4)
                lines.append(f"  config fraction {rng.randint(1, q)} {q}")
            info["horizon"] = max(info["horizon"],
                                  start + period * (releases - 1))
        elif tmpl == "conditional":
            lines.append(f"  out main -> {make_target(depth + 1)}")
            pred = rng.choice([
                f"amount >= {rng.randint(1, 300)}",
                f"metadata.{META_KEY} > {rng.randint(0, 5)}",
                f"now < {rng.randint(1, 40)}",
            ])
            lines.append(f"  config when {pred}")
            lines.append("  config on_false "
                         + rng.choice(["warning", "recoverable", "fatal"]))
        elif tmpl == "distributing":
            k = min(rng.randint(2, 3), max(2, room()))
            tags = [f"s{j}" for j in range(k)]
            targets = [make_target(depth + 1) for _ in tags]
            for tag, to in zip(tags, targets):
                lines.append(f"  out {tag} -> {to}")
            residual = rng.random() < 0.3
            for j, tag in enumerate(tags):
                if residual and j == len(tags) - 1:
                    lines.append(f"  config residual {tag}")
                elif rng.random() < 0.25:
                    lines.append(f"  config fixed {tag} {rng.randint(1, 80)}")
                else:
                    lines.append(f"  config weight {tag} {rng.randint(1, 5)}")
        elif tmpl == "waterfall":
            k = min(rng.randint(2, 3), max(2, room()))
            tags = [f"t{j}" for j in range(k)]
            targets = [make_target(depth + 1) for _ in tags]
            for tag, to in zip(tags, targets):
                lines.append(f"  out {tag} -> {to}")
            for j, tag in enumerate(tags):
                last_open = j == len(tags) - 1 and rng.random() < 0.6
                cap = "rest" if last_open else str(rng.randint(20, 250))
                lines.append(f"  config tier {tag} {cap}")
        else:  # oracle
            k = rng.randint(1, 2)
            tags = [f"d{j}" for j in range(k)]
            targets = [make_target(depth + 1) for _ in tags]
            for tag, to in zip(tags, targets):
                lines.append(f"  out {tag} -> {to}")
            account = f"orc-{rid}"
            lines.append(f"  config oracle {account}")
            info["oracles"].append((rid, account, tags))

        if rng.random() < 0.25:
            severity = rng.choice(["warning", "recoverable"])
            action = rng.choice(["proceed", "hold", "refund", "redirect"])
            if action == "redirect":
                if endpoints and (room() < 1 or rng.random() < 0.5):
                    lines.append(f"  on {severity} redirect "
                                 f"{rng.choice(endpoints)}")
                elif room() >= 1:
                    lines.append(f"  on {severity} redirect {make_endpoint()}")
                else:
                    lines.append(f"  on {severity} refund")
            else:
                lines.append(f"  on {severity} {action}")
        blocks.append("\n".join(lines))
        return rid

    head = make_target(0)
    origin_block = "\n".join(
        ["node origin", "  kind originator", f"  out main -> {head}"])
    text = "\n\n".join([
        "pipeline fuzz",
        f"balance {DEPOSITOR} 1000000",
        origin_block,
        *blocks,
    ]) + "\n"
    return text, info


# A tee between the originator and a random pipeline's first node: it pays
# an endpoint first, sends most of a deposit on, and sends a last share
# through a guard that reverts the deposit when its ``commit`` metadata is 0,
# after the random pipeline has made its payouts.
TEE = """
node tee
  kind router
  template distributing
  out pay -> tee-pay
  out rest -> {head}
  out guard -> tee-guard
  config weight pay 1
  config weight rest 4
  config weight guard 1

node tee-pay
  kind endpoint
  recipient ua

node tee-guard
  kind router
  template conditional
  out main -> tee-sink
  config when metadata.commit > 0
  config on_false fatal

node tee-sink
  kind endpoint
  recipient ub
"""


def teed(text):
    """``text`` with the tee between the originator and the random
    pipeline's first node."""
    origin = re.search(r"node origin\n  kind originator\n  out main -> (\S+)\n",
                       text)
    head = origin.group(1)
    text = text.replace(origin.group(), origin.group().replace(head, "tee"))
    return text + TEE.format(head=head)


def random_actions(rng: random.Random, info: dict, teed: bool = False):
    """Trigger sequence for a pipeline built by random_pipeline_text.

    With ``teed``, for the pipeline behind ``TEE``, each deposit also draws
    the guard's ``commit`` metadata: 0, which reverts the deposit, one time
    in three. Without it the draws are those of earlier versions, so a seed
    generates what it always did."""
    actions = [("approve", {"account": DEPOSITOR, "node": "origin",
                            "amount": 1000000})]
    for _ in range(rng.randint(2, 6)):
        roll = rng.random()
        if roll < 0.5:
            metadata = {}
            if rng.random() < 0.6:
                metadata[META_KEY] = rng.randint(0, 8)
            if teed:
                metadata["commit"] = int(rng.random() >= 1 / 3)
            actions.append(("deposit", {
                "account": DEPOSITOR,
                "amount": rng.randint(1, 500),
                "metadata": metadata,
            }))
        elif roll < 0.75:
            actions.append(("advance", {"delta": rng.randint(1, 15)}))
        elif info["oracles"] and roll < 0.9:
            node, account, tags = rng.choice(info["oracles"])
            actions.append(("instruct", {
                "node": node, "oracle": account,
                "tag": rng.choice(tags), "amount": rng.randint(1, 200),
            }))
        elif info["claimables"]:
            node, recipient = rng.choice(info["claimables"])
            actions.append(("claim", {"node": node, "account": recipient}))
    if info["horizon"]:
        actions.append(("advance", {"delta": info["horizon"] + 1}))
    return actions


def state_fingerprint(engine) -> dict:
    """Plain-data view of an engine's mutable state, for deep comparisons."""
    return {
        "balances": dict(engine.ledger.balances),
        "allowances": {
            f"{owner}->{spender}": amt
            for (owner, spender), amt in sorted(engine.ledger.allowances.items())
        },
        "total_supply": engine.ledger.total_supply,
        "clock": engine.now,
        "nodes": {nid: copy.deepcopy(n.state)
                  for nid, n in engine.nodes.items()},
    }


def revert_traces(engine):
    """The events each reverted transaction would have emitted, by id."""
    return {r.id: r.events for r in engine.transactions if not r.committed}


def next_tx_id(engine):
    """The id the engine's next transaction takes."""
    return len(engine.transactions) + 1


# -- scenario writer and export digest --------------------------------------------


def load_scenario(path):
    """The scenario in the file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def payroll_spec(recipients, periods):
    """The bench's parsed payroll pipeline for ``recipients`` x ``periods``."""
    return parse_pipeline(build_pipeline_text(recipients, periods))


def scenario_text(name, steps):
    """The scenario text of ``(kind, args, expect)`` steps, each line
    written from its ``STEPS`` row: the kind's words, the arguments in the
    row's order and any metadata as ``key=value``. An ``expect`` of "any"
    or a code writes an ``expect revert`` line before its step."""
    lines = [f"scenario {name}"]
    for kind, args, expect in steps:
        if expect is not None:
            lines.append("expect revert"
                         + ("" if expect == "any" else f" {expect}"))
        words = [str(args[word]) for word in STEPS[kind].words]
        words += [f"{key}={value}"
                  for key, value in args.get("metadata", {}).items()]
        lines.append(" ".join([kind.replace("_", " "), *words]))
    return "\n".join(lines) + "\n"


def export_digest(fixtures, names, corpus, seeds=range(100)):
    """sha256 over the canonical pipeline text, trace and gas report of each
    named fixture pair in the directory ``fixtures``, then the trace and gas
    report of each corpus seed, then ``validate_golden_text(corpus)``."""
    digest = hashlib.sha256()
    for name in names:
        spec = parse_pipeline((fixtures / f"{name}.pipe").read_text())
        engine = instantiate(spec)
        run_scenario(engine, load_scenario(str(fixtures / f"{name}.scn")))
        for text in (serialize_pipeline(spec), engine.trace_text(),
                     engine.gas_text()):
            digest.update(text.encode())
    for seed in seeds:
        rng = random.Random(seed)
        text, info = random_pipeline_text(rng)
        engine = instantiate(parse_pipeline(text))
        for action in random_actions(rng, info):
            apply_step(engine, *action)
        digest.update(engine.trace_text().encode())
        digest.update(engine.gas_text().encode())
    digest.update(validate_golden_text(corpus).encode())
    return digest.hexdigest()
