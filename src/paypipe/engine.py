"""Deterministic transaction executor for payment pipelines.

One external trigger (deposit, time advance, oracle instruction, claim) is
one transaction: the engine charges gas per primitive operation from a
configurable cost table, and either commits or rolls back atomically.
Rollback costs what the transaction touched, not the size of the ledger or
the graph: the ledger logs the first old value of each key a write changes,
and a node's ``state`` is copied the first time the transaction touches the
node (as the trigger's target or as a dispatch recipient). The copy is built
value by value: ints, strings, bools and None are shared, lists, dicts and
``StreamMessage`` values are rebuilt, and a state holding any other type is
copied with ``copy.deepcopy`` instead. The structural copy does not keep
aliasing inside a state (two entries sharing one list get one each), so a
node state should not share a mutable object between entries; none of this
package's nodes does. An exception that is not an engine error, in a
template or in an error-policy action, also undoes the transaction, records
nothing and propagates. A trigger called while a transaction is open (from
a node's ``receive``, say) raises ``RuntimeError`` before it changes
anything.

``dispatch`` performs each hop of a stream from one node to the next:
approve, pull, ``Sent``, then the recipient's ``receive``. Propagation is
synchronous within the transaction; nodes that hold funds (timelock,
threshold, oracle-directed, claimable endpoints) end the propagation, and
the next trigger resumes it. The engine alone calls a node's ``receive``,
``crank`` and ``instruct``, each after a ``config_read``.

Gas is an accounting metric only; no limit is enforced. As a transaction
opens, ``_run_tx`` binds the meter's ``charge``, read on the ``Engine.meter``
instance, to ``engine.charge`` and the ledger's ``on_charge``, so a wrapper
installed on the meter before a trigger sees every charge. As it closes,
both go back to the ledger's no-op, so ``engine.charge(kind)`` and ledger
writes charge nothing outside a transaction. Charge points:

    tx_base         once per transaction
    node_call       per dispatch across an edge (error redirects included)
    ledger_write    per mint / transfer / approve / delegated transfer
    ledger_read     per balance or allowance query during execution
    event_emit      per event appended inside a transaction
    config_read     per node processing a stream, crank, or instruction
    predicate_eval  per conditional predicate evaluation

Two engines built from the same spec and fed the same triggers produce
identical event logs and gas logs; the text exports below are byte-stable.

Advancing the clock asks only the nodes that have a release due for their
releases: a heap holds one ``(earliest pending due, node id)`` entry per node
with a pending release. The due index holds only nodes with a schedule (a
node's ``scheduled``: its class, a router's being its template, overrides
``due_releases``); no other node is ever asked ``next_due``. A node's
schedule changes only inside a transaction that touched it, or before
``add_node``, so ``add_node`` computes a scheduled node's entry, and the
commit that touched it recomputes it, except for the nodes the running
advance popped from the heap: the advance recomputes each of those once,
when its cranks are done. An advance with nothing due asks no node and
returns at once.

``format_event`` defines a line of the ``--trace`` export. ``write_trace``
streams the same lines from templates to a writer, 512 to a chunk, so it
holds about one chunk; ``trace_text`` appends the chunks to one string that
CPython grows in place, so its peak is about one trace, and ``gas_text``
joins ``write_gas``'s chunks once. A writer that raises stops the export,
which can leave a file with only its first chunks.
Within one export, each event shape whose kind and keys are plain ``str``
needing no escape gets a ``%``-template, keys sorted, and an ``itemgetter`` of
the values. An event finds it by its kind and key count: n distinct keys the
getter finds in an n-key payload are its keys, and a ``KeyError`` falls back
to a lookup by kind and keys in insertion order. A chunk is one ``%`` over
its lines' formats; events of other shapes enter as ``format_event``'s line
with ``%`` doubled. Tx, seq, the emitter and the values print with ``%s``,
that is ``str()``, unescaped; for tx and seq, ints, ``format_event`` prints
the same. Nothing is checked field by field: the export counts spaces, ``=``,
``%`` and newlines over the chunk's text, less what ``format_event`` printed.
A template line has 3+n spaces, 4+n ``=``, a newline and no ``%``, for n
keys, unless a field needed escaping, and its kind and keys must be exact
``str`` (an equal ``str`` subclass finds the plain string's template). A
chunk with no template line is not checked. A chunk that fails is checked
line by line, each template line as a chunk of its own; each failing line is
printed by ``format_event``, and so are all later events of its shape. The
templates live only for one call.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from .errors import (DepthExceeded, EdgeMissing, EngineError,
                     FatalStreamError, UnknownNode, shown_word)
from .ledger import TokenLedger, _ignore, _require_int
from .nodes import (Node, PolicyAction, StreamError, StreamMessage,
                    redirect_targets)

# Setup-time events (minting, scenario approvals) live under this pseudo-id;
# real transactions start at 1.
SETUP_TX = 0

_NESTED = "a trigger cannot run inside an open transaction"

# The most hops a stream may nest, as validation and ``dispatch`` enforce.
# A hop nests two frames, ``dispatch`` and ``receive``, so a trigger at the
# limit stays inside the recursion limit of 1,000 from 200 frames deep. A
# conditional's predicate adds at most three frames per level (``evaluate``,
# its generator and ``any``) for ``predicates.MAX_NESTING`` levels: 200 +
# 2 * 128 + 3 * 32 = 552 frames, so over 400 remain.
MAX_HOPS = 128


class ConservationBreach(RuntimeError):
    """Sum of balances diverged from total supply: an engine bug, never caught."""


@dataclass(frozen=True)
class CostTable:
    """Gas cost per primitive operation. Loosely inspired by common VM pricing
    so that cross-node calls carry a realistic relative penalty."""

    tx_base: int = 21000
    node_call: int = 2600
    ledger_write: int = 5000
    ledger_read: int = 200
    event_emit: int = 1000
    config_read: int = 100
    predicate_eval: int = 50

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 0:
                raise ValueError(f"cost {name} must be non-negative")


class GasMeter:
    """Accumulates gas within the current transaction. ``charge`` is the
    only place gas is added; per-transaction totals live in
    ``Engine.transactions``."""

    def __init__(self, table: CostTable):
        self._costs = asdict(table)
        self.consumed = 0

    def charge(self, kind: str):
        self.consumed += self._costs[kind]


class EventRecord(NamedTuple):
    """One emitted event. An immutable named tuple: it iterates over its
    fields and compares equal to a plain tuple of them."""

    tx_id: int
    seq: int
    emitter: str
    kind: str
    payload: dict


@dataclass
class TxResult:
    """The one record of a transaction, ``id`` its position in
    ``Engine.transactions`` plus 1. A revert sets ``reason`` to ``"CODE:
    message"`` and keeps the ``events`` it would have emitted."""

    id: int
    trigger: str  # Deposit | AdvanceTime | OracleInstruct | Claim
    info: dict
    events: tuple
    gas: int = 0
    reason: Optional[str] = None

    @property
    def committed(self) -> bool:
        return self.reason is None

    @property
    def status(self) -> str:
        return "Committed" if self.reason is None else "Reverted"


def _esc(value) -> str:
    """Escape a payload scalar so export lines stay single-line and parsable."""
    text = str(value)
    if "%" not in text and " " not in text and "=" not in text \
            and "\n" not in text:
        return text  # the common case: nothing to escape
    return (
        text.replace("%", "%25")
        .replace(" ", "%20")
        .replace("=", "%3D")
        .replace("\n", "%0A")
    )


# Values a copy of a node state may share; lists and dicts are rebuilt.
_IMMUTABLE = (int, str, bool, type(None))


class _NotPlain(Exception):
    """A node state holds a value the structural copy does not handle."""


def _copy_value(value):
    """Structural copy of one state value: see ``_copy_state``."""
    cls = value.__class__
    if cls in _IMMUTABLE:
        return value
    if cls is list:
        return [_copy_value(item) for item in value]
    if cls is dict:
        copied = {}
        for key, item in value.items():
            if key.__class__ not in _IMMUTABLE:
                raise _NotPlain
            copied[key] = item if item.__class__ in _IMMUTABLE \
                else _copy_value(item)
        return copied
    if cls is StreamMessage:
        clone = object.__new__(StreamMessage)
        clone.__dict__ = _copy_value(value.__dict__)
        return clone
    raise _NotPlain


def _copy_state(state: dict) -> dict:
    """Deep copy of a node's state, built value by value: ints, strings,
    bools and None are shared, lists and dicts are rebuilt by the same rule,
    and a ``StreamMessage`` is rebuilt attribute by attribute. Any other
    type anywhere in the state (a set, tuple, float, subclass or custom
    object) sends the whole state to ``copy.deepcopy``.

    Unlike ``deepcopy``, the structural copy does not keep aliasing inside a
    state: two entries sharing one list or dict get one each. No state the
    package's nodes and templates create shares a mutable object. A state
    that contains itself also goes to ``deepcopy``."""
    try:
        return _copy_value(state)
    except (_NotPlain, RecursionError):
        return copy.deepcopy(state)


def format_event(ev: EventRecord) -> str:
    tx_id, seq, emitter, kind, payload = ev
    parts = [f"tx={tx_id} seq={seq} emitter={_esc(emitter)} "
             f"kind={_esc(kind)}"]
    for key in sorted(payload):
        parts.append(f"{_esc(key)}={_esc(payload[key])}")
    return " ".join(parts)


# Lines per chunk of the exports: see ``Engine.write_trace``.
_CHUNK = 512
_KIND = itemgetter(3)
_PAYLOAD = itemgetter(4)


def _line_template(kind, payload) -> tuple:
    """The ``%``-template of the lines of events with this kind and payload
    keys (None unless all are ``str`` that print as is) and a getter of their
    values, sorted for a template, raising ``KeyError`` if one is missing."""
    plain = all(name.__class__ is str and _esc(name) == name
                for name in (kind, *payload))
    keys = sorted(payload) if plain else [*payload]
    values = itemgetter(*keys) if len(keys) > 1 else \
        lambda payload: tuple(payload[key] for key in keys)
    return ("tx=%s seq=%s emitter=%s kind=" + kind + "".join(
        f" {key}=%s" for key in keys) if plain else None), values


def _templates_as_is(text: str, chunk: list, odd: dict) -> bool:
    """Whether every template line of a chunk is ``format_event``'s, by the
    counts over its ``text`` and the types of its kinds and keys that the
    module docstring gives; ``odd`` holds, by position, the lines that
    ``format_event`` printed, which the counts leave out."""
    printed = "".join(odd.values())
    spaces, equals, percents = map(printed.count, " =%")
    if odd:
        chunk = [ev for i, ev in enumerate(chunk) if i not in odd]
    types = [*map(type, chain(map(_KIND, chunk), chain.from_iterable(
        map(_PAYLOAD, chunk))))]  # of every kind and key
    keys = len(types) - len(chunk)
    return (text.count(" ") - spaces == 3 * len(chunk) + keys
            and text.count("=") - equals == 4 * len(chunk) + keys
            and text.count("%") == percents
            and text.count("\n") == len(chunk) + len(odd)
            and types.count(str) == len(types))


def _chunk_text(chunk: list, templates: dict, shapes: dict) -> str:
    """The ``--trace`` lines of ``chunk``; ``templates`` and ``shapes`` key
    the export's templates by kind and keys and by kind and key count."""
    formats, args, odd = [], [], {}  # odd: format_event's lines by position
    for ev in chunk:
        tx_id, seq, emitter, kind, payload = ev
        try:
            template, values = shapes[kind, len(payload)]
            row = values(payload)  # KeyError: another key set of this size
        except KeyError:
            key = (kind, *payload)
            template, values = shapes[kind, len(payload)] = templates[key] = \
                templates.get(key) or _line_template(kind, payload)
            row = values(payload)
        except TypeError:  # an unhashable kind
            template = None
        if template is None:
            odd[len(formats)] = line = format_event(ev)
            formats.append(line)
        else:
            formats.append(template)
            args += (tx_id, seq, emitter)
            args += row
    formats.append("")  # the last line's newline
    if len(odd) == len(chunk):  # no template line: no % and no check
        return "\n".join(formats)
    for i, line in odd.items():  # format_event's % prints as is
        formats[i] = line.replace("%", "%%")
    text = "\n".join(formats) % tuple(args)
    if _templates_as_is(text, chunk, odd):
        return text
    if len(chunk) > 1:  # check the template lines one by one
        return "".join([odd[i] + "\n" if i in odd else
                        _chunk_text([ev], templates, shapes)
                        for i, ev in enumerate(chunk)])
    templates[(kind, *payload)] = shapes[kind, len(payload)] = None, values
    return format_event(ev) + "\n"


class Engine:
    """Owns the ledger, clock, gas meter, event log, and node registry."""

    def __init__(self, cost_table: Optional[CostTable] = None):
        self.meter = GasMeter(cost_table or CostTable())
        self.now = 0
        self.ledger = TokenLedger(on_event=self.emit)
        self.charge = _ignore  # the meter's charge in a transaction: _run_tx
        self.nodes: dict[str, Node] = {}
        self.edges: set[tuple[str, str]] = set()
        self.entry: Optional[str] = None
        self.events: list[EventRecord] = []
        self.transactions: list[TxResult] = []
        self._setup_seq = 0
        self._tx: Optional[TxResult] = None  # the open transaction's record
        self._depth = 0  # hops the open transaction's dispatches nest
        # node id -> its state before the open transaction first touched it
        self._touched: dict[str, dict] = {}
        # Due index of the nodes in _scheduled: a heap of (earliest pending
        # due, node id), and _due_at, each indexed node's current key; heap
        # entries that disagree with it are stale and skipped.
        self._due_heap: list[tuple[int, str]] = []
        self._due_at: dict[str, int] = {}
        self._scheduled: set[str] = set()
        # Nodes the running advance popped from the heap; its finally, not
        # each commit, re-indexes them.
        self._popped: list[str] = []

    # -- assembly ------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register ``node`` and an edge to each output and redirect target."""
        if node.id in self.nodes:
            raise ValueError(f"duplicate node id {node.id!r}")
        node.engine = self
        self.nodes[node.id] = node
        edges = self.edges
        for _, target in node.outputs:
            edges.add((node.id, target))
        if node.error_policy:
            for target in redirect_targets(node.error_policy):
                edges.add((node.id, target))
        if node.scheduled:
            self._scheduled.add(node.id)
            self._reschedule(node.id)
        return node

    # -- gas and events --------------------------------------------------------

    def emit(self, kind: str, emitter: str, payload: dict) -> None:
        """Record an event with a copy of ``payload``, so the caller may
        reuse or change its dict."""
        # tuple.__new__ is what EventRecord(...) runs, minus one Python call
        tx = self._tx
        if tx is not None:
            events = tx.events
            events.append(tuple.__new__(EventRecord, (
                tx.id, len(events), emitter, kind, dict(payload))))
            self.charge("event_emit")
        else:
            self.events.append(tuple.__new__(EventRecord, (
                SETUP_TX, self._setup_seq, emitter, kind, dict(payload))))
            self._setup_seq += 1

    # -- transaction machinery ---------------------------------------------

    def _touch(self, node: Node) -> Node:
        """Copy ``node``'s state the first time the open transaction reaches
        it, so a revert can put it back."""
        if node.id not in self._touched:
            self._touched[node.id] = _copy_state(node.state)
        return node

    def _undo(self) -> None:
        """Put back every ledger key and node state the open transaction
        changed."""
        self.ledger.revert()
        for node_id, state in self._touched.items():
            self.nodes[node_id].state = state

    def _check_conservation(self) -> None:
        total = self.ledger.sum_of_balances()
        if total != self.ledger.total_supply:
            raise ConservationBreach(
                f"balances sum to {total}, supply is {self.ledger.total_supply}"
            )

    def _run_tx(self, trigger: str, info: dict, body: Callable[[], None]) -> TxResult:
        if self._tx is not None:
            raise RuntimeError(_NESTED)
        meter, ledger = self.meter, self.ledger
        ledger.begin()  # raises, changing nothing, if a log is open
        tx = self._tx = TxResult(len(self.transactions) + 1, trigger, info, [])
        meter.consumed = 0
        self.charge = ledger.on_charge = meter.charge  # the instance's
        touched = self._touched = {}
        try:
            self.charge("tx_base")
            body()
        except EngineError as err:
            self._undo()
            tx.reason = f"{err.code}: {err.message}"
        except BaseException:
            # A fault, not a revert: undo the writes and record nothing, then
            # let it propagate.
            self._undo()
            raise
        else:
            ledger.commit()
        finally:
            self.charge = ledger.on_charge = _ignore
            tx.events = tuple(tx.events)
            tx.gas = meter.consumed
            self._tx = None
            self._touched = {}
        if tx.reason is None:
            self.events.extend(tx.events)
            self._check_conservation()
        self.transactions.append(tx)
        if tx.reason is None:
            for node_id in self._scheduled.intersection(touched).difference(
                    self._popped):
                self._reschedule(node_id)
        return tx

    # -- triggers ------------------------------------------------------------

    def _node(self, node_id: str) -> Node:
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNode(f"no node {shown_word(node_id)}")
        return self._touch(node)

    def submit_deposit(self, from_account: str, amount: int,
                       metadata: Optional[dict] = None) -> TxResult:
        if amount.__class__ is not int:
            _require_int("amount", amount)
        info = {"from": from_account, "amount": amount}
        return self._run_tx(
            "Deposit", info,
            lambda: self._node(self.entry).deposit(from_account, amount,
                                                   metadata or {}),
        )

    def submit_oracle_instruct(self, node_id: str, oracle: str, dest_tag: str,
                               amount: int) -> TxResult:
        if amount.__class__ is not int:
            _require_int("amount", amount)
        info = {"node": node_id, "oracle": oracle, "dest": dest_tag,
                "amount": amount}
        return self._run_tx(
            "OracleInstruct", info,
            partial(self._call, node_id, "instruct", oracle, dest_tag, amount),
        )

    def submit_claim(self, node_id: str, account: str) -> TxResult:
        info = {"node": node_id, "account": account}
        return self._run_tx(
            "Claim", info, lambda: self._node(node_id).claim(account)
        )

    def advance_time(self, delta: int) -> list[TxResult]:
        """Move the clock, then crank every due release as its own transaction.

        Releases are ordered by (due time, node id) and fixed before the
        first crank runs; a crank that reverts does not stop later cranks and
        stays pending for the next advance. Only the nodes the due index
        holds as due are asked for their releases; an idle advance asks none.
        """
        if delta.__class__ is not int:
            _require_int("delta", delta)
        if delta < 0:
            raise ValueError("time cannot move backwards")
        if self._tx is not None:
            raise RuntimeError(_NESTED)
        self.now = now = self.now + delta
        heap = self._due_heap
        if not heap or heap[0][0] > now:
            return []
        return self._crank_due(now)

    def _crank_due(self, now: int) -> list[TxResult]:
        """The rest of ``advance_time`` once a release is due, kept apart
        so that an idle advance, the common case, runs only the checks."""
        heap, due_at, popped, entries = self._due_heap, self._due_at, [], []
        while heap and heap[0][0] <= now:
            due, node_id = heapq.heappop(heap)
            if due_at.get(node_id) != due:
                continue  # superseded by a later key
            del due_at[node_id]
            popped.append(node_id)
            for due, k in self.nodes[node_id].due_releases(now):
                entries.append((due, node_id, k))
        entries.sort()
        self._popped = popped
        try:
            return [self._run_tx("AdvanceTime",
                                 {"node": node_id, "release": k, "at": due},
                                 partial(self._call, node_id, "crank", k, due))
                    for due, node_id, k in entries]
        finally:  # index each popped node once, whatever its cranks did
            self._popped = []
            for node_id in popped:
                self._reschedule(node_id)

    def _call(self, node_id: str, hook: str, *args) -> None:
        """A crank's or an instruction's body: ``config_read`` once ``_node``
        finds the node, as a hop charges it, then the node's ``hook``."""
        node = self._node(node_id)
        self.charge("config_read")
        getattr(node, hook)(*args)

    def _reschedule(self, node_id: str) -> None:
        """Recompute the due-index key of scheduled node ``node_id``."""
        due, due_at = self.nodes[node_id].next_due(), self._due_at
        if due is None:
            due_at.pop(node_id, None)
        elif due != due_at.get(node_id):
            due_at[node_id] = due
            heapq.heappush(self._due_heap, (due, node_id))

    # -- stream dispatch -------------------------------------------------------

    def dispatch(self, sender: Node, to_id: str, msg: StreamMessage) -> None:
        """Move a stream message across one edge: the whole hop.

        After the edge check, a hop that would nest more than ``MAX_HOPS``
        hops reverts ``DepthExceeded`` before it charges anything. Else it
        charges ``node_call`` and touches the recipient; the sender approves
        the recipient, the recipient pulls the funds, the sender emits
        ``Sent``, and after a ``config_read`` the recipient's ``receive``
        runs. A ``StreamError`` it raises goes to ``handle_error`` under the
        recipient's policy, whose redirect is a hop along a redirect edge.
        """
        recipient = self.nodes.get(to_id)
        if recipient is None:
            raise EdgeMissing(
                f"{sender.id} dispatched to unknown node {shown_word(to_id)}")
        if (sender.id, to_id) not in self.edges:
            raise EdgeMissing(f"no edge {sender.id} -> {to_id}")
        depth = self._depth
        if depth == MAX_HOPS:
            raise DepthExceeded(f"{sender.id} -> {to_id} nests over {MAX_HOPS} hops")
        self._depth = depth + 1
        try:
            ledger, charge = self.ledger, self.charge
            charge("node_call")
            self._touch(recipient)
            amount, spender = msg.amount, recipient.address
            ledger.approve(sender.address, spender, amount)
            ledger.transfer_from(spender, sender.address, spender, amount)
            self.emit("Sent", sender.address, {"to": to_id, "amount": amount})
            charge("config_read")
            try:
                recipient.receive(msg)
            except StreamError as err:
                self.handle_error(recipient, err, msg)
        finally:
            self._depth = depth

    def handle_error(self, node: Node, err: StreamError, msg: StreamMessage) -> None:
        """Emit ``StreamError``, then apply the node's policy for the severity.

        ``node`` is the node whose ``receive`` raised ``err`` while
        handling ``msg``; the funds are already in its hands. Unhandled fatal
        errors abort the transaction, and so does an engine error raised by
        the chosen action, as a ``FatalStreamError``. Any other exception
        from the action is a fault, not a revert: it propagates, and the
        transaction undoes its writes and records nothing. (The templates'
        continuations only re-enter ``dispatch``, which handles a
        ``StreamError`` of the next hop itself.)
        """
        amount = msg.amount if err.amount is None else err.amount
        entry = (err.action_override, None) if err.action_override else \
            node.resolve_policy(err.severity)
        action_label = entry[0].value if entry else "revert"
        self.emit(
            "StreamError", node.address,
            {"severity": err.severity.label, "reason": err.reason,
             "amount": amount, "action": action_label},
        )
        if entry is None:
            raise FatalStreamError(f"{node.id}: {err.reason}")
        action, target = entry
        try:
            if action is PolicyAction.PROCEED:
                if err.continuation is not None:
                    err.continuation()
            elif action is PolicyAction.HOLD:
                pass  # funds stay where they are
            elif action is PolicyAction.REFUND:
                self.ledger.transfer(node.address, msg.origin, amount)
            else:  # REDIRECT
                redirected = msg.child(amount=amount)
                redirected.error = {
                    "severity": err.severity.label,
                    "reason": err.reason,
                    "failed_node": node.id,
                }
                self.dispatch(node, target, redirected)
        except FatalStreamError:
            raise
        except EngineError as exc:
            raise FatalStreamError(
                f"{node.id}: {action_label} failed handling {err.reason!r}: {exc}"
            ) from exc

    # -- reports ------------------------------------------------------------

    def _trace_chunks(self):
        """The ``--trace`` export's chunks, one per ``_CHUNK`` events."""
        events, templates, shapes = self.events, {}, {}
        for start in range(0, len(events), _CHUNK):
            yield _chunk_text(events[start:start + _CHUNK], templates, shapes)

    def write_trace(self, write: Callable[[str], object]) -> None:
        """Hand ``write`` the ``--trace`` export a chunk at a time."""
        for chunk in self._trace_chunks():
            write(chunk)

    def trace_text(self) -> str:
        """What ``write_trace`` writes, as one string built in place."""
        # CPython grows ``text`` in place only while a plain local holds its
        # one reference and it was never hashed or interned (3.12+ does so
        # only for a STORE_FAST target, not a closure cell or an attribute);
        # otherwise each chunk copies the whole trace. So the peak is one
        # trace and one chunk, where a join held every chunk besides.
        text = ""
        for chunk in self._trace_chunks():
            text += chunk
        return text

    def write_gas(self, write: Callable[[str], object]) -> None:
        """Hand ``write`` the ``--gas-report`` export a chunk at a time."""
        txs = self.transactions
        for start in range(0, len(txs), _CHUNK):
            write("".join([f"tx={r.id} trigger={r.trigger} status={r.status} "
                           f"gas={r.gas}\n" for r in txs[start:start + _CHUNK]]))
        write(f"total txs={len(txs)} gas={sum(r.gas for r in txs)}\n")

    def gas_text(self) -> str:
        """What ``write_gas`` writes, joined once."""
        chunks = []
        self.write_gas(chunks.append)
        return "".join(chunks)
