"""Node classes and the stream protocols.

Three node kinds form a pipeline: an originator turns plain tokens into a
stream, routers retain or forward it, and endpoints turn it back into plain
tokens. ``Engine.dispatch`` moves a stream from one node to the next by
approve-then-pull: the sender approves the recipient, the recipient executes
the delegated transfer, the sender emits a ``Sent`` event, and only then is
the recipient's ``on_receive`` called, with the funds already in its hands.

Errors raised by ``on_receive`` are ``StreamError`` values with a severity;
the receiving node's error policy decides whether to proceed, hold the
funds, refund the origin, or redirect to a designated handler. An unhandled
fatal error reverts the whole transaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from itertools import chain
from typing import Optional

from .errors import (
    EngineError,
    NotClaimable,
    NothingToClaim,
    ZeroAmount,
)


def earliest_due(releases: list[tuple[int, int]]) -> Optional[int]:
    """Smallest due time in a ``due_releases`` list, None when it is empty."""
    return min(due for due, _ in releases) if releases else None


def schedule_state(**fields) -> dict:
    """A fresh schedule's state, plus ``fields``: see ``schedule_release``."""
    return {"next": 0, "holes": [], **fields}


def schedule_due(state: dict, releases: int, start: int, period: int,
                 now) -> list[tuple[int, int]]:
    """``(due, k)`` of every pending release k due by ``now``, at ``start +
    k * period``: the holes, then from ``next`` on, to the first not due."""
    found = []
    for k in chain(state["holes"], range(state["next"], releases)):
        due = start + k * period  # rises with k, as period >= 1
        if due > now:
            break
        found.append((due, k))
    return found


def schedule_next_due(state: dict, releases: int, start: int,
                      period: int) -> Optional[int]:
    """Due time of the first hole, else of ``next``; None when none is left."""
    k = state["holes"][0] if state["holes"] else state["next"]
    return start + k * period if k < releases else None


def schedule_release(state: dict, k: int, node_id: str) -> None:
    """Mark release k executed. Only these helpers read a schedule's state:
    ``next``, the first release never executed, and ``holes``, the pending
    releases below it, ascending, left by a crank that reverted before a
    later one committed; neither grows with the release count. A release
    already executed raises a coded ``EngineError`` and changes nothing."""
    if k >= state["next"]:
        state["holes"].extend(range(state["next"], k))
        state["next"] = k + 1
    elif k in state["holes"]:
        state["holes"].remove(k)
    else:
        raise EngineError(f"release {k} of {node_id} already executed")


def node_address(node_id: str) -> str:
    """Ledger address owned by a node; derived, so instantiation is deterministic."""
    return f"node:{node_id}"


class ErrorSeverity(IntEnum):
    WARNING = 1
    RECOVERABLE = 2
    FATAL = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "ErrorSeverity":
        return cls[label.upper()]


class PolicyAction(Enum):
    PROCEED = "proceed"
    HOLD = "hold"
    REFUND = "refund"
    REDIRECT = "redirect"


# Policy entry: the action plus a redirect target node id (redirect only).
PolicyEntry = tuple[PolicyAction, Optional[str]]

# Unconfigured severities fall back here; fatal has no default entry and
# reverts the transaction.
DEFAULT_POLICY: dict[ErrorSeverity, PolicyEntry] = {
    ErrorSeverity.WARNING: (PolicyAction.PROCEED, None),
    ErrorSeverity.RECOVERABLE: (PolicyAction.REFUND, None),
}


class StreamError(Exception):
    """Error raised by template logic while handling a received stream.

    ``amount`` is the affected portion (defaults to the full message),
    ``continuation`` resumes the interrupted forward under a Proceed policy,
    and ``action_override`` forces a handling action regardless of policy.
    """

    def __init__(
        self,
        severity: ErrorSeverity,
        reason: str,
        amount: Optional[int] = None,
        continuation=None,
        action_override: Optional[PolicyAction] = None,
    ):
        super().__init__(f"{severity.label}: {reason}")
        self.severity = severity
        self.reason = reason
        self.amount = amount
        self.continuation = continuation
        self.action_override = action_override


@dataclass
class StreamMessage:
    """The unit flowing through a pipeline.

    ``origin`` is the depositing account, which a refund pays back;
    ``metadata`` travels with every share of the deposit; ``error`` carries
    context when a message is redirected by an error policy. The hops a
    message took are the ``Sent`` events of the trace.
    """

    amount: int
    origin: str
    metadata: dict = field(default_factory=dict)
    error: Optional[dict] = None

    def child(self, amount: Optional[int] = None) -> "StreamMessage":
        return StreamMessage(
            amount=self.amount if amount is None else amount,
            origin=self.origin,
            metadata=dict(self.metadata),
        )


class Node:
    """Base node: identity, wiring, error policy, and mutable state.

    ``state`` holds everything a transaction may mutate. The engine copies it
    the first time a transaction touches the node (as the trigger's target
    or as a dispatch recipient) and puts the copy back on revert, so a node
    may mutate only its own ``state`` and the ledger, never another node's.
    A state built from ints, strings, bools, None, lists, dicts and
    ``StreamMessage`` values is copied structurally, which does not keep two
    entries pointing at one list or dict; a state holding any other type is
    copied with ``copy.deepcopy``.

    A node receives a stream only through ``on_receive(msg)``, called by the
    engine after the funds have moved to the node's address; it forwards a
    stream with ``engine.dispatch``.
    """

    # Whether the node has a release schedule: set per class, true when the
    # class overrides ``due_releases``; a router takes its template's.
    scheduled = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.scheduled = cls.due_releases is not Node.due_releases

    def __init__(
        self,
        node_id: str,
        outputs: Optional[list[tuple[str, str]]] = None,
        error_policy: Optional[dict[ErrorSeverity, PolicyEntry]] = None,
    ):
        self.id = node_id
        self.address = node_address(node_id)
        self.outputs = list(outputs or [])
        self.out_by_tag = dict(self.outputs)
        self.error_policy = dict(error_policy or {})
        self.engine = None  # bound when registered
        self.state: dict = {}  # copied on first touch in a transaction

    # -- wiring ------------------------------------------------------------

    @property
    def held(self) -> int:
        """Tokens currently owned by this node's address."""
        return self.engine.ledger.balance_of(self.address)

    def target(self, tag: str) -> str:
        try:
            return self.out_by_tag[tag]
        except KeyError:
            raise EngineError(f"node {self.id} has no output tagged {tag!r}") from None

    def resolve_policy(self, severity: ErrorSeverity) -> Optional[PolicyEntry]:
        """Policy entry for a severity; None means revert the transaction."""
        if severity in self.error_policy:
            return self.error_policy[severity]
        return DEFAULT_POLICY.get(severity)

    # -- stream protocol ---------------------------------------------------

    def on_receive(self, msg: StreamMessage) -> None:
        """Handle a stream whose funds the engine has already moved here; a
        ``StreamError`` goes to this node's error policy."""
        raise NotImplementedError

    # -- optional trigger surfaces ------------------------------------------

    def deposit(self, from_account: str, amount: int, metadata: dict) -> None:
        raise EngineError(f"node {self.id} does not accept deposits")

    def due_releases(self, now: int) -> list[tuple[int, int]]:
        return []

    def next_due(self) -> Optional[int]:
        """Due time of the earliest pending release, None when none is.

        The due index asks this only of a node whose ``scheduled`` is true,
        at ``add_node`` and in each commit that touched it (a node an
        advance cranks is asked once, when the advance ends), so its
        schedule may change only before ``add_node`` or inside a
        transaction. An idle
        advance asks no node; ``due_releases`` is asked once the clock
        reaches the answer. This default derives it from ``due_releases``.
        """
        return earliest_due(self.due_releases(math.inf))

    def crank(self, k: int, due: int) -> None:
        raise EngineError(f"node {self.id} has no schedule to crank")

    def claim(self, account: str) -> int:
        raise NotClaimable(f"node {self.id} holds nothing claimable")

    def instruct(self, oracle: str, dest_tag: str, amount: int) -> None:
        raise EngineError(f"node {self.id} does not take oracle instructions")


class OriginatorNode(Node):
    """Entry node: pulls a deposit and streams it along its single output."""

    def deposit(self, from_account: str, amount: int, metadata: dict) -> None:
        if amount <= 0:
            raise ZeroAmount("deposits must be positive")
        self.engine.ledger.transfer_from(
            self.address, from_account, self.address, amount
        )
        msg = StreamMessage(amount=amount, origin=from_account,
                            metadata=dict(metadata or {}))
        _, to = self.outputs[0]
        self.engine.dispatch(self, to, msg)

    def on_receive(self, msg: StreamMessage) -> None:
        raise EngineError("originators do not receive streams")


class EndpointNode(Node):
    """Terminal node: pays the recipient directly or holds funds for claiming."""

    def __init__(self, node_id, recipient: str, mode: str = "direct",
                 error_policy=None):
        super().__init__(node_id, outputs=[], error_policy=error_policy)
        self.mode = mode
        self.recipient = recipient
        self.state = {"claimable": {}}

    def on_receive(self, msg: StreamMessage) -> None:
        if self.mode == "direct":
            self.engine.ledger.transfer(self.address, self.recipient, msg.amount)
        else:
            claimable = self.state["claimable"]
            claimable[self.recipient] = claimable.get(self.recipient, 0) + msg.amount
            self.engine.emit(
                "Held", self.address,
                {"account": self.recipient, "amount": msg.amount},
            )

    def claim(self, account: str) -> int:
        if self.mode != "claimable":
            raise NotClaimable(f"endpoint {self.id} pays out directly")
        amount = self.state["claimable"].get(account, 0)
        if amount == 0:
            raise NothingToClaim(f"{account} has nothing to claim at {self.id}")
        self.engine.ledger.transfer(self.address, account, amount)
        self.state["claimable"][account] = 0
        self.engine.emit(
            "Claimed", self.address, {"account": account, "amount": amount}
        )
        return amount


class RouterNode(Node):
    """Intermediate node whose behavior is supplied by a template instance."""

    def __init__(self, node_id, template, outputs=None, error_policy=None):
        super().__init__(node_id, outputs=outputs, error_policy=error_policy)
        self.template = template
        self.scheduled = template.scheduled
        self.state = template.initial_state()

    def on_receive(self, msg: StreamMessage) -> None:
        self.template.receive(self, msg)

    def due_releases(self, now: int) -> list[tuple[int, int]]:
        return self.template.due_releases(self, now)

    def next_due(self) -> Optional[int]:
        return self.template.next_due(self)

    def crank(self, k: int, due: int) -> None:
        self.engine.charge("config_read")
        self.template.crank(self, k, due)

    def claim(self, account: str) -> int:
        return self.template.claim(self, account)

    def instruct(self, oracle: str, dest_tag: str, amount: int) -> None:
        self.engine.charge("config_read")
        self.template.instruct(self, oracle, dest_tag, amount)
