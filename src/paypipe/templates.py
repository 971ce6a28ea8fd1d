"""Router templates: the reusable behaviors a pipeline wires together.

Each template owns its config grammar (parsing, validation, canonical
serialization) and its runtime logic. Mutable runtime data lives in the
node's ``state`` dict, which the engine copies the first time a transaction
touches the node, so rollback covers it. A template may therefore mutate
only its own node's ``state`` and the ledger; template instances themselves
hold only immutable configuration.

Aggregating templates (timelock, threshold, oracle) keep the last received
message and stamp re-dispatches with its origin and metadata, so a later
refund always returns funds to the depositing account rather than to an
intermediate node.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import (
    EngineError,
    InsufficientHeld,
    NotClaimable,
    NothingToClaim,
    SpecSyntaxError,
    UnknownEdge,
    UntrustedOracle,
    ZeroAmount,
)
from .nodes import (
    ErrorSeverity,
    PolicyAction,
    StreamError,
    StreamMessage,
    earliest_due,
    schedule_due,
    schedule_next_due,
)
from .predicates import PredicateEvalError, evaluate, parse_predicate, predicate_text


def apportion(total: int, weights: list[int]) -> list[int]:
    """Split ``total`` into integer shares proportional to ``weights``.

    Uses largest-remainder assignment so every share is within one unit of
    its exact proportional value; ties go to the earliest declared share.
    The result always sums to ``total`` exactly.
    """
    w_sum = sum(weights)
    floors = [total * w // w_sum for w in weights]
    leftover = total - sum(floors)
    order = sorted(range(len(weights)),
                   key=lambda i: (-(total * weights[i] % w_sum), i))
    for i in order[:leftover]:
        floors[i] += 1
    return floors


def _int_token(token: str, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {token!r}") from None


class Template:
    """Behavior plugged into a router node.

    Class-side hooks (``empty_config`` / ``parse_config_line`` / ``validate`` /
    ``config_lines``) define the config grammar; instance methods run at
    execution time with the owning node passed in.
    """

    name = ""
    # Whether the template has a release schedule: set per class, true when
    # the class overrides ``due_releases``.
    scheduled = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.scheduled = cls.due_releases is not Template.due_releases

    def __init__(self, config: dict):
        self.config = config

    # -- config grammar -----------------------------------------------------

    @staticmethod
    def empty_config() -> dict:
        return {}

    @classmethod
    def parse_config_line(cls, config: dict, tokens: list[str]) -> None:
        raise ValueError(f"{cls.name} takes no config")

    @classmethod
    def validate(cls, config: dict, outputs: list[tuple[str, str]]) -> list[str]:
        """Config-level problems as human-readable strings; empty if fine."""
        return []

    @classmethod
    def config_lines(cls, config: dict) -> list[str]:
        """Config in canonical order, one logical line per entry."""
        return []

    # helpers shared by the scalar-keyed grammars
    @classmethod
    def _set_scalar(cls, config: dict, key: str, value) -> None:
        if key in config:
            raise ValueError(f"duplicate config key {key!r}")
        config[key] = value

    # -- runtime -------------------------------------------------------------

    def initial_state(self) -> dict:
        return {}

    def receive(self, node, msg: StreamMessage) -> None:
        raise NotImplementedError

    def due_releases(self, node, now: int) -> list[tuple[int, int]]:
        return []

    def next_due(self, node) -> Optional[int]:
        """See ``Node.next_due``: the due index asks it only of a router whose
        template's ``scheduled`` is true. Derived from ``due_releases``
        unless a template answers it directly."""
        if not self.scheduled:
            return None
        return earliest_due(self.due_releases(node, math.inf))

    def crank(self, node, k: int, due: int) -> None:
        raise EngineError(f"node {node.id} has no schedule to crank")

    def claim(self, node, account: str) -> int:
        raise NotClaimable(f"node {node.id} holds nothing claimable")

    def instruct(self, node, oracle: str, dest_tag: str, amount: int) -> None:
        raise EngineError(f"node {node.id} does not take oracle instructions")


class ReportingTemplate(Template):
    """Emits a ``Report`` event for every stream, then forwards it unchanged.

    The report names a sink label (who the report is for) and may echo
    selected metadata keys into the event payload.
    """

    name = "reporting"

    @staticmethod
    def empty_config() -> dict:
        return {"keys": []}

    @classmethod
    def parse_config_line(cls, config, tokens):
        key = tokens[0]
        if key == "sink":
            if len(tokens) != 2:
                raise ValueError("sink takes one label")
            cls._set_scalar(config, "sink", tokens[1])
        elif key == "keys":
            if len(tokens) < 2:
                raise ValueError("keys needs at least one metadata key")
            for k in tokens[1:]:
                if k in config["keys"]:
                    raise ValueError(f"duplicate report key {k!r}")
                config["keys"].append(k)
        else:
            raise ValueError(f"unknown reporting config key {key!r}")

    @classmethod
    def validate(cls, config, outputs):
        problems = []
        if len(outputs) != 1:
            problems.append(f"reporting requires exactly 1 output, has {len(outputs)}")
        if not config.get("sink"):
            problems.append("reporting requires a sink label")
        return problems

    @classmethod
    def config_lines(cls, config):
        lines = [f"sink {config['sink']}"]
        if config["keys"]:
            lines.append("keys " + " ".join(config["keys"]))
        return lines

    def receive(self, node, msg):
        payload = {"sink": self.config["sink"], "amount": msg.amount,
                   "origin": msg.origin}
        for key in self.config["keys"]:
            if key in msg.metadata:
                payload.setdefault(key, msg.metadata[key])
        node.engine.emit("Report", node.address, payload)
        _, to = node.outputs[0]
        node.engine.dispatch(node, to, msg)


class TimelockTemplate(Template):
    """Accumulates funds and releases them on a crank-driven schedule.

    Release k falls due at ``start + k * period``. Each release pays a fixed
    amount (capped at what is held) or a fraction of the current holding;
    the final release always flushes whatever remains. Streams arriving
    after the schedule is exhausted are held for the owner to resolve.
    """

    name = "timelock"

    @classmethod
    def parse_config_line(cls, config, tokens):
        key = tokens[0]
        if key in ("start", "period", "releases", "fixed"):
            if len(tokens) != 2:
                raise ValueError(f"{key} takes one integer")
            cls._set_scalar(config, key, _int_token(tokens[1], key))
        elif key == "fraction":
            if len(tokens) != 3:
                raise ValueError("fraction takes two integers: numerator denominator")
            cls._set_scalar(config, "fraction",
                            (_int_token(tokens[1], "fraction numerator"),
                             _int_token(tokens[2], "fraction denominator")))
        else:
            raise ValueError(f"unknown timelock config key {key!r}")

    @classmethod
    def validate(cls, config, outputs):
        problems = []
        if len(outputs) != 1:
            problems.append(f"timelock requires exactly 1 output, has {len(outputs)}")
        for key in ("start", "period", "releases"):
            if key not in config:
                problems.append(f"timelock requires {key}")
        if config.get("start", 0) < 0:
            problems.append("start must be >= 0")
        if config.get("period", 1) < 1:
            problems.append("period must be >= 1")
        if config.get("releases", 1) < 1:
            problems.append("releases must be >= 1")
        has_fixed = "fixed" in config
        has_fraction = "fraction" in config
        if has_fixed == has_fraction:
            problems.append("timelock requires exactly one of fixed or fraction")
        if has_fixed and config["fixed"] < 1:
            problems.append("fixed must be >= 1")
        if has_fraction:
            p, q = config["fraction"]
            if q < 1 or p < 1 or p > q:
                problems.append("fraction must satisfy 1 <= numerator <= denominator")
        return problems

    @classmethod
    def config_lines(cls, config):
        lines = [f"start {config['start']}", f"period {config['period']}",
                 f"releases {config['releases']}"]
        if "fixed" in config:
            lines.append(f"fixed {config['fixed']}")
        else:
            p, q = config["fraction"]
            lines.append(f"fraction {p} {q}")
        return lines

    def initial_state(self):
        return {"released": [False] * self.config["releases"], "last": None}

    def receive(self, node, msg):
        node.state["last"] = msg
        if all(node.state["released"]):
            raise StreamError(
                ErrorSeverity.RECOVERABLE, "schedule exhausted",
                action_override=PolicyAction.HOLD,
            )
        # otherwise accumulate silently; cranks move the funds

    def due_releases(self, node, now):
        config = self.config
        return schedule_due(node.state["released"], config["start"],
                            config["period"], now)

    def next_due(self, node):
        return schedule_next_due(node.state["released"], self.config["start"],
                                 self.config["period"])

    def crank(self, node, k, due):
        released = node.state["released"]
        if released[k]:
            raise EngineError(f"release {k} of {node.id} already executed")
        held = node.held
        if k == len(released) - 1:
            amount = held  # final release flushes everything
        elif "fixed" in self.config:
            amount = min(self.config["fixed"], held)
        else:
            p, q = self.config["fraction"]
            amount = held * p // q
        released[k] = True
        node.engine.emit("Released", node.address,
                         {"release": k, "at": due, "amount": amount})
        if amount == 0:
            return
        last = node.state["last"]
        if last is None:
            raise EngineError(f"{node.id} holds funds with no recorded stream")
        _, to = node.outputs[0]
        node.engine.dispatch(node, to, last.child(amount=amount))


class ThresholdTemplate(Template):
    """Accumulates arrivals and forwards the whole holding once it reaches
    the limit. Amounts already held count toward the next flush."""

    name = "threshold"

    @classmethod
    def parse_config_line(cls, config, tokens):
        if tokens[0] == "limit":
            if len(tokens) != 2:
                raise ValueError("limit takes one integer")
            cls._set_scalar(config, "limit", _int_token(tokens[1], "limit"))
        else:
            raise ValueError(f"unknown threshold config key {tokens[0]!r}")

    @classmethod
    def validate(cls, config, outputs):
        problems = []
        if len(outputs) != 1:
            problems.append(f"threshold requires exactly 1 output, has {len(outputs)}")
        if "limit" not in config:
            problems.append("threshold requires limit")
        elif config["limit"] < 1:
            problems.append("limit must be >= 1")
        return problems

    @classmethod
    def config_lines(cls, config):
        return [f"limit {config['limit']}"]

    def initial_state(self):
        return {"last": None}

    def receive(self, node, msg):
        node.state["last"] = msg
        held = node.held
        if held < self.config["limit"]:
            return
        _, to = node.outputs[0]
        node.engine.dispatch(node, to, msg.child(amount=held))


class DistributingTemplate(Template):
    """Splits each stream across its outputs: fixed amounts first, then the
    remainder by weight (largest-remainder rounding, earliest share wins
    ties), with an optional residual share absorbing rounding leftovers."""

    name = "distributing"

    @staticmethod
    def empty_config() -> dict:
        return {"shares": []}

    @classmethod
    def parse_config_line(cls, config, tokens):
        key = tokens[0]
        if key in ("fixed", "weight"):
            if len(tokens) != 3:
                raise ValueError(f"{key} takes a tag and an integer")
            config["shares"].append((key, tokens[1], _int_token(tokens[2], key)))
        elif key == "residual":
            if len(tokens) != 2:
                raise ValueError("residual takes a tag")
            config["shares"].append(("residual", tokens[1], None))
        elif key == "allow_single":
            if len(tokens) != 1:
                raise ValueError("allow_single takes no value")
            cls._set_scalar(config, "allow_single", True)
        else:
            raise ValueError(f"unknown distributing config key {key!r}")

    @classmethod
    def validate(cls, config, outputs):
        problems = []
        shares = config["shares"]
        out_tags = {tag for tag, _ in outputs}
        minimum = 1 if config.get("allow_single") else 2
        if len(outputs) < minimum:
            problems.append(
                f"distributing requires at least {minimum} outputs, has {len(outputs)}"
            )
        if not shares:
            problems.append("distributing requires at least one share")
        seen = set()
        residuals = 0
        for kind, tag, value in shares:
            if tag in seen:
                problems.append(f"duplicate share for tag {tag!r}")
            seen.add(tag)
            if tag not in out_tags:
                problems.append(f"share {tag!r} does not match any output")
            if kind == "residual":
                residuals += 1
            elif value < 1:
                problems.append(f"{kind} share {tag!r} must be >= 1")
        if residuals > 1:
            problems.append("at most one residual share")
        for tag, _ in outputs:
            if tag not in seen:
                problems.append(f"output {tag!r} has no share")
        return problems

    @classmethod
    def config_lines(cls, config):
        lines = []
        for kind, tag, value in config["shares"]:
            if kind == "residual":
                lines.append(f"residual {tag}")
            else:
                lines.append(f"{kind} {tag} {value}")
        if config.get("allow_single"):
            lines.append("allow_single")
        return lines

    def receive(self, node, msg):
        shares = self.config["shares"]
        fixed_total = sum(v for kind, _, v in shares if kind == "fixed")
        if msg.amount < fixed_total:
            raise StreamError(
                ErrorSeverity.RECOVERABLE,
                f"insufficient for fixed shares: {msg.amount} < {fixed_total}",
            )
        amounts: dict[str, int] = {}
        remaining = msg.amount - fixed_total
        for kind, tag, value in shares:
            if kind == "fixed":
                amounts[tag] = value
        weighted = [(tag, value) for kind, tag, value in shares if kind == "weight"]
        residual_tag = next(
            (tag for kind, tag, _ in shares if kind == "residual"), None
        )
        if weighted:
            if residual_tag is None:
                split = apportion(remaining, [w for _, w in weighted])
            else:
                w_sum = sum(w for _, w in weighted)
                split = [remaining * w // w_sum for _, w in weighted]
                amounts[residual_tag] = remaining - sum(split)
            for (tag, _), share in zip(weighted, split):
                amounts[tag] = share
            remaining = 0
        elif residual_tag is not None:
            amounts[residual_tag] = remaining
            remaining = 0
        for _, tag, _ in shares:
            share = amounts.get(tag, 0)
            if share > 0:
                node.engine.dispatch(node, node.target(tag), msg.child(amount=share))
        if remaining > 0:
            raise StreamError(
                ErrorSeverity.RECOVERABLE, "undistributed surplus", amount=remaining
            )


class ConditionalTemplate(Template):
    """Gates its single output on a predicate over the amount, the clock, and
    the stream's metadata. A false predicate raises a stream error at the
    configured severity (recoverable unless overridden), so the node's error
    policy decides what happens to the funds; a predicate that cannot be
    evaluated counts as false at recoverable severity. Under a Proceed
    policy the interrupted forward resumes."""

    name = "conditional"

    def __init__(self, config):
        super().__init__(config)
        self.predicate = parse_predicate(config["when"])
        self.on_false = ErrorSeverity.from_label(
            config.get("on_false", "recoverable")
        )

    @classmethod
    def parse_config_line(cls, config, tokens):
        key = tokens[0]
        if key == "when":
            if len(tokens) < 2:
                raise ValueError("when needs a predicate")
            cls._set_scalar(config, "when", " ".join(tokens[1:]))
        elif key == "on_false":
            if len(tokens) != 2 or tokens[1] not in ("warning", "recoverable",
                                                     "fatal"):
                raise ValueError(
                    "on_false must be warning, recoverable, or fatal")
            cls._set_scalar(config, "on_false", tokens[1])
        else:
            raise ValueError(f"unknown conditional config key {key!r}")

    @classmethod
    def validate(cls, config, outputs):
        problems = []
        if len(outputs) != 1:
            problems.append(
                f"conditional requires exactly 1 output, has {len(outputs)}"
            )
        if "when" not in config:
            problems.append("conditional requires when")
        else:
            try:
                parse_predicate(config["when"])
            except SpecSyntaxError as err:
                problems.append(f"bad predicate: {err.message}")
        return problems

    @classmethod
    def config_lines(cls, config):
        try:
            canonical = predicate_text(parse_predicate(config["when"]))
        except SpecSyntaxError:
            canonical = config["when"]
        lines = [f"when {canonical}"]
        if "on_false" in config:
            lines.append(f"on_false {config['on_false']}")
        return lines

    def receive(self, node, msg):
        engine = node.engine
        _, to = node.outputs[0]
        forward = lambda: engine.dispatch(node, to, msg)
        engine.charge("predicate_eval")
        try:
            result = evaluate(self.predicate, msg.amount, engine.now, msg.metadata)
        except PredicateEvalError as err:
            raise StreamError(
                ErrorSeverity.RECOVERABLE, f"predicate failed: {err}",
                continuation=forward,
            ) from None
        if result:
            forward()
        else:
            raise StreamError(self.on_false, "predicate false",
                              continuation=forward)


class OracleTemplate(Template):
    """Holds funds until an account on the trust list instructs amount and
    destination."""

    name = "oracle"

    @staticmethod
    def empty_config() -> dict:
        return {"oracles": []}

    @classmethod
    def parse_config_line(cls, config, tokens):
        if tokens[0] == "oracle":
            if len(tokens) != 2:
                raise ValueError("oracle takes one account per line")
            if tokens[1] in config["oracles"]:
                raise ValueError(f"duplicate oracle {tokens[1]!r}")
            config["oracles"].append(tokens[1])
        else:
            raise ValueError(f"unknown oracle config key {tokens[0]!r}")

    @classmethod
    def validate(cls, config, outputs):
        problems = []
        if not outputs:
            problems.append("oracle requires at least 1 output")
        if not config["oracles"]:
            problems.append("oracle requires at least one trusted account")
        return problems

    @classmethod
    def config_lines(cls, config):
        return [f"oracle {account}" for account in config["oracles"]]

    def initial_state(self):
        return {"available": 0, "last": None}

    def receive(self, node, msg):
        node.state["available"] += msg.amount
        node.state["last"] = msg

    def instruct(self, node, oracle, dest_tag, amount):
        if oracle not in self.config["oracles"]:
            raise UntrustedOracle(f"{oracle} may not instruct {node.id}")
        if dest_tag not in node.out_by_tag:
            raise UnknownEdge(f"{node.id} has no output tagged {dest_tag!r}")
        if amount <= 0:
            raise ZeroAmount("instructed amount must be positive")
        available = node.state["available"]
        if amount > available:
            raise InsufficientHeld(
                f"{node.id} holds {available}, instructed {amount}"
            )
        node.state["available"] = available - amount
        last = node.state["last"]
        node.engine.dispatch(node, node.target(dest_tag), last.child(amount=amount))


class WaterfallTemplate(Template):
    """Fills ordered tiers up to lifetime caps; a trailing uncapped tier
    absorbs the rest. Overflow past every cap raises a recoverable error."""

    name = "waterfall"

    @staticmethod
    def empty_config() -> dict:
        return {"tiers": []}

    @classmethod
    def parse_config_line(cls, config, tokens):
        if tokens[0] == "tier":
            if len(tokens) != 3:
                raise ValueError("tier takes a tag and a cap (integer or rest)")
            cap = None if tokens[2] == "rest" else _int_token(tokens[2], "tier cap")
            config["tiers"].append((tokens[1], cap))
        else:
            raise ValueError(f"unknown waterfall config key {tokens[0]!r}")

    @classmethod
    def validate(cls, config, outputs):
        problems = []
        tiers = config["tiers"]
        out_tags = {tag for tag, _ in outputs}
        if not tiers:
            problems.append("waterfall requires at least one tier")
        seen = set()
        for i, (tag, cap) in enumerate(tiers):
            if tag in seen:
                problems.append(f"duplicate tier for tag {tag!r}")
            seen.add(tag)
            if tag not in out_tags:
                problems.append(f"tier {tag!r} does not match any output")
            if cap is None and i != len(tiers) - 1:
                problems.append("only the last tier may be uncapped")
            if cap is not None and cap < 1:
                problems.append(f"tier {tag!r} cap must be >= 1")
        for tag, _ in outputs:
            if tag not in seen:
                problems.append(f"output {tag!r} has no tier")
        return problems

    @classmethod
    def config_lines(cls, config):
        return [
            f"tier {tag} {'rest' if cap is None else cap}"
            for tag, cap in config["tiers"]
        ]

    def initial_state(self):
        return {"filled": {tag: 0 for tag, _ in self.config["tiers"]}}

    def receive(self, node, msg):
        filled = node.state["filled"]
        left = msg.amount
        for tag, cap in self.config["tiers"]:
            if left == 0:
                break
            room = left if cap is None else max(0, cap - filled[tag])
            take = min(left, room)
            if take == 0:
                continue
            filled[tag] += take
            left -= take
            node.engine.dispatch(node, node.target(tag), msg.child(amount=take))
        if left > 0:
            raise StreamError(
                ErrorSeverity.RECOVERABLE, "all tiers at capacity", amount=left
            )


class GoalkeeperTemplate(Template):
    """Terminal handler for redirected errors: reports every arrival, then
    refunds the origin, holds for an admin to claim, or forwards onward."""

    name = "goalkeeper"

    @classmethod
    def parse_config_line(cls, config, tokens):
        key = tokens[0]
        if key == "mode":
            if len(tokens) != 2 or tokens[1] not in ("refund", "hold", "forward"):
                raise ValueError("mode must be refund, hold, or forward")
            cls._set_scalar(config, "mode", tokens[1])
        elif key == "admin":
            if len(tokens) != 2:
                raise ValueError("admin takes one account")
            cls._set_scalar(config, "admin", tokens[1])
        else:
            raise ValueError(f"unknown goalkeeper config key {key!r}")

    @classmethod
    def validate(cls, config, outputs):
        problems = []
        mode = config.get("mode")
        if mode is None:
            problems.append("goalkeeper requires mode")
        if mode == "hold" and "admin" not in config:
            problems.append("goalkeeper hold mode requires admin")
        if mode == "forward":
            if len(outputs) != 1:
                problems.append("goalkeeper forward mode requires exactly 1 output")
        elif outputs:
            problems.append(f"goalkeeper {mode} mode takes no outputs")
        return problems

    @classmethod
    def config_lines(cls, config):
        lines = [f"mode {config['mode']}"]
        if "admin" in config:
            lines.append(f"admin {config['admin']}")
        return lines

    def receive(self, node, msg):
        info = msg.error or {}
        payload = {
            "amount": msg.amount,
            "origin": msg.origin,
            "reason": info.get("reason", "direct arrival"),
        }
        if "failed_node" in info:
            payload["failed_node"] = info["failed_node"]
        node.engine.emit("Report", node.address, payload)
        mode = self.config["mode"]
        if mode == "refund":
            node.engine.ledger.transfer(node.address, msg.origin, msg.amount)
        elif mode == "forward":
            _, to = node.outputs[0]
            node.engine.dispatch(node, to, msg)
        # hold mode keeps the funds until the admin claims them

    def claim(self, node, account):
        if self.config["mode"] != "hold":
            raise NotClaimable(f"{node.id} does not hold for claiming")
        if account != self.config["admin"]:
            raise NotClaimable(f"only {self.config['admin']} may claim from {node.id}")
        amount = node.held
        if amount == 0:
            raise NothingToClaim(f"nothing held at {node.id}")
        node.engine.ledger.transfer(node.address, account, amount)
        node.engine.emit("Claimed", node.address,
                         {"account": account, "amount": amount})
        return amount


TEMPLATES: dict[str, type] = {
    cls.name: cls
    for cls in (
        ReportingTemplate, TimelockTemplate, ThresholdTemplate,
        DistributingTemplate, ConditionalTemplate, OracleTemplate,
        WaterfallTemplate, GoalkeeperTemplate,
    )
}


def make_template(name: str, config: dict) -> Template:
    cls = TEMPLATES.get(name)
    if cls is None:
        raise KeyError(f"unknown template {name!r}")
    return cls(config)
