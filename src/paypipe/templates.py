"""Router templates: the reusable behaviors a pipeline wires together.

A router is an instance of its template class, a ``Node`` subclass. Each
template declares its config grammar as a table, which one parser, one
validator and one printer read, and owns its runtime logic: ``receive``,
and ``crank`` and ``instruct`` where it takes them. Mutable runtime data
lives in the node's ``state`` dict, which the engine copies the first time
a transaction touches the node, so rollback covers it. A template may
therefore mutate only its own ``state`` and the ledger; its ``config`` does
not change once the node is built.

Aggregating templates (timelock, threshold, oracle) keep the last received
message and stamp re-dispatches with its origin and metadata, so a later
refund always returns funds to the depositing account rather than to an
intermediate node.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

from .errors import (
    EngineError,
    InsufficientHeld,
    NotClaimable,
    NothingToClaim,
    SpecSyntaxError,
    UnknownEdge,
    UntrustedOracle,
    ZeroAmount,
    int_word,
    shown_word,
)
from .nodes import (
    ErrorSeverity,
    Node,
    PolicyAction,
    StreamError,
    schedule_due,
    schedule_next_due,
    schedule_release,
    schedule_state,
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


# The words a config key takes. INT, NUMERATOR, DENOMINATOR and CAP are
# integers as ``int_word`` reads them, and CAP may also be ``rest``, stored
# as None; an error names an INT by its key and the others as "KEY KIND".
# LABEL and TAG are one word; a TAG names an output. TEXT and LABELS are
# one or more words, joined into one string or kept apart. A tuple is a set
# of choices.
INT, NUMERATOR, DENOMINATOR, CAP = "int", "numerator", "denominator", "cap"
LABEL, TAG, TEXT, LABELS = "label", "tag", "text", "labels"


class ConfigKey(NamedTuple):
    """One row of a template's config table.

    ``into`` is where the value goes. None keeps it under ``key``: one
    word, a tuple of integers, the joined TEXT, or True for a key without
    words. Otherwise it names the template's one list. A row whose words
    begin with TAG appends the tagged entry ``(key, tag, value)`` to it,
    with ``value`` None for a row without a value word. Any other row
    appends each of its words, which ``item`` names in the duplicate
    message. ``arity`` is the message for words that do not fit, ``bound``
    the lowest valid value.
    """

    key: str
    words: tuple
    arity: str
    into: Optional[str] = None
    bound: Optional[int] = None
    item: str = ""


def _line_parser(row: ConfigKey):
    """The function that stores a config line of ``row.key`` in a config,
    given the line's tokens; every row's function is this one, read by the
    row's word kinds."""
    key, kinds, arity, into, _, item = row
    size = len(kinds) + 1
    many = kinds in ((TEXT,), (LABELS,))
    choices = kinds[0] if kinds and type(kinds[0]) is tuple else ()
    # per integer word: its position, its name in a message, and whether
    # it is a CAP, whose word ``rest`` reads as None
    ints = [(i, key if kind == INT else f"{key} {kind}", kind == CAP)
            for i, kind in enumerate(kinds, 1)
            if kind in (INT, NUMERATOR, DENOMINATOR, CAP)]
    entry = kinds[:1] == (TAG,)

    def parse(config, tokens):
        if len(tokens) != size and not (many and len(tokens) > 1):
            raise ValueError(arity)
        if ints:
            tokens = tokens[:]
            for i, what, cap in ints:
                word = tokens[i]
                tokens[i] = int_word(word)
                if tokens[i] is None and not (cap and word == "rest"):
                    raise ValueError(f"{what} must be an integer, "
                                     f"got {shown_word(word)}")
        elif choices and tokens[1] not in choices:
            raise ValueError(arity)
        if entry:
            value = tokens[2] if size == 3 else None
            config[into].append((key, tokens[1], value))
        elif into is not None:
            items = config[into]
            for word in tokens[1:]:
                if word in items:
                    raise ValueError(f"duplicate {item} {shown_word(word)}")
                items.append(word)
        elif key in config:
            raise ValueError(f"duplicate config key {key!r}")
        else:
            config[key] = (" ".join(tokens[1:]) if many
                           else tokens[1] if size == 2
                           else tuple(tokens[1:]) or True)

    return parse


def _read_table(cls) -> None:
    """Set ``cls``'s config grammar from its table. ``empty_config`` and
    ``parse_config_line`` are built here, not looked up per call, because
    a large pipeline calls them once per node and once per config line;
    ``parse_config_line`` hands each key's line to that row's function
    from ``_line_parser``, the one config-line parser."""
    table = cls.config_table
    # a template keeps at most one list
    (name,) = {row.into for row in table if row.into} or {None}
    cls.empty_config = staticmethod(dict if name is None
                                    else lambda: {name: []})
    cls._tagged = [row for row in table if row.words[:1] == (TAG,)]
    parsers = {row.key: _line_parser(row) for row in table}

    def parse_config_line(config: dict, tokens: list[str]) -> None:
        try:
            parse = parsers[tokens[0]]
        except KeyError:
            if parsers:
                raise ValueError(f"unknown {cls.name} config key "
                                 f"{shown_word(tokens[0])}") from None
            raise ValueError(f"{cls.name} takes no config") from None
        parse(config, tokens)

    cls.parse_config_line = staticmethod(parse_config_line)
    # (key, whether it names the list, the problem when missing or empty)
    cls._required = [(key, key == name, f"{cls.name} requires {what}")
                     for key, what in cls.required.items()]
    cls._bounds = [(row.key, row.bound, f"{row.key} must be >= {row.bound}")
                   for row in table if row.into is None and row.bound is not None]


class Template(Node):
    """A router node whose behavior is its template class.

    The config grammar is a table. ``config_table`` holds one ``ConfigKey``
    per key, in canonical order; ``required`` maps each key or list that
    must not be missing or empty to the words its problem puts after
    "requires"; ``output_count`` is the output-count rule, "1" for exactly
    one, "1+" for at least one, None for none. ``empty_config`` and
    ``parse_config_line`` are made from the table when a subclass is
    defined; ``validate`` and ``config_lines`` read it. What the table
    cannot state, such as a rule across fields, is written out in the
    optional hooks below ``config_lines``. An instance is the router node
    itself, built from its parsed ``config``.
    """

    name = ""
    config_table: tuple = ()
    required: dict = {}
    output_count: Optional[str] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _read_table(cls)

    def __init__(self, node_id: str, config: dict, outputs=None,
                 error_policy=None):
        super().__init__(node_id, outputs=outputs, error_policy=error_policy)
        self.config = config
        self.state = self.initial_state()

    # -- config grammar -----------------------------------------------------

    @classmethod
    def validate(cls, config: dict, outputs: list[tuple[str, str]]) -> list[str]:
        """Config-level problems as human-readable strings; empty if fine."""
        count = len(outputs)
        if cls.output_count == "1":
            problems = [] if count == 1 else [
                f"{cls.name} requires exactly 1 output, has {count}"]
        elif cls.output_count == "1+":
            problems = [] if count else [
                f"{cls.name} requires at least 1 output"]
        elif cls._output_problems is not None:
            problems = cls._output_problems(config, count)
        else:
            problems = []
        for key, listed, problem in cls._required:
            if not config[key] if listed else key not in config:
                problems.append(problem)
        for key, bound, problem in cls._bounds:
            if config.get(key, bound) < bound:
                problems.append(problem)
        tagged = cls._tagged
        if not tagged:
            if cls._check is not None:
                problems += cls._check(config, outputs)
            return problems
        # the tagged entries against the outputs, each way
        item = tagged[0].item
        bounds = {row.key: row.bound for row in tagged}
        entry_problems = cls._entry_problems
        out_tags = {tag for tag, _ in outputs}
        seen = set()
        entries = config[tagged[0].into]
        for i, (key, tag, value) in enumerate(entries):
            if tag in seen:
                problems.append(f"duplicate {item} for tag {tag!r}")
            seen.add(tag)
            if tag not in out_tags:
                problems.append(f"{item} {tag!r} does not match any output")
            bound = bounds[key]
            if bound is not None and value < bound:
                problems.append(f"{key} {item} {tag!r} must be >= {bound}")
            if entry_problems is not None:
                problems += entry_problems(tag, value, i == len(entries) - 1)
        if cls._check is not None:
            problems += cls._check(config, outputs)
        for tag, _ in outputs:
            if tag not in seen:
                problems.append(f"output {tag!r} has no {item}")
        return problems

    @classmethod
    def config_lines(cls, config: dict) -> list[str]:
        """Config in canonical order, one logical line per entry."""
        lines = []
        for row in cls.config_table:
            key, words, into = row.key, row.words, row.into
            if into is None:
                if key in config:
                    value = config[key]
                    if type(value) is tuple:
                        key = " ".join(map(str, (key, *value)))
                    elif value is not True:
                        key = f"{key} {value}"
                    lines.append(key)
            elif words[:1] != (TAG,):
                items = config[into]
                if words != (LABELS,):
                    lines += [f"{key} {word}" for word in items]
                elif items:
                    lines.append(" ".join((key, *items)))
            elif row is cls._tagged[0]:
                # all entries in list order, whichever row made each
                valued = {row.key: len(row.words) > 1 for row in cls._tagged}
                for key, tag, value in config[into]:
                    if not valued[key]:
                        lines.append(f"{key} {tag}")
                    else:
                        lines.append(f"{key} {tag} "
                                     f"{'rest' if value is None else value}")
        return lines

    # The rules the table cannot state, each a classmethod returning a list
    # of problems, or None where a template has no such rule:
    # _output_problems(config, count) when ``output_count`` is None,
    # _entry_problems(tag, value, last) for each tagged entry, after its
    # own checks, and _check(config, outputs) after all entries.
    _output_problems = _entry_problems = _check = None

    # -- runtime -------------------------------------------------------------

    # The node itself, for a tool that wraps ``node.template.receive``, as
    # perfbench's tracer does: that is the method the engine calls.
    template = property(lambda self: self)

    def initial_state(self) -> dict:
        return {}


class ReportingTemplate(Template):
    """Emits a ``Report`` event for every stream, then forwards it unchanged.

    The report names a sink label (who the report is for) and may echo
    selected metadata keys into the event payload.
    """

    name = "reporting"
    config_table = (
        ConfigKey("sink", (LABEL,), "sink takes one label"),
        ConfigKey("keys", (LABELS,), "keys needs at least one metadata key",
                  into="keys", item="report key"),
    )
    required = {"sink": "a sink label"}
    output_count = "1"

    def receive(self, msg):
        payload = {"sink": self.config["sink"], "amount": msg.amount,
                   "origin": msg.origin}
        for key in self.config["keys"]:
            if key in msg.metadata:
                payload.setdefault(key, msg.metadata[key])
        self.engine.emit("Report", self.address, payload)
        _, to = self.outputs[0]
        self.engine.dispatch(self, to, msg)


class TimelockTemplate(Template):
    """Accumulates funds and releases them on a crank-driven schedule.

    Release k falls due at ``start + k * period``. Each release pays a fixed
    amount (capped at what is held) or a fraction of the current holding;
    the final release always flushes whatever remains. Streams arriving
    after the schedule is exhausted are held for the owner to resolve.
    """

    name = "timelock"
    config_table = (
        ConfigKey("start", (INT,), "start takes one integer", bound=0),
        ConfigKey("period", (INT,), "period takes one integer", bound=1),
        ConfigKey("releases", (INT,), "releases takes one integer", bound=1),
        ConfigKey("fixed", (INT,), "fixed takes one integer"),
        ConfigKey("fraction", (NUMERATOR, DENOMINATOR),
                  "fraction takes two integers: numerator denominator"),
    )
    required = {"start": "start", "period": "period", "releases": "releases"}
    output_count = "1"

    @classmethod
    def _check(cls, config, outputs):
        problems = []
        if ("fixed" in config) == ("fraction" in config):
            problems.append("timelock requires exactly one of fixed or fraction")
        if config.get("fixed", 1) < 1:
            problems.append("fixed must be >= 1")
        if "fraction" in config:
            p, q = config["fraction"]
            if q < 1 or p < 1 or p > q:
                problems.append("fraction must satisfy 1 <= numerator <= denominator")
        return problems

    def initial_state(self):
        return schedule_state(last=None)

    def receive(self, msg):
        self.state["last"] = msg
        if self.next_due() is None:
            raise StreamError(
                ErrorSeverity.RECOVERABLE, "schedule exhausted",
                action_override=PolicyAction.HOLD,
            )
        # otherwise accumulate silently; cranks move the funds

    def due_releases(self, now):
        config = self.config
        return schedule_due(self.state, config["releases"], config["start"],
                            config["period"], now)

    def next_due(self):
        return schedule_next_due(self.state, self.config["releases"],
                                 self.config["start"], self.config["period"])

    def crank(self, k, due):
        schedule_release(self.state, k, self.id)
        held = self.held
        if k == self.config["releases"] - 1:
            amount = held  # final release flushes everything
        elif "fixed" in self.config:
            amount = min(self.config["fixed"], held)
        else:
            p, q = self.config["fraction"]
            amount = held * p // q
        self.engine.emit("Released", self.address,
                         {"release": k, "at": due, "amount": amount})
        if amount == 0:
            return
        last = self.state["last"]
        if last is None:
            raise EngineError(f"{self.id} holds funds with no recorded stream")
        _, to = self.outputs[0]
        self.engine.dispatch(self, to, last.child(amount=amount))


class ThresholdTemplate(Template):
    """Accumulates arrivals and forwards the whole holding once it reaches
    the limit. Amounts already held count toward the next flush."""

    name = "threshold"
    config_table = (
        ConfigKey("limit", (INT,), "limit takes one integer", bound=1),
    )
    required = {"limit": "limit"}
    output_count = "1"

    def initial_state(self):
        return {"last": None}

    def receive(self, msg):
        self.state["last"] = msg
        held = self.held
        if held < self.config["limit"]:
            return
        _, to = self.outputs[0]
        self.engine.dispatch(self, to, msg.child(amount=held))


class DistributingTemplate(Template):
    """Splits each stream across its outputs: fixed amounts first, then the
    remainder by weight (largest-remainder rounding, earliest share wins
    ties), with an optional residual share absorbing rounding leftovers."""

    name = "distributing"
    config_table = (
        ConfigKey("fixed", (TAG, INT), "fixed takes a tag and an integer",
                  into="shares", bound=1, item="share"),
        ConfigKey("weight", (TAG, INT), "weight takes a tag and an integer",
                  into="shares", bound=1, item="share"),
        ConfigKey("residual", (TAG,), "residual takes a tag",
                  into="shares", item="share"),
        ConfigKey("allow_single", (), "allow_single takes no value"),
    )
    required = {"shares": "at least one share"}

    @classmethod
    def _output_problems(cls, config, count):
        minimum = 1 if config.get("allow_single") else 2
        if count >= minimum:
            return []
        plural = "s" if minimum > 1 else ""
        return [f"distributing requires at least {minimum} output{plural}, "
                f"has {count}"]

    @classmethod
    def _check(cls, config, outputs):
        kinds = [kind for kind, _, _ in config["shares"]]
        return ["at most one residual share"] if kinds.count("residual") > 1 else []

    def receive(self, msg):
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
                self.engine.dispatch(self, self.target(tag), msg.child(amount=share))
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
    config_table = (
        ConfigKey("when", (TEXT,), "when needs a predicate"),
        ConfigKey("on_false", (("warning", "recoverable", "fatal"),),
                  "on_false must be warning, recoverable, or fatal"),
    )
    required = {"when": "when"}
    output_count = "1"

    def __init__(self, node_id, config, **wiring):
        super().__init__(node_id, config, **wiring)
        self.predicate = parse_predicate(config["when"])
        self.on_false = ErrorSeverity[
            config.get("on_false", "recoverable").upper()]

    @classmethod
    def _check(cls, config, outputs):
        if "when" in config:
            try:
                parse_predicate(config["when"])
            except SpecSyntaxError as err:
                return [f"bad predicate: {err.message}"]
        return []

    @classmethod
    def config_lines(cls, config):
        try:
            when = predicate_text(parse_predicate(config["when"]))
        except SpecSyntaxError:
            when = config["when"]
        return super().config_lines({**config, "when": when})

    def receive(self, msg):
        engine = self.engine
        _, to = self.outputs[0]
        engine.charge("predicate_eval")
        try:
            result = evaluate(self.predicate, msg.amount, engine.now, msg.metadata)
        except PredicateEvalError as err:
            raise StreamError(
                ErrorSeverity.RECOVERABLE, f"predicate failed: {err}",
                continuation=partial(engine.dispatch, self, to, msg),
            ) from None
        if result:
            engine.dispatch(self, to, msg)
        else:
            raise StreamError(self.on_false, "predicate false",
                              continuation=partial(engine.dispatch, self, to, msg))


class OracleTemplate(Template):
    """Holds funds until an account on the trust list instructs amount and
    destination."""

    name = "oracle"
    config_table = (
        ConfigKey("oracle", (LABEL,), "oracle takes one account per line",
                  into="oracles", item="oracle"),
    )
    required = {"oracles": "at least one trusted account"}
    output_count = "1+"

    def initial_state(self):
        return {"available": 0, "last": None}

    def receive(self, msg):
        self.state["available"] += msg.amount
        self.state["last"] = msg

    def instruct(self, oracle, dest_tag, amount):
        if oracle not in self.config["oracles"]:
            raise UntrustedOracle(f"{oracle} may not instruct {self.id}")
        if dest_tag not in self.out_by_tag:
            raise UnknownEdge(f"{self.id} has no output tagged {dest_tag!r}")
        if amount <= 0:
            raise ZeroAmount("instructed amount must be positive")
        available = self.state["available"]
        if amount > available:
            raise InsufficientHeld(
                f"{self.id} holds {available}, instructed {amount}"
            )
        self.state["available"] = available - amount
        last = self.state["last"]
        self.engine.dispatch(self, self.target(dest_tag), last.child(amount=amount))


class WaterfallTemplate(Template):
    """Fills ordered tiers up to lifetime caps; a trailing uncapped tier
    absorbs the rest. Overflow past every cap raises a recoverable error."""

    name = "waterfall"
    config_table = (
        ConfigKey("tier", (TAG, CAP),
                  "tier takes a tag and a cap (integer or rest)",
                  into="tiers", item="tier"),
    )
    required = {"tiers": "at least one tier"}
    output_count = "1+"

    @classmethod
    def _entry_problems(cls, tag, cap, last):
        if cap is None:
            return [] if last else ["only the last tier may be uncapped"]
        return [f"tier {tag!r} cap must be >= 1"] if cap < 1 else []

    def initial_state(self):
        return {"filled": {tag: 0 for _, tag, _ in self.config["tiers"]}}

    def receive(self, msg):
        filled = self.state["filled"]
        left = msg.amount
        for _, tag, cap in self.config["tiers"]:
            if left == 0:
                break
            room = left if cap is None else max(0, cap - filled[tag])
            take = min(left, room)
            if take == 0:
                continue
            filled[tag] += take
            left -= take
            self.engine.dispatch(self, self.target(tag), msg.child(amount=take))
        if left > 0:
            raise StreamError(
                ErrorSeverity.RECOVERABLE, "all tiers at capacity", amount=left
            )


class GoalkeeperTemplate(Template):
    """Terminal handler for redirected errors: reports every arrival, then
    refunds the origin, holds for an admin to claim, or forwards onward."""

    name = "goalkeeper"
    config_table = (
        ConfigKey("mode", (("refund", "hold", "forward"),),
                  "mode must be refund, hold, or forward"),
        ConfigKey("admin", (LABEL,), "admin takes one account"),
    )
    required = {"mode": "mode"}

    @classmethod
    def _check(cls, config, outputs):
        # a missing mode is reported alone: it has no output count to check
        mode, problems = config.get("mode"), []
        if mode == "hold" and "admin" not in config:
            problems.append("goalkeeper hold mode requires admin")
        if mode == "forward":
            if len(outputs) != 1:
                problems.append(
                    "goalkeeper forward mode requires exactly 1 output")
        elif mode is not None and outputs:
            problems.append(f"goalkeeper {mode} mode takes no outputs")
        return problems

    def receive(self, msg):
        info = msg.error or {}
        payload = {
            "amount": msg.amount,
            "origin": msg.origin,
            "reason": info.get("reason", "direct arrival"),
        }
        if "failed_node" in info:
            payload["failed_node"] = info["failed_node"]
        self.engine.emit("Report", self.address, payload)
        mode = self.config["mode"]
        if mode == "refund":
            self.engine.ledger.transfer(self.address, msg.origin, msg.amount)
        elif mode == "forward":
            _, to = self.outputs[0]
            self.engine.dispatch(self, to, msg)
        # hold mode keeps the funds until the admin claims them

    def claim(self, account):
        if self.config["mode"] != "hold":
            raise NotClaimable(f"{self.id} does not hold for claiming")
        if account != self.config["admin"]:
            raise NotClaimable(f"only {self.config['admin']} may claim from {self.id}")
        amount = self.held
        if amount == 0:
            raise NothingToClaim(f"nothing held at {self.id}")
        self.engine.ledger.transfer(self.address, account, amount)
        self.engine.emit("Claimed", self.address,
                         {"account": account, "amount": amount})
        return amount


_read_table(Template)

TEMPLATES: dict[str, type] = {
    cls.name: cls
    for cls in (
        ReportingTemplate, TimelockTemplate, ThresholdTemplate,
        DistributingTemplate, ConditionalTemplate, OracleTemplate,
        WaterfallTemplate, GoalkeeperTemplate,
    )
}

