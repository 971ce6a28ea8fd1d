"""Seeded workload generators for the paypipe benchmark.

Each generator turns a seed into pipeline text, the setup approvals, a list of
trigger calls, and the outcome it plans for every call. It also models the
money flow itself, so every expected output is computed here and never read
back from the engine under test. The engine sees only the generated text and
public trigger calls.

All three workloads are closed loops: one caller submits the next trigger
only after the previous one returns.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any

from paypipe import bench


@dataclass(frozen=True)
class Trigger:
    """One public trigger call and the outcome the generator planned for it.

    ``expect`` is ``None`` for a committed transaction, an error code for a
    planned revert, or, for ``advance_time``, the number of cranks that must
    commit.
    """

    engine: str  # key into the workload's engines
    method: str  # submit_deposit | submit_oracle_instruct | submit_claim | advance_time
    args: tuple
    expect: Any = None
    timed: bool = True  # counts toward the trigger-phase timings


def outcome_matches(trigger: Trigger, result) -> bool:
    """Whether a trigger's result is the outcome its plan names."""
    if trigger.method == "advance_time":
        return (len(result) == trigger.expect
                and all(r.committed for r in result))
    if trigger.expect is None:
        return result.committed
    return (not result.committed
            and result.reason.split(":", 1)[0] == trigger.expect)


def split_by_weight(total: int, weights: list[int]) -> list[int]:
    """Largest-remainder split, ties to the earliest share (the documented
    rule for distributing routers), written here as the benchmark's oracle."""
    w_sum = sum(weights)
    shares = [total * w // w_sum for w in weights]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: (-(total * weights[i] % w_sum), i))
    for i in by_remainder[:total - sum(shares)]:
        shares[i] += 1
    return shares


def _node(lines: list[str], node_id: str, *fields: str) -> None:
    lines += ["", f"node {node_id}", *(f"  {f}" for f in fields)]


class Workload:
    """Generated inputs plus the generator's own expectations.

    Subclasses set ``text`` (the pipeline text of the engine keyed
    ``"pipeline"``), ``approvals`` (``(owner, amount)`` allowances granted to
    its entry node at setup) and ``triggers``.
    """

    name = ""
    # Nominal seconds of one untraced repetition with its re-timed exports
    # and set-ups, as the slow state of a shared 2-vCPU host runs it with
    # Python 3.11; fixes the number of repetitions of a run.
    rep_seconds: float

    def input_digest(self) -> str:
        h = hashlib.sha256(self.text.encode())
        h.update(repr((self.approvals, self.triggers)).encode())
        return h.hexdigest()

    def extra_engines(self) -> dict:
        """Engines the workload builds outside the pipeline text."""
        return {}

    def check(self, engines: dict, observe) -> list[str]:
        """Problems found in the final outputs; empty when all is as planned.

        ``observe`` calls ``paypipe.bench.observables`` and lets the caller
        time it.
        """
        raise NotImplementedError


def _balance_problems(engine, expected: dict[str, int]) -> list[str]:
    balances = engine.ledger.balances
    return [f"{account} holds {balances.get(account, 0)}, expected {amount}"
            for account, amount in expected.items()
            if balances.get(account, 0) != amount]


class Payroll(Workload):
    """The paper's payroll: a timelock feeding a weighted split with one
    reporting router and one endpoint per recipient, run as a pipeline and as
    the monolith. Few transactions, each with a huge fan-out."""

    name = "payroll"
    rep_seconds = 2.7

    def __init__(self, seed: int, scale: float = 1.0):
        rng = random.Random(f"payroll:{seed}")
        self.recipients = max(2, round(1000 * scale))
        self.periods = 10
        self.weights = [rng.randint(1, 9) for _ in range(self.recipients)]
        self.deposit = bench.PAY_PER_PERIOD * self.recipients * self.periods
        self.text = bench.build_pipeline_text(self.recipients, self.periods,
                                              self.weights)
        self.approvals = [(bench.EMPLOYER, self.deposit)]
        self.triggers = []
        for engine in ("pipeline", "monolith"):
            # Only the pipeline is timed: the monolith is the reference, and
            # its much cheaper cranks would split the sample.
            timed = engine == "pipeline"
            self.triggers.append(Trigger(engine, "submit_deposit",
                                         (bench.EMPLOYER, self.deposit),
                                         timed=timed))
            self.triggers += [Trigger(engine, "advance_time", (bench.PERIOD,),
                                      1, timed=timed)
                              for _ in range(self.periods)]
        per_release = split_by_weight(bench.PAY_PER_PERIOD * self.recipients,
                                      self.weights)
        self.paid = {account: share * self.periods for account, share
                     in zip(bench.recipient_accounts(self.recipients),
                            per_release)}

    def extra_engines(self) -> dict:
        engine = bench.build_monolith(self.recipients, self.periods,
                                      self.weights)
        entry = engine.nodes[engine.entry]
        engine.ledger.approve(bench.EMPLOYER, entry.address, self.deposit)
        return {"monolith": engine}

    def check(self, engines, observe):
        pipe = observe(engines["pipeline"])
        mono = observe(engines["monolith"])
        problems = []
        if pipe != mono:
            problems.append("pipeline and monolith observables differ")
        payouts = pipe["payouts"]
        if sum(amount for _, amount, _ in payouts) != self.deposit:
            problems.append("payouts do not total the deposit")
        if len(payouts) != self.recipients * self.periods:
            problems.append(f"{len(payouts)} payouts, expected "
                            f"{self.recipients * self.periods}")
        for engine in engines.values():
            problems += _balance_problems(engine, self.paid)
        return problems


class Deposits(Workload):
    """Many small deposits into a small conditional pipeline over a large
    ledger, with oracle instructions and claims interleaved and about one
    trigger in five reverting by design."""

    name = "deposits"
    rep_seconds = 2.9
    SPLIT = (("fall", 5), ("thr", 3), ("orc", 2))
    LIMIT = 5000
    EVERY = 25  # one oracle instruction or claim after every 25 deposits

    def __init__(self, seed: int, scale: float = 1.0):
        rng = random.Random(f"deposits:{seed}")
        n = max(8, round(4000 * scale))
        caps = {"senior": 10 * n, "junior": 15 * n}
        depositors = [f"dep-{i:05d}" for i in range(n)]
        # A fixed share of deposits fails the gate, so the revert count does
        # not depend on the seed; which ones and how they fail does.
        rejected = set(rng.sample(range(n), n // 5))
        mints, plans = {}, []
        for i, account in enumerate(depositors):
            amount, kyc = rng.randint(10, 500), "ok"
            if i in rejected:
                if rng.random() < 0.5:
                    amount = rng.randint(1, 9)
                else:
                    kyc = "pending"
            mints[account] = amount + rng.randint(0, 1000)
            plans.append((account, amount, kyc))
        self.text = self._text(mints, caps)
        self.approvals = [(a, amount) for a, amount, _ in plans]

        # The generator's model of the flow; see the pipeline text below.
        balances = dict(mints)
        filled = dict.fromkeys(caps, 0)
        held = {"thr": 0, "orc": 0, "rest": 0, "reserve": 0}
        paid = dict.fromkeys(("senior", "junior", "reporter", "ops",
                              "rest-holder", "reserve-holder"), 0)
        self.triggers = []
        for i, (account, amount, kyc) in enumerate(plans):
            committed = amount >= 10 and kyc == "ok"
            self.triggers.append(Trigger(
                "pipeline", "submit_deposit",
                (account, amount, {"kyc": kyc}),
                None if committed else "FatalStreamError"))
            if committed:
                balances[account] -= amount
                fall, thr, orc = split_by_weight(
                    amount, [w for _, w in self.SPLIT])
                for tier, cap in caps.items():
                    take = min(fall, cap - filled[tier])
                    filled[tier] += take
                    paid[tier] += take
                    fall -= take
                held["rest"] += fall
                held["thr"] += thr
                if held["thr"] >= self.LIMIT:
                    paid["reporter"] += held["thr"]
                    held["thr"] = 0
                held["orc"] += orc
            if (i + 1) % self.EVERY == 0:
                self.triggers.append(self._side_trigger(
                    (i + 1) // self.EVERY % 4, rng, held, paid))
        self.balances = {**balances, **paid}
        self.held = {"node:thr": held["thr"], "node:orc": held["orc"],
                     "node:hold-rest": held["rest"],
                     "node:hold-reserve": held["reserve"]}

    @staticmethod
    def _side_trigger(turn: int, rng, held: dict, paid: dict) -> Trigger:
        """An oracle instruction or claim, planned against the model."""
        if turn in (0, 2):
            dest = "ops" if turn == 0 else "reserve"
            available = held["orc"]
            if available == 0 or rng.random() < 0.2:
                amount = available + rng.randint(1, 100)
                return Trigger("pipeline", "submit_oracle_instruct",
                               ("orc", "oracle-1", dest, amount),
                               "InsufficientHeld")
            amount = rng.randint(1, available)
            held["orc"] -= amount
            if dest == "ops":
                paid["ops"] += amount
            else:
                held["reserve"] += amount
            return Trigger("pipeline", "submit_oracle_instruct",
                           ("orc", "oracle-1", dest, amount))
        pot, node, account = (("rest", "hold-rest", "rest-holder")
                              if turn == 1 else
                              ("reserve", "hold-reserve", "reserve-holder"))
        if held[pot] == 0:
            return Trigger("pipeline", "submit_claim", (node, account),
                           "NothingToClaim")
        paid[account] += held[pot]
        held[pot] = 0
        return Trigger("pipeline", "submit_claim", (node, account))

    def _text(self, mints: dict, caps: dict) -> str:
        lines = ["pipeline deposits", ""]
        lines += [f"balance {account} {amount}" for account, amount in mints.items()]
        _node(lines, "origin", "kind originator", "out main -> gate")
        _node(lines, "gate", "kind router", "template conditional",
              "out main -> split",
              'config when amount >= 10 and metadata.kyc = "ok"',
              "config on_false fatal")
        _node(lines, "split", "kind router", "template distributing",
              *(f"out {tag} -> {tag}" for tag, _ in self.SPLIT),
              *(f"config weight {tag} {w}" for tag, w in self.SPLIT))
        _node(lines, "fall", "kind router", "template waterfall",
              "out senior -> pay-senior", "out junior -> pay-junior",
              "out rest -> hold-rest",
              *(f"config tier {tier} {cap}" for tier, cap in caps.items()),
              "config tier rest rest")
        _node(lines, "thr", "kind router", "template threshold",
              "out main -> report", f"config limit {self.LIMIT}")
        _node(lines, "report", "kind router", "template reporting",
              "out main -> pay-report", "config sink auditor",
              "config keys kyc")
        _node(lines, "orc", "kind router", "template oracle",
              "out ops -> pay-ops", "out reserve -> hold-reserve",
              "config oracle oracle-1")
        for node_id, recipient, mode in (
                ("pay-senior", "senior", "direct"),
                ("pay-junior", "junior", "direct"),
                ("pay-report", "reporter", "direct"),
                ("pay-ops", "ops", "direct"),
                ("hold-rest", "rest-holder", "claimable"),
                ("hold-reserve", "reserve-holder", "claimable")):
            _node(lines, node_id, "kind endpoint", f"recipient {recipient}",
                  f"mode {mode}")
        return "\n".join(lines) + "\n"

    def check(self, engines, observe):
        engine = engines["pipeline"]
        return (_balance_problems(engine, self.balances)
                + _balance_problems(engine, self.held))


class Schedules(Workload):
    """Many long timelock schedules behind one distributing fan-out, then
    one-unit clock ticks. Three ticks in four find nothing due, so the
    median tick is the due-release scan alone; the other ticks crank one
    release each."""

    name = "schedules"
    rep_seconds = 2.85
    STEP = 4  # ticks between one release and the next, across all timelocks
    FIXED = 10

    def __init__(self, seed: int, scale: float = 1.0):
        rng = random.Random(f"schedules:{seed}")
        locks = max(2, round(100 * scale))
        releases = max(2, round(100 * scale))
        ticks = 10 * releases
        # The timelocks take turns: lock j is due at STEP * (1 + j) and then
        # every STEP * locks ticks, so exactly one release falls due on every
        # fourth tick. The seed deals the turns out, so the number of
        # releases due is the same for every seed while the trace is not.
        period = self.STEP * locks
        starts = [self.STEP * (1 + j) for j in range(locks)]
        rng.shuffle(starts)
        ids = [f"{j:03d}" for j in range(locks)]
        pool = self.FIXED * releases
        lines = ["pipeline schedules", "", f"balance funder {pool * locks}"]
        _node(lines, "origin", "kind originator", "out main -> split")
        _node(lines, "split", "kind router", "template distributing",
              *(f"out l{i} -> lock-{i}" for i in ids),
              *(f"config weight l{i} 1" for i in ids))
        for i, start in zip(ids, starts):
            _node(lines, f"lock-{i}", "kind router", "template timelock",
                  f"out main -> pay-{i}", f"config start {start}",
                  f"config period {period}",
                  f"config releases {releases}", f"config fixed {self.FIXED}")
            _node(lines, f"pay-{i}", "kind endpoint", f"recipient r-{i}")
        self.text = "\n".join(lines) + "\n"
        self.approvals = [("funder", pool * locks)]

        due_at: dict[int, int] = {}
        for start in starts:
            for k in range(releases):
                due_at[start + k * period] = \
                    due_at.get(start + k * period, 0) + 1
        # The funding deposit is untimed: the timings are of the ticks.
        self.triggers = [Trigger("pipeline", "submit_deposit",
                                 ("funder", pool * locks), timed=False)]
        self.triggers += [Trigger("pipeline", "advance_time", (1,),
                                  due_at.get(t, 0))
                          for t in range(1, ticks + 1)]
        self.released = {
            f"node:lock-{i}": sum(1 for k in range(releases)
                                  if start + k * period <= ticks)
            for i, start in zip(ids, starts)}
        self.balances = {f"r-{i}": self.FIXED * self.released[f"node:lock-{i}"]
                         for i in ids}

    def check(self, engines, observe):
        engine = engines["pipeline"]
        emitted: dict[str, int] = {}
        for ev in engine.events:
            if ev.kind == "Released":
                emitted[ev.emitter] = emitted.get(ev.emitter, 0) + 1
        problems = [f"{lock} released {emitted.get(lock, 0)}, expected {n}"
                    for lock, n in self.released.items()
                    if emitted.get(lock, 0) != n]
        return problems + _balance_problems(engine, self.balances)


WORKLOADS = {w.name: w for w in (Payroll, Deposits, Schedules)}
