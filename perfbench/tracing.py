"""Spans and counters for the traced run, recorded from outside the program.

The benchmark wraps the public calls of each layer on live instances (and
``evaluate`` and ``validate_pipeline`` where ``paypipe.templates`` and
``paypipe.pipeline`` bind them). Each span records its name, start, end and
parent. Spans stay in memory until the run ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter

import paypipe.pipeline
import paypipe.templates

CLOCK = time.perf_counter_ns

# Engine trigger calls, all recorded as spans named "engine.trigger".
TRIGGERS = ("submit_deposit", "submit_oracle_instruct", "submit_claim",
            "advance_time")
# Ledger method -> span name.
LEDGER_OPS = {"mint": "ledger.write", "transfer": "ledger.write",
              "approve": "ledger.write", "transfer_from": "ledger.write",
              "balance_of": "ledger.read", "allowance": "ledger.read",
              "restore": "ledger.restore", "sum_of_balances": "ledger.sum"}


def _state_items(state: dict) -> int:
    """Items of a node's state dict and of each list or dict directly in it."""
    return len(state) + sum(len(v) for v in state.values()
                            if isinstance(v, (list, dict)))


class Tracer:
    """In-memory spans ``[name, start_ns, end_ns, parent]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, CLOCK(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = CLOCK()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        counts, open_, close = self.counts, self._open, self._close

        def traced(*args, **kwargs):
            counts[name] += 1
            span = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)
        return traced

    # -- installing wrappers ----------------------------------------------

    def patch_modules(self) -> None:
        """Wrap the module-level functions the program calls by name."""
        for module, attr, name in (
                (paypipe.templates, "evaluate", "predicates.eval"),
                (paypipe.pipeline, "validate_pipeline", "pipeline.validate_call")):
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def unpatch_modules(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def instrument(self, engine) -> None:
        """Wrap the public calls of one live engine, its ledger, meter and
        nodes."""
        for method in TRIGGERS:
            setattr(engine, method,
                    self.wrap("engine.trigger", getattr(engine, method)))
        for method in ("dispatch", "trace_text", "gas_text"):
            setattr(engine, method,
                    self.wrap(f"engine.{method}", getattr(engine, method)))
        ledger = engine.ledger
        for method, name in LEDGER_OPS.items():
            setattr(ledger, method, self.wrap(name, getattr(ledger, method)))
        ledger.snapshot = self._snapshot_wrapper(engine, ledger.snapshot)
        charge, counts = engine.meter.charge, self.counts

        def counted_charge(kind):
            counts[f"gas.{kind}"] += 1
            charge(kind)
        engine.meter.charge = counted_charge
        for node in engine.nodes.values():
            node.due_releases = self._due_wrapper(node.due_releases)
            node.crank = self.wrap("nodes.crank", node.crank)
            template = getattr(node, "template", None)
            if template is not None:
                template.receive = self.wrap("templates.receive",
                                             template.receive)

    def _snapshot_wrapper(self, engine, snapshot):
        """The ledger snapshot is taken once as each transaction opens, so
        this is where the entries the rollback snapshot copies are counted.
        The counting is its own span, kept out of its parent's self time."""
        ledger, counts = engine.ledger, self.counts
        traced = self.wrap("ledger.snapshot", snapshot)

        def counting_snapshot():
            span = self._open("trace.count")
            copied = len(ledger.balances) + len(ledger.allowances)
            counts["ledger.copied"] += copied
            counts["engine.snapshot_entries"] += copied + sum(
                _state_items(node.state) for node in engine.nodes.values())
            self._close(span)
            return traced()
        return counting_snapshot

    def _due_wrapper(self, due_releases):
        traced, counts = self.wrap("nodes.due", due_releases), self.counts

        def counting_due(now):
            due = traced(now)
            if due:
                counts["nodes.due_hits"] += 1
            return due
        return counting_due

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> Counter:
        """Total self time per span name, in seconds."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return Counter({name: ns / 1e9 for name, ns in totals.items()})

    def write(self, path) -> None:
        """Write the spans out as tab-separated ``name start end parent``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\n")
