"""Measuring loop and report of the paypipe benchmark.

Runs one seeded workload (see workloads.py) a fixed number of times, sized
to the measuring time, each time from generated pipeline text to exported
trace, and checks every output against the generator's own model. With ``--trace
0`` it reports the end-to-end metrics, measured with no wrappers installed.
With ``--trace 1`` it alternates untraced and traced runs, reports the
per-layer metrics and the tracing overhead, and checks that the gas charges
counted from outside sum exactly to the billed gas.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every figure by name with its unit.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import resource
import statistics
import time
from pathlib import Path

from paypipe import bench, pipeline
from paypipe.engine import CostTable

import tracing
from workloads import WORKLOADS, outcome_matches

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Set-ups and exports re-timed after each untraced repetition: each is a
# single call, too few samples at one a repetition.
SETUPS_PER_REP = 2
EXPORTS_PER_REP = 1

# (name, unit) of every metric in the JSON result, as BENCHMARK.json lists
# them. Each per-layer metric is measured on every workload; a count is 0
# where a workload never reaches the layer.
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

GAS_KINDS = tuple(f.name for f in dataclasses.fields(CostTable))

# Per-layer figures that are 0, or undefined, on a workload which never
# reaches the layer. They are printed but kept out of the JSON result, which
# holds only figures every workload measures.
TEXT_ONLY = (
    ("ledger.restore_s", "s"),
    ("ledger.sum_share", "ratio"),
    ("nodes.due_s", "s"),
    ("nodes.due_hit_ratio", "ratio"),
    ("nodes.crank_s", "s"),
    ("predicates.eval_s", "s"),
    ("bench.pipeline_run_s", "s"),
    ("bench.monolith_run_s", "s"),
    ("bench.observables_s", "s"),
)


@dataclasses.dataclass
class Rep:
    """What one run of a workload, from set-up to export, measured."""

    setup: dict  # setup_s and the pipeline.* call-site times
    run_s: dict  # engine key -> host seconds spent in its triggers
    calls: list  # (seconds, events committed, timed) per trigger call
    export_s: float
    observables_s: float
    attempted: int
    failed: int
    problems: list
    digest: str
    gas: dict  # engine key -> billed gas
    txs: int
    reverted: int
    accounts: int

    @property
    def trigger_s(self) -> float:
        return sum(self.run_s.values())

    @property
    def events(self) -> int:
        return sum(events for _, events, _ in self.calls)


def set_up(workload) -> tuple:
    """Generated text to a ready engine, timed at each call site."""
    clock = time.perf_counter
    t0 = clock()
    spec = pipeline.parse_pipeline(workload.text)
    t1 = clock()
    problems = pipeline.validate_pipeline(spec)
    if problems:
        raise RuntimeError(f"generated pipeline is invalid: {problems}")
    t2 = clock()
    engine = pipeline.instantiate(spec)
    t3 = clock()
    entry = engine.nodes[engine.entry].address
    for owner, amount in workload.approvals:
        engine.ledger.approve(owner, entry, amount)
    t4 = clock()
    return engine, {"setup_s": t4 - t0, "pipeline.parse_s": t1 - t0,
                    "pipeline.validate_s": t2 - t1,
                    "pipeline.instantiate_s": t3 - t2}


def timed_export(engines: dict) -> tuple:
    """Seconds taken by ``trace_text()`` + ``gas_text()`` of every engine,
    and the digest of what they returned."""
    clock = time.perf_counter
    t0 = clock()
    exports = [(e.trace_text(), e.gas_text()) for e in engines.values()]
    took = clock() - t0
    digest = hashlib.sha256()
    for trace, gas in exports:
        digest.update(trace.encode())
        digest.update(gas.encode())
    return took, digest.hexdigest()


def run_once(workload, tracer=None) -> tuple:
    """Set up, drive every trigger in a closed loop, export, and check;
    return the measurements and the engines."""
    clock = time.perf_counter
    gc.collect()
    if tracer is not None:
        tracer.patch_modules()
    try:
        engine, setup = set_up(workload)
        engines = {"pipeline": engine, **workload.extra_engines()}
        if tracer is not None:
            for e in engines.values():
                tracer.instrument(e)
        run_s = dict.fromkeys(engines, 0.0)
        calls, failed = [], 0
        for trigger in workload.triggers:
            target = engines[trigger.engine]
            call = getattr(target, trigger.method)
            before = len(target.events)
            t0 = clock()
            result = call(*trigger.args)
            took = clock() - t0
            run_s[trigger.engine] += took
            calls.append((took, len(target.events) - before, trigger.timed))
            if not outcome_matches(trigger, result):
                failed += 1
        export_s, digest = timed_export(engines)
    finally:
        if tracer is not None:
            tracer.unpatch_modules()

    observed = []

    def observe(e):
        t0 = clock()
        obs = bench.observables(e)
        observed.append(clock() - t0)
        return obs

    problems = workload.check(engines, observe)
    attempted = len(workload.triggers)
    return Rep(
        setup=setup, run_s=run_s, calls=calls,
        export_s=export_s, observables_s=sum(observed),
        attempted=attempted,
        # A failed output check counts every trigger of the run as failed.
        failed=attempted if problems else failed,
        problems=problems, digest=digest,
        gas={key: sum(r.gas for r in e.transactions)
             for key, e in engines.items()},
        txs=sum(len(e.transactions) for e in engines.values()),
        reverted=sum(1 for e in engines.values() for r in e.transactions
                     if not r.committed),
        accounts=sum(len(e.ledger.balances) for e in engines.values()),
    ), engines


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def trigger_figures(reps: list) -> dict:
    """Trigger-phase timings from the median time of each timed trigger.

    Every repetition makes the same calls, so each trigger's median over the
    repetitions sets aside the host's passing slow and fast stretches while
    every trigger of the workload's mix still counts once.
    """
    timed = [[(took, events) for took, events, t in rep.calls if t]
             for rep in reps]
    typical = [statistics.median(took for took, _ in position)
               for position in zip(*timed)]
    events = sum(ev for _, ev in timed[0])
    return {"events_per_s": events / sum(typical),
            "trigger_p50_us": statistics.median(typical) * 1e6,
            "trigger_p99_us": percentile(typical, 0.99) * 1e6}


def layer_metrics(rep: Rep, tracer) -> dict:
    """Per-layer figures of one traced run. All span times are self times."""
    st, c = tracer.self_seconds(), tracer.counts
    ratio = lambda num, den: num / den if den else 0
    metrics = {
        **{k: v for k, v in rep.setup.items() if k.startswith("pipeline.")},
        "pipeline.validate_calls": c["pipeline.validate_call"],
        "engine.trigger_self_s": st["engine.trigger"],
        "engine.snapshot_entries_per_tx":
            ratio(c["engine.snapshot_entries"], c["ledger.snapshot"]),
        "engine.dispatch_hops": c["engine.dispatch"],
        "engine.dispatch_self_s": st["engine.dispatch"],
        "engine.tx": rep.txs,
        "engine.tx_reverted": rep.reverted,
        "engine.events": rep.events,
        "engine.trace_text_s": st["engine.trace_text"],
        "engine.gas_text_s": st["engine.gas_text"],
        "ledger.writes": c["ledger.write"],
        "ledger.reads": c["ledger.read"],
        "ledger.op_s": st["ledger.write"] + st["ledger.read"],
        "ledger.accounts": rep.accounts,
        "ledger.snapshot_s": st["ledger.snapshot"],
        "ledger.copied_per_write": ratio(c["ledger.copied"], c["ledger.write"]),
        "ledger.sum_s": st["ledger.sum"],
        "ledger.restore_s": st["ledger.restore"],
        "ledger.sum_share": st["ledger.sum"] / rep.trigger_s,
        "nodes.due_calls": c["nodes.due"],
        "nodes.due_s": st["nodes.due"],
        "nodes.due_hit_ratio": ratio(c["nodes.due_hits"], c["nodes.due"]),
        "nodes.cranks": c["nodes.crank"],
        "nodes.crank_s": st["nodes.crank"],
        "templates.receives": c["templates.receive"],
        "templates.receive_s": st["templates.receive"],
        "predicates.evals": c["predicates.eval"],
        "predicates.eval_s": st["predicates.eval"],
        "bench.pipeline_run_s": rep.run_s["pipeline"],
        "bench.monolith_run_s": rep.run_s.get("monolith", 0.0),
        "bench.observables_s": rep.observables_s,
    }
    for kind in GAS_KINDS:
        metrics[f"gas.{kind}"] = c[f"gas.{kind}"]
    table = CostTable()
    attributed = sum(c[f"gas.{kind}"] * getattr(table, kind)
                     for kind in GAS_KINDS)
    if attributed != sum(rep.gas.values()):
        rep.problems.append(
            f"gas charges counted from outside sum to {attributed}, "
            f"billed gas is {sum(rep.gas.values())}")
    return metrics


def sample(args, workload) -> tuple:
    """Repeat the workload; return the untraced and traced repetitions, the
    export and set-up times and the export digests of the re-timed
    exports.

    The number of repetitions is fixed by the measuring time and the
    workload's nominal repetition time, not by how fast the program runs, so
    every run takes its figures over as many samples. A run still going at
    1.5 times the measuring time stops early, so that a badly slowed host
    cannot hold it up.
    """
    count = max(2, round(args.seconds / workload.rep_seconds))
    deadline = time.perf_counter() + 1.5 * args.seconds
    reps, traced, exports, setups, digests = [], [], [], [], set()
    while args.trace and len(traced) < max(2, count // 2):
        # Traced runs alternate with untraced ones, so a drift in host speed
        # shows in both halves of the overhead figure alike.
        reps.append(run_once(workload)[0])
        tracer = tracing.Tracer()
        traced.append((run_once(workload, tracer)[0], tracer))
        if time.perf_counter() > deadline:
            break
    while not args.trace and len(reps) < count:
        rep, engines = run_once(workload)
        reps.append(rep)
        for _ in range(EXPORTS_PER_REP):
            took, digest = timed_export(engines)
            exports.append(took)
            digests.add(digest)
        engines = None
        for _ in range(SETUPS_PER_REP):
            gc.collect()
            setups.append(set_up(workload)[1]["setup_s"])
        if len(reps) >= 2 and time.perf_counter() > deadline:
            break
    exports += [rep.export_s for rep in reps]
    setups += [rep.setup["setup_s"] for rep in reps]
    return reps, traced, exports, setups, digests


def measure(args) -> tuple:
    """Run the workload for the measuring time; return (reps, figures,
    notes), where reps are every run made, traced ones included."""
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    reps, traced, exports, setups, digests = sample(args, workload)
    layers = [layer_metrics(rep, tracer) for rep, tracer in traced]
    all_reps = reps + [rep for rep, _ in traced]
    problems = sorted({p for rep in all_reps for p in rep.problems})
    if len(digests | {rep.digest for rep in all_reps}) != 1:
        problems.append("trace and gas exports differ between runs of one "
                        "seed")
    other = WORKLOADS[args.workload](args.seed + 1, args.scale)
    if other.input_digest() == workload.input_digest():
        problems.append("a second seed generated the same inputs")

    # A shared host runs this code in a fast state and in one taking up to
    # 1.8 times as long, switching within a second. Every timing is a median
    # of samples spread over the whole run, so it stands for the run's mix.
    gas = all_reps[0].gas
    figures = {
        "setup_s": statistics.median(setups),
        **trigger_figures(reps),
        "export_s": statistics.median(exports),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gas_total": sum(gas.values()),
    }
    notes = {"reps": len(reps), "traced": len(traced),
             "setups": len(setups), "exports": len(exports),
             "timed": sum(t for _, _, t in reps[0].calls),
             "digest": all_reps[0].digest, "problems": problems}
    if "monolith" in gas:
        notes["gas_ratio"] = gas["pipeline"] / gas["monolith"]
    if traced:
        for name, value in layers[0].items():
            # Counts repeat exactly, so keep them whole.
            pick = (statistics.median_low if isinstance(value, int)
                    else statistics.median)
            figures[name] = pick(m[name] for m in layers)
        traced_rate = trigger_figures([rep for rep, _ in traced])[
            "events_per_s"]
        figures["trace.events_per_s"] = traced_rate
        figures["trace.overhead_pct"] = \
            100 * (1 - traced_rate / figures["events_per_s"])
        OUT.mkdir(exist_ok=True)
        traced[-1][1].write(OUT / f"{args.workload}.spans.tsv")
    return all_reps, figures, notes


def report(args, all_reps, figures, notes) -> dict:
    """Print every figure by name and unit; return the JSON result."""
    attempted = sum(rep.attempted for rep in all_reps)
    failed = sum(rep.failed for rep in all_reps)
    print(f"workload {args.workload}  seed {args.seed}  measured "
          f"{args.seconds:g} s  runs {notes['reps']} untraced, "
          f"{notes['traced']} traced  set-ups {notes['setups']}  exports "
          f"{notes['exports']}")
    for name, unit in END_TO_END:
        extra = (f"  (over {notes['timed']} triggers, each the median of "
                 f"{notes['reps']} runs)"
                 if name.startswith("trigger_") else "")
        print(f"{name:32} {figures[name]:.6g} {unit}{extra}")
    if "gas_ratio" in notes:
        print(f"{'gas_ratio':32} {notes['gas_ratio']:.4f} x  (pipeline "
              "over monolith; the paper's EVM figure of 2.13x is context "
              "only, this gas model is not validated against it)")
    print(f"{'failed_frac':32} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} triggers)")
    if args.trace:
        for name, unit in PER_LAYER + TEXT_ONLY:
            print(f"{name:32} {figures[name]:.6g} {unit}")
    print(f"exports sha256 {notes['digest']}")
    for problem in notes["problems"]:
        print(f"CHECK FAILED: {problem}")
    chosen = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": not notes["problems"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in chosen},
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply workload sizes (the smoke test uses "
                             "a tiny one)")
    args = parser.parse_args(argv)
    all_reps, figures, notes = measure(args)
    print(json.dumps(report(args, all_reps, figures, notes)))
    return 0
