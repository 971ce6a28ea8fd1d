"""Command line interface.

    paypipe validate PIPELINE [--canonical]
    paypipe run PIPELINE SCENARIO [--trace FILE] [--gas-report FILE]
                                  [--cost-table FILE]
    paypipe bench [--recipients N] [--periods K] [--cost-table FILE]

Exit codes: 0 success; 1 validation errors, failed scenario assertions,
or benchmark divergence; 2 unreadable or unparsable input, or output that
cannot be written (a missing directory, a closed pipe; ``--trace`` and
``--gas-report`` stream, so a failed write can leave a partial file); 3 a
transaction reverted unexpectedly or an expected revert committed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Optional

from .bench import format_report, run_comparison
from .engine import CostTable
from .errors import (ObservableMismatch, SpecSyntaxError, SpecValidationError,
                     int_word, shown_word)
from .pipeline import (instantiate, parse_pipeline, serialize_pipeline,
                       token_lines, validate_pipeline)
from .scenario import parse_scenario, run_scenario


def parse_cost_table(text: str) -> CostTable:
    """Cost table file: one ``NAME VALUE`` pair per line, ``#`` comments."""
    known = CostTable.__dataclass_fields__
    mapping: dict[str, int] = {}
    for lineno, _, tokens in token_lines(text):
        if len(tokens) != 2:
            raise SpecSyntaxError("cost table lines are NAME VALUE", lineno, 1)
        name, value = tokens
        if name not in known:
            raise SpecSyntaxError(f"unknown cost {shown_word(name)}", lineno, 1)
        if name in mapping:
            raise SpecSyntaxError(f"duplicate cost {name!r}", lineno, 1)
        cost = int_word(value)
        if cost is None:
            raise SpecSyntaxError(f"cost {name!r} must be an integer",
                                  lineno, 1)
        if cost < 0:
            raise SpecSyntaxError(f"cost {name} must be non-negative",
                                  lineno, 1)
        mapping[name] = cost
    return CostTable(**mapping)


def _write_out(path: str, export: Callable, what: str) -> None:
    """Stream ``export``, such as ``Engine.write_trace``, to the file ``path``
    or exit 2 with a message on stderr; ``-`` is stdout, whose broken pipe
    ``main`` reports."""
    if path == "-":
        export(sys.stdout.write)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            export(fh.write)
    except OSError as err:
        print(f"cannot write {what} {path}: {err.strerror}", file=sys.stderr)
        raise SystemExit(2) from None


def _on_stdout(args) -> str:
    """What a command writes to stdout, as the error message names it."""
    if getattr(args, "trace", None) == "-":
        return "trace"
    if getattr(args, "gas_report", None) == "-":
        return "gas report"
    return "output"


def _drop_stdout() -> None:
    """Point stdout at the null device, so the interpreter's last flush of
    what a broken pipe left buffered does not fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):
        return  # not a file: nothing is flushed to a descriptor
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _load(path: str, what: str) -> str:
    """Read a file or exit 2 with a message on stderr."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        print(f"cannot read {what} {path}: {err.strerror}", file=sys.stderr)
        raise SystemExit(2) from None


def _parse(parse, text: str, path: str):
    """``parse(text)``, or exit 2 with the syntax error's position on
    stderr."""
    try:
        return parse(text)
    except SpecSyntaxError as err:
        print(f"{path}:{err.line}:{err.column}: {err.message}", file=sys.stderr)
        raise SystemExit(2) from None


def _load_cost_table(path: Optional[str]) -> Optional[CostTable]:
    if path is None:
        return None
    return _parse(parse_cost_table, _load(path, "cost table"), path)


def cmd_validate(args) -> int:
    spec = _parse(parse_pipeline, _load(args.pipeline, "pipeline"),
                  args.pipeline)
    errors = validate_pipeline(spec)
    if errors:
        for e in errors:
            print(str(e))
        return 1
    if args.canonical:
        sys.stdout.write(serialize_pipeline(spec))
    return 0


def cmd_run(args) -> int:
    pipe_text = _load(args.pipeline, "pipeline")
    scn_text = _load(args.scenario, "scenario")
    cost_table = _load_cost_table(args.cost_table)
    spec = _parse(parse_pipeline, pipe_text, args.pipeline)
    scenario = _parse(parse_scenario, scn_text, args.scenario)
    try:
        engine = instantiate(spec, cost_table=cost_table)
    except SpecValidationError as err:
        for e in err.errors:
            print(str(e))
        return 1
    result = run_scenario(engine, scenario)
    if args.trace:
        _write_out(args.trace, engine.write_trace, "trace")
    if args.gas_report:
        _write_out(args.gas_report, engine.write_gas, "gas report")
    if not result.ok:
        for failure in result.failures:
            print(failure)
        print(f"failed: scenario {scenario.name}, "
              f"{len(result.failures)} problem(s)")
        return 3 if result.tx_failures else 1
    gas = sum(r.gas for r in result.transactions)
    print(f"ok: scenario {scenario.name}, {len(result.transactions)} "
          f"transactions, {gas} gas")
    return 0


def cmd_bench(args) -> int:
    cost_table = _load_cost_table(args.cost_table)
    try:
        report = run_comparison(recipients=args.recipients, periods=args.periods,
                                cost_table=cost_table)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2
    except ObservableMismatch as err:
        print(f"divergence: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(format_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paypipe",
        description="Deterministic payment-pipeline engine: validate pipeline "
                    "files, run scenarios, and benchmark gas usage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a pipeline file")
    p.add_argument("pipeline", help="pipeline file")
    p.add_argument("--canonical", action="store_true",
                   help="print the canonical form when valid")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="run a scenario against a pipeline")
    p.add_argument("pipeline", help="pipeline file")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--trace", metavar="FILE",
                   help="write the event trace (- for stdout)")
    p.add_argument("--gas-report", metavar="FILE",
                   help="write the per-transaction gas report (- for stdout)")
    p.add_argument("--cost-table", metavar="FILE",
                   help="override gas costs from a NAME VALUE file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench",
                       help="compare pipeline vs monolithic payroll gas")
    p.add_argument("--recipients", type=int, default=3)
    p.add_argument("--periods", type=int, default=3)
    p.add_argument("--cost-table", metavar="FILE",
                   help="override gas costs from a NAME VALUE file")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except BrokenPipeError as err:  # the reader of stdout went away
        print(f"cannot write {_on_stdout(args)} -: {err.strerror}",
              file=sys.stderr)
        _drop_stdout()
        return 2


if __name__ == "__main__":
    sys.exit(main())
