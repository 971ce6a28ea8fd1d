"""Smoke test of the benchmark at a tiny size. It never gates on timing.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import measure  # noqa: E402  (needs the paths above)


def bench(workload, trace, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *text, last = proc.stdout.splitlines()
    return text, json.loads(last)


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_checks_out(workload, trace):
    text, result = result_of(bench(workload, trace))
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    printed = {line.split()[0] for line in text if line.strip()}
    expected = {name for name, _ in measure.END_TO_END} | {"failed_frac"}
    if trace:
        expected |= {name for name, _ in measure.PER_LAYER + measure.TEXT_ONLY}
    if workload == "payroll":
        expected.add("gas_ratio")
    assert expected <= printed


def test_seed_reaches_the_generator():
    def digest(seed):
        text, _ = result_of(bench("deposits", 0, seed))
        return next(line for line in text if line.startswith("exports"))
    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("payroll", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
