"""Command-line interface: exit codes, output discipline, file emission."""

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from paypipe import cli, pipeline
from paypipe.cli import main
from paypipe.ledger import MAX_AMOUNT
from paypipe.templates import TEMPLATES

FIXTURES = Path(__file__).parent / "fixtures"
PAYROLL = str(FIXTURES / "payroll.pipe")
PAYROLL_SCN = str(FIXTURES / "payroll.scn")
# ``python -m paypipe`` in a child process imports this checkout's package.
SRC = str(Path(__file__).parent.parent / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

GOOD_PIPE = """pipeline toy

balance acme 100

node origin
  kind originator
  out main -> pay

node pay
  kind endpoint
  recipient bob
"""


class BrokenStdout(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_valid_pipeline_exits_zero_silently(self, tmp_path, capsys):
        path = write(tmp_path, "good.pipe", GOOD_PIPE)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == ""

    def test_form_feed_in_a_comment_ends_no_line(self, tmp_path, capsys):
        text = GOOD_PIPE.replace("\n\nnode origin",
                                 "\n# page break \f here\nnode origin")
        assert text.split("\n")[3] == "# page break \f here"
        path = write(tmp_path, "paged.pipe", text)
        assert main(["validate", path]) == 0
        bad = write(tmp_path, "bad.pipe", text + "  colour blue\n")
        assert main(["validate", bad]) == 2
        line = len(text.split("\n"))
        assert capsys.readouterr().err == \
            f"{bad}:{line}:3: unknown directive 'colour'\n"

    def test_canonical_prints_normalized_text(self, tmp_path, capsys):
        path = write(tmp_path, "good.pipe", GOOD_PIPE)
        assert main(["validate", path, "--canonical"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("pipeline toy\n")
        assert "recipient bob" in out

    def test_invalid_pipeline_exits_one_with_codes(self, tmp_path, capsys):
        bad = GOOD_PIPE.replace("out main -> pay", "out main -> ghost")
        path = write(tmp_path, "bad.pipe", bad)
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "UnknownTarget origin:" in out

    def test_syntax_error_exits_two_with_position(self, tmp_path, capsys):
        path = write(tmp_path, "broken.pipe", "pipeline x\nnode\n")
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2:" in err

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent/f.pipe"]) == 2
        assert capsys.readouterr().err

    def test_balance_above_the_amount_domain_exits_one(self, tmp_path, capsys):
        huge = "999999999999999999999999999999999999999999999"
        pipe = write(tmp_path, "huge.pipe",
                     GOOD_PIPE.replace("balance acme 100", f"balance acme {huge}"))
        scn = write(tmp_path, "x.scn", "scenario x\n\nadvance 1\n")
        message = f"BadConfig -: balance for 'acme' must be <= {MAX_AMOUNT}\n"
        assert main(["validate", pipe]) == 1
        assert capsys.readouterr().out == message
        assert main(["run", pipe, scn]) == 1
        assert capsys.readouterr().out == message


def router_pipeline(template, outputs, config):
    """A pipeline whose router ``r`` runs ``template`` with these ``config``
    lines, after one output per tag to an endpoint of its own; the last
    config line is line ``11 + len(outputs) + len(config)``."""
    lines = ["pipeline t", "", "balance acme 100", "",
             "node origin", "  kind originator", "  out main -> r", "",
             "node r", "  kind router", f"  template {template}"]
    lines += [f"  out {tag} -> pay_{tag}" for tag in outputs]
    lines += [f"  config {line}" for line in config]
    for tag in outputs:
        lines += ["", f"node pay_{tag}", "  kind endpoint", f"  recipient {tag}"]
    return "\n".join(lines) + "\n"


# Per template: output tags, config lines (the last one malformed) and the
# syntax error's message.
MALFORMED_CONFIG = {
    "reporting": (["main"], ["sink audit", "sink"], "sink takes one label"),
    "timelock": (["main"], ["start 0", "period 10", "releases 3 4"],
                 "releases takes one integer"),
    "threshold": (["main"], ["limit"], "limit takes one integer"),
    "distributing": (["a", "b"], ["weight a 1", "weight b"],
                     "weight takes a tag and an integer"),
    "conditional": (["main"], ["when"], "when needs a predicate"),
    "oracle": (["a"], ["oracle ops", "oracle ops"], "duplicate oracle 'ops'"),
    "waterfall": (["a", "b"], ["tier a 10", "tier b"],
                  "tier takes a tag and a cap (integer or rest)"),
    "goalkeeper": ([], ["mode burn"], "mode must be refund, hold, or forward"),
}

# Per template: output tags, config lines that parse but do not validate,
# and the one problem validation reports.
INVALID_CONFIG = {
    "reporting": (["main"], ["keys memo"], "reporting requires a sink label"),
    "timelock": (["main"], ["start 0", "period 0", "releases 2", "fixed 5"],
                 "period must be >= 1"),
    "threshold": (["main"], ["limit 0"], "limit must be >= 1"),
    "distributing": (["a", "b"], ["weight a 1", "weight b 0"],
                     "weight share 'b' must be >= 1"),
    "conditional": (["main"], ["when amount >"],
                    "bad predicate: unexpected end of predicate"),
    "oracle": (["a"], [], "oracle requires at least one trusted account"),
    "waterfall": (["a", "b"], ["tier a rest", "tier b 5"],
                  "only the last tier may be uncapped"),
    "goalkeeper": ([], ["mode hold"], "goalkeeper hold mode requires admin"),
}


class TestTemplateConfigErrors:
    def test_every_template_is_covered(self):
        assert set(MALFORMED_CONFIG) == set(INVALID_CONFIG) == set(TEMPLATES)

    @pytest.mark.parametrize("template", MALFORMED_CONFIG)
    def test_malformed_line_exits_two_with_position(self, template, tmp_path,
                                                     capsys):
        outputs, config, message = MALFORMED_CONFIG[template]
        path = write(tmp_path, "bad.pipe",
                     router_pipeline(template, outputs, config))
        assert main(["validate", path]) == 2
        line = 11 + len(outputs) + len(config)
        assert capsys.readouterr() == ("", f"{path}:{line}:10: {message}\n")

    @pytest.mark.parametrize("template", INVALID_CONFIG)
    def test_invalid_config_exits_one_with_bad_config(self, template, tmp_path,
                                                      capsys):
        outputs, config, message = INVALID_CONFIG[template]
        path = write(tmp_path, "bad.pipe",
                     router_pipeline(template, outputs, config))
        assert main(["validate", path]) == 1
        assert capsys.readouterr() == (f"BadConfig r: {message}\n", "")


class TestRun:
    def test_green_scenario_exits_zero(self, capsys):
        assert main(["run", PAYROLL, PAYROLL_SCN]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: scenario payroll-three-periods")

    def test_failed_assert_exits_one(self, tmp_path, capsys):
        scn = write(tmp_path, "bad.scn",
                    "scenario red\n\napprove acme origin 100\ndeposit acme 50\n"
                    "assert balance bob 999\n")
        path = write(tmp_path, "good.pipe", GOOD_PIPE)
        assert main(["run", path, scn]) == 1
        out = capsys.readouterr().out
        assert "expected 999" in out
        assert "failed: scenario red" in out

    def test_unexpected_revert_exits_three(self, tmp_path, capsys):
        scn = write(tmp_path, "revert.scn",
                    "scenario red\n\ndeposit acme 50\n")  # never approved
        path = write(tmp_path, "good.pipe", GOOD_PIPE)
        assert main(["run", path, scn]) == 3
        assert "unexpected revert" in capsys.readouterr().out

    def test_tx_failure_outranks_assert_failure(self, tmp_path, capsys):
        scn = write(tmp_path, "both.scn",
                    "scenario red\n\ndeposit acme 50\nassert balance bob 1\n")
        path = write(tmp_path, "good.pipe", GOOD_PIPE)
        assert main(["run", path, scn]) == 3
        capsys.readouterr()

    def test_invalid_pipeline_exits_one(self, tmp_path, capsys):
        bad = GOOD_PIPE.replace("out main -> pay", "out main -> ghost")
        pipe = write(tmp_path, "bad.pipe", bad)
        scn = write(tmp_path, "x.scn", "scenario x\n\nadvance 1\n")
        assert main(["run", pipe, scn]) == 1
        assert "UnknownTarget" in capsys.readouterr().out

    def test_validates_the_pipeline_once(self, monkeypatch, capsys):
        calls = []
        validate = pipeline.validate_pipeline

        def counted(spec):
            calls.append(spec.name)
            return validate(spec)
        # the module attribute perfbench wraps, and the name cli imports
        monkeypatch.setattr(pipeline, "validate_pipeline", counted)
        monkeypatch.setattr(cli, "validate_pipeline", counted)
        assert main(["run", PAYROLL, PAYROLL_SCN]) == 0
        capsys.readouterr()
        assert calls == ["payroll"]

    def test_approve_outside_the_amount_domain_exits_two(self, tmp_path,
                                                          capsys):
        pipe = write(tmp_path, "good.pipe", GOOD_PIPE)
        for amount in ("-5", str(MAX_AMOUNT + 1)):
            scn = write(tmp_path, "bad.scn",
                        f"scenario x\n\napprove acme origin {amount}\n")
            assert main(["run", pipe, scn]) == 2
            assert capsys.readouterr().err.startswith(f"{scn}:3:21: amount must be")

    def test_scenario_syntax_error_exits_two(self, tmp_path, capsys):
        pipe = write(tmp_path, "good.pipe", GOOD_PIPE)
        scn = write(tmp_path, "bad.scn", "scenario x\n\nfoo bar\n")
        assert main(["run", pipe, scn]) == 2
        assert f"{scn}:3:" in capsys.readouterr().err

    def test_trace_and_gas_files_written(self, tmp_path, capsys):
        trace = tmp_path / "out.trace"
        gas = tmp_path / "out.gas"
        assert main(["run", PAYROLL, PAYROLL_SCN,
                     "--trace", str(trace), "--gas-report", str(gas)]) == 0
        capsys.readouterr()
        trace_lines = trace.read_text().splitlines()
        assert trace_lines[0].startswith("tx=0 seq=0 ")  # setup mints first
        assert all(line.startswith("tx=") for line in trace_lines)
        gas_lines = gas.read_text().splitlines()
        assert gas_lines[-1].startswith("total txs=4 gas=")

    @pytest.mark.parametrize("flag, what", [("--trace", "trace"),
                                            ("--gas-report", "gas report")])
    def test_unwritable_output_exits_two(self, flag, what, tmp_path, capsys):
        path = str(tmp_path / "missing" / "out")
        assert main(["run", PAYROLL, PAYROLL_SCN, flag, path]) == 2
        assert capsys.readouterr().err == \
            f"cannot write {what} {path}: No such file or directory\n"

    @pytest.mark.parametrize("flag, what", [("--trace", "trace"),
                                            ("--gas-report", "gas report")])
    def test_broken_stdout_exits_two(self, flag, what, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        assert main(["run", PAYROLL, PAYROLL_SCN, flag, "-"]) == 2
        assert capsys.readouterr().err == f"cannot write {what} -: Broken pipe\n"

    def test_closed_pipe_exits_two_without_a_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "paypipe", "run", PAYROLL, PAYROLL_SCN,
             "--trace", "-"], env=CHILD_ENV,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()  # the reader is gone before the first write
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err == "cannot write trace -: Broken pipe\n"

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            trace = tmp_path / f"{tag}.trace"
            gas = tmp_path / f"{tag}.gas"
            assert main(["run", PAYROLL, PAYROLL_SCN,
                         "--trace", str(trace), "--gas-report", str(gas)]) == 0
            paths.append((trace.read_bytes(), gas.read_bytes()))
        capsys.readouterr()
        assert paths[0] == paths[1]

    def test_cost_table_override_changes_gas(self, tmp_path, capsys):
        table = write(tmp_path, "table.txt", "tx_base 1\nevent_emit 0\n")
        gas_default = tmp_path / "d.gas"
        gas_cheap = tmp_path / "c.gas"
        main(["run", PAYROLL, PAYROLL_SCN, "--gas-report", str(gas_default)])
        main(["run", PAYROLL, PAYROLL_SCN, "--gas-report", str(gas_cheap),
              "--cost-table", table])
        capsys.readouterr()
        assert gas_default.read_text() != gas_cheap.read_text()

    def test_bad_cost_table_exits_two(self, tmp_path, capsys):
        table = write(tmp_path, "table.txt", "warp_speed 9\n")
        assert main(["run", PAYROLL, PAYROLL_SCN, "--cost-table", table]) == 2
        assert capsys.readouterr().err


class TestOverlongIntegers:
    """A 4,400-digit word is past the interpreter's default conversion
    limit of 4,300 digits, so it is not an integer: a coded error where an
    integer is required, a string as a metadata value, never a traceback."""

    BIG = "1" * 4400

    def child(self, *args):
        env = {**CHILD_ENV, "PYTHONINTMAXSTRDIGITS": "4300"}
        proc = subprocess.run([sys.executable, "-m", "paypipe", *args],
                              env=env, capture_output=True, text=True)
        assert "Traceback" not in proc.stderr
        return proc

    def test_scenario_amount_exits_two(self, tmp_path):
        pipe = write(tmp_path, "good.pipe", GOOD_PIPE)
        scn = write(tmp_path, "big.scn",
                    f"scenario x\n\napprove acme origin {self.BIG}\n")
        proc = self.child("run", pipe, scn)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            f"{scn}:3:21: amount must be an integer, got '1111")

    def test_syntax_error_line_stays_short(self, tmp_path, monkeypatch):
        """The error echoes the word's first 20 characters and its length,
        so its one stderr line stays under 120 bytes."""
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "good.pipe", GOOD_PIPE)
        write(tmp_path, "big.scn",
              f"scenario x\n\napprove acme origin {self.BIG}\n")
        proc = self.child("run", "good.pipe", "big.scn")
        assert proc.returncode == 2
        assert proc.stderr == ("big.scn:3:21: amount must be an integer, "
                               f"got '{'1' * 20}'... (4400 characters)\n")
        assert len(proc.stderr.encode()) < 120

    def test_predicate_literal_is_bad_config(self, tmp_path):
        gate = GOOD_PIPE.replace("out main -> pay", "out main -> gate") + (
            "\nnode gate\n  kind router\n  template conditional\n"
            f"  out main -> pay\n  config when amount >= {self.BIG}\n")
        proc = self.child("validate", write(tmp_path, "big.pipe", gate))
        assert proc.returncode == 1
        assert proc.stdout == ("BadConfig gate: bad predicate: integer "
                               "literal of 4400 digits is too long\n")

    def test_metadata_value_runs(self, tmp_path):
        pipe = write(tmp_path, "good.pipe", GOOD_PIPE)
        scn = write(tmp_path, "big.scn",
                    "scenario x\n\napprove acme origin 50\n"
                    f"deposit acme 50 n={self.BIG}\nassert balance bob 50\n")
        proc = self.child("run", pipe, scn)
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok: scenario x, 1 transactions")


class TestBench:
    def test_default_bench_exits_zero(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "ratio:" in out
        assert "257,874 vs 549,995" in out

    def test_last_line_is_machine_readable(self, capsys):
        assert main(["bench", "--recipients", "2", "--periods", "2"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        data = json.loads(last)
        assert data["recipients"] == 2
        assert data["gas_pipeline"] > data["gas_monolithic"]

    def test_bad_shape_exits_two(self, capsys):
        assert main(["bench", "--recipients", "0"]) == 2
        assert capsys.readouterr().err


class TestEntrypoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "paypipe", "validate", PAYROLL],
            env=CHILD_ENV, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_no_args_shows_usage(self):
        proc = subprocess.run([sys.executable, "-m", "paypipe"],
                              env=CHILD_ENV, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "usage" in (proc.stderr + proc.stdout).lower()
