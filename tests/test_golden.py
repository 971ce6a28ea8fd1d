"""Golden outputs: the CLI's exports must stay byte-identical.

``tests/golden`` holds, for every fixture pair, the ``--trace`` file, the
``--gas-report`` file, the stdout of ``paypipe run`` and the ``.charges``
file (each transaction's charge kinds in order, checked in
``test_engine``), plus the stdout of ``paypipe bench`` at its default 3x3
shape, and ``validate.out`` (checked in ``test_pipeline``). They are the
equivalence oracle for changes that must not alter behaviour: regenerate
them only when a change is meant to alter the exports, and say so in the
change log.
"""

from pathlib import Path

import pytest

from paypipe.cli import main

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"
PAIRS = ("error_hold", "error_proceed", "error_redirect", "error_refund",
         "flows", "holes", "payroll")


@pytest.mark.parametrize("name", PAIRS)
def test_run_exports_match_golden(name, tmp_path, capsys):
    trace, gas = tmp_path / "trace", tmp_path / "gas"
    code = main(["run", str(FIXTURES / f"{name}.pipe"),
                 str(FIXTURES / f"{name}.scn"),
                 "--trace", str(trace), "--gas-report", str(gas)])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
    assert trace.read_bytes() == (GOLDEN / f"{name}.trace").read_bytes()
    assert gas.read_bytes() == (GOLDEN / f"{name}.gas").read_bytes()


def test_bench_report_matches_golden(capsys):
    assert main(["bench"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "bench.out").read_text()
