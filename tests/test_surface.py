"""The package's public surface: ``paypipe.__all__`` and the README example."""

import re
from pathlib import Path

import paypipe

ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures"

SURFACE = [
    "parse_pipeline", "validate_pipeline", "serialize_pipeline", "instantiate",
    "PipelineSpec", "ValidationError",
    "parse_scenario", "run_scenario",
    "Engine", "CostTable", "TxResult", "EventRecord", "ConservationBreach",
    "Node", "StreamMessage", "StreamError", "ErrorSeverity", "PolicyAction",
    "Template", "TEMPLATES",
    "run_comparison", "format_report",
    "EngineError", "SpecSyntaxError", "SpecValidationError",
    "__version__",
]


def test_all_is_the_surface_and_every_name_resolves():
    assert sorted(paypipe.__all__) == sorted(SURFACE)
    assert len(paypipe.__all__) == len(set(paypipe.__all__))
    for name in paypipe.__all__:
        assert getattr(paypipe, name) is not None, name


def test_star_import_gives_exactly_the_surface():
    namespace = {}
    exec("from paypipe import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(SURFACE)


def test_readme_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(FIXTURES)  # the example opens payroll.pipe
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "300"  # emp-1 is paid all three releases by t=30
    assert out[2].startswith("tx=0 seq=0 emitter=ledger kind=Transfer")
