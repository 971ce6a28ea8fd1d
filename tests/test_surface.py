"""The package's public surface: ``paypipe.__all__``, the README example and
the attributes the docs name."""

import ast
import re
from pathlib import Path

import paypipe
from paypipe import Template, errors, instantiate, parse_pipeline

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


def test_every_attribute_the_docs_name_exists():
    """Each backticked ``engine.NAME`` or ``Engine.NAME`` in the README and
    the format reference is an attribute of a live engine, each
    ``TxResult.NAME`` one of a live result, and each ``Node.NAME`` or
    ``Template.NAME`` one of a live node or router, so a hook the docs name
    cannot be renamed away under them."""
    engine = instantiate(parse_pipeline(
        (FIXTURES / "flows.pipe").read_text(encoding="utf-8")))
    engine.ledger.approve("acme", "node:origin", 40)
    live = {"engine": engine, "Engine": engine,
            "TxResult": engine.submit_deposit("acme", 40),
            "Node": engine.nodes[engine.entry],
            "Template": next(node for node in engine.nodes.values()
                             if isinstance(node, Template))}
    named = set()
    for doc in ("README.md", "docs/formats.md"):
        text = (ROOT / doc).read_text(encoding="utf-8")
        named.update(re.findall(
            r"`(engine|Engine|TxResult|Node|Template)\.(\w+)", text))
    assert {("TxResult", "reason"), ("Node", "receive"), ("Node", "crank"),
            ("Node", "instruct"), ("Template", "receive")} <= named
    missing = sorted(f"{owner}.{name}" for owner, name in named
                     if not hasattr(live[owner], name))
    assert missing == []


def test_the_revert_code_table_lists_every_engine_error():
    """The format reference's revert codes are the codes of the engine
    errors, less ``LedgerError``, the base no ledger call raises."""
    text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    table = text.split("A revert reason is", 1)[1].split("\n\n")[1]
    listed = re.findall(r"^\| `(\w+)` \|", table, re.M)
    codes = {obj.code for obj in vars(errors).values()
             if isinstance(obj, type) and issubclass(obj, errors.EngineError)}
    assert sorted(listed) == sorted(codes - {"LedgerError"})


def test_no_module_needs_python_3_11_for_a_starred_subscript():
    """``requires-python`` is 3.10. ``ast.parse`` with ``feature_version``
    (3, 10) rejects syntax new in 3.11 such as ``except*``, but it accepts
    ``t[a, *b]`` (PEP 646, 3.11), so the tree is walked for that too:
    ``t[(a, *b)]`` means the same in both and parses to the same tree, so
    a subscript's starred tuple must start at its "(". Library calls new
    in 3.11 are not caught."""
    for path in sorted((ROOT / "src" / "paypipe").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        ast.parse(source, path.name, feature_version=(3, 10))
        for node in ast.walk(ast.parse(source)):
            index = getattr(node, "slice", None)
            if isinstance(index, ast.Tuple) and any(
                    isinstance(item, ast.Starred) for item in index.elts):
                segment = ast.get_source_segment(source, index)
                assert segment.startswith("("), \
                    f"{path.name}:{node.lineno}: [{segment}]"
