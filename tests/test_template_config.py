"""Template config grammar: every message it can give, pinned.

Each parse case reaches one site that rejects a config line (including the
shared integer and duplicate-key checks under each name they are called
with) and pins the error's message, line and column. Each validation case
is one config per group of checks that can fire together, and pins the
whole ordered problem list that ``validate_pipeline`` returns for it. The
config keys documented in docs/formats.md are checked against the tables.
"""

from pathlib import Path

import pytest

from paypipe.errors import SpecSyntaxError
from paypipe.pipeline import parse_pipeline, validate_pipeline
from paypipe.templates import TEMPLATES, Template

from test_cli import router_pipeline

# (template, config lines, the last one rejected, message)
BAD_LINES = [
    ("reporting", ["sink"], "sink takes one label"),
    ("reporting", ["keys"], "keys needs at least one metadata key"),
    ("reporting", ["keys memo memo"], "duplicate report key 'memo'"),
    ("reporting", ["sink a", "sink b"], "duplicate config key 'sink'"),
    ("reporting", ["colour red"], "unknown reporting config key 'colour'"),
    ("timelock", ["start"], "start takes one integer"),
    ("timelock", ["period 1 2"], "period takes one integer"),
    ("timelock", ["releases x"], "releases must be an integer, got 'x'"),
    ("timelock", ["fraction 1"],
     "fraction takes two integers: numerator denominator"),
    ("timelock", ["fraction x 2"],
     "fraction numerator must be an integer, got 'x'"),
    ("timelock", ["fraction 1 y"],
     "fraction denominator must be an integer, got 'y'"),
    ("timelock", ["fixed 1", "fixed 2"], "duplicate config key 'fixed'"),
    ("timelock", ["fraction 1 2", "fraction 1 2"],
     "duplicate config key 'fraction'"),
    ("timelock", ["stop 3"], "unknown timelock config key 'stop'"),
    ("threshold", ["limit 1 2"], "limit takes one integer"),
    ("threshold", ["limit ten"], "limit must be an integer, got 'ten'"),
    ("threshold", ["limit 5", "limit 5"], "duplicate config key 'limit'"),
    ("threshold", ["cap 5"], "unknown threshold config key 'cap'"),
    ("distributing", ["fixed a"], "fixed takes a tag and an integer"),
    ("distributing", ["weight a x"], "weight must be an integer, got 'x'"),
    ("distributing", ["residual"], "residual takes a tag"),
    ("distributing", ["allow_single yes"], "allow_single takes no value"),
    ("distributing", ["allow_single", "allow_single"],
     "duplicate config key 'allow_single'"),
    ("distributing", ["share a 1"], "unknown distributing config key 'share'"),
    ("conditional", ["when"], "when needs a predicate"),
    ("conditional", ["on_false"],
     "on_false must be warning, recoverable, or fatal"),
    ("conditional", ["on_false loud"],
     "on_false must be warning, recoverable, or fatal"),
    ("conditional", ["when amount > 1", "when amount > 2"],
     "duplicate config key 'when'"),
    ("conditional", ["on_false fatal", "on_false fatal"],
     "duplicate config key 'on_false'"),
    ("conditional", ["unless amount > 1"],
     "unknown conditional config key 'unless'"),
    ("oracle", ["oracle"], "oracle takes one account per line"),
    ("oracle", ["oracle a b"], "oracle takes one account per line"),
    ("oracle", ["oracle ops", "oracle ops"], "duplicate oracle 'ops'"),
    ("oracle", ["trust ops"], "unknown oracle config key 'trust'"),
    ("waterfall", ["tier a"], "tier takes a tag and a cap (integer or rest)"),
    ("waterfall", ["tier a ten"], "tier cap must be an integer, got 'ten'"),
    ("waterfall", ["level a 1"], "unknown waterfall config key 'level'"),
    ("goalkeeper", ["mode"], "mode must be refund, hold, or forward"),
    ("goalkeeper", ["mode burn"], "mode must be refund, hold, or forward"),
    ("goalkeeper", ["admin"], "admin takes one account"),
    ("goalkeeper", ["mode hold", "mode refund"], "duplicate config key 'mode'"),
    ("goalkeeper", ["admin a", "admin b"], "duplicate config key 'admin'"),
    ("goalkeeper", ["keeper root"], "unknown goalkeeper config key 'keeper'"),
]


@pytest.mark.parametrize("template, config, message", BAD_LINES,
                         ids=[f"{t}-{c[-1]}" for t, c, _ in BAD_LINES])
def test_bad_config_line(template, config, message):
    with pytest.raises(SpecSyntaxError) as exc:
        parse_pipeline(router_pipeline(template, [], config))
    err = exc.value
    # the error points at the config key of the last line
    assert (err.message, err.line, err.column) == (
        message, 11 + len(config), 10)


def test_template_without_config_takes_none():
    class Bare(Template):
        name = "bare"

    assert Bare.empty_config() == {}
    with pytest.raises(ValueError, match="^bare takes no config$"):
        Bare.parse_config_line({}, ["at", "1"])
    assert Bare.validate({}, [("main", "x")]) == []
    assert Bare.config_lines({}) == []


# (template, output tags, config lines, every problem in order)
BAD_CONFIGS = [
    ("reporting", ["a", "b"], [], [
        "BadConfig r: reporting requires exactly 1 output, has 2",
        "BadConfig r: reporting requires a sink label",
    ]),
    ("timelock", ["a", "b"], [], [
        "BadConfig r: timelock requires exactly 1 output, has 2",
        "BadConfig r: timelock requires start",
        "BadConfig r: timelock requires period",
        "BadConfig r: timelock requires releases",
        "BadConfig r: timelock requires exactly one of fixed or fraction",
    ]),
    ("timelock", ["main"],
     ["start -1", "period 0", "releases 0", "fixed 0", "fraction 0 1"], [
        "BadConfig r: start must be >= 0",
        "BadConfig r: period must be >= 1",
        "BadConfig r: releases must be >= 1",
        "BadConfig r: timelock requires exactly one of fixed or fraction",
        "BadConfig r: fixed must be >= 1",
        "BadConfig r: fraction must satisfy 1 <= numerator <= denominator",
    ]),
    ("threshold", ["a", "b"], [], [
        "BadConfig r: threshold requires exactly 1 output, has 2",
        "BadConfig r: threshold requires limit",
    ]),
    ("threshold", ["main"], ["limit 0"], [
        "BadConfig r: limit must be >= 1",
    ]),
    ("distributing", ["a"], [], [
        "BadConfig r: distributing requires at least 2 outputs, has 1",
        "BadConfig r: distributing requires at least one share",
        "BadConfig r: output 'a' has no share",
    ]),
    ("distributing", ["a", "b", "c"],
     ["weight a 0", "fixed a 1", "residual x", "residual b"], [
        "BadConfig r: weight share 'a' must be >= 1",
        "BadConfig r: duplicate share for tag 'a'",
        "BadConfig r: share 'x' does not match any output",
        "BadConfig r: at most one residual share",
        "BadConfig r: output 'c' has no share",
    ]),
    ("conditional", ["a", "b"], [], [
        "BadConfig r: conditional requires exactly 1 output, has 2",
        "BadConfig r: conditional requires when",
    ]),
    ("conditional", ["main"], ["when amount >"], [
        "BadConfig r: bad predicate: unexpected end of predicate",
    ]),
    ("oracle", [], [], [
        "BadConfig r: oracle requires at least 1 output",
        "BadConfig r: oracle requires at least one trusted account",
    ]),
    ("waterfall", ["a"], [], [
        "BadConfig r: waterfall requires at least one tier",
        "BadConfig r: output 'a' has no tier",
    ]),
    ("waterfall", ["a", "b", "c"],
     ["tier a rest", "tier a 5", "tier x 0", "tier b 1"], [
        "BadConfig r: only the last tier may be uncapped",
        "BadConfig r: duplicate tier for tag 'a'",
        "BadConfig r: tier 'x' does not match any output",
        "BadConfig r: tier 'x' cap must be >= 1",
        "BadConfig r: output 'c' has no tier",
    ]),
    ("goalkeeper", [], [], [
        "BadConfig r: goalkeeper requires mode",
    ]),
    ("goalkeeper", ["main"], ["mode hold"], [
        "BadConfig r: goalkeeper hold mode requires admin",
        "BadConfig r: goalkeeper hold mode takes no outputs",
    ]),
    ("goalkeeper", ["a", "b"], ["mode forward"], [
        "BadConfig r: goalkeeper forward mode requires exactly 1 output",
    ]),
    # without a mode there is no output count to check against
    ("goalkeeper", ["main"], [], [
        "BadConfig r: goalkeeper requires mode",
    ]),
    ("distributing", [], ["residual a", "allow_single"], [
        "BadConfig r: distributing requires at least 1 output, has 0",
        "BadConfig r: share 'a' does not match any output",
    ]),
]


@pytest.mark.parametrize(
    "template, outputs, config, problems", BAD_CONFIGS,
    ids=[f"{t}-{len(o)}-{len(c)}" for t, o, c, _ in BAD_CONFIGS])
def test_bad_config_problems(template, outputs, config, problems):
    spec = parse_pipeline(router_pipeline(template, outputs, config))
    assert [str(e) for e in validate_pipeline(spec)] == problems


@pytest.mark.parametrize("template", sorted(set(TEMPLATES) - {"goalkeeper"}))
def test_a_router_without_outputs_has_one_count_problem(template):
    """Its template's output rule reports it; the pipeline does not."""
    spec = parse_pipeline(router_pipeline(template, [], []))
    problems = [str(e) for e in validate_pipeline(spec)]
    count = [p for p in problems if " output" in p]
    assert len(count) == 1, problems
    assert count[0].startswith(f"BadConfig r: {template} requires "), problems


def documented_config() -> dict:
    """Template name -> the ``config`` lines of its block under "###
    Templates" in docs/formats.md, as lists of words, comments dropped."""
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(
        encoding="utf-8")
    section = text.split("\n### Templates\n", 1)[1].split("\n### ", 1)[0]
    blocks = {}
    for para in section.split("\n**")[1:]:
        name = para.split("**", 1)[0]
        code = para.split("```\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0].split() for line in code.splitlines()]
        blocks[name] = [words[1:] for words in lines if words]
    return blocks


def test_docs_list_every_key_of_every_table():
    docs = documented_config()
    assert set(docs) == set(TEMPLATES)
    for name, lines in docs.items():
        table = TEMPLATES[name].config_table
        keys = list(dict.fromkeys(words[0] for words in lines))
        assert keys == [row.key for row in table], name
        # a set of choices is written out as CHOICE|CHOICE|...
        for row in table:
            if row.words and type(row.words[0]) is tuple:
                written = [words[1] for words in lines if words[0] == row.key]
                assert written == ["|".join(row.words[0])], (name, row.key)
