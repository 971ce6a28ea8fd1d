"""Integer words: every text format reads an integer by one rule.

The integer words of the fixtures, of seeded random pipelines, of a cost
table and of ``when`` predicates are replaced in turn by each word of
``WORDS``. Parsing and validation may raise only ``SpecSyntaxError``, and a
word is accepted exactly when ``is_integer`` holds for it: ASCII
``-?[0-9]+`` that ``int`` converts. A predicate literal takes no sign.
"""

import random
import re
import sys
from pathlib import Path

import pytest

from paypipe.cli import parse_cost_table
from paypipe.errors import SpecSyntaxError
from paypipe.pipeline import (column, parse_pipeline, token_lines,
                              validate_pipeline)
from paypipe.scenario import parse_scenario

from support import random_pipeline_text

FIXTURES = Path(__file__).parent / "fixtures"

# signs, separators, other scripts' digits, leading zeros, and one digit
# past the interpreter's conversion limit
WORDS = ("+5", "1_000", "٣", "-", "--1", "007", "-0",
         "1" * (sys.get_int_max_str_digits() + 1))

COST_TABLE = """# every cost, one per line
tx_base 21000
node_call 2600
ledger_write 5000
ledger_read 200
event_emit 1000
config_read 100
predicate_eval 50
"""

METADATA = """scenario tagged

approve acme origin 100
deposit acme 50 n=3 memo=x=1 at=-20
"""

PREDICATES = """pipeline gates

node origin
  kind originator
  out main -> gate

node gate
  kind router
  template conditional
  out main -> pay
  config when amount >= 10 and (now < 500 or metadata.n != 3) and not amount = 0

node pay
  kind endpoint
  recipient bob
"""


def is_integer(word: str, signed: bool = True) -> bool:
    if not re.fullmatch(r"-?[0-9]+" if signed else r"[0-9]+", word):
        return False
    try:
        int(word)
    except ValueError:
        return False
    return True


def sites(text: str):
    """``(lineno, start, end, key)`` of each integer word of ``text``: its
    characters are ``line[start:end]``, and ``key`` is "predicate", the key
    of a deposit's ``key=value`` metadata word whose value it is, or None."""
    found = []
    for line in token_lines(text):
        lineno, _, words = line
        predicate = words[:2] == ["config", "when"]
        for i, word in enumerate(words):
            start = column(line, i) - 1
            key, eq, value = word.partition("=")
            if re.fullmatch(r"-?[0-9]+", word):
                found.append((lineno, start, start + len(word),
                              "predicate" if predicate else None))
            elif eq and words[0] == "deposit" and \
                    re.fullmatch(r"-?[0-9]+", value):
                found.append((lineno, start + len(key) + 1,
                              start + len(word), key))
    return found


def replaced(text: str, site, word: str) -> str:
    lineno, start, end, _ = site
    lines = text.split("\n")
    raw = lines[lineno - 1]
    lines[lineno - 1] = raw[:start] + word + raw[end:]
    return "\n".join(lines)


def check_pipeline(text: str, site, word: str):
    try:
        spec = parse_pipeline(text)
    except SpecSyntaxError as err:
        assert site[3] is None and not is_integer(word), (err, text)
        assert err.line == site[0]
        return
    problems = [str(e) for e in validate_pipeline(spec)]
    if site[3] is None:
        assert is_integer(word), word
    else:
        bad = [p for p in problems if "bad predicate" in p]
        assert bool(bad) != is_integer(word, signed=False), (word, problems)


def check_scenario(text: str, site, word: str):
    try:
        scenario = parse_scenario(text)
    except SpecSyntaxError as err:
        assert site[3] is None and not is_integer(word), (err, text)
        assert err.line == site[0]
        return
    if site[3] is None:
        assert is_integer(word), word
        return
    (step,) = [s for s in scenario.steps if s.line == site[0]]
    value = step.args["metadata"][site[3]]
    assert value == (int(word) if is_integer(word) else word)


def check_cost_table(text: str, site, word: str):
    try:
        parse_cost_table(text)
    except SpecSyntaxError as err:
        assert not is_integer(word), err
        assert err.line == site[0]
        return
    assert is_integer(word), word


def cases(seed: int = 14):
    """(check, text) pairs: the fixtures, a scenario of metadata, a cost
    table, a pipeline of predicates and seeded random pipelines."""
    rng = random.Random(seed)
    out = []
    for path in sorted(FIXTURES.iterdir()):
        check = check_scenario if path.suffix == ".scn" else check_pipeline
        out.append((check, path.read_text(encoding="utf-8")))
    out.append((check_scenario, METADATA))
    out.append((check_cost_table, COST_TABLE))
    out.append((check_pipeline, PREDICATES))
    for _ in range(6):
        out.append((check_pipeline, random_pipeline_text(
            random.Random(rng.randrange(2**32)))[0]))
    return out


@pytest.mark.parametrize("word", WORDS, ids=lambda w: w[:8])
def test_every_format_reads_integers_by_one_rule(word):
    reached = set()
    for check, text in cases():
        for site in sites(text):
            reached.add((check.__name__, site[3] is not None))
            check(replaced(text, site, word), site, word)
    # every kind of site is reached
    assert reached == {("check_pipeline", False), ("check_pipeline", True),
                       ("check_scenario", False), ("check_scenario", True),
                       ("check_cost_table", False)}
