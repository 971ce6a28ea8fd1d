"""Where syntax errors point: message, line and column of every raise site.

Each case reaches one ``raise SpecSyntaxError`` site of the pipeline,
scenario or cost table parser (or a helper they call) and pins the error's
``(message, line, column)``. Every bad line is indented with a tab and
separates its words with U+00A0 or U+3000, so a column counts characters,
a tab as one, and a separator other than a space still ends a word. Where a
site allows it, the word the error points at repeats an earlier word of its
line, so the column must be that of the word's own position.

The reader itself is compared with ``support.reference_token_lines``, a
regular-expression copy of the documented rule, on every fixture and on
seeded mutations of them.
"""

import random
import re
import sys
from pathlib import Path

import pytest

from paypipe.cli import parse_cost_table
from paypipe.errors import SpecSyntaxError
from paypipe.ledger import MAX_AMOUNT
from paypipe.pipeline import column, parse_pipeline, token_lines
from paypipe.scenario import parse_scenario

from support import random_pipeline_text, reference_token_lines

FIXTURES = Path(__file__).parent / "fixtures"


def nb(words: str) -> str:
    """A tab-indented line whose words are separated by U+00A0."""
    return "\t" + "\u00a0".join(words.split(" "))


def wide(words: str) -> str:
    """A tab-indented line whose words are separated by U+3000."""
    return "\t" + "\u3000".join(words.split(" "))


PIPE = "pipeline p\n\nnode n\n  kind router\n"
SCN = "scenario s\n"

# (id, parser, text, (message, line, column))
CASES = [
    # -- pipeline header and balances
    ("pipe-duplicate-header", parse_pipeline,
     "pipeline p\n" + nb("pipeline p") + "\n",
     ("duplicate pipeline header", 2, 2)),
    ("pipe-header-takes-name", parse_pipeline,
     wide("pipeline") + "\n",
     ("pipeline takes a name", 1, 2)),
    ("pipe-bad-name", parse_pipeline,
     nb("pipeline a/b") + "\n",
     ("bad pipeline name 'a/b'", 1, 11)),
    ("pipe-header-first", parse_pipeline,
     wide("node n") + "\n",
     ("expected a pipeline header first", 1, 2)),
    ("pipe-balance-arity", parse_pipeline,
     "pipeline p\n" + nb("balance acme") + "\n",
     ("balance takes an account and an amount", 2, 2)),
    ("pipe-balance-integer", parse_pipeline,
     "pipeline p\n" + nb("balance 5x 5x") + "\n",
     ("balance amount must be an integer, got '5x'", 2, 13)),
    ("pipe-balance-duplicate", parse_pipeline,
     "pipeline p\nbalance balance 1\n" + wide("balance balance 2") + "\n",
     ("duplicate balance for 'balance'", 3, 10)),
    ("pipe-missing-header", parse_pipeline,
     nb("# no header") + "\n\n",
     ("missing pipeline header", 1, 1)),
    # -- node blocks
    ("pipe-node-takes-id", parse_pipeline,
     "pipeline p\n" + wide("node a b") + "\n",
     ("node takes an id", 2, 2)),
    ("pipe-bad-node-id", parse_pipeline,
     "pipeline p\n" + nb("node a/b") + "\n",
     ("bad node id 'a/b'", 2, 7)),
    ("pipe-outside-block", parse_pipeline,
     "pipeline p\n" + wide("kind router") + "\n",
     ("'kind' outside a node block", 2, 2)),
    ("pipe-kind-value", parse_pipeline,
     "pipeline p\nnode n\n" + nb("kind kind") + "\n",
     ("kind must be originator, router, or endpoint", 3, 2)),
    ("pipe-kind-duplicate", parse_pipeline,
     PIPE + wide("kind router") + "\n",
     ("duplicate kind", 5, 2)),
    ("pipe-template-takes-name", parse_pipeline,
     PIPE + nb("template") + "\n",
     ("template takes a name", 5, 2)),
    ("pipe-template-unknown", parse_pipeline,
     PIPE + wide("template template") + "\n",
     ("unknown template 'template'", 5, 11)),
    ("pipe-template-duplicate", parse_pipeline,
     PIPE + "  template reporting\n" + nb("template reporting") + "\n",
     ("duplicate template", 6, 2)),
    ("pipe-out-syntax", parse_pipeline,
     PIPE + wide("out a b") + "\n",
     ("out syntax: out TAG -> TARGET", 5, 2)),
    ("pipe-out-bad-tag", parse_pipeline,
     PIPE + nb("out a/b -> a/b") + "\n",
     ("bad output tag 'a/b'", 5, 6)),
    ("pipe-out-bad-target", parse_pipeline,
     PIPE + wide("out out -> ->") + "\n",
     ("bad target id '->'", 5, 13)),
    ("pipe-out-duplicate-tag", parse_pipeline,
     PIPE + "  out out -> x\n" + nb("out out -> y") + "\n",
     ("duplicate output tag 'out'", 6, 6)),
    ("pipe-config-takes-key", parse_pipeline,
     PIPE + "  template reporting\n" + wide("config") + "\n",
     ("config takes a key", 6, 2)),
    ("pipe-config-needs-template", parse_pipeline,
     PIPE + nb("config limit 5") + "\n",
     ("config requires a template declared first", 5, 2)),
    ("pipe-config-template-error", parse_pipeline,
     PIPE + "  template reporting\n" + wide("config config") + "\n",
     ("unknown reporting config key 'config'", 6, 9)),
    ("pipe-on-syntax", parse_pipeline,
     PIPE + nb("on fatal") + "\n",
     ("on syntax: on SEVERITY ACTION [TARGET]", 5, 2)),
    ("pipe-on-severity", parse_pipeline,
     PIPE + wide("on on hold") + "\n",
     ("severity must be warning, recoverable, or fatal", 5, 5)),
    ("pipe-on-action", parse_pipeline,
     PIPE + nb("on fatal fatal") + "\n",
     ("action must be proceed, hold, refund, or redirect", 5, 11)),
    ("pipe-redirect-needs-target", parse_pipeline,
     PIPE + wide("on fatal redirect") + "\n",
     ("redirect takes a target node", 5, 11)),
    ("pipe-redirect-bad-target", parse_pipeline,
     PIPE + nb("on fatal redirect a/b") + "\n",
     ("bad redirect target 'a/b'", 5, 20)),
    ("pipe-action-takes-no-target", parse_pipeline,
     PIPE + wide("on fatal hold hold") + "\n",
     ("hold takes no target", 5, 16)),
    ("pipe-policy-duplicate", parse_pipeline,
     PIPE + "  on fatal hold\n" + nb("on fatal refund") + "\n",
     ("duplicate policy for fatal", 6, 5)),
    ("pipe-mode-value", parse_pipeline,
     PIPE + wide("mode mode") + "\n",
     ("mode must be direct or claimable", 5, 2)),
    ("pipe-mode-duplicate", parse_pipeline,
     PIPE + "  mode direct\n" + nb("mode direct") + "\n",
     ("duplicate mode", 6, 2)),
    ("pipe-recipient-arity", parse_pipeline,
     PIPE + wide("recipient a b") + "\n",
     ("recipient takes one account", 5, 2)),
    ("pipe-recipient-duplicate", parse_pipeline,
     PIPE + "  recipient a\n" + nb("recipient a") + "\n",
     ("duplicate recipient", 6, 2)),
    ("pipe-unknown-directive", parse_pipeline,
     PIPE + wide("colour blue") + "\n",
     ("unknown directive 'colour'", 5, 2)),
    # -- scenario header and steps
    ("scn-duplicate-header", parse_scenario,
     SCN + nb("scenario s") + "\n",
     ("duplicate scenario header", 2, 2)),
    ("scn-header-takes-name", parse_scenario,
     wide("scenario a b") + "\n",
     ("scenario takes a name", 1, 2)),
    ("scn-header-first", parse_scenario,
     nb("advance 1") + "\n",
     ("expected a scenario header first", 1, 2)),
    ("scn-missing-header", parse_scenario,
     wide("# nothing") + "\n",
     ("missing scenario header", 1, 1)),
    ("scn-expect-must-precede", parse_scenario,
     SCN + "expect revert\n" + nb("advance 1") + "\n",
     ("expect revert must precede deposit, instruct, or claim", 3, 2)),
    ("scn-expect-syntax", parse_scenario,
     SCN + wide("expect expect") + "\n",
     ("expect syntax: expect revert [CODE]", 2, 2)),
    ("scn-expect-dangling", parse_scenario,
     SCN + "\n" + nb("expect revert") + "\n",
     ("expect revert with no following action", 3, 1)),
    ("scn-approve-syntax", parse_scenario,
     SCN + wide("approve a n") + "\n",
     ("approve syntax: approve ACCOUNT NODE AMOUNT", 2, 2)),
    ("scn-approve-integer", parse_scenario,
     SCN + nb("approve 5x n 5x") + "\n",
     ("amount must be an integer, got '5x'", 2, 15)),
    ("scn-approve-negative", parse_scenario,
     SCN + wide("approve -1 n -1") + "\n",
     ("amount must be >= 0", 2, 15)),
    ("scn-approve-above-domain", parse_scenario,
     SCN + nb(f"approve {MAX_AMOUNT + 1} n {MAX_AMOUNT + 1}") + "\n",
     (f"amount must be <= {MAX_AMOUNT}", 2, 52)),
    ("scn-deposit-syntax", parse_scenario,
     SCN + wide("deposit a") + "\n",
     ("deposit syntax: deposit ACCOUNT AMOUNT [k=v ...]", 2, 2)),
    ("scn-deposit-integer", parse_scenario,
     SCN + nb("deposit 5x 5x") + "\n",
     ("amount must be an integer, got '5x'", 2, 13)),
    ("scn-metadata-key-value", parse_scenario,
     SCN + wide("deposit a 5 a") + "\n",
     ("metadata must be key=value, got 'a'", 2, 14)),
    ("scn-metadata-empty-key", parse_scenario,
     SCN + nb("deposit =1 5 =1") + "\n",
     ("metadata key is empty", 2, 15)),
    ("scn-metadata-duplicate-key", parse_scenario,
     SCN + wide("deposit a 5 k=1 k=1") + "\n",
     ("duplicate metadata key 'k'", 2, 18)),
    ("scn-advance-syntax", parse_scenario,
     SCN + nb("advance") + "\n",
     ("advance takes a time delta", 2, 2)),
    ("scn-advance-integer", parse_scenario,
     SCN + wide("advance advance") + "\n",
     ("delta must be an integer, got 'advance'", 2, 10)),
    ("scn-advance-negative", parse_scenario,
     SCN + nb("advance -1") + "\n",
     ("delta must be >= 0", 2, 10)),
    ("scn-instruct-syntax", parse_scenario,
     SCN + wide("instruct n o t") + "\n",
     ("instruct syntax: instruct NODE ORACLE TAG AMOUNT", 2, 2)),
    ("scn-instruct-integer", parse_scenario,
     SCN + nb("instruct x o x x") + "\n",
     ("amount must be an integer, got 'x'", 2, 17)),
    ("scn-claim-syntax", parse_scenario,
     SCN + wide("claim n") + "\n",
     ("claim syntax: claim NODE ACCOUNT", 2, 2)),
    ("scn-assert-subject", parse_scenario,
     SCN + nb("assert") + "\n",
     ("assert takes a subject", 2, 2)),
    ("scn-assert-balance-syntax", parse_scenario,
     SCN + wide("assert balance a") + "\n",
     ("assert balance ACCOUNT AMOUNT", 2, 2)),
    ("scn-assert-balance-integer", parse_scenario,
     SCN + nb("assert balance balance balance") + "\n",
     ("amount must be an integer, got 'balance'", 2, 25)),
    ("scn-assert-held-syntax", parse_scenario,
     SCN + wide("assert held n") + "\n",
     ("assert held NODE AMOUNT", 2, 2)),
    ("scn-assert-held-integer", parse_scenario,
     SCN + nb("assert held held held") + "\n",
     ("amount must be an integer, got 'held'", 2, 19)),
    ("scn-assert-claimable-syntax", parse_scenario,
     SCN + wide("assert claimable n a") + "\n",
     ("assert claimable NODE ACCOUNT AMOUNT", 2, 2)),
    ("scn-assert-claimable-integer", parse_scenario,
     SCN + nb("assert claimable n a n") + "\n",
     ("amount must be an integer, got 'n'", 2, 23)),
    ("scn-assert-events-syntax", parse_scenario,
     SCN + wide("assert events Sent") + "\n",
     ("assert events KIND COUNT", 2, 2)),
    ("scn-assert-events-integer", parse_scenario,
     SCN + nb("assert events events events") + "\n",
     ("count must be an integer, got 'events'", 2, 23)),
    ("scn-assert-unknown-subject", parse_scenario,
     SCN + wide("assert assert") + "\n",
     ("assert subject must be balance, held, claimable, or events", 2, 9)),
    ("scn-unknown-action", parse_scenario,
     SCN + nb("jump 1") + "\n",
     ("unknown action 'jump'", 2, 2)),
    # -- cost tables: every error is at column 1
    ("cost-arity", parse_cost_table,
     "ledger_write 1\n" + wide("ledger_read") + "\n",
     ("cost table lines are NAME VALUE", 2, 1)),
    ("cost-unknown", parse_cost_table,
     nb("colour 1") + "\n",
     ("unknown cost 'colour'", 1, 1)),
    ("cost-duplicate", parse_cost_table,
     "ledger_write 1\n" + wide("ledger_write 2") + "\n",
     ("duplicate cost 'ledger_write'", 2, 1)),
    ("cost-integer", parse_cost_table,
     nb("ledger_write ledger_write") + "\n",
     ("cost 'ledger_write' must be an integer", 1, 1)),
    ("cost-negative", parse_cost_table,
     wide("ledger_write -1") + "\n",
     ("cost ledger_write must be non-negative", 1, 1)),
    ("cost-negative-second-line", parse_cost_table,
     "ledger_write 1\n" + nb("ledger_read -1") + "\n",
     ("cost ledger_read must be non-negative", 2, 1)),
]


@pytest.mark.parametrize("parse, text, expected",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_error_position(parse, text, expected):
    with pytest.raises(SpecSyntaxError) as exc:
        parse(text)
    err = exc.value
    assert (err.message, err.line, err.column) == expected


@pytest.mark.parametrize("parse, text, message", [
    (parse_pipeline, "pipeline p\nbalance a {}\n",
     "balance amount must be an integer, got {}"),
    (parse_pipeline, PIPE + "  template threshold\n  config limit {}\n",
     "limit must be an integer, got {}"),
    (parse_scenario, SCN + "advance {}\n", "delta must be an integer, got {}"),
    (parse_scenario, SCN + "deposit a 5 {}\n",
     "metadata must be key=value, got {}"),
], ids=["balance", "config", "scenario-integer", "metadata"])
def test_a_long_word_is_cut_short(parse, text, message):
    """A word of up to 20 characters is echoed whole, a longer one as its
    first 20 characters and its length."""
    for word, shown in (("x" * 20, repr("x" * 20)),
                        ("x" * 21, f"'{'x' * 20}'... (21 characters)"),
                        ("x" * 5000, f"'{'x' * 20}'... (5000 characters)")):
        with pytest.raises(SpecSyntaxError) as exc:
            parse(text.format(word))
        assert exc.value.message == message.format(shown)


def test_every_bad_line_is_tab_indented_with_a_wide_separator():
    for name, _, text, (_, line, _) in CASES:
        bad = text.split("\n")[line - 1]
        assert bad.startswith("\t") and " " not in bad, name
        if len(bad.split()) > 1:
            assert "\u00a0" in bad or "\u3000" in bad, name


# -- the reader against its reference --------------------------------------------


def read(text):
    """``token_lines(text)`` as ``[(lineno, [(word, column), ...])]``."""
    return [(line[0], [(word, column(line, i))
                       for i, word in enumerate(line[2])])
            for line in token_lines(text)]


def fixture_texts():
    return [path.read_text(encoding="utf-8")
            for path in sorted(FIXTURES.iterdir())]


# Characters ``str.splitlines()`` ends a line at and the reader does not.
NOT_LINE_ENDS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                 "\u2029")

# What a mutation may insert: separators, indentation, a comment mark and
# characters that name nothing.
_INSERTS = ("\t", " ", "\u00a0", "\u3000", "\x1f", "#", "  ", "\n", "\r\n",
            "\r", "x", "->", "=", "\u00e9", *NOT_LINE_ENDS)


def mutate(rng: random.Random, text: str) -> str:
    """``text`` with a few seeded edits: an insert, a deleted character, or
    a word of a line repeated on it."""
    chars = list(text)
    for _ in range(rng.randint(1, 6)):
        pos = rng.randrange(len(chars) + 1)
        op = rng.random()
        if op < 0.5:
            chars.insert(pos, rng.choice(_INSERTS))
        elif op < 0.75 and chars:
            del chars[min(pos, len(chars) - 1)]
        else:
            lines = "".join(chars).split("\n")
            i = rng.randrange(len(lines))
            words = lines[i].split()
            if words:
                lines[i] += rng.choice("\t \u00a0\u3000") + rng.choice(words)
            chars = list("\n".join(lines))
    return "".join(chars)


def mutated_texts(count: int, seed: int = 10):
    rng = random.Random(seed)
    bases = fixture_texts() + [random_pipeline_text(random.Random(s))[0]
                               for s in range(8)]
    return [mutate(rng, rng.choice(bases)) for _ in range(count)]


def test_reader_matches_reference_on_fixtures():
    for text in fixture_texts():
        assert read(text) == reference_token_lines(text)


def test_reader_matches_reference_on_mutated_texts():
    for text in mutated_texts(2000):
        assert read(text) == reference_token_lines(text), repr(text)


def test_error_columns_point_at_a_word_of_their_line():
    """On mutated texts, every syntax error points at the first column of
    its line or at the start of one of the line's words."""
    errors = 0
    for text in mutated_texts(2000, seed=11):
        lines = dict(reference_token_lines(text))
        for parse in (parse_pipeline, parse_scenario):
            try:
                parse(text)
            except SpecSyntaxError as err:
                errors += 1
                columns = {col for _, col in lines.get(err.line, [])}
                assert err.column == 1 or err.column in columns, repr(text)
    assert errors > 1000  # the mutations do reach the error paths


def test_split_and_the_word_pattern_agree_on_every_code_point():
    """``str.split()`` ends a word exactly where ``\\S+`` does: at the code
    points ``str.isspace()`` accepts."""
    space = re.compile(r"\s")
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        assert char.isspace() == (space.match(char) is not None), hex(code)


# -- line ends --------------------------------------------------------------------


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_lines_end_at_newline_crlf_and_cr(end):
    text = end.join(["pipeline p", "", "# note", "node n", "  colour blue", ""])
    with pytest.raises(SpecSyntaxError) as exc:
        parse_pipeline(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == \
        ("unknown directive 'colour'", 5, 3)


@pytest.mark.parametrize("char", NOT_LINE_ENDS,
                         ids=[f"U+{ord(c):04X}" for c in NOT_LINE_ENDS])
class TestCharactersThatEndNoLine:
    def test_a_comment_holding_it_stays_one_comment(self, char):
        text = f"pipeline p\n\nnode n\n# page break {char} here\n  colour blue\n"
        with pytest.raises(SpecSyntaxError) as exc:
            parse_pipeline(text)
        assert (exc.value.message, exc.value.line, exc.value.column) == \
            ("unknown directive 'colour'", 5, 3)

    def test_it_separates_words(self, char):
        spec = parse_pipeline(f"pipeline p\nbalance{char}acme{char}7\n")
        assert spec.balances == {"acme": 7}
        line = next(token_lines(f"a{char}b{char}b\n"))
        assert line[2] == ["a", "b", "b"]
        assert [column(line, i) for i in range(3)] == [1, 3, 5]

    def test_in_every_format(self, char):
        scenario = parse_scenario(f"scenario s\n# a {char} b\nadvance{char}3\n")
        assert [(s.kind, s.line, s.args) for s in scenario.steps] == \
            [("advance", 3, {"delta": 3})]
        table = parse_cost_table(f"# a {char} b\nledger_write{char}7\n")
        assert table.ledger_write == 7
