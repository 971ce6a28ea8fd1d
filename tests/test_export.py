"""``Engine.trace_text`` against the export oracle in ``support``.

The oracle prints every field of every event by the documented rule, one
field at a time. The engine's export must give the same text, byte for byte,
for engine-made events (the fixture scenarios, random pipelines, the payroll
bench) and for hand-set events built to need escaping in every field, at
chunk boundaries, and in values whose ``str`` is not their plain text.
"""

import enum
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from paypipe import engine as engine_module
from paypipe.bench import (PAY_PER_PERIOD, _drive, build_monolith,
                           build_pipeline_fixture)
from paypipe.engine import Engine, EventRecord
from paypipe.pipeline import instantiate, parse_pipeline
from paypipe.scenario import apply_step, load_scenario, run_scenario

from support import (export_digest, random_actions, random_pipeline_text,
                     reference_trace_text)
from test_golden import PAIRS

FIXTURES = Path(__file__).parent / "fixtures"


def export(events):
    """The engine's trace of hand-set ``events`` by ``trace_text``, which
    must join what its one run of ``write_trace`` handed the writer into a
    list: a chunk of lines per write."""
    engine = Engine()
    engine.events = list(events)
    chunks = []

    def write_trace(write):
        def tee(chunk):
            chunks.append(chunk)
            write(chunk)
        Engine.write_trace(engine, tee)

    engine.write_trace = write_trace
    text = engine.trace_text()
    assert "".join(chunks) == text
    size = engine_module._CHUNK
    assert [chunk.count("\n") for chunk in chunks] == \
        [len(events[i:i + size]) for i in range(0, len(events), size)]
    return text


def check(events):
    assert export(events) == reference_trace_text(events)


def ev(payload, emitter="node:a", kind="Sent", tx=1, seq=0):
    return EventRecord(tx, seq, emitter, kind, payload)


class Spaced(str):
    """A string whose ``str`` is not its own text."""

    def __str__(self):
        return "spaced out=1"


class Plain(str):
    def __str__(self):
        return "plain"


class Key(str, enum.Enum):
    """Equal to the plain key ``"amount"``, but ``str`` prints ``Key.amount``."""

    amount = "amount"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2

    def __str__(self):
        return "low" if self is Level.LOW else "very high"


# -- engine-made events ---------------------------------------------------------


@pytest.mark.parametrize("name", PAIRS)
def test_fixture_scenarios(name):
    engine = instantiate(parse_pipeline((FIXTURES / f"{name}.pipe").read_text()))
    assert run_scenario(engine, load_scenario(str(FIXTURES / f"{name}.scn"))).ok
    assert engine.events
    assert engine.trace_text() == reference_trace_text(engine.events)


def test_random_pipelines():
    for seed in range(150):
        rng = random.Random(seed)
        text, info = random_pipeline_text(rng)
        engine = instantiate(parse_pipeline(text))
        for action in random_actions(rng, info):
            apply_step(engine, *action)
        assert engine.trace_text() == reference_trace_text(engine.events), seed


def test_exports_do_not_depend_on_the_hash_seed():
    """Two child processes, under ``PYTHONHASHSEED`` 0 and 1, print the
    digest of the fixtures' canonical text, trace and gas and of the
    exports of corpus seeds 0-99; both match this process's digest."""
    here = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(here.parent / "src"), str(here)])}
    code = ("from support import export_digest; "
            "from test_golden import FIXTURES, PAIRS; "
            "print(export_digest(FIXTURES, PAIRS))")
    children = [subprocess.Popen([sys.executable, "-c", code],
                                 env={**env, "PYTHONHASHSEED": seed},
                                 stdout=subprocess.PIPE, text=True)
                for seed in ("0", "1")]
    digests = [child.communicate()[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert digests == [export_digest(FIXTURES, PAIRS) + "\n"] * 2


def test_bench_fifty_by_three():
    deposit = PAY_PER_PERIOD * 50 * 3
    pipe, mono = instantiate(build_pipeline_fixture(50, 3)), build_monolith(50, 3)
    for engine in (pipe, mono):
        _drive(engine, deposit, 3)
        assert engine.trace_text() == reference_trace_text(engine.events)
    assert len(pipe.events) > 1024  # spans several chunks of lines


# -- hand-set events ------------------------------------------------------------


def test_no_events_is_empty():
    assert export([]) == ""


@pytest.mark.parametrize("char", ["%", " ", "=", "\n"])
def test_special_character_in_every_field(char):
    clean = ev({"to": "b", "amount": 5})
    check([clean,
           ev({"to": "b", "amount": 5}, emitter=f"node{char}a"),
           clean,
           ev({f"t{char}o": "b", "amount": 5}),
           clean,
           ev({"to": f"b{char}", "amount": 5}),
           clean,
           ev({"to": "b", "amount": 5}, kind=f"Se{char}nt"),
           clean])


def test_kind_is_escaped():
    assert export([ev({"to": "b"}, kind="Se nt=1\n%")]) == \
        "tx=1 seq=0 emitter=node:a kind=Se%20nt%3D1%0A%25 to=b\n"


@pytest.mark.parametrize("text", ["%s", "%d", "%%", "%(x)s", "100%", "%"])
def test_format_directives_print_as_text(text):
    check([ev({"reason": text}), ev({"reason": "ok"}, emitter=text),
           ev({"reason": f"a{text}b", "x": text}, emitter=f"n{text}")])


def test_int_key():
    check([ev({1: "a"}), ev({"to": "b"}), ev({1: "a", 2: "b"})])


def test_mixed_int_and_str_keys_raise_like_sorted():
    with pytest.raises(TypeError):
        reference_trace_text([ev({1: "a", "b": 2})])
    with pytest.raises(TypeError):
        export([ev({"to": "b"}), ev({1: "a", "b": 2})])


def test_bool_and_int_under_one_key():
    check([ev({"v": True}), ev({"v": 1}), ev({"v": 0}), ev({"v": False})])
    check([ev({"v": 1}), ev({"v": True}), ev({"v": False}), ev({"v": 0})])


def test_values_that_are_not_ints_or_strings():
    check([ev({"v": 1.0}), ev({"v": None}), ev({"v": [1, 2]}),
           ev({"v": {"a": 1}}), ev({"v": ()}), ev({"v": -3}), ev({"v": ""})])


def test_str_subclass_and_int_enum_with_their_own_str():
    check([ev({"v": Spaced("x")}), ev({"v": Plain("x")}),
           ev({"v": Level.LOW}), ev({"v": Level.HIGH}),
           ev({"v": 1}, emitter=Spaced("x")), ev({"v": 1}, emitter=Plain("x")),
           ev({"v": 1}, emitter=Level.LOW), ev({"v": 1}, emitter=Level.HIGH),
           ev({Plain("k"): 1}), ev({"v": 1}, kind=Plain("Sent"))])


def test_kind_or_key_equal_to_a_plain_one_prints_its_own_str():
    check([ev({"v": 1}), ev({"v": 2}, kind=Plain("Sent")), ev({"v": 3})])
    check([ev({"v": 1}), ev({Plain("v"): 2}), ev({"v": 3})])
    check([ev({"amount": 1}), ev({Key.amount: 2}), ev({"amount": 3})])


def test_plain_tuples_and_unhashable_kinds():
    check([(1, 0, "node:a", "Sent", {"to": "b"}),
           (1, 1, "node:a", "Sent", {"to": "b c"}),
           (1, 2, "node:a", ["Sent"], {"to": "b"}),
           (1, 3, "node:a", "Sent", {"to": "b"})])


def test_empty_payload():
    check([ev({}), ev({}, kind="Tick"), ev({}, emitter="a b")])


def test_one_key_set_in_two_insertion_orders():
    check([ev({"b": 2, "a": 1}), ev({"a": 1, "b": 2}),
           ev({"b": "x y", "a": 1}), ev({"a": 1, "b": 2}), ev({"b": 2, "a": 1})])


def many(n, spaced=(), emitter="node:a"):
    """``n`` events of one shape; those at the positions in ``spaced`` have a
    value that needs escaping."""
    return [ev({"to": "b c" if i in spaced else "b", "amount": i},
               emitter=emitter, tx=i // 10, seq=i % 10)
            for i in range(n)]


@pytest.mark.parametrize("position", [0, 511, 512, 1299])
def test_one_line_needs_escaping_at(position):
    events = many(1300, spaced={position})
    check(events)
    check(events + many(700))


def test_every_line_needs_escaping():
    check(many(1300, spaced=range(1300)))
    check(many(1300, emitter="node a"))


def test_lines_needing_escaping_under_many_shapes():
    events = []
    for i in range(2000):
        key = f"k{i % 7}"
        value = "x y" if i % 10 == 3 else i
        events.append(ev({key: value, "amount": i}, kind=f"K{i % 3}"))
    check(events)


def test_one_kind_with_two_key_sets_of_one_size():
    """Both key sets of ``Sent`` have two keys, so they take turns under one
    kind and key count, inside a chunk and across chunks; so does a key set
    whose lines ``format_event`` prints."""
    def to(i, value="b"):
        return ev({"to": value, "amount": i}, seq=i)

    def by(i, value="c"):
        return ev({"by": value, "amount": i}, seq=i)

    size = engine_module._CHUNK
    check([to(0), by(1), to(2), by(3), ev({"t o": "b", "amount": 4}), to(5)])
    check([to(i) for i in range(size)] + [by(i) for i in range(size)]
          + [to(i) for i in range(3)])
    check([to(i) if i % 2 else by(i) for i in range(2 * size + 5)])
    check([to(i, "b c" if i == 3 else "b") if i % 2 else by(i)
           for i in range(2 * size + 5)])
    check([by(i, "c d") if i == size + 1 else to(i)
           for i in range(2 * size + 5)])


@pytest.mark.parametrize("odd", [
    ev({"to": "b"}, kind="Se%snt"), ev({"t%o": "b", "amount": 1}),
    ev({1: "%d"}), ev({"to": "100%"}, kind=["Sent"]),
    (1, 0, "node:a", "Sent%(x)s", {"to": "%%"})])
def test_format_event_line_with_a_percent_among_template_lines(odd):
    """A line that ``format_event`` prints enters its chunk's one ``%`` with
    every ``%`` doubled, so its own ``%`` prints as is."""
    events = many(600)
    events[5:5] = [odd]
    events[300:300] = [odd, odd]
    check(events)


def test_failed_chunk_sends_only_its_failing_lines_to_format_event(
        monkeypatch):
    """A chunk whose one ``%`` printed a value to escape fails its check;
    then each template line is checked on its own, and only the failing
    ones, besides the lines ``format_event`` printed in the first place,
    reach ``format_event``."""
    printed = []
    format_event = engine_module.format_event

    def counted(event):
        printed.append(event)
        return format_event(event)

    monkeypatch.setattr(engine_module, "format_event", counted)
    events = many(600)
    odd = [ev({1: "a"}, seq=1), ev({"to": "b"}, kind="Se nt", seq=2)]
    failing = [ev({"to": "b c", "memo": 1}, seq=3),
               ev({"to": "b", "memo": "x=y"}, seq=4)]
    events[3:3] = [odd[0], failing[0], odd[1], failing[1]]
    check(events)
    assert sorted(printed, key=lambda event: event.seq) == odd + failing


def test_lines_format_event_prints_leave_their_chunk_unchecked(monkeypatch):
    """The chunk check counts only template lines, so kinds and keys that
    need escaping, int keys and unhashable kinds, which ``format_event``
    prints, send no chunk to the line-by-line check: the check runs once
    per chunk that has a template line, and never once per line."""
    calls = []
    as_is = engine_module._templates_as_is

    def counted(text, chunk, odd):
        calls.append(len(chunk))
        return as_is(text, chunk, odd)

    monkeypatch.setattr(engine_module, "_templates_as_is", counted)
    events = []
    for i in range(1300):
        events.append(ev({"to": "b", "amount": i}, tx=i))
        events.append(ev({"t o=%\n": "b c", "amount": i}, kind="Se nt=%", tx=i))
        events.append(ev({1: "a b"}, tx=i))
        events.append((i, 0, "node:a", ["Sent"], {"to": "b=c"}))
    check(events)
    size = engine_module._CHUNK
    assert calls == [len(events[i:i + size])
                     for i in range(0, len(events), size)]
    calls.clear()
    check(events[1::4])  # chunks with no template line
    assert calls == []


def test_write_trace_holds_about_a_chunk():
    """``write_trace`` into a writer that drops each chunk holds about one
    chunk of lines at a time: on the bench's 200x10 pipeline its traced
    peak stays under a fifth of the trace's length, where a text built
    whole would hold at least all of it."""
    engine = instantiate(build_pipeline_fixture(200, 10))
    _drive(engine, PAY_PER_PERIOD * 200 * 10, 10)
    sizes = []
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        engine.write_trace(lambda chunk: sizes.append(len(chunk)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(sizes) > 20  # a chunk is about 50 kB
    assert peak < sum(sizes) / 5, (peak, sum(sizes))


# -- no state survives an export ------------------------------------------------


def test_export_repeats_and_leaves_no_state():
    engine = instantiate(build_pipeline_fixture(50, 3))
    _drive(engine, PAY_PER_PERIOD * 50 * 3, 3)
    engine.events.append(ev({"reason": "needs escaping"}))
    before = dict(vars(engine))
    module_before = dict(vars(engine_module))
    first = engine.trace_text()
    assert engine.trace_text() == first
    assert vars(engine) == before
    assert vars(engine_module) == module_before
