"""Metamorphic relations: each test runs two pipelines that must behave
alike and compares their exports, so it needs no model of the right answer.

Block order: a pipeline's meaning does not depend on the order of its node
blocks. Reversing them, or shuffling them with a seeded generator, leaves
the ``--trace`` and ``--gas-report`` exports byte-identical. Where two
releases fall due at once, the engine cranks them by node id, not by the
order the nodes were added in, so this relation also pins that tie-break.
"""

import random
import re

import pytest

from paypipe.pipeline import instantiate, parse_pipeline
from paypipe.scenario import apply_step, load_scenario, run_scenario

from support import random_actions, random_pipeline_text
from test_golden import FIXTURES, PAIRS

SEEDS = range(150)  # the random corpus of test_export.py


def reordered(text, order):
    """``text`` with its node blocks rearranged by ``order``, which takes
    the list of blocks and returns them in their new order; the lines
    before the first block stay first."""
    head, *blocks = re.split(r"^(?=node )", text, flags=re.M)
    blocks = order([block.rstrip("\n") for block in blocks])
    return head + "\n\n".join(blocks) + "\n"


def reverse(blocks):
    return blocks[::-1]


def shuffle(blocks):
    random.Random(len(blocks)).shuffle(blocks)
    return blocks


ORDERS = [pytest.param(reverse, id="reversed"),
          pytest.param(shuffle, id="shuffled")]


def exports(text, drive):
    """The ``--trace`` and ``--gas-report`` texts of ``text``'s pipeline
    after ``drive(engine)``."""
    engine = instantiate(parse_pipeline(text))
    drive(engine)
    return engine.trace_text(), engine.gas_text()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", PAIRS)
def test_block_order_leaves_fixture_exports_unchanged(name, order):
    text = (FIXTURES / f"{name}.pipe").read_text()
    scenario = load_scenario(str(FIXTURES / f"{name}.scn"))

    def drive(engine):
        assert run_scenario(engine, scenario).ok
    moved = reordered(text, order)
    assert moved != text
    assert exports(moved, drive) == exports(text, drive)


@pytest.mark.parametrize("order", ORDERS)
def test_block_order_leaves_random_pipeline_exports_unchanged(order):
    for seed in SEEDS:
        rng = random.Random(seed)
        text, info = random_pipeline_text(rng)
        actions = random_actions(rng, info)

        def drive(engine):
            for action in actions:
                apply_step(engine, *action)
        assert exports(reordered(text, order), drive) == exports(text, drive), \
            seed
