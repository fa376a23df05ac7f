"""Set-up holds one empty set: :data:`repro.sets.EMPTY`.

Most access sets a chain's replay inputs hold are empty — a UTXO task
reads nothing, and its prediction neither reads nor widens — and every
``frozenset()`` is a fresh 216-byte object.  The tasks, predictions and
receipts of both golden chains are walked here, and every empty set met
on the way must be the shared constant, by identity.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import pytest

from repro.execution.parallel_replay import replay_block_inputs
from repro.sets import EMPTY
from repro.workload.profiles import PROFILES_BY_NAME
from tests.core.test_golden_regression import GOLDEN_CHAINS


def empty_sets(root) -> tuple[set[int], int]:
    """Every empty frozenset reachable from *root* through dataclass
    fields, tuples, lists and frozensets: the ids of those other than
    :data:`EMPTY`, and how many references to :data:`EMPTY` were met."""
    strays: set[int] = set()
    shared = 0
    seen: set[int] = set()
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, frozenset) and not item:
            if item is EMPTY:
                shared += 1
            else:
                strays.add(id(item))
            continue
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, (tuple, list, frozenset)):
            stack.extend(item)
        elif is_dataclass(item) and not isinstance(item, type):
            stack.extend(getattr(item, field.name) for field in fields(item))
    return strays, shared


@pytest.mark.parametrize("chain", [name for name, _args in GOLDEN_CHAINS])
def test_every_empty_access_set_is_the_shared_one(chain):
    args = dict(GOLDEN_CHAINS)[chain]
    blocks = replay_block_inputs(
        PROFILES_BY_NAME[chain], blocks=args["num_blocks"],
        seed=args["seed"], scale=args["scale"], predict=True,
    )
    tasks = sum(len(block.tasks) for block in blocks)
    assert tasks and all(
        len(block.predictions) == len(block.tasks) for block in blocks
    )
    strays, shared = empty_sets(blocks)
    assert not strays, (
        f"{len(strays)} distinct empty sets besides EMPTY over {tasks} "
        f"tasks ({len(strays) / tasks:.1f} a task)"
    )
    # The walk reached the sets: a UTXO task's reads and its
    # prediction's reads and wildcards are all empty.
    assert shared >= tasks
