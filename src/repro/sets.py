"""Where account locations are spelled, and the sets that hold them.

Every record that holds an access set — a task's reads and writes, a
prediction's sets and wildcards, a receipt's storage trace, a static
summary — holds a ``frozenset``, and most of them are empty: a UTXO
transaction reads nothing and widens nothing.  Since CPython 3.10
``frozenset()`` is no longer a singleton, so each empty one would be a
fresh 216-byte object per transaction.  They all hold :data:`EMPTY`
instead: a dataclass default is ``= EMPTY``, and a set built from a
possibly empty collection is ``frozenset(items) if items else EMPTY``.

An account location is spelled here and nowhere else::

    balance:<address>           balance cell moved by value transfers
    storage:<address>:<key>     storage slot

:func:`balance_location` and :func:`storage_location` hand out one
string object per distinct location, and :func:`access_set` one
frozenset per distinct set, so a block's runtime tasks
(:func:`repro.execution.engine.tasks_from_account_block`) and its
static predictions (:func:`repro.staticcheck.predict.predict_transaction`)
hold each location once, and a task and its exact prediction one set.
A wider prediction is a different value and keeps a set of its own.

The memos are bounded LRU caches, never a process-wide table: a test
run builds hundreds of chains, and ``sys.intern`` would keep every one
of their strings for good.  :data:`MEMO_SIZE` entries hold the largest
benchmark chain whole with room to spare: account-batch at seed 7 fills
the three memos with 12,286 balance cells, 225 storage slots and 11,113
sets (10,976 access sets, 137 predictions' address indexes) over its
11,331 transactions.  An evicted entry costs only sharing, never a
value.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

EMPTY: frozenset = frozenset()

MEMO_SIZE = 1 << 15


@lru_cache(maxsize=MEMO_SIZE)
def balance_location(address: str) -> str:
    """The balance cell of *address*, one string per address."""
    return f"balance:{address}"


@lru_cache(maxsize=MEMO_SIZE)
def storage_location(address: str, key: str) -> str:
    """Storage slot *key* of *address*, one string per slot.  The key
    ``__balance__`` is the BALANCE opcode's read, ``*`` a wildcard."""
    return f"storage:{address}:{key}"


def access_set(items: Iterable[str]) -> frozenset[str]:
    """*items* as an access set: :data:`EMPTY` when there are none,
    otherwise the one frozenset this value was first built as.

    Pass a ``set``: copying one sizes the frozenset's table to fit,
    where one grown element by element keeps a larger table.
    """
    found = frozenset(items)
    return _shared_set(found) if found else EMPTY


@lru_cache(maxsize=MEMO_SIZE)
def _shared_set(value: frozenset[str]) -> frozenset[str]:
    return value
