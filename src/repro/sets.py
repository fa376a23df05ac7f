"""The one empty access set.

Every record that holds an access set — a task's reads and writes, a
prediction's sets and wildcards, a receipt's storage trace, a static
summary — holds a ``frozenset``, and most of them are empty: a UTXO
transaction reads nothing and widens nothing.  Since CPython 3.10
``frozenset()`` is no longer a singleton, so each empty one would be a
fresh 216-byte object per transaction.  They all hold :data:`EMPTY`
instead: a dataclass default is ``= EMPTY``, and a set built from a
possibly empty collection is ``frozenset(items) if items else EMPTY``.
"""

from __future__ import annotations

EMPTY: frozenset = frozenset()
