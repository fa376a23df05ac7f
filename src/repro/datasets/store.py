"""An in-memory dataset store with CSV round-tripping.

Plays the role of BigQuery in the reproduction: chains are exported
into schema-typed tables, and the query layer reads them back without
ever touching the original Python objects — the same decoupling the
paper gets from running SQL over the public datasets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, TypeVar

from repro.chain.errors import DatasetError
from repro.datasets.schema import (
    AccountTraceRow,
    AccountTransactionRow,
    BlockRow,
    UTXOInputRow,
    UTXOTransactionRow,
    row_from_dict,
    row_to_dict,
)

RowT = TypeVar("RowT")

TABLE_SCHEMAS: dict[str, type] = {
    "blocks": BlockRow,
    "utxo_inputs": UTXOInputRow,
    "utxo_transactions": UTXOTransactionRow,
    "account_transactions": AccountTransactionRow,
    "account_traces": AccountTraceRow,
}


@dataclass
class DatasetStore:
    """Typed tables for one chain's exported history."""

    chain: str
    tables: dict[str, list] = field(default_factory=dict)

    def insert(self, table: str, rows: Iterable[object]) -> None:
        """Append *rows* to *table*, enforcing the table's schema."""
        schema = TABLE_SCHEMAS.get(table)
        if schema is None:
            raise DatasetError(f"unknown table {table!r}")
        bucket = self.tables.setdefault(table, [])
        for row in rows:
            if not isinstance(row, schema):
                raise DatasetError(
                    f"table {table!r} expects {schema.__name__}, "
                    f"got {type(row).__name__}"
                )
            bucket.append(row)

    def group_by_block(self, table: str) -> dict[int, list]:
        """Group a table's rows by ``block_number``, ascending."""
        grouped: dict[int, list] = {}
        for row in self.tables.get(table, []):
            grouped.setdefault(row.block_number, []).append(row)
        return dict(sorted(grouped.items()))

    def count(self, table: str) -> int:
        return len(self.tables.get(table, []))

    # -- CSV round-trip -----------------------------------------------------

    def export_csv(self, directory: str | Path) -> list[Path]:
        """Write every table to ``<directory>/<table>.csv``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for table, rows in self.tables.items():
            schema = TABLE_SCHEMAS[table]
            path = directory / f"{table}.csv"
            with path.open("w", newline="") as handle:
                writer = csv.DictWriter(
                    handle, fieldnames=[f.name for f in fields(schema)]
                )
                writer.writeheader()
                for row in rows:
                    writer.writerow(row_to_dict(row))
            written.append(path)
        return written

    @staticmethod
    def import_csv(chain: str, directory: str | Path) -> "DatasetStore":
        """Load every recognised ``<table>.csv`` under *directory*."""
        directory = Path(directory)
        store = DatasetStore(chain=chain)
        for table, schema in TABLE_SCHEMAS.items():
            path = directory / f"{table}.csv"
            if not path.exists():
                continue
            with path.open(newline="") as handle:
                reader = csv.DictReader(handle)
                store.insert(
                    table,
                    (row_from_dict(schema, line) for line in reader),
                )
        return store
