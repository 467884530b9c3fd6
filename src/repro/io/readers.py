"""Source readers: CSV directories and SQLite files → :class:`RawTable` lists.

Layer: ``io`` (relational ingestion; sits on top of ``db``).

Contract: each reader returns a list of :class:`~repro.io.tables.RawTable`
in a *deterministic table order*, because table order is observable
downstream — foreign keys are discovered source-relation by source-relation,
and the foreign-key list order determines the walk-scheme enumeration order
of the embedding algorithms (and therefore their RNG consumption).

* CSV directories carry no inherent order, so tables come back sorted by
  file name; pass ``relation_order`` (directly or via the override spec) to
  reproduce a specific schema's order.
* SQLite files *do* carry an order — ``sqlite_master`` keeps tables in
  creation order — and the reader preserves it, which is what makes a
  SQLite round trip of a bundled dataset exact without any hints.

All structural defects raise :class:`~repro.io.errors.MalformedSourceError`
with the file and row that caused them.
"""

from __future__ import annotations

import csv
import sqlite3
from pathlib import Path
from typing import Sequence

from repro.io.errors import MalformedSourceError
from repro.io.tables import (
    DEFAULT_NULL_VALUES,
    RawTable,
    parse_cell,
    quote_sqlite_identifier,
)

SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")
"""File suffixes recognised as SQLite containers by :func:`repro.io.pipeline.ingest_path`."""


def read_csv_dir(
    directory: str | Path,
    *,
    null_values: Sequence[str] = DEFAULT_NULL_VALUES,
    relation_order: Sequence[str] | None = None,
    delimiter: str = ",",
    encoding: str = "utf-8-sig",
) -> list[RawTable]:
    """Read every ``*.csv`` file of a directory into raw tables.

    The table name is the file stem.  Each file must have a header row and
    rectangular data rows; cells are parsed with
    :func:`~repro.io.tables.parse_cell` (``null_values`` spellings become
    ``None``).  Tables are returned sorted by name unless
    ``relation_order`` — a permutation of the discovered table names —
    pins a specific order.  The default encoding is ``utf-8-sig``, which
    reads plain UTF-8 unchanged but strips the byte-order mark that
    Excel-style exports prepend (a BOM would otherwise leak into the
    first column's name).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise MalformedSourceError(
            f"{directory}: not a directory; point the CSV importer at a directory "
            "containing one .csv file per relation"
        )
    paths: dict[str, Path] = {}
    for path in sorted(directory.iterdir()):
        # match the extension case-insensitively: Windows/Excel exports
        # frequently ship TEAMS.CSV, and silently skipping it would ingest
        # an incomplete database
        if not path.is_file() or path.suffix.lower() != ".csv":
            continue
        if path.stem in paths:
            raise MalformedSourceError(
                f"{directory}: {paths[path.stem].name} and {path.name} would both "
                f"become relation {path.stem!r}; rename one of them"
            )
        paths[path.stem] = path
    if not paths:
        raise MalformedSourceError(
            f"{directory}: contains no .csv files; nothing to ingest"
        )
    order = resolve_relation_order(sorted(paths), relation_order, str(directory))
    return [
        _read_csv_file(paths[name], null_values=null_values, delimiter=delimiter, encoding=encoding)
        for name in order
    ]


def resolve_relation_order(
    discovered: Sequence[str], requested: Sequence[str] | None, origin: str
) -> list[str]:
    """Validate a requested table order against the discovered table names.

    ``requested`` must be an exact permutation of ``discovered`` (no
    duplicates, no unknown names, nothing missing) — a typo'd order would
    otherwise silently reorder tables, and table order determines the
    foreign-key list order and hence downstream RNG consumption.  Returns
    ``discovered`` unchanged when no order is requested.
    """
    if requested is None:
        return list(discovered)
    requested = list(requested)
    missing = sorted(set(discovered) - set(requested))
    unknown = sorted(set(requested) - set(discovered))
    if missing or unknown:
        parts = []
        if missing:
            parts.append(f"tables not mentioned: {', '.join(missing)}")
        if unknown:
            parts.append(f"names with no matching file: {', '.join(unknown)}")
        raise MalformedSourceError(
            f"{origin}: relation_order must be a permutation of the discovered "
            f"table names ({'; '.join(parts)})"
        )
    if len(requested) != len(set(requested)):
        raise MalformedSourceError(f"{origin}: relation_order contains duplicate names")
    return requested


def _read_csv_file(
    path: Path,
    *,
    null_values: Sequence[str],
    delimiter: str,
    encoding: str,
) -> RawTable:
    with open(path, newline="", encoding=encoding) as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedSourceError(
                f"{path}: file is empty; every table file needs a header row "
                "naming its columns"
            ) from None
        table = RawTable(path.stem, tuple(h.strip() for h in header), origin=str(path))
        for line, row in enumerate(reader, start=2):
            if not row:  # a completely blank line is tolerated
                continue
            if len(row) != len(table.columns):
                raise MalformedSourceError(
                    f"{path}, row {line}: has {len(row)} values but the header "
                    f"declares {len(table.columns)} columns; the file may use a "
                    "different delimiter or contain unquoted separators — fix the "
                    "row or pass the right delimiter"
                )
            table.rows.append(tuple(parse_cell(cell, null_values) for cell in row))
    return table


def read_sqlite(path: str | Path) -> list[RawTable]:
    """Read every user table of a SQLite file into raw tables.

    Tables are returned in creation order (``sqlite_master`` order) and
    rows in ``rowid`` order, i.e. insertion order — the order a dump
    produced by :func:`repro.io.export.export_sqlite` wrote them in.
    Values arrive with SQLite's own types (int/float/str, ``NULL`` →
    ``None``); BLOB columns are rejected.
    """
    path = Path(path)
    if not path.is_file():
        raise MalformedSourceError(f"{path}: no such file; nothing to ingest")
    try:
        connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    except sqlite3.Error as error:  # pragma: no cover - OS-dependent
        raise MalformedSourceError(f"{path}: cannot open as SQLite ({error})") from error
    try:
        try:
            names = [
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table' "
                    "AND name NOT LIKE 'sqlite_%' ORDER BY rowid"
                )
            ]
        except sqlite3.DatabaseError as error:
            raise MalformedSourceError(
                f"{path}: not a SQLite database ({error}); the SQLite importer "
                "needs a database file, not a text dump"
            ) from error
        if not names:
            raise MalformedSourceError(f"{path}: contains no tables; nothing to ingest")
        return [_read_sqlite_table(connection, name, str(path)) for name in names]
    finally:
        connection.close()


def _read_sqlite_table(connection: sqlite3.Connection, name: str, origin: str) -> RawTable:
    quoted = quote_sqlite_identifier(name)
    columns = [row[1] for row in connection.execute(f"PRAGMA table_info({quoted})")]
    table = RawTable(name, tuple(columns), origin=origin)
    try:
        cursor = connection.execute(f"SELECT * FROM {quoted} ORDER BY rowid")
    except sqlite3.OperationalError:
        # WITHOUT ROWID tables: fall back to the table's natural order
        cursor = connection.execute(f"SELECT * FROM {quoted}")
    for number, row in enumerate(cursor, start=1):
        for value in row:
            if isinstance(value, (bytes, memoryview)):
                raise MalformedSourceError(
                    f"{origin}, table {name!r}, row {number}: contains a BLOB value; "
                    "the ingestion layer handles text and numbers only — export the "
                    "column as text or drop it"
                )
        table.rows.append(tuple(row))
    return table
