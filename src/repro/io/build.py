"""Building a validated :class:`Database` from raw tables and a schema.

Layer: ``io`` (relational ingestion; sits on top of ``db``).

Contract: facts are inserted relation by relation — referenced relations
before referencing ones (see :func:`insertion_order`) — and, per relation,
in the raw table's row order.  The per-relation row order is what an
exported-then-re-ingested database needs to assign every relation the same
per-relation fact ordering as the original (which keeps the compiled
engine's row numbering, value vocabularies, and hence all downstream
embeddings identical); the cross-relation order only keeps references from
dangling mid-build (:meth:`Database._index_fact` links a target that
arrives after its sources through its dangling-reference index).  Key violations
and dangling foreign keys are reported with the table and 1-based data row
they came from, plus the override that fixes them.
"""

from __future__ import annotations

from typing import Sequence

from repro.db.database import Database
from repro.db.errors import KeyViolation
from repro.db.schema import Schema
from repro.io.errors import IngestionError
from repro.io.tables import RawTable


def insertion_order(schema: Schema) -> list[str]:
    """Relation names ordered so foreign-key targets come before sources.

    A topological order over the reference graph (Kahn's algorithm,
    schema order as the tie-break so the result is deterministic).
    Relations on reference cycles — where no valid order exists — are
    appended in schema order; they fall back to the slow reconnection
    path, which is correct just not O(1).
    """
    names = list(schema.relation_names)
    blockers: dict[str, set[str]] = {name: set() for name in names}
    for fk in schema.foreign_keys:
        if fk.source != fk.target:
            blockers[fk.source].add(fk.target)  # target must be inserted first
    ordered: list[str] = []
    placed: set[str] = set()
    remaining = list(names)
    while remaining:
        ready = [name for name in remaining if blockers[name] <= placed]
        if not ready:  # every remaining relation is on a reference cycle
            ordered.extend(remaining)
            break
        ordered.extend(ready)
        placed.update(ready)
        remaining = [name for name in remaining if name not in placed]
    return ordered


def build_database(
    tables: Sequence[RawTable],
    schema: Schema,
    *,
    allow_dangling: bool = False,
) -> Database:
    """Insert every raw row into a fresh :class:`Database` over ``schema``.

    Raises :class:`IngestionError` on duplicate keys (naming the row) and,
    unless ``allow_dangling`` is set, on foreign-key values that reference
    no existing fact (naming the constraint — discovered foreign keys are
    inclusion-checked and cannot dangle, so this only fires for foreign
    keys forced in via the override spec).
    """
    by_name = {table.name: table for table in tables}
    db = Database(schema)
    for relation in insertion_order(schema):
        table = by_name[relation]
        for number, row in enumerate(table.rows, start=1):
            try:
                db.insert(relation, row)
            except KeyViolation as error:
                raise IngestionError(
                    f"table {relation!r}, data row {number}: {error}; deduplicate "
                    "the data or pin a different key via the override spec "
                    f'({{"relations": {{"{relation}": {{"key": [...]}}}}}})'
                ) from error
    if not allow_dangling:
        problems = db.check_foreign_keys()
        if problems:
            shown = "; ".join(problems[:3])
            raise IngestionError(
                f"{len(problems)} dangling foreign-key reference(s): {shown} — "
                "fix the data, remove the foreign key via the override spec "
                '("foreign_keys": {"remove": [...]}), or ingest with '
                "allow_dangling=True"
            )
    return db
