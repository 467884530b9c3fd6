"""Snapshot persistence of the compiled walk engine.

Compiling a database into flat arrays is a one-time cost per process, but a
long-lived embedding service that restarts should not pay it again before
serving its first query.  :func:`save_compiled` writes everything
:class:`~repro.engine.compiled.CompiledDatabase` derived from the database —
per-relation fact numberings, dictionary-encoded value columns, and
foreign-key pointer arrays — into a single ``.npz`` file;
:func:`load_compiled` restores it against a live :class:`Database` without
recompiling, so all downstream matrices (and therefore all distributions)
are bit-identical to the pre-restart engine's.  The compiled columns are
numpy arrays, so they are written and restored as they are.

The snapshot stores *compiled state*, not the data itself: loading validates
the snapshot against the backing database and refuses to restore against a
database it does not describe.  Facts inserted after the snapshot was taken
are appended incrementally on load via the normal ``refresh`` path.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.db.database import Database
from repro.engine.compiled import CompiledDatabase, CompiledRelation, ValueColumn

FORMAT_VERSION = 1


def save_compiled(compiled: CompiledDatabase, path: str | Path) -> Path:
    """Write a compiled database's arrays to a single ``.npz`` file.

    Tombstoned rows are compacted away first (the snapshot format stores
    dense, all-alive arrays), which leaves the in-memory compiled state
    compacted too — distributions are unchanged, row numbers may not be.
    """
    compiled.compact()
    path = Path(path)
    relation_names = list(compiled.relations.keys())
    columns = [
        (rel_name, attr_name)
        for rel_name in relation_names
        for attr_name in compiled.relations[rel_name].columns
    ]
    fk_names = [fk.name for fk in compiled.schema.foreign_keys]
    manifest = {
        "format": FORMAT_VERSION,
        "relations": relation_names,
        "columns": [list(pair) for pair in columns],
        "foreign_keys": fk_names,
    }
    arrays: dict[str, np.ndarray] = {"manifest": np.array(json.dumps(manifest))}
    for i, rel_name in enumerate(relation_names):
        arrays[f"rel{i}_fact_ids"] = compiled.relations[rel_name].fact_ids
    for j, (rel_name, attr_name) in enumerate(columns):
        column = compiled.relations[rel_name].columns[attr_name]
        arrays[f"col{j}_codes"] = column.codes
        arrays[f"col{j}_vocab"] = column.vocab
    for k, fk_name in enumerate(fk_names):
        arrays[f"fk{k}_pointers"] = compiled.fk_target_rows(fk_name)
    np.savez_compressed(path, **arrays)
    return path


def load_compiled(db: Database, path: str | Path, verify: bool = True) -> CompiledDatabase:
    """Restore a compiled database from a snapshot, bound to ``db``.

    The snapshot must describe (a prefix of) ``db``: relation, column and
    foreign-key layouts must match the schema, every stored fact must still
    exist in ``db``, and — when ``verify`` is true (the default) — the stored
    value codes must decode to the facts' current values.  Facts inserted
    into ``db`` after the snapshot was taken are appended incrementally, so a
    warm-started engine is immediately in sync.
    """
    data = np.load(Path(path), allow_pickle=True)
    manifest = json.loads(str(data["manifest"]))
    if manifest.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported engine snapshot format {manifest.get('format')!r}")

    schema_relations = list(db.schema.relation_names)
    if manifest["relations"] != schema_relations:
        raise ValueError(
            "engine snapshot does not match the database schema: relations "
            f"{manifest['relations']} vs {schema_relations}"
        )
    expected_fks = [fk.name for fk in db.schema.foreign_keys]
    if manifest["foreign_keys"] != expected_fks:
        raise ValueError(
            "engine snapshot does not match the database schema: foreign keys "
            f"{manifest['foreign_keys']} vs {expected_fks}"
        )
    columns: dict[str, dict[str, ValueColumn]] = {name: {} for name in schema_relations}
    for j, (rel_name, attr_name) in enumerate(manifest["columns"]):
        codes = data[f"col{j}_codes"].astype(np.int64, copy=False)
        columns[rel_name][attr_name] = ValueColumn.from_arrays(codes, data[f"col{j}_vocab"])
    relations = {}
    for i, rel_name in enumerate(schema_relations):
        schema = db.schema.relation(rel_name)
        stored, expected = sorted(columns[rel_name]), sorted(schema.attribute_names)
        if stored != expected:
            raise ValueError(
                f"engine snapshot does not match the database schema: relation "
                f"{rel_name!r} has columns {stored} in the snapshot vs attributes "
                f"{expected} in the schema"
            )
        fact_ids = data[f"rel{i}_fact_ids"].astype(np.int64, copy=False)
        for attr_name, column in columns[rel_name].items():
            if column.codes.size != fact_ids.size:
                raise ValueError(
                    f"engine snapshot column {rel_name}.{attr_name} has "
                    f"{column.codes.size} codes for {fact_ids.size} rows"
                )
        in_order = {name: columns[rel_name][name] for name in schema.attribute_names}
        relations[rel_name] = CompiledRelation(schema, fact_ids, in_order)
    pointers = {}
    for k, fk in enumerate(db.schema.foreign_keys):
        pointers[fk.name] = data[f"fk{k}_pointers"].astype(np.int64, copy=False)
        if pointers[fk.name].size != relations[fk.source].num_rows:
            raise ValueError(
                f"engine snapshot foreign key {fk.name} has {pointers[fk.name].size} "
                f"pointers for {relations[fk.source].num_rows} source rows"
            )
    compiled = CompiledDatabase.__new__(CompiledDatabase)
    # the snapshot does not record the database's mutation counter, so the
    # restored state has no known sync point; the first refresh scans
    compiled._bind(db, None)
    compiled.relations, compiled._pointers = relations, pointers

    _validate_against_db(compiled, db, verify_values=verify)
    compiled.refresh()  # append facts inserted after the snapshot was taken
    return compiled


def _validate_against_db(
    compiled: CompiledDatabase, db: Database, verify_values: bool
) -> None:
    for rel_name, relation in compiled.relations.items():
        for fact_id in relation.fact_ids.tolist():
            fact = db._facts_by_id.get(fact_id)  # noqa: SLF001 - intra-package check
            if fact is None:
                raise ValueError(
                    f"engine snapshot fact {fact_id} of relation {rel_name!r} "
                    "is not in the database; the snapshot describes different data"
                )
            if fact.relation != rel_name:
                raise ValueError(
                    f"fact {fact_id} is in relation {fact.relation!r}, "
                    f"snapshot says {rel_name!r}"
                )
    for fact in compiled.stale_facts() if verify_values else ():
        raise ValueError(
            f"engine snapshot value mismatch for fact {fact.fact_id} of "
            f"{fact.relation!r}: the database holds {fact.values!r}"
        )
