"""Snapshot persistence of the compiled walk engine.

Compiling a database into flat arrays is a one-time cost per process, but a
long-lived embedding service that restarts should not pay it again before
serving its first query.  :func:`save_compiled` writes everything
:class:`~repro.engine.compiled.CompiledDatabase` derived from the database —
per-relation fact numberings, dictionary-encoded value columns, and
foreign-key pointer arrays — into a single ``.npz`` file;
:func:`load_compiled` restores it against a live :class:`Database` without
recompiling, so all downstream matrices (and therefore all distributions)
are bit-identical to the pre-restart engine's.

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
    fk_names = list(compiled.fk_target_rows.keys())
    manifest = {
        "format": FORMAT_VERSION,
        "relations": relation_names,
        "columns": [list(pair) for pair in columns],
        "foreign_keys": fk_names,
    }
    arrays: dict[str, np.ndarray] = {"manifest": np.array(json.dumps(manifest))}
    for i, rel_name in enumerate(relation_names):
        arrays[f"rel{i}_fact_ids"] = compiled.relations[rel_name].fact_ids_array()
    for j, (rel_name, attr_name) in enumerate(columns):
        column = compiled.relations[rel_name].columns[attr_name]
        arrays[f"col{j}_codes"] = column.codes_array()
        arrays[f"col{j}_vocab"] = column.vocab_array()
    for k, fk_name in enumerate(fk_names):
        arrays[f"fk{k}_pointers"] = np.asarray(compiled.fk_target_rows[fk_name], dtype=np.int64)
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
    stored_columns: dict[str, list[str]] = {name: [] for name in schema_relations}
    for rel_name, attr_name in manifest["columns"]:
        stored_columns[rel_name].append(attr_name)
    for rel_name in schema_relations:
        expected_attrs = list(db.schema.relation(rel_name).attribute_names)
        if sorted(stored_columns[rel_name]) != sorted(expected_attrs):
            raise ValueError(
                f"engine snapshot does not match the database schema: relation "
                f"{rel_name!r} has columns {sorted(stored_columns[rel_name])} in the "
                f"snapshot vs attributes {sorted(expected_attrs)} in the schema"
            )

    compiled = CompiledDatabase.__new__(CompiledDatabase)
    compiled.db = db
    compiled.schema = db.schema
    compiled.version = 0
    compiled.rel_versions = {name: 0 for name in db.schema.relation_names}
    compiled.fk_versions = {fk.name: 0 for fk in db.schema.foreign_keys}
    compiled._fk_array_cache = {}
    compiled._start_journal()
    # the snapshot does not record the database's mutation counter, so the
    # restored state has no known sync point; the first refresh scans
    compiled._synced_db_version = None
    compiled.set_telemetry(None)

    compiled.relations = {}
    for i, rel_name in enumerate(manifest["relations"]):
        relation = CompiledRelation(db.schema.relation(rel_name))
        fact_ids = data[f"rel{i}_fact_ids"]
        relation.fact_ids = [int(fid) for fid in fact_ids]
        relation.row_of = {fid: row for row, fid in enumerate(relation.fact_ids)}
        relation.alive = [True] * len(relation.fact_ids)
        relation.num_dead = 0
        compiled.relations[rel_name] = relation

    for j, (rel_name, attr_name) in enumerate(manifest["columns"]):
        relation = compiled.relations[rel_name]
        column = ValueColumn()
        column.codes = [int(c) for c in data[f"col{j}_codes"]]
        column.vocab = list(data[f"col{j}_vocab"])
        column.code_of = {value: code for code, value in enumerate(column.vocab)}
        if len(column.codes) != relation.num_rows:
            raise ValueError(
                f"engine snapshot column {rel_name}.{attr_name} has "
                f"{len(column.codes)} codes for {relation.num_rows} rows"
            )
        relation.columns[attr_name] = column

    compiled.fk_target_rows = {
        fk_name: [int(p) for p in data[f"fk{k}_pointers"]]
        for k, fk_name in enumerate(manifest["foreign_keys"])
    }
    for fk in db.schema.foreign_keys:
        pointers = compiled.fk_target_rows[fk.name]
        if len(pointers) != compiled.relations[fk.source].num_rows:
            raise ValueError(
                f"engine snapshot foreign key {fk.name} has {len(pointers)} pointers "
                f"for {compiled.relations[fk.source].num_rows} source rows"
            )

    _validate_against_db(compiled, db, verify_values=verify)
    compiled.refresh()  # append facts inserted after the snapshot was taken
    return compiled


def _validate_against_db(
    compiled: CompiledDatabase, db: Database, verify_values: bool
) -> None:
    for rel_name, relation in compiled.relations.items():
        for fact_id in relation.fact_ids:
            if fact_id not in db._facts_by_id:  # noqa: SLF001 - intra-package check
                raise ValueError(
                    f"engine snapshot fact {fact_id} of relation {rel_name!r} "
                    "is not in the database; the snapshot describes different data"
                )
        if not verify_values:
            continue
        attribute_names = relation.schema.attribute_names
        for row, fact_id in enumerate(relation.fact_ids):
            fact = db.fact(fact_id)
            if fact.relation != rel_name:
                raise ValueError(
                    f"fact {fact_id} is in relation {fact.relation!r}, "
                    f"snapshot says {rel_name!r}"
                )
            for name, value in zip(attribute_names, fact.values):
                column = relation.columns[name]
                code = column.codes[row]
                stored = None if code < 0 else column.vocab[code]
                if stored != value:
                    raise ValueError(
                        f"engine snapshot value mismatch at {rel_name}.{name} "
                        f"for fact {fact_id}: snapshot {stored!r} vs database {value!r}"
                    )
