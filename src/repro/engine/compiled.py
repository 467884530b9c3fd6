"""Compilation of a :class:`~repro.db.database.Database` into flat arrays.

The object-per-fact representation of :mod:`repro.db` is convenient for
constraint checking and incremental maintenance, but it makes the random-walk
hot path (Section V-A) traverse boxed :class:`Fact` objects one at a time.
This module compiles a database into integer arrays once, so the walk
machinery can run as vectorised array programs:

* every relation gets a dense row numbering of its facts (``fact_ids`` /
  ``row_of``);
* every foreign key gets a forward pointer array ``fk_target_rows[fk]`` —
  for each source row the row of the referenced target fact, or ``-1`` for a
  dangling/null reference — from which forward and backward transition
  matrices in CSR form are derived;
* every ``(relation, attribute)`` column is dictionary-encoded into integer
  codes over a per-column vocabulary (``-1`` encodes ⊥).

The compiled form supports the full CRUD cycle incrementally:

* :meth:`CompiledDatabase.add_fact` appends an inserted fact, repairing
  dangling foreign-key pointers in both directions;
* :meth:`CompiledDatabase.remove_fact` *tombstones* a deleted fact's row —
  the row keeps its number (so every other row's numbering, and therefore
  every cached matrix shape, stays valid) but is masked out of all
  transitions: its outgoing pointers and every pointer referencing it are
  repaired to ``-1``.  Tombstones are compacted lazily once they dominate a
  relation (:meth:`compact`), amortising the rebuild over many deletions;
* :meth:`CompiledDatabase.update_fact` re-encodes an updated fact's column
  values in place and re-resolves foreign-key pointers touching it.

Every mutation also appends to a *journal* the rows it touched — rows
appended or tombstoned, rows re-encoded (per attribute), and foreign-key
source rows whose pointer moved, with their old and new target rows — each
entry carrying fact ids next to row numbers, so that
:meth:`CompiledDatabase.changes_since` can name, in the current numbering,
every row touched since any journal position, across compactions too.

:meth:`CompiledDatabase.refresh` syncs with the backing database by
replaying its bounded changelog (``Database.changes_since``), so a refresh
costs O(changes) — and O(1) when nothing changed — instead of a full
database scan.  Alongside the global ``version`` (bumped by every mutation)
the compiled form keeps *per-foreign-key* dirty counters so the pointer
arrays and step matrices keyed on them survive mutations that cannot have
affected them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.db.database import Database, Fact
from repro.db.schema import RelationSchema
from repro.obs import NULL_TELEMETRY, Telemetry

Value = Any


class ValueColumn:
    """Dictionary-encoded values of one ``(relation, attribute)`` column.

    ``codes[row]`` is the index of the row's value in ``vocab``, or ``-1``
    when the value is ⊥ (None).  The vocabulary grows append-only so codes
    remain stable under incremental extension.
    """

    __slots__ = ("codes", "vocab", "code_of")

    def __init__(self) -> None:
        self.codes: list[int] = []
        self.vocab: list[Value] = []
        self.code_of: dict[Value, int] = {}

    def code_for(self, value: Value) -> int:
        """The code of ``value`` (⊥ is ``-1``), growing the vocabulary."""
        if value is None:
            return -1
        code = self.code_of.get(value)
        if code is None:
            code = len(self.vocab)
            self.code_of[value] = code
            self.vocab.append(value)
        return code

    def append(self, value: Value) -> None:
        self.codes.append(self.code_for(value))

    def set(self, row: int, value: Value) -> bool:
        """Re-encode one row's value in place; returns True when it changed."""
        code = self.code_for(value)
        if self.codes[row] == code:
            return False
        self.codes[row] = code
        return True

    def compact(self, keep: np.ndarray) -> None:
        """Keep the rows ``keep`` marks; the vocabulary is rebuilt in order of
        first use by the kept rows, as a fresh compilation would build it."""
        codes = self.codes_array()[keep]
        used, first = np.unique(codes[codes >= 0], return_index=True)
        order = used[np.argsort(first)]
        remap = np.full(len(self.vocab) + 1, -1, dtype=np.int64)  # [-1] stays ⊥
        remap[order] = np.arange(order.size)
        self.codes = remap[codes].tolist()
        self.vocab = [self.vocab[code] for code in order.tolist()]
        self.code_of = {value: code for code, value in enumerate(self.vocab)}

    def codes_array(self) -> np.ndarray:
        return np.asarray(self.codes, dtype=np.int64)

    def vocab_array(self) -> np.ndarray:
        out = np.empty(len(self.vocab), dtype=object)
        out[:] = self.vocab
        return out

    def __len__(self) -> int:
        return len(self.codes)


class CompiledRelation:
    """The facts of one relation, numbered densely and column-encoded.

    Deleted facts are *tombstoned*: their row keeps its number (``num_rows``
    never shrinks outside compaction) but ``alive[row]`` turns false, the
    ``fact_ids`` slot is cleared to ``-1`` and the ``row_of`` entry is
    dropped, so tombstoned rows are unreachable by fact id.
    """

    __slots__ = ("schema", "fact_ids", "row_of", "columns", "alive", "num_dead")

    def __init__(self, schema: RelationSchema):
        self.schema = schema
        self.fact_ids: list[int] = []
        self.row_of: dict[int, int] = {}
        self.columns: dict[str, ValueColumn] = {
            name: ValueColumn() for name in schema.attribute_names
        }
        self.alive: list[bool] = []
        self.num_dead = 0

    @property
    def num_rows(self) -> int:
        """Total rows, tombstones included (the compiled row-space size)."""
        return len(self.fact_ids)

    @property
    def num_alive(self) -> int:
        return len(self.fact_ids) - self.num_dead

    def append(self, fact: Fact) -> int:
        row = len(self.fact_ids)
        self.row_of[fact.fact_id] = row
        self.fact_ids.append(fact.fact_id)
        self.alive.append(True)
        for name, value in zip(self.schema.attribute_names, fact.values):
            self.columns[name].append(value)
        return row

    def tombstone(self, fact_id: int) -> int | None:
        """Mark the fact's row dead; returns the row, or None if unknown."""
        row = self.row_of.pop(fact_id, None)
        if row is None:
            return None
        self.alive[row] = False
        self.fact_ids[row] = -1
        self.num_dead += 1
        return row

    def compact(self) -> np.ndarray:
        """Drop tombstoned rows, keeping the others in order; returns each old
        row's new row (``-1`` for a dropped one)."""
        keep = self.alive_array()
        new_rows = np.where(keep, np.cumsum(keep) - 1, -1)
        self.fact_ids = [fid for fid, alive in zip(self.fact_ids, self.alive) if alive]
        self.row_of = {fid: row for row, fid in enumerate(self.fact_ids)}
        self.alive = [True] * len(self.fact_ids)
        self.num_dead = 0
        for column in self.columns.values():
            column.compact(keep)
        return new_rows

    def alive_array(self) -> np.ndarray:
        return np.asarray(self.alive, dtype=bool)

    def fact_ids_array(self) -> np.ndarray:
        return np.asarray(self.fact_ids, dtype=np.int64)


@dataclass(frozen=True)
class RowDelta:
    """The rows touched between a journal position and now, in current rows.

    ``rows``: per relation, rows appended or tombstoned; ``codes``: per
    ``(relation, attribute)``, rows re-encoded; ``sources``: per foreign
    key, source rows whose pointer moved; ``targets``: per foreign key, the
    old and new target rows of those pointers.  A row gone since (a fact
    tombstoned before a compaction) is left out.
    """

    rows: dict[str, np.ndarray]
    codes: dict[tuple[str, str], np.ndarray]
    sources: dict[str, np.ndarray]
    targets: dict[str, np.ndarray]


class CompiledDatabase:
    """Flat-array view of a database, kept in sync by incremental mutation.

    The backing :class:`Database` stays the source of truth; the compiled
    arrays are a performance structure.  ``version`` increases on every
    mutation; ``fk_versions`` increase only when the named foreign key was
    actually touched, so the pointer arrays and per-step transition matrices
    of untouched foreign keys survive unrelated mutations.  What a mutation
    touched, row by row, is read from the journal
    (:meth:`changes_since`), which keeps the walk engine's attribute
    matrices current by rows.
    """

    #: Tombstone fraction beyond which a relation triggers lazy compaction.
    COMPACT_FRACTION = 0.5
    #: Minimum tombstones before compaction is considered at all.
    COMPACT_MIN_DEAD = 64
    #: Journal entries kept; beyond it the oldest half is dropped, and a
    #: reader whose position fell out of the window learns nothing.
    JOURNAL_LIMIT = 1 << 14

    def __init__(self, db: Database, *, telemetry: Telemetry | None = None):
        self._bind(db, telemetry)
        self._compile()

    def _bind(self, db: Database, telemetry: Telemetry | None) -> None:
        """Bind to ``db`` with no rows and fresh bookkeeping: version and
        dirty counters at 0, no cached pointer arrays, an empty journal at
        position 0, no known sync point with the database, and
        ``telemetry``.  Compilation or a snapshot restore fills the rows."""
        self.db = db
        self.schema = db.schema
        self.relations: dict[str, CompiledRelation] = {}
        self.fk_target_rows: dict[str, list[int]] = {}
        self.version = 0
        self.fk_versions: dict[str, int] = {
            fk.name: 0 for fk in db.schema.foreign_keys
        }
        self._fk_array_cache: dict[str, tuple[int, np.ndarray]] = {}
        self._synced_db_version: int | None = None
        self._fks = {fk.name: fk for fk in self.schema.foreign_keys}
        self._journal: list[tuple] = []
        self._journal_base = 0
        #: the journal position the current row numbering starts at; rows
        #: are renumbered by compaction and recompilation
        self.generation_start = 0
        self.set_telemetry(telemetry)

    def set_telemetry(self, telemetry: Telemetry | None) -> None:
        """Attach (or detach, with None) a telemetry bundle.

        Instruments are bound once here so the mutation paths pay one
        attribute access plus a no-op call when observability is off.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        metrics = self.telemetry.metrics
        self._h_compile = metrics.histogram("engine.compile.seconds")
        self._c_compiles = metrics.counter("engine.compiles")
        self._c_replayed = metrics.counter("engine.refresh.replayed_ops")
        self._c_recompiles = metrics.counter("engine.refresh.recompiles")
        self._c_tombstones = metrics.counter("engine.tombstones")
        self._c_compactions = metrics.counter("engine.compactions")

    # ------------------------------------------------------------- building

    def _compile(self) -> None:
        started = time.perf_counter()
        # what changed is unknown: no position before this one is readable
        self._journal_base = self.position + 1
        self._journal = []
        self.generation_start = self._journal_base
        self.relations = {rel.name: CompiledRelation(rel) for rel in self.schema}
        for rel_name in self.schema.relation_names:
            compiled_rel = self.relations[rel_name]
            for fact in self.db.facts(rel_name):
                compiled_rel.append(fact)
        self.fk_target_rows = {}
        for fk in self.schema.foreign_keys:
            target_rel = self.relations[fk.target]
            pointers: list[int] = []
            for fact_id in self.relations[fk.source].fact_ids:
                target = self.db.referenced_fact(self.db.fact(fact_id), fk)
                if target is None:
                    pointers.append(-1)
                else:
                    pointers.append(target_rel.row_of[target.fact_id])
            self.fk_target_rows[fk.name] = pointers
        for name in self.fk_versions:
            self.fk_versions[name] += 1
        self._synced_db_version = getattr(self.db, "version", None)
        self._h_compile.observe(time.perf_counter() - started)
        self._c_compiles.inc()

    # -------------------------------------------------------------- journal

    @property
    def position(self) -> int:
        """The journal position: the number of entries ever written."""
        return self._journal_base + len(self._journal)

    def _log(self, entry: tuple) -> None:
        self._journal.append(entry)
        if len(self._journal) > self.JOURNAL_LIMIT:
            half = len(self._journal) // 2
            del self._journal[:half]
            self._journal_base += half

    def _log_link(self, fk, source_row: int, old: int, new: int) -> None:
        """Journal one foreign-key pointer move, by fact id and by row."""
        if old == new:
            return
        source_ids = self.relations[fk.source].fact_ids
        target_ids = self.relations[fk.target].fact_ids
        self._log((
            fk.name,
            source_ids[source_row], source_row,
            target_ids[old] if old >= 0 else -1, old,
            target_ids[new] if new >= 0 else -1, new,
        ))

    def changes_since(self, position: int) -> RowDelta | None:
        """Every row touched since journal ``position``, in current rows.

        Entries written under the current numbering name their rows;
        older ones are carried across compactions by fact id.  None when
        ``position`` precedes the journal window or a recompilation.
        """
        if not self._journal_base <= position <= self.position:
            return None
        rows: dict[str, list[int]] = {}
        codes: dict[tuple[str, str], list[int]] = {}
        sources: dict[str, list[int]] = {}
        targets: dict[str, list[int]] = {}
        relations = self.relations
        current_from = self.generation_start
        at = position
        for entry in self._journal[position - self._journal_base :]:
            renumbered = at < current_from
            at += 1
            if len(entry) == 4:  # (relation, fact id, row, attributes or None)
                rel_name, fact_id, row, attributes = entry
                if renumbered:
                    row = relations[rel_name].row_of.get(fact_id, -1)
                if row < 0:
                    continue
                if attributes is None:
                    rows.setdefault(rel_name, []).append(row)
                else:
                    for attribute in attributes:
                        codes.setdefault((rel_name, attribute), []).append(row)
            elif len(entry) == 7:  # (fk, source id, row, old id, row, new id, row)
                fk_name, source_id, source, old_id, old, new_id, new = entry
                if renumbered:
                    fk = self._fks[fk_name]
                    source = relations[fk.source].row_of.get(source_id, -1)
                    target_rows = relations[fk.target].row_of
                    old = target_rows.get(old_id, -1)
                    new = target_rows.get(new_id, -1)
                if source >= 0:
                    sources.setdefault(fk_name, []).append(source)
                moved = targets.setdefault(fk_name, [])
                moved.extend(row for row in (old, new) if row >= 0)

        def arrays(marks: dict) -> dict:
            return {key: np.asarray(value, dtype=np.int64) for key, value in marks.items()}

        return RowDelta(arrays(rows), arrays(codes), arrays(sources), arrays(targets))

    def _touch_relation(self, rel_name: str) -> None:
        """Dirty every foreign key touching a relation."""
        for fk in self.schema.foreign_keys_from(rel_name):
            self.fk_versions[fk.name] += 1
        for fk in self.schema.foreign_keys_to(rel_name):
            self.fk_versions[fk.name] += 1

    # --------------------------------------------------------------- lookup

    @property
    def num_facts(self) -> int:
        """Live (non-tombstoned) facts across all relations."""
        return sum(rel.num_alive for rel in self.relations.values())

    def has_fact(self, fact: Fact | int) -> bool:
        if isinstance(fact, Fact):
            return fact.fact_id in self.relations[fact.relation].row_of
        return any(fact in rel.row_of for rel in self.relations.values())

    def relation(self, name: str) -> CompiledRelation:
        return self.relations[name]

    def fk_pointer_array(self, fk_name: str) -> np.ndarray:
        hit = self._fk_array_cache.get(fk_name)
        dirty = self.fk_versions[fk_name]
        if hit is not None and hit[0] == dirty:
            return hit[1]
        array = np.asarray(self.fk_target_rows[fk_name], dtype=np.int64)
        self._fk_array_cache[fk_name] = (dirty, array)
        return array

    # ------------------------------------------------------------ extension

    def add_fact(self, fact: Fact) -> int:
        """Append one fact already inserted into the backing database.

        Returns the fact's row in its relation.  Foreign-key pointers are
        updated in both directions: links from the new fact are resolved via
        the database's FK index, and previously dangling references *to* the
        new fact are repaired.
        """
        relation = self.relations[fact.relation]
        existing = relation.row_of.get(fact.fact_id)
        if existing is not None:
            return existing
        row = relation.append(fact)
        self._log((fact.relation, fact.fact_id, row, None))
        for fk in self.schema.foreign_keys_from(fact.relation):
            target = self.db.referenced_fact(fact, fk)
            if target is None:
                pointer = -1
            else:
                pointer = self.relations[fk.target].row_of.get(target.fact_id, -1)
            self.fk_target_rows[fk.name].append(pointer)
            self._log_link(fk, row, -1, pointer)
        for fk in self.schema.foreign_keys_to(fact.relation):
            pointers = self.fk_target_rows[fk.name]
            source_rel = self.relations[fk.source]
            for source in self.db.referencing_facts(fact, fk):
                source_row = source_rel.row_of.get(source.fact_id)
                if source_row is not None and pointers[source_row] != row:
                    # a previously dangling reference now resolves
                    self._log_link(fk, source_row, pointers[source_row], row)
                    pointers[source_row] = row
        self._touch_relation(fact.relation)
        self.version += 1
        return row

    def add_facts(self, facts: Iterable[Fact]) -> None:
        for fact in facts:
            self.add_fact(fact)

    # -------------------------------------------------------------- removal

    def remove_fact(self, fact: Fact | int) -> bool:
        """Tombstone one fact deleted from the backing database.

        The row is masked out of every transition: its outgoing foreign-key
        pointers and every pointer referencing it are repaired to ``-1``
        (mirroring :meth:`add_fact`, which repairs them in the other
        direction).  Idempotent — removing an unknown or already-removed
        fact returns False.  Once tombstones dominate a relation the arrays
        are compacted lazily (one amortised rebuild instead of one per
        deletion).
        """
        return self.remove_facts([fact]) == 1

    def remove_facts(self, facts: Iterable[Fact | int]) -> int:
        """Tombstone a batch of deleted facts; returns how many were live.

        The incoming-pointer repair is batched: each foreign key pointing
        at an affected relation is scanned once for the whole batch, so a
        churn batch deleting ``D`` facts costs one pass per foreign key
        instead of ``D``.
        """
        doomed: dict[str, set[int]] = {}
        removed = 0
        for fact in facts:
            if isinstance(fact, Fact):
                fact_id, rel_name = fact.fact_id, fact.relation
            else:
                fact_id = int(fact)
                rel_name = next(
                    (n for n, rel in self.relations.items() if fact_id in rel.row_of),
                    None,
                )
                if rel_name is None:
                    continue
            row = self.relations[rel_name].tombstone(fact_id)
            if row is None:
                continue
            removed += 1
            self._c_tombstones.inc()
            self._log((rel_name, fact_id, row, None))
            doomed.setdefault(rel_name, set()).add(row)
            for fk in self.schema.foreign_keys_from(rel_name):
                self._log_link(fk, row, self.fk_target_rows[fk.name][row], -1)
                self.fk_target_rows[fk.name][row] = -1
        if not removed:
            return 0
        for rel_name, rows in doomed.items():
            for fk in self.schema.foreign_keys_to(rel_name):
                pointers = self.fk_target_rows[fk.name]
                dead = np.fromiter(rows, dtype=np.int64)
                stale = np.nonzero(
                    np.isin(np.asarray(pointers, dtype=np.int64), dead)
                )[0]
                for source_row in stale.tolist():
                    self._log_link(fk, source_row, pointers[source_row], -1)
                    pointers[source_row] = -1
            self._touch_relation(rel_name)
        self.version += 1
        for rel_name in doomed:
            self._maybe_compact(self.relations[rel_name])
        return removed

    def _maybe_compact(self, relation: CompiledRelation) -> None:
        if (
            relation.num_dead >= self.COMPACT_MIN_DEAD
            and relation.num_dead > self.COMPACT_FRACTION * relation.num_rows
        ):
            self.compact()

    def compact(self) -> bool:
        """Drop tombstoned rows from the arrays; returns True if any.

        The compiled state is renumbered, not re-read from the database:
        surviving rows keep their order, values and links, and every
        vocabulary is rebuilt in order of first use, so the result is what
        a fresh compilation of the same facts in the same order gives.  Row
        numbers and codes change, so every dirty counter is bumped and the
        journal starts a new numbering (:attr:`generation_start`).  Called lazily
        from :meth:`remove_fact`; safe to call explicitly (e.g. before
        persisting a snapshot).
        """
        if not any(rel.num_dead for rel in self.relations.values()):
            return False
        self._c_compactions.inc()
        started = time.perf_counter()
        with self.telemetry.span("engine.compact"):
            new_rows = {name: rel.compact() for name, rel in self.relations.items()}
            for fk in self.schema.foreign_keys:
                pointers = np.asarray(self.fk_target_rows[fk.name], dtype=np.int64)
                # no pointer targets a tombstone (removal repaired them), and
                # a dangling -1 reads the appended -1
                remap = np.append(new_rows[fk.target], -1)
                self.fk_target_rows[fk.name] = remap[
                    pointers[new_rows[fk.source] >= 0]
                ].tolist()
            for name in self.relations:
                self._touch_relation(name)
        self._h_compile.observe(time.perf_counter() - started)
        self._c_compiles.inc()
        self.version += 1
        self._log(("renumbered",))
        self.generation_start = self.position
        return True

    # --------------------------------------------------------------- update

    def update_fact(self, fact: Fact) -> bool:
        """Sync one updated fact: re-encode values, re-resolve FK pointers.

        ``fact`` carries the post-update values (same ``fact_id``).  Both
        pointer directions are repaired against the database's current FK
        indexes: the row's own references are re-resolved, and rows that
        referenced it (or now should) are fixed up.  Idempotent — a fact
        already in sync returns False.
        """
        relation = self.relations[fact.relation]
        row = relation.row_of.get(fact.fact_id)
        if row is None:
            # never compiled (or tombstoned): treat as an insert if it exists
            if fact.fact_id in self.db._facts_by_id:  # noqa: SLF001
                self.add_fact(self.db.fact(fact.fact_id))
                return True
            return False
        reencoded = tuple(
            name
            for name, value in zip(relation.schema.attribute_names, fact.values)
            if relation.columns[name].set(row, value)
        )
        values_changed = bool(reencoded)
        if values_changed:
            self._log((fact.relation, fact.fact_id, row, reencoded))
        db_fact = self.db._facts_by_id.get(fact.fact_id, fact)  # noqa: SLF001
        fk_changed = False
        for fk in self.schema.foreign_keys_from(fact.relation):
            target = self.db.referenced_fact(db_fact, fk)
            pointer = (
                -1
                if target is None
                else self.relations[fk.target].row_of.get(target.fact_id, -1)
            )
            pointers = self.fk_target_rows[fk.name]
            if pointers[row] != pointer:
                self._log_link(fk, row, pointers[row], pointer)
                pointers[row] = pointer
                self.fk_versions[fk.name] += 1
                fk_changed = True
        for fk in self.schema.foreign_keys_to(fact.relation):
            pointers = self.fk_target_rows[fk.name]
            old_rows = {
                int(i)
                for i in np.nonzero(np.asarray(pointers, dtype=np.int64) == row)[0]
            }
            source_rel = self.relations[fk.source]
            new_rows = set()
            for source in self.db.referencing_facts(db_fact, fk):
                source_row = source_rel.row_of.get(source.fact_id)
                if source_row is not None:
                    new_rows.add(source_row)
            if old_rows == new_rows:
                continue
            fk_changed = True
            self.fk_versions[fk.name] += 1
            for stale in old_rows - new_rows:
                # the source may reference a different fact now (key change)
                source_id = source_rel.fact_ids[stale]
                source_fact = self.db._facts_by_id.get(source_id)  # noqa: SLF001
                target = (
                    self.db.referenced_fact(source_fact, fk)
                    if source_fact is not None
                    else None
                )
                pointer = (
                    -1
                    if target is None
                    else self.relations[fk.target].row_of.get(target.fact_id, -1)
                )
                self._log_link(fk, stale, row, pointer)
                pointers[stale] = pointer
            for fresh in new_rows - old_rows:
                self._log_link(fk, fresh, pointers[fresh], row)
                pointers[fresh] = row
        if values_changed or fk_changed:
            self.version += 1
            return True
        return False

    def update_facts(self, facts: Iterable[Fact]) -> None:
        for fact in facts:
            self.update_fact(fact)

    # ----------------------------------------------------------------- sync

    def refresh(self) -> bool:
        """Bring the compiled arrays in sync with the backing database.

        O(1) when the database's mutation counter is unchanged.  Otherwise
        the database's changelog is replayed — inserts append, deletions
        tombstone, updates re-encode in place — so the cost is proportional
        to the number of changes, not the database size.  Only when the
        changelog window has been truncated (or the compiled state was
        restored from a snapshot with no known sync point) does it fall back
        to a scan/recompile.  Returns True when anything changed.
        """
        target = self.db.version
        if self._synced_db_version == target:
            return False
        if self._synced_db_version is None:
            # snapshot-restored state: unknown sync point, diff by scanning
            changed = self._scan_refresh()
            self._synced_db_version = self.db.version
            return changed
        events = self.db.changes_since(self._synced_db_version)
        if events is None:
            # the window fell out of the bounded changelog: recompile
            self._c_recompiles.inc()
            self._compile()
            self.version += 1
            return True
        self._c_replayed.inc(len(events))
        changed = False
        for _event_version, op, fact in events:
            if op == "insert":
                if fact.fact_id not in self.db._facts_by_id:  # noqa: SLF001
                    continue  # deleted again later in the window
                before = self.version
                self.add_fact(fact)
                changed |= self.version != before
            elif op == "delete":
                changed |= self.remove_fact(fact)
            else:
                current = self.db._facts_by_id.get(fact.fact_id)  # noqa: SLF001
                if current is None or current.values != fact.values:
                    continue  # superseded by a later update (or a deletion)
                changed |= self.update_fact(current)
        self._synced_db_version = self.db.version
        return changed

    def _scan_refresh(self) -> bool:
        """Full-scan sync for states with no known changelog position.

        Appends missing facts, recompiles when any compiled fact was
        deleted, and re-encodes facts whose compiled values no longer match
        the database (in-place updates that happened outside the changelog
        window — e.g. between a snapshot save and its restore).
        """
        missing = [fact for fact in self.db if not self.has_fact(fact)]
        if len(self.db) - len(missing) != self.num_facts:
            self._compile()
            self.version += 1
            return True
        stale: list[Fact] = []
        for relation in self.relations.values():
            attribute_names = relation.schema.attribute_names
            columns = [relation.columns[name] for name in attribute_names]
            for fact_id, row in relation.row_of.items():
                fact = self.db._facts_by_id[fact_id]  # noqa: SLF001
                for column, value in zip(columns, fact.values):
                    code = column.codes[row]
                    stored = None if code < 0 else column.vocab[code]
                    if stored != value:
                        stale.append(fact)
                        break
        self.update_facts(stale)
        if missing:
            self.add_facts(missing)
        return bool(missing) or bool(stale)
