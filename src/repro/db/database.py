"""Facts and databases.

A :class:`Fact` is an occurrence of a tuple in a relation (``R(a1, ..., ak)``
in the paper's notation).  A :class:`Database` is a finite set of facts over
a :class:`~repro.db.schema.Schema` that satisfies the key and foreign-key
constraints.  The database maintains foreign-key indexes in both directions
so that the random-walk machinery (Section V-A) can follow references
forward and backward in O(1) per step, and supports the "On Delete Cascade"
deletion used by the dynamic-experiment partitioning protocol (Section
VI-E-1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.db.errors import (
    ForeignKeyViolation,
    KeyViolation,
    UnknownAttributeError,
    UnknownRelationError,
)
from repro.db.schema import ForeignKey, RelationSchema, Schema

Value = Any
"""Attribute values are arbitrary hashable Python objects; ``None`` is ⊥."""


@dataclass(frozen=True)
class Fact:
    """A fact ``R(a1, ..., ak)``.

    ``fact_id`` is a database-unique integer identifier assigned at insertion
    time; it is *not* part of the relational data (like the ``m1``/``a3``
    labels in Figure 2 of the paper) but gives embeddings a stable handle on
    each fact independent of its values.
    """

    fact_id: int
    relation: str
    values: tuple[Value, ...]
    schema: RelationSchema = field(repr=False, compare=False, hash=False)

    def __getitem__(self, attribute: str) -> Value:
        """The value ``f[A]`` of this fact in attribute ``A``."""
        return self.values[self.schema.index_of(attribute)]

    def project(self, attributes: Sequence[str]) -> tuple[Value, ...]:
        """The tuple ``f[B1, ..., Bl]``."""
        return tuple(self[a] for a in attributes)

    def key_values(self) -> tuple[Value, ...]:
        """The values of this fact's key attributes."""
        return self.project(self.schema.key)

    def as_dict(self) -> dict[str, Value]:
        """A plain ``{attribute: value}`` mapping."""
        return dict(zip(self.schema.attribute_names, self.values))

    def has_null(self, attributes: Sequence[str] | None = None) -> bool:
        """Whether any of the given attributes (default: all) is ⊥ (None)."""
        if attributes is None:
            return any(v is None for v in self.values)
        return any(self[a] is None for a in attributes)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        vals = ", ".join("⊥" if v is None else str(v) for v in self.values)
        return f"{self.relation}({vals})"


class Database:
    """A set of facts over a schema, with constraint checking and FK indexes.

    Parameters
    ----------
    schema:
        The database schema (relations, keys, foreign keys).
    validate:
        When true (the default), every insertion checks key uniqueness and,
        on demand via :meth:`check_foreign_keys`, referential integrity.
    """

    def __init__(self, schema: Schema, validate: bool = True):
        self.schema = schema
        self._validate = validate
        self._facts_by_relation: dict[str, dict[int, Fact]] = {
            rel.name: {} for rel in schema
        }
        # key index: relation -> key values tuple -> fact
        self._key_index: dict[str, dict[tuple[Value, ...], Fact]] = {
            rel.name: {} for rel in schema
        }
        # forward FK index: fk.name -> source fact_id -> target fact
        self._fk_forward: dict[str, dict[int, Fact]] = {
            fk.name: {} for fk in schema.foreign_keys
        }
        # backward FK index: fk.name -> target fact_id -> set of source fact_ids
        self._fk_backward: dict[str, dict[int, set[int]]] = {
            fk.name: {} for fk in schema.foreign_keys
        }
        # dangling-reference index: fk.name -> referenced key -> ids of the
        # source facts whose non-null reference names that key while no fact
        # holds it; they link up when a fact with the key arrives
        self._dangling: dict[str, dict[tuple[Value, ...], set[int]]] = {
            fk.name: {} for fk in schema.foreign_keys
        }
        self._facts_by_id: dict[int, Fact] = {}
        # fact id -> indexing order, so dangling referrers link in the order a
        # scan of their relation would meet them
        self._seq: dict[int, int] = {}
        self._next_seq = 0
        self._next_id = 0
        # mutation counter plus a bounded changelog of (version, op, fact)
        # events; incremental consumers (the compiled walk engine) sync by
        # replaying only the events they have not seen yet
        self._version = 0
        self._changelog: deque[tuple[int, str, Fact]] = deque()
        self._changelog_capacity = 65536
        self._log_floor = 0  # version of the newest *discarded* event

    # --------------------------------------------------------------- history

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by insert/delete/update)."""
        return self._version

    def _log_mutation(self, op: str, fact: Fact) -> None:
        self._version += 1
        self._changelog.append((self._version, op, fact))
        if len(self._changelog) > self._changelog_capacity:
            self._log_floor = self._changelog.popleft()[0]

    def changes_since(self, version: int) -> list[tuple[int, str, Fact]] | None:
        """Ordered ``(version, op, fact)`` events newer than ``version``.

        ``op`` is ``"insert"``, ``"delete"`` or ``"update"`` (the fact
        carries the post-update values).  Returns ``None`` when the
        requested window has been truncated from the bounded changelog —
        consumers must then fall back to a full resync.
        """
        if version >= self._version:
            return []
        if version < self._log_floor:
            return None
        # versions are consecutive: the first retained event is _log_floor+1
        return list(islice(self._changelog, version - self._log_floor, None))

    # ------------------------------------------------------------------ size

    def __len__(self) -> int:
        return len(self._facts_by_id)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts_by_id.values())

    def __contains__(self, fact: Fact) -> bool:
        return fact.fact_id in self._facts_by_id

    @property
    def relations(self) -> tuple[str, ...]:
        return self.schema.relation_names

    def facts(self, relation: str | None = None) -> tuple[Fact, ...]:
        """All facts, or the restriction ``R(D)`` when ``relation`` is given."""
        if relation is None:
            return tuple(self._facts_by_id.values())
        if relation not in self._facts_by_relation:
            raise UnknownRelationError(relation)
        return tuple(self._facts_by_relation[relation].values())

    def fact(self, fact_id: int) -> Fact:
        return self._facts_by_id[fact_id]

    def num_facts(self, relation: str | None = None) -> int:
        if relation is None:
            return len(self._facts_by_id)
        if relation not in self._facts_by_relation:
            raise UnknownRelationError(relation)
        return len(self._facts_by_relation[relation])

    def active_domain(self, relation: str, attribute: str) -> set[Value]:
        """``adom(A)``: non-null values occurring for ``attribute`` in ``relation``."""
        self.schema.relation(relation).attribute(attribute)
        return {
            f[attribute]
            for f in self._facts_by_relation[relation].values()
            if f[attribute] is not None
        }

    # ------------------------------------------------------------- insertion

    def insert(self, relation: str, values: Mapping[str, Value] | Sequence[Value]) -> Fact:
        """Insert a fact given as a mapping or a positional value sequence.

        Returns the created :class:`Fact`.  Raises :class:`KeyViolation` if
        the key is null or duplicates an existing fact's key.  Foreign keys
        are *not* checked eagerly (new facts may arrive before the facts they
        reference within a batch); call :meth:`check_foreign_keys` to verify
        referential integrity of the whole database.
        """
        rel_schema = self.schema.relation(relation)
        if isinstance(values, Mapping):
            for name in values:
                if not rel_schema.has_attribute(name):
                    raise UnknownAttributeError(relation, name)
            row = tuple(values.get(a, None) for a in rel_schema.attribute_names)
        else:
            row = tuple(values)
            if len(row) != rel_schema.arity:
                raise ValueError(
                    f"relation {relation!r} has arity {rel_schema.arity}, "
                    f"got {len(row)} values"
                )
        fact_id = self._next_id
        self._next_id += 1
        fact = Fact(fact_id, relation, row, rel_schema)
        if self._validate:
            self._check_key(fact)
        self._index_fact(fact)
        self._log_mutation("insert", fact)
        return fact

    def insert_many(
        self, relation: str, rows: Iterable[Mapping[str, Value] | Sequence[Value]]
    ) -> list[Fact]:
        """Insert several facts into one relation; returns them in order."""
        return [self.insert(relation, row) for row in rows]

    def _check_key(self, fact: Fact) -> None:
        key_vals = fact.key_values()
        if any(v is None for v in key_vals):
            raise KeyViolation(f"{fact}: key attributes must be non-null")
        if key_vals in self._key_index[fact.relation]:
            raise KeyViolation(
                f"{fact}: duplicate key {key_vals!r} in relation {fact.relation!r}"
            )

    def _index_fact(self, fact: Fact) -> None:
        self._facts_by_id[fact.fact_id] = fact
        self._facts_by_relation[fact.relation][fact.fact_id] = fact
        self._key_index[fact.relation][fact.key_values()] = fact
        self._seq[fact.fact_id] = self._next_seq
        self._next_seq += 1
        for fk in self.schema.foreign_keys_from(fact.relation):
            self._link_source(fk, fact)
        # references to this fact may have been inserted before it
        for fk in self.schema.foreign_keys_to(fact.relation):
            self._resolve_dangling(fk, fact)

    def _link_source(self, fk: ForeignKey, source: Fact) -> None:
        """Link ``source`` to the fact it references, or record it dangling."""
        ref = source.project(fk.source_attrs)
        if any(v is None for v in ref):
            return
        target = self._key_index[fk.target].get(ref)
        if target is not None:
            self._link(fk.name, source, target)
        else:
            self._dangling[fk.name].setdefault(ref, set()).add(source.fact_id)

    def _resolve_dangling(self, fk: ForeignKey, target: Fact) -> None:
        """Link every dangling reference that names ``target``'s key."""
        name = fk.name
        waiting = self._dangling[name].pop(target.project(fk.target_attrs), None)
        if waiting:
            for source_id in sorted(waiting, key=self._seq.__getitem__):
                self._link(name, self._facts_by_id[source_id], target)

    def _link(self, fk_name: str, source: Fact, target: Fact) -> None:
        self._fk_forward[fk_name][source.fact_id] = target
        self._fk_backward[fk_name].setdefault(target.fact_id, set()).add(source.fact_id)

    def _unlink_source(self, fk: ForeignKey, source: Fact) -> None:
        """Drop ``source``'s reference via ``fk``, linked or dangling."""
        name = fk.name
        target = self._fk_forward[name].pop(source.fact_id, None)
        if target is not None:
            referrers = self._fk_backward[name].get(target.fact_id)
            if referrers is not None:
                referrers.discard(source.fact_id)
                if not referrers:
                    del self._fk_backward[name][target.fact_id]
            return
        ref = source.project(fk.source_attrs)
        waiting = self._dangling[name].get(ref)
        if waiting is not None:
            waiting.discard(source.fact_id)
            if not waiting:
                del self._dangling[name][ref]

    def _orphan_referrers(self, fk: ForeignKey, target: Fact) -> None:
        """Referrers of ``target`` via ``fk`` dangle (it was deleted or re-keyed)."""
        name = fk.name
        forward = self._fk_forward[name]
        dangling = self._dangling[name]
        for rid in self._fk_backward[name].pop(target.fact_id, ()):
            forward.pop(rid, None)
            ref = self._facts_by_id[rid].project(fk.source_attrs)
            dangling.setdefault(ref, set()).add(rid)

    # -------------------------------------------------------------- deletion

    def delete(self, fact: Fact | int) -> None:
        """Delete a single fact (no cascade).  Dangling references may remain."""
        fact = self._resolve(fact)
        for fk in self.schema.foreign_keys_from(fact.relation):
            self._unlink_source(fk, fact)
        for fk in self.schema.foreign_keys_to(fact.relation):
            self._orphan_referrers(fk, fact)
        del self._facts_by_id[fact.fact_id]
        del self._seq[fact.fact_id]
        del self._facts_by_relation[fact.relation][fact.fact_id]
        del self._key_index[fact.relation][fact.key_values()]
        self._log_mutation("delete", fact)

    def delete_cascade(self, fact: Fact | int) -> list[Fact]:
        """Delete a fact "On Delete Cascade" style (Section VI-E-1).

        Two rules apply, matching the paper's partitioning protocol:

        * facts *referencing* the deleted fact are deleted too (standard SQL
          ``ON DELETE CASCADE`` semantics), recursively;
        * a fact *referenced by* a deleted fact is removed when it is no
          longer referenced by any surviving fact (it became orphaned) —
          matching Example 6.1, where deleting the collaboration ``c1``
          removes the movie ``m4`` and actor ``a2`` but keeps ``a1`` because
          it is still referenced by ``c4``.

        Returns the list of all deleted facts (the seed fact first), in
        deletion order.
        """
        seed = self._resolve(fact)
        deleted: list[Fact] = []
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            if current.fact_id not in self._facts_by_id:
                continue
            # remember neighbours before unlinking destroys the indexes
            referenced = [
                self._fk_forward[fk.name][current.fact_id]
                for fk in self.schema.foreign_keys_from(current.relation)
                if current.fact_id in self._fk_forward[fk.name]
            ]
            referencing = list(self.referencing_facts(current))
            self.delete(current)
            deleted.append(current)
            for child in referencing:
                if child.fact_id in self._facts_by_id:
                    frontier.append(child)
            for parent in referenced:
                if parent.fact_id not in self._facts_by_id:
                    continue
                if not self.referencing_facts(parent):
                    frontier.append(parent)
        return deleted

    # --------------------------------------------------------------- update

    def update(self, fact: Fact | int, changes: Mapping[str, Value]) -> Fact:
        """Update attribute values of an existing fact in place.

        The fact keeps its ``fact_id`` (embeddings keyed on it stay
        attached); a new :class:`Fact` object with the merged values replaces
        the old one.  Key and foreign-key indexes are maintained: forward
        references of the updated fact are re-resolved, and — when key
        attributes change — facts referencing the old key dangle (the same
        convention as :meth:`delete`) while facts whose references match the
        new key are linked up.  A no-op update (identical values) returns
        the current fact without bumping the mutation counter.
        """
        old = self._resolve(fact)
        rel_schema = old.schema
        for name in changes:
            if not rel_schema.has_attribute(name):
                raise UnknownAttributeError(old.relation, name)
        values = tuple(
            changes[name] if name in changes else value
            for name, value in zip(rel_schema.attribute_names, old.values)
        )
        if values == old.values:
            return old
        new = Fact(old.fact_id, old.relation, values, rel_schema)
        old_key = old.key_values()
        new_key = new.key_values()
        if self._validate and new_key != old_key:
            if any(v is None for v in new_key):
                raise KeyViolation(f"{new}: key attributes must be non-null")
            holder = self._key_index[old.relation].get(new_key)
            if holder is not None and holder.fact_id != old.fact_id:
                raise KeyViolation(
                    f"{new}: duplicate key {new_key!r} in relation {old.relation!r}"
                )
        # ---- unhook the old fact
        del self._key_index[old.relation][old_key]
        for fk in self.schema.foreign_keys_from(old.relation):
            self._unlink_source(fk, old)
        key_changed = new_key != old_key
        for fk in self.schema.foreign_keys_to(old.relation):
            if key_changed:
                # sources that referenced the old key now dangle
                self._orphan_referrers(fk, old)
            else:
                # same key: keep the links but swap in the new fact object
                forward = self._fk_forward[fk.name]
                for rid in self._fk_backward[fk.name].get(old.fact_id, ()):
                    forward[rid] = new
        # ---- install the new fact
        self._facts_by_id[new.fact_id] = new
        self._facts_by_relation[new.relation][new.fact_id] = new
        self._key_index[new.relation][new_key] = new
        for fk in self.schema.foreign_keys_from(new.relation):
            self._link_source(fk, new)
        if key_changed:
            # sources whose dangling references match the new key
            for fk in self.schema.foreign_keys_to(new.relation):
                self._resolve_dangling(fk, new)
        self._log_mutation("update", new)
        return new

    def _resolve(self, fact: Fact | int) -> Fact:
        if isinstance(fact, Fact):
            fact_id = fact.fact_id
        else:
            fact_id = fact
        try:
            return self._facts_by_id[fact_id]
        except KeyError:
            raise KeyError(f"fact id {fact_id} not in database") from None

    # ---------------------------------------------------------- FK traversal

    def referenced_fact(self, fact: Fact, fk: ForeignKey) -> Fact | None:
        """The unique fact that ``fact`` references via ``fk`` (or None)."""
        return self._fk_forward[fk.name].get(fact.fact_id)

    def referencing_facts(self, fact: Fact, fk: ForeignKey | None = None) -> tuple[Fact, ...]:
        """All facts that reference ``fact`` (via ``fk``, or via any FK)."""
        fks = [fk] if fk is not None else list(self.schema.foreign_keys_to(fact.relation))
        result: list[Fact] = []
        for constraint in fks:
            for fid in self._fk_backward[constraint.name].get(fact.fact_id, ()):  # noqa: B020
                result.append(self._facts_by_id[fid])
        return tuple(result)

    def lookup_by_key(self, relation: str, key_values: Sequence[Value]) -> Fact | None:
        """Find the fact of ``relation`` with the given key values, if any."""
        if relation not in self._key_index:
            raise UnknownRelationError(relation)
        return self._key_index[relation].get(tuple(key_values))

    def select(
        self, relation: str, predicate: Callable[[Fact], bool] | None = None
    ) -> tuple[Fact, ...]:
        """Facts of ``relation`` satisfying ``predicate`` (all, if None)."""
        facts = self.facts(relation)
        if predicate is None:
            return facts
        return tuple(f for f in facts if predicate(f))

    def matching_facts(
        self, relation: str, attributes: Sequence[str], values: Sequence[Value]
    ) -> tuple[Fact, ...]:
        """Facts ``g`` of ``relation`` with ``g[attributes] == values``.

        This is the transition set ``{g ∈ Rk | g[Bk] = f[Ak-1]}`` used by
        random walks; it is answered from the FK indexes when the attributes
        form a key and by a scan otherwise.
        """
        attrs = tuple(attributes)
        vals = tuple(values)
        rel_schema = self.schema.relation(relation)
        if attrs == tuple(rel_schema.key):
            hit = self._key_index[relation].get(vals)
            return (hit,) if hit is not None else ()
        return tuple(
            f for f in self._facts_by_relation[relation].values() if f.project(attrs) == vals
        )

    # --------------------------------------------------------------- checks

    def check_foreign_keys(self) -> list[str]:
        """Return a list of foreign-key violations (empty when consistent)."""
        problems: list[str] = []
        for fk in self.schema.foreign_keys:
            for fact in self._facts_by_relation[fk.source].values():
                ref = fact.project(fk.source_attrs)
                if any(v is None for v in ref):
                    continue
                if self._key_index[fk.target].get(ref) is None:
                    problems.append(f"{fact}: dangling reference via {fk.name}")
        return problems

    def require_consistent(self) -> None:
        """Raise :class:`ForeignKeyViolation` if any FK is violated."""
        problems = self.check_foreign_keys()
        if problems:
            raise ForeignKeyViolation("; ".join(problems[:5]))

    # ----------------------------------------------------------------- misc

    def copy(self) -> "Database":
        """A deep structural copy (facts keep their ids)."""
        clone = Database(self.schema, validate=self._validate)
        for fact in self._facts_by_id.values():
            new_fact = Fact(fact.fact_id, fact.relation, fact.values, fact.schema)
            clone._index_fact(new_fact)
        clone._next_id = self._next_id
        return clone

    def mask_attribute(self, relation: str, attribute: str) -> "Database":
        """A copy of the database with one attribute nulled out in a relation.

        Fact ids are preserved.  The evaluation harness uses this to hide the
        prediction attribute from the embedding algorithms (the paper's
        protocol: the embedders never see the predicted column).
        """
        self.schema.relation(relation).attribute(attribute)
        if attribute in self.schema.relation(relation).key:
            raise ValueError("cannot mask a key attribute")
        clone = Database(self.schema, validate=self._validate)
        for fact in self._facts_by_id.values():
            if fact.relation == relation:
                values = tuple(
                    None if name == attribute else value
                    for name, value in zip(fact.schema.attribute_names, fact.values)
                )
            else:
                values = fact.values
            clone._index_fact(Fact(fact.fact_id, fact.relation, values, fact.schema))
        clone._next_id = self._next_id
        return clone

    def reinsert(self, fact: Fact) -> Fact:
        """Re-insert a previously deleted fact, keeping its original id.

        The id allocator is advanced past the re-inserted id, so databases
        restored from a persisted fact stream (service restarts, the JSON
        format with ``include_fact_ids``) can keep inserting fresh facts
        without colliding with restored ids.
        """
        if fact.fact_id in self._facts_by_id:
            raise KeyViolation(f"fact id {fact.fact_id} already present")
        if self._validate:
            self._check_key(fact)
        self._index_fact(fact)
        self._next_id = max(self._next_id, fact.fact_id + 1)
        self._log_mutation("insert", fact)
        return fact

    def structure_summary(self) -> dict[str, int]:
        """Counts in the style of Table I (relations, tuples, attributes)."""
        return {
            "relations": len(self.schema),
            "tuples": len(self),
            "attributes": sum(r.arity for r in self.schema),
        }

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for rel in self.schema.relation_names:
            parts.append(f"{rel}: {self.num_facts(rel)} facts")
        return "Database(" + ", ".join(parts) + ")"
