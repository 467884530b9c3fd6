"""Batched destination-distribution propagation on compiled arrays.

The reference implementation (:mod:`repro.walks.random_walks`) computes the
destination distribution ``W(f, s)`` of Section V-A by a per-fact BFS over
boxed :class:`Fact` objects.  :class:`WalkEngine` instead compiles every walk
step into a row-stochastic sparse transition matrix and computes the
distributions of **many facts of a relation at once** as a product of sparse
matrices:

* a FORWARD step through foreign key ``fk`` is the 0/1 matrix ``T`` with
  ``T[i, j] = 1`` iff source row ``i`` references target row ``j``;
* a BACKWARD step is its transpose with each row divided by the in-degree,
  i.e. uniform choice among the referencing facts.

``destination_matrix(s)`` is then ``I · T_1 · ... · T_l`` with rows
renormalised at the end (walk prefixes that dead-end drop their mass, exactly
like the reference BFS), and ``attribute_matrix(s, A)`` additionally
aggregates destination mass over the dictionary-encoded values of ``A`` and
renormalises over non-⊥ values (the paper's posterior convention).

Every matrix is built by rows (:meth:`WalkEngine._destination_rows`): the
chain of products runs over a chosen set of start rows, entry for entry as
scipy's sparse product computes it, so any set of rows equals the same rows
of the full product bit for bit.  Step matrices are cached per foreign-key
dirty counter.  Attribute matrices are kept and *maintained by rows*.  The
compiled database journals the rows each mutation touches
(:meth:`~repro.engine.compiled.CompiledDatabase.changes_since`);
:meth:`WalkEngine.moved_rows` pulls those marks back through a scheme's
step matrices to the start rows whose walk reaches one, and
:meth:`WalkEngine.attribute_views` re-derives only those rows — once per
scheme, for every attribute of it — and splices them into the kept
matrices.  A full build is the same step with every row moved: it runs for
a first request, after the rows were renumbered (compaction) and when the
journal no longer reaches the kept position.  The views also hand a
consumer the rows that moved since the journal position it last read, so
the dynamic extension re-derives its entries only for those rows.  A single
fact's distribution is its row of these matrices; the engine has no
per-fact query path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.db.database import Database, Fact
from repro.engine.compiled import CompiledDatabase, RowDelta, ValueColumn
from repro.obs import ENGINE_CACHE_KINDS, NULL_TELEMETRY, Telemetry
from repro.walks.schemes import Direction, WalkScheme, WalkStep

def _normalized(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """CSR ``data`` with every non-empty row divided by its sum."""
    row_counts = np.diff(indptr)
    sums = np.zeros(row_counts.size, dtype=np.float64)
    non_empty = row_counts > 0
    if data.size:
        # reduceat over non-empty rows only: their start offsets are strictly
        # increasing, so each segment ends exactly at the next row's start
        sums[non_empty] = np.add.reduceat(data, indptr[:-1][non_empty])
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return data * np.repeat(scale, row_counts)


def row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the given CSR rows' entries, row after row, and row lengths."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum()), lengths


#: A CSR block of rows as plain arrays: ``(indptr, indices, data)``.
Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def _accumulate(
    n_rows: int, rows: np.ndarray, columns: np.ndarray, values: np.ndarray, n_columns: int
) -> Block:
    """The sums of ``values`` per (row, column), laid out as scipy's
    ``csr_matmat`` lays out a product: each sum accumulated from zero in the
    order given, a row's columns in reverse order of their first term, and
    zero sums dropped."""
    keys = rows * n_columns + columns
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.ones(keys.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    group = np.empty(keys.size, dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    sums = np.bincount(group, weights=values)  # in the given order, per key
    first = order[starts]
    layout = np.argsort(rows[first] * keys.size - first, kind="stable")
    layout = layout[sums[layout] != 0]
    first = first[layout]
    counts = np.bincount(rows[first], minlength=n_rows)
    return np.concatenate(([0], np.cumsum(counts))), columns[first], sums[layout]


def _times(block: Block, matrix: sparse.csr_matrix) -> Block:
    """``block @ matrix``, entry for entry as scipy computes it: every term
    ``left · right`` in left-entry-major, right-entry-minor order."""
    indptr, indices, data = block
    entries, counts = row_entries(matrix.indptr, indices)
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    return _accumulate(
        indptr.size - 1,
        np.repeat(rows, counts),
        matrix.indices[entries],
        np.repeat(data, counts) * matrix.data[entries],
        matrix.shape[1],
    )


def _codes_at(column: ValueColumn, rows: np.ndarray) -> np.ndarray:
    """The codes of a column's rows ``rows``, looked up one by one or, when
    they are many, gathered from the whole column as an array."""
    if 2 * rows.size < len(column.codes):
        codes = column.codes
        return np.fromiter(map(codes.__getitem__, rows.tolist()), np.int64, rows.size)
    return column.codes_array()[rows]


def _index_dtype(shape: tuple[int, int], nnz: int) -> type:
    """The index dtype scipy settles on for a CSR matrix of this size."""
    return np.int32 if max(*shape, nnz) <= np.iinfo(np.int32).max else np.int64


def _csr(block: Block, shape: tuple[int, int]) -> sparse.csr_matrix:
    """``block`` as a ``shape`` CSR matrix, its indices already in scipy's
    index dtype so that the constructor neither scans nor copies them."""
    indptr, indices, data = block
    dtype = _index_dtype(shape, data.size)
    return sparse.csr_matrix(
        (data, indices.astype(dtype, copy=False), indptr.astype(dtype, copy=False)),
        shape=shape,
    )


def _splice(
    matrix: sparse.csr_matrix, rows: np.ndarray, block: Block, shape: tuple[int, int]
) -> sparse.csr_matrix:
    """A new ``shape`` matrix: ``matrix`` with its rows ``rows`` (ascending,
    possibly past its end) replaced by the rows of ``block``, in order."""
    old_lengths = np.diff(matrix.indptr)
    replaced = np.zeros(shape[0], dtype=bool)
    replaced[rows] = True
    lengths = np.zeros(shape[0], dtype=np.int64)
    lengths[: old_lengths.size] = old_lengths
    lengths[rows] = np.diff(block[0])
    placed = np.repeat(replaced, lengths)
    carried = ~np.repeat(replaced[: old_lengths.size], old_lengths)
    dtype = _index_dtype(shape, placed.size)
    indices = np.empty(placed.size, dtype=dtype)
    indices[placed] = block[1]
    indices[~placed] = matrix.indices[carried]
    data = np.empty(placed.size)
    data[placed] = block[2]
    data[~placed] = matrix.data[carried]
    indptr = np.zeros(shape[0] + 1, dtype=dtype)
    indptr[1:] = np.cumsum(lengths)
    return sparse.csr_matrix((data, indices, indptr), shape=shape)


@dataclass(eq=False)
class _KeptScheme:
    """One scheme's attribute matrices, current as of journal ``position``."""

    position: int
    matrices: dict[str, tuple[sparse.csr_matrix, np.ndarray]] = field(default_factory=dict)


class WalkEngine:
    """Vectorised walk-distribution computation over a compiled database."""

    def __init__(
        self,
        db: Database,
        compiled: CompiledDatabase | None = None,
        *,
        telemetry: Telemetry | None = None,
    ):
        self.db = db
        self.compiled = (
            compiled
            if compiled is not None
            else CompiledDatabase(db, telemetry=telemetry)
        )
        if self.compiled.db is not db:
            raise ValueError("compiled database is backed by a different Database")
        # adopt the compiled database's bundle when none was given, so an
        # engine wrapped around a pre-instrumented compilation keeps counting
        self.set_telemetry(
            telemetry if telemetry is not None else self.compiled.telemetry
        )
        # step matrix per (foreign key, direction), with the foreign key's
        # dirty counter at build time: a mutation only invalidates the
        # matrices of the foreign keys it touched
        self._step_cache: dict[tuple[str, Direction], tuple[int, sparse.csr_matrix]] = {}
        self._kept: dict[WalkScheme, _KeptScheme] = {}
        # moved-row marks at one journal position, per (scheme, since) and
        # per (scheme, attribute, since), with the deltas they came from
        self._marks_position = -1
        self._deltas: dict[int, RowDelta | None] = {}
        self._marks: dict[tuple, np.ndarray | None] = {}

    def set_telemetry(self, telemetry: Telemetry | None) -> None:
        """Attach (or detach, with None) a telemetry bundle.

        Binds one hit and one miss counter per cache kind
        (``engine.cache.<kind>.{hits,misses}``) plus the refresh-latency
        histogram, and propagates the bundle to the compiled database.  The
        disabled default binds shared no-op instruments, so each cache probe
        pays one dict lookup and a no-op call.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        metrics = self.telemetry.metrics
        self._cache_hits = {
            kind: metrics.counter(f"engine.cache.{kind}.hits")
            for kind in ENGINE_CACHE_KINDS
        }
        self._cache_misses = {
            kind: metrics.counter(f"engine.cache.{kind}.misses")
            for kind in ENGINE_CACHE_KINDS
        }
        self._h_refresh = metrics.histogram("engine.refresh.seconds")
        self._rows_rederived = metrics.counter("engine.attr.rows.rederived")
        self._rows_kept = metrics.counter("engine.attr.rows.kept")
        self.compiled.set_telemetry(self.telemetry)

    # ---------------------------------------------------------- persistence

    def save(self, path) -> None:
        """Snapshot the compiled arrays to a single ``.npz`` file.

        A restarted process warm-starts with :meth:`load` instead of paying
        recompilation; distributions computed from the restored arrays are
        bit-identical to this engine's.
        """
        from repro.engine.persistence import save_compiled

        save_compiled(self.compiled, path)

    @classmethod
    def load(cls, db: Database, path, verify: bool = True) -> "WalkEngine":
        """An engine restored from a snapshot written by :meth:`save`."""
        from repro.engine.persistence import load_compiled

        return cls(db, load_compiled(db, path, verify=verify))

    # ----------------------------------------------------------------- sync

    @property
    def version(self) -> int:
        return self.compiled.version

    def refresh(self) -> bool:
        """Sync with the backing database by replaying its changelog."""
        if not self.telemetry.enabled:
            return self.compiled.refresh()
        started = time.perf_counter()
        changed = self.compiled.refresh()
        self._h_refresh.observe(time.perf_counter() - started)
        return changed

    def add_facts(self, facts: Iterable[Fact]) -> None:
        """Append facts inserted into the database since compilation."""
        self.compiled.add_facts(facts)

    def remove_facts(self, facts: Iterable[Fact | int]) -> None:
        """Tombstone facts deleted from the database (lazy compaction)."""
        self.compiled.remove_facts(facts)

    def update_facts(self, facts: Iterable[Fact]) -> None:
        """Re-encode updated facts in place (post-update values)."""
        self.compiled.update_facts(facts)

    # ----------------------------------------------------------- transitions

    def step_matrix(self, step: WalkStep) -> sparse.csr_matrix:
        """The row-stochastic transition matrix of one walk step.

        Cached per foreign-key dirty counter, not per global version: a
        mutation that touches neither endpoint relation of ``fk`` leaves the
        cached matrix valid, so single-fact churn during streaming only
        rebuilds the matrices of the foreign keys it actually affected.
        Tombstoned rows are masked by construction — their pointers (in both
        directions) are repaired to ``-1`` at removal time.
        """
        fk = step.foreign_key
        key = (fk.name, step.direction)
        fk_dirty = self.compiled.fk_versions[fk.name]
        hit = self._step_cache.get(key)
        if hit is not None and hit[0] == fk_dirty:
            self._cache_hits["step"].inc()
            return hit[1]
        self._cache_misses["step"].inc()
        pointers = self.compiled.fk_pointer_array(fk.name)
        n_source = self.compiled.relations[fk.source].num_rows
        n_target = self.compiled.relations[fk.target].num_rows
        has_link = pointers >= 0
        linked = np.nonzero(has_link)[0]
        targets = pointers[linked]
        # Both directions are built directly in canonical CSR form (rows
        # sorted, no duplicates), skipping scipy's COO round-trip.
        if step.direction is Direction.FORWARD:
            indptr = np.concatenate(([0], np.cumsum(has_link)))
            matrix = sparse.csr_matrix(
                (np.ones(linked.size), targets, indptr), shape=(n_source, n_target)
            )
        else:
            counts = np.bincount(targets, minlength=n_target)
            order = np.argsort(targets, kind="stable")
            indptr = np.concatenate(([0], np.cumsum(counts)))
            data = 1.0 / counts[targets[order]]
            matrix = sparse.csr_matrix(
                (data, linked[order], indptr), shape=(n_target, n_source)
            )
        self._step_cache[key] = (fk_dirty, matrix)
        return matrix

    # -------------------------------------------------------- distributions

    def destination_matrix(self, scheme: WalkScheme) -> sparse.csr_matrix:
        """Row ``i`` is the destination distribution of start-relation row ``i``.

        Shape is ``(n_start, n_end)`` in compiled row numbering; rows of
        facts with no complete walk are empty (tombstoned rows always are).
        Built afresh on every call.
        """
        relations = self.compiled.relations
        n_start = relations[scheme.start_relation].num_rows
        shape = (n_start, relations[scheme.end_relation].num_rows)
        return _csr(self._destination_rows(scheme, np.arange(n_start)), shape)

    def attribute_rows(
        self, fact: Fact, queries: Sequence[tuple[WalkScheme, str]]
    ) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """``(values, probabilities)`` per (scheme, attribute) query for one
        fact: its rows of :meth:`attribute_matrix`, None where the
        distribution does not exist.  No extension path calls it; it is kept
        because ``perfbench/tracing.py`` installs a span on it.
        """
        results: list[tuple[np.ndarray, np.ndarray] | None] = []
        for scheme, attribute in queries:
            if fact.relation != scheme.start_relation:
                raise ValueError(
                    f"fact is from relation {fact.relation!r} but scheme starts at "
                    f"{scheme.start_relation!r}"
                )
            matrix, vocab = self.attribute_matrix(scheme, attribute)
            row = self.compiled.relations[scheme.start_relation].row_of[fact.fact_id]
            lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
            results.append(
                (vocab[matrix.indices[lo:hi]], matrix.data[lo:hi].copy()) if lo < hi else None
            )
        return results

    def attribute_matrix(
        self, scheme: WalkScheme, attribute: str
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        """``(matrix, vocabulary)``: row ``i`` is the distribution of
        ``d_{f_i,s}[A]`` over value codes, already conditioned on non-⊥.

        Empty rows mean the attribute distribution does not exist for that
        fact (no complete walk, or every destination has ⊥ in ``A``).  The
        matrix is kept and brought up to date by re-deriving only the rows
        that moved (see :meth:`moved_rows`), bit-identical to a full build;
        a returned matrix is never modified afterwards.
        """
        return self.attribute_views([(scheme, attribute)], None)[0][:2]

    def attribute_views(
        self, queries: Sequence[tuple[WalkScheme, str]], since: int | None
    ) -> list[tuple[sparse.csr_matrix, np.ndarray, np.ndarray | None]]:
        """``(matrix, vocabulary, moved rows)`` per (scheme, attribute) query:
        :meth:`attribute_matrix` with :meth:`moved_rows` since ``since``.
        The schemes among the queries are brought up to date together, each
        scheme's rows derived once for all of its attributes."""
        requested: dict[WalkScheme, dict[str, None]] = {}
        for scheme, attribute in queries:
            requested.setdefault(scheme, {})[attribute] = None
        rederived = self._advance(requested)
        views = []
        for scheme, attribute in queries:
            if (scheme, attribute) not in rederived:
                self._cache_hits["attr"].inc()
            views.append((
                *self._kept[scheme].matrices[attribute],
                self.moved_rows(scheme, attribute, since),
            ))
        return views

    def moved_rows(
        self, scheme: WalkScheme, attribute: str, since: int | None
    ) -> np.ndarray | None:
        """Which rows of ``attribute_matrix(scheme, attribute)`` can differ
        from what they were at journal position ``since``: a boolean mask
        over the start relation's current rows, or None when that is
        unknown (no position, or one the journal no longer reaches).

        A row is unmarked only if no row its walk reaches, at any step,
        was touched since: no pointer it follows moved, no backward step it
        takes gained or lost a source, and no destination was re-encoded in
        ``attribute``.  Such a row holds the same entries in the same order,
        by value, even across a compaction.
        """
        if since is None:
            return None
        position = self.compiled.position
        if self._marks_position != position:
            self._marks_position = position
            self._deltas.clear()
            self._marks.clear()
        key = (scheme, attribute, since)
        if key in self._marks:
            return self._marks[key]
        if since not in self._deltas:
            self._deltas[since] = self.compiled.changes_since(since)
        delta = self._deltas[since]
        if delta is None:
            moved = None
        else:
            if (scheme, since) not in self._marks:
                self._marks[(scheme, since)] = self._pull_back(scheme, delta, None)
            moved = self._marks[(scheme, since)]
            codes = delta.codes.get((scheme.end_relation, attribute))
            if codes is not None:
                moved = moved | self._pull_back(scheme, delta, codes)
        self._marks[key] = moved
        return moved

    def _pull_back(
        self, scheme: WalkScheme, delta: RowDelta, end_rows: np.ndarray | None
    ) -> np.ndarray:
        """Start rows whose walk reaches a marked row, as a boolean mask.

        With ``end_rows`` the marks are those end-relation rows.  Without,
        they are the structure ``delta`` touched: per step, the rows whose
        transitions moved (a forward step's sources whose pointer moved, a
        backward step's old and new targets), and the start rows appended
        or tombstoned.  Rows appended or tombstoned further along are
        reached only through a moved pointer, so those marks cover them.
        The marks travel backwards through the current pointers.
        """
        compiled = self.compiled
        steps = scheme.steps
        structural = end_rows is None
        marks = np.zeros(compiled.relations[scheme.end_relation].num_rows, dtype=bool)
        if not structural:
            marks[end_rows] = True
        for step in reversed(steps):
            fk = step.foreign_key
            pointers = compiled.fk_pointer_array(fk.name)
            before = np.zeros(compiled.relations[step.from_relation].num_rows, dtype=bool)
            if step.direction is Direction.FORWARD:
                linked = pointers >= 0
                before[linked] = marks[pointers[linked]]
                moved = delta.sources.get(fk.name) if structural else None
            else:
                before[pointers[marks & (pointers >= 0)]] = True
                moved = delta.targets.get(fk.name) if structural else None
            if moved is not None:
                before[moved] = True
            marks = before
        if structural and scheme.start_relation in delta.rows:
            marks[delta.rows[scheme.start_relation]] = True
        return marks

    def _advance(self, requested: dict[WalkScheme, dict[str, None]]) -> set:
        """Bring the kept matrices of the requested schemes, and the
        requested attributes of them, to the current journal position.

        Per scheme, the rows any of its attributes has moved are derived
        once for all of them; the products with the columns' codes of every
        (scheme, attribute) then run as one accumulation, and each attribute
        with a moved row gets its rows spliced in.  Every row counts as
        moved for an attribute with no kept matrix, for one kept in a
        numbering since renumbered, and for one whose moved rows are
        unknown.  Returns the re-derived (scheme, attribute) pairs.
        """
        compiled = self.compiled
        position = compiled.position
        parts, block_rows, codes, masses = [], [], [], []
        offset = width = 0
        for scheme, wanted in requested.items():
            kept = self._kept.get(scheme)
            if kept is None:
                kept = self._kept[scheme] = _KeptScheme(position)
            attributes = [*kept.matrices, *(a for a in wanted if a not in kept.matrices)]
            if kept.position == position and len(attributes) == len(kept.matrices):
                continue
            renumbered = kept.position < compiled.generation_start
            marks = [
                None if renumbered or attribute not in kept.matrices
                else self.moved_rows(scheme, attribute, kept.position)
                for attribute in attributes
            ]
            kept.position = position
            n_rows = compiled.relations[scheme.start_relation].num_rows
            columns = compiled.relations[scheme.end_relation].columns
            changed = [a for a, moved in zip(attributes, marks) if moved is None or moved.any()]
            vocabs = {}
            for attribute in attributes:
                matrix, vocab = kept.matrices.get(attribute, (None, None))
                if vocab is None or renumbered or len(columns[attribute].vocab) != vocab.size:
                    vocab = columns[attribute].vocab_array()
                    if attribute not in changed:
                        # codes only append between renumberings: a longer
                        # vocabulary keeps every code's value
                        shape = (n_rows, vocab.size)
                        kept.matrices[attribute] = (
                            _csr((matrix.indptr, matrix.indices, matrix.data), shape), vocab
                        )
                vocabs[attribute] = vocab
            self._rows_kept.inc(n_rows * (len(attributes) - len(changed)))
            if not changed:
                continue
            if any(moved is None for moved in marks):
                rows = np.arange(n_rows)
            else:
                rows = np.flatnonzero(np.logical_or.reduce(marks))
            indptr, indices, data = self._destination_rows(scheme, rows)
            # block row ``offset + i`` is row ``rows[i]`` of one attribute:
            # each entry's mass goes to its destination's code, ⊥
            # destinations drop out
            owners = np.repeat(np.arange(rows.size), np.diff(indptr))
            for attribute in changed:
                column = columns[attribute]
                row_codes = _codes_at(column, indices)
                valued = row_codes >= 0
                block_rows.append(offset + owners[valued])
                codes.append(row_codes[valued])
                masses.append(data[valued])
                parts.append((scheme, kept, attribute, vocabs[attribute], rows, offset, n_rows))
                offset += rows.size
                width = max(width, len(column.vocab))
        if not parts:
            return set()
        b_indptr, b_indices, b_data = _accumulate(
            offset, np.concatenate(block_rows), np.concatenate(codes),
            np.concatenate(masses), width,
        )
        b_data = _normalized(b_indptr, b_data)
        for scheme, kept, attribute, vocab, rows, start, n_rows in parts:
            self._cache_misses["attr"].inc()
            self._rows_rederived.inc(rows.size)
            self._rows_kept.inc(n_rows - rows.size)
            bounds = b_indptr[start : start + rows.size + 1]
            lo, hi = bounds[0], bounds[-1]
            block = (bounds - lo, b_indices[lo:hi], b_data[lo:hi])
            shape = (n_rows, vocab.size)
            kept.matrices[attribute] = (
                _csr(block, shape) if rows.size == n_rows
                else _splice(kept.matrices[attribute][0], rows, block, shape),
                vocab,
            )
        return {(scheme, attribute) for scheme, _kept, attribute, *_rest in parts}

    def _destination_rows(self, scheme: WalkScheme, rows: np.ndarray) -> Block:
        """Rows ``rows`` of the normalised chain ``I · T_1 ⋯ T_l``, bit for
        bit as scipy's sparse products compute the whole chain.

        scipy's sparse product computes each output row from one row of the
        left factor alone, so the chain of products over the selected rows
        of the first step, done entry for entry as scipy does it
        (:func:`_times`), gives exactly those rows of the full chain.
        """
        start = self.compiled.relations[scheme.start_relation]
        if not scheme.steps:
            # the identity over live rows: a tombstoned row walks nowhere
            alive = np.array([start.alive[row] for row in rows.tolist()], dtype=bool)
            indptr = np.concatenate(([0], np.cumsum(alive)))
            block = (indptr, rows[alive], np.ones(int(alive.sum())))
        else:
            first = self.step_matrix(scheme.steps[0])
            entries, lengths = row_entries(first.indptr, rows)
            indptr = np.concatenate(([0], np.cumsum(lengths)))
            block = (indptr, first.indices[entries], first.data[entries])
            for step in scheme.steps[1:]:
                block = _times(block, self.step_matrix(step))
        return block[0], block[1], _normalized(block[0], block[2])
