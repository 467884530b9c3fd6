"""Batched destination-distribution propagation on compiled arrays.

The reference implementation (:mod:`repro.walks.random_walks`) computes the
destination distribution ``W(f, s)`` of Section V-A by a per-fact BFS over
boxed :class:`Fact` objects.  :class:`WalkEngine` instead compiles every walk
step into a row-stochastic sparse transition matrix and computes the
distributions of **all facts of a relation at once** as a product of sparse
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

The transition and mass matrices are cached under a *dirty signature* (the
per-relation and per-foreign-key mutation counters they read); the mass
cache shares prefix products across the scheme tree.  Attribute matrices
are *maintained by rows* instead.  The
compiled database journals the rows each mutation touches
(:meth:`~repro.engine.compiled.CompiledDatabase.changes_since`);
:meth:`WalkEngine.moved_rows` pulls those marks back through a scheme's
step matrices to the start rows whose walk reaches one, and
:meth:`WalkEngine.attribute_matrix` re-derives only those rows — once per
scheme, for every kept attribute of it — and splices them into the kept
matrix.  Every product computes an output row from one input row, so the
re-derived rows equal the full build's bit for bit; the full build runs
only for a first request and after the rows were renumbered (compaction).
:meth:`WalkEngine.attribute_views` hands a consumer the matrices together
with the rows that moved since the journal position it last read, so the
all-at-once extension re-derives its entries only for those rows.

Single-fact queries (the one-by-one extension path) slice a row of a
current attribute or mass matrix when one exists; otherwise they run an
index-backed BFS (O(walk support), so one-by-one dynamic insertion stays
O(walk) instead of O(database)).  The multi-query calls
(:meth:`WalkEngine.attribute_rows`,
:meth:`WalkEngine.attribute_distributions`) compute one destination row per
distinct scheme, however many of its attributes they read.  Through
:meth:`WalkEngine.destination_row`, a second *distinct* fact querying the
same scheme promotes to the batched mass matrix; :meth:`WalkEngine.attribute_rows`
never promotes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.db.database import Database, Fact
from repro.engine.compiled import CompiledDatabase, RowDelta
from repro.obs import ENGINE_CACHE_KINDS, NULL_TELEMETRY, Telemetry
from repro.walks.schemes import Direction, WalkScheme, WalkStep

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (walks -> engine)
    from repro.walks.random_walks import AttributeDistribution, DestinationDistribution


def _normalize_rows(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Divide every non-empty row by its sum; empty rows stay empty."""
    matrix = matrix.tocsr()
    if matrix.data.size and not np.all(matrix.data > 0):
        # stored zeros (possible only through extreme underflow) would put
        # zero-probability entries into the support; prune them first
        matrix.eliminate_zeros()
    matrix.data = _normalized(matrix.indptr, matrix.data)
    return matrix


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
    unique, first = ordered[starts], order[starts]
    key_rows = unique // n_columns
    layout = np.argsort(key_rows * keys.size - first, kind="stable")
    layout = layout[sums[layout] != 0]
    counts = np.bincount(key_rows[layout], minlength=n_rows)
    return (
        np.concatenate(([0], np.cumsum(counts))),
        unique[layout] - key_rows[layout] * n_columns,
        sums[layout],
    )


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
    indices = np.empty(placed.size, dtype=np.int64)
    indices[placed] = block[1]
    indices[~placed] = matrix.indices[carried]
    data = np.empty(placed.size)
    data[placed] = block[2]
    data[~placed] = matrix.data[carried]
    return sparse.csr_matrix(
        (data, indices, np.concatenate(([0], np.cumsum(lengths)))), shape=shape
    )


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
        # cache value -> (dirty signature at build time, payload); signatures
        # are per-foreign-key / per-relation, not the global version, so a
        # mutation only invalidates the matrices it could have affected
        self._step_cache: dict[tuple[str, Direction], tuple[int, sparse.csr_matrix]] = {}
        self._mass_cache: dict[WalkScheme, tuple[tuple, sparse.csr_matrix]] = {}
        self._kept: dict[WalkScheme, _KeptScheme] = {}
        # moved-row marks at one journal position, per (scheme, since) and
        # per (scheme, attribute, since), with the deltas they came from
        self._marks_position = -1
        self._deltas: dict[int, RowDelta | None] = {}
        self._marks: dict[tuple, np.ndarray | None] = {}
        # the first fact to query each scheme through destination_row at the
        # current version — a *different* fact querying the same scheme
        # promotes to the full batched mass matrix
        self._row_queries: dict[WalkScheme, int] = {}
        self._row_queries_version = self.compiled.version

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

    def _scheme_signature(self, scheme: WalkScheme) -> tuple:
        """The dirty counters a scheme's distributions depend on.

        A scheme reads the start relation's row space and every step's
        transition matrix; each intermediate/end relation is an endpoint of
        an adjacent step's foreign key, whose counter is bumped whenever the
        relation is touched.  Mutations elsewhere leave the signature — and
        therefore every cached matrix keyed on it — intact, so single-fact
        churn during streaming only rebuilds the schemes it actually
        affected.
        """
        compiled = self.compiled
        return (
            compiled.rel_versions[scheme.start_relation],
            *(compiled.fk_versions[step.foreign_key.name] for step in scheme.steps),
        )

    def destination_matrix(self, scheme: WalkScheme) -> sparse.csr_matrix:
        """Row ``i`` is the destination distribution of start-relation row ``i``.

        Shape is ``(n_start, n_end)`` in compiled row numbering; rows of
        facts with no complete walk are empty (tombstoned rows always are).
        """
        return _normalize_rows(self._mass_matrix(scheme).copy())

    def _mass_matrix(self, scheme: WalkScheme) -> sparse.csr_matrix:
        """Unnormalised walk mass, with prefix products shared across schemes.

        Scheme enumeration (Figure 4) grows schemes step by step, so sibling
        schemes share all but their last step; caching the unnormalised mass
        per scheme makes every scheme cost a single sparse product on top of
        its prefix.  The returned matrix is cached — callers must copy before
        mutating.
        """
        signature = self._scheme_signature(scheme)
        hit = self._mass_cache.get(scheme)
        if hit is not None and hit[0] == signature:
            self._cache_hits["mass"].inc()
            return hit[1]
        self._cache_misses["mass"].inc()
        start_rel = self.compiled.relations[scheme.start_relation]
        if not scheme.steps:
            if start_rel.num_dead:
                # tombstoned rows must carry no mass, even onto themselves
                mass = sparse.diags(
                    start_rel.alive_array().astype(np.float64), format="csr"
                )
            else:
                mass = sparse.identity(start_rel.num_rows, format="csr")
        elif len(scheme.steps) == 1:
            mass = self.step_matrix(scheme.steps[0])
        else:
            prefix = WalkScheme(scheme.start_relation, scheme.steps[:-1])
            mass = self._mass_matrix(prefix) @ self.step_matrix(scheme.steps[-1])
        self._mass_cache[scheme] = (signature, mass)
        return mass

    @staticmethod
    def _check_start(fact: Fact, scheme: WalkScheme) -> None:
        if fact.relation != scheme.start_relation:
            raise ValueError(
                f"fact is from relation {fact.relation!r} but scheme starts at "
                f"{scheme.start_relation!r}"
            )

    def destination_row(self, fact: Fact, scheme: WalkScheme) -> tuple[np.ndarray, np.ndarray]:
        """``(end-relation rows, probabilities)`` of ``d_{f,s}``; empty if none.

        A single fact never pays for whole-relation matrices up front: as
        long as only one fact queries a scheme at the current compiled
        version, its distribution comes from an index-backed BFS — O(walk
        support), exactly like the reference — so a one-by-one insertion
        stream stays cheap even though every arrival bumps the version.  As
        soon as a *second* fact queries the same scheme, the full batched
        matrix is built once and amortised.
        """
        self._check_start(fact, scheme)
        return self._single_row(fact, scheme, promote=True)

    def _single_row(
        self, fact: Fact, scheme: WalkScheme, *, promote: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """One fact's destination row: a slice of a current matrix, else a BFS.

        With ``promote`` (:meth:`destination_row`), a second distinct fact
        querying ``scheme`` at the current version builds the batched mass
        matrix instead.  The fused pipeline (:meth:`attribute_rows`) never promotes:
        a streaming arrival queries every walk target exactly once, so
        building a whole-relation matrix per batch would cost far more than
        the O(walk support) propagation it replaces.
        """
        if fact.fact_id not in self.compiled.relations[scheme.start_relation].row_of:
            # the fact was inserted without add_facts/refresh; catch up
            self.refresh()
        hit = self._mass_cache.get(scheme)
        if hit is not None and hit[0] == self._scheme_signature(scheme):
            self._cache_hits["mass"].inc()
            mass = hit[1]
        else:
            if self._row_queries_version != self.version:
                self._row_queries.clear()
                self._row_queries_version = self.version
            if not promote or (
                self._row_queries.setdefault(scheme, fact.fact_id) == fact.fact_id
            ):
                return self._bfs_row(fact, scheme)
            mass = self._mass_matrix(scheme)
        # the row of destination_matrix: the mass row, normalised on its own
        row = self.compiled.relations[scheme.start_relation].row_of[fact.fact_id]
        lo, hi = mass.indptr[row], mass.indptr[row + 1]
        data = mass.data[lo:hi]
        nonzero = data != 0
        data = data[nonzero]
        return (
            mass.indices[lo:hi][nonzero].astype(np.int64),
            _normalized(np.array([0, data.size]), data),
        )

    def attribute_rows(
        self, fact: Fact, queries: Sequence[tuple[WalkScheme, str]]
    ) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """``(values, probabilities)`` per (scheme, attribute) query for one fact.

        One destination propagation per *distinct* scheme — never promoted
        to a whole-relation matrix.  Entries are None where the distribution does
        not exist, exactly like :meth:`attribute_row`.  The extension paths
        do not call it (the batch slices :meth:`attribute_matrix`, the
        serial path uses :meth:`attribute_distributions`); it is kept
        because ``perfbench/tracing.py`` installs a span on it.
        """
        return self._attribute_rows(fact, queries, batched=False)

    def _attribute_rows(
        self,
        fact: Fact,
        queries: Sequence[tuple[WalkScheme, str]],
        *,
        batched: bool,
    ) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """One fact's attribute rows, one destination row per distinct scheme.

        ``batched`` (the :meth:`attribute_row` family) prefers the batched
        matrices: a current attribute matrix is sliced, and a second distinct
        querier promotes the scheme to its mass matrix.  Without it
        (:meth:`attribute_rows`) every row is aggregated from a single-fact
        destination row that never promotes.
        """
        results: list[tuple[np.ndarray, np.ndarray] | None] = []
        destinations: dict[WalkScheme, tuple[np.ndarray, np.ndarray]] = {}
        for scheme, attribute in queries:
            self._check_start(fact, scheme)
            if batched:
                kept = self._kept.get(scheme)
                row_of = self.compiled.relations[scheme.start_relation].row_of
                row = row_of.get(fact.fact_id)
                # an unknown fact falls through to the row path, which self-syncs
                if (
                    row is not None
                    and kept is not None
                    and kept.position == self.compiled.position
                    and attribute in kept.matrices
                ):
                    matrix, vocab = kept.matrices[attribute]
                    lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
                    results.append(
                        (vocab[matrix.indices[lo:hi]], matrix.data[lo:hi].copy())
                        if lo < hi
                        else None
                    )
                    continue
            pair = destinations.get(scheme)
            if pair is None:
                pair = self._single_row(fact, scheme, promote=batched)
                destinations[scheme] = pair
            results.append(self._attribute_values(scheme, attribute, *pair))
        return results

    def _attribute_values(
        self,
        scheme: WalkScheme,
        attribute: str,
        rows: np.ndarray,
        probabilities: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Aggregate one destination row's mass over the non-⊥ values of ``A``."""
        if rows.size == 0:
            return None
        column = self.compiled.relations[scheme.end_relation].columns[attribute]
        row_codes = np.fromiter(map(column.codes.__getitem__, rows.tolist()), np.int64, rows.size)
        non_null = row_codes >= 0
        if not np.any(non_null):
            return None
        # aggregate over the walk support, not the whole vocabulary: the
        # support is a handful of codes while vocabularies can be huge
        used, inverse = np.unique(row_codes[non_null], return_inverse=True)
        mass = np.bincount(inverse, weights=probabilities[non_null])
        keep = mass > 0
        probs = mass[keep]
        values = np.empty(int(keep.sum()), dtype=object)
        values[:] = [column.vocab[code] for code in used[keep].tolist()]
        return values, probs / probs.sum()

    def _bfs_row(self, fact: Fact, scheme: WalkScheme) -> tuple[np.ndarray, np.ndarray]:
        """Single-source propagation through the database's own FK indexes."""
        from repro.walks.random_walks import destination_distribution

        distribution = destination_distribution(self.db, fact, scheme)
        if distribution.is_empty:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        end_rel = self.compiled.relations[scheme.end_relation]
        try:
            rows = np.array(
                [end_rel.row_of[f.fact_id] for f in distribution.facts], dtype=np.int64
            )
        except KeyError:
            # destinations include facts the compiled arrays have not seen yet
            self.refresh()
            end_rel = self.compiled.relations[scheme.end_relation]
            rows = np.array(
                [end_rel.row_of[f.fact_id] for f in distribution.facts], dtype=np.int64
            )
        return rows, np.asarray(distribution.probabilities, dtype=np.float64)

    def _column(self, relation: str, attribute: str) -> tuple[sparse.csr_matrix, np.ndarray]:
        """(one-hot indicator over non-⊥ codes, vocabulary) of a column.

        Built for full attribute-matrix builds only, which run on a first
        request and after a renumbering; row re-derivation reads codes.
        """
        compiled_rel = self.compiled.relations[relation]
        column = compiled_rel.columns[attribute]
        codes = column.codes_array()
        if compiled_rel.num_dead:
            # tombstoned rows read as ⊥ so they never contribute a value
            codes = np.where(compiled_rel.alive_array(), codes, -1)
        # built directly in canonical CSR form: one entry per non-⊥ row
        non_null = codes >= 0
        indicator = sparse.csr_matrix(
            (
                np.ones(int(non_null.sum())),
                codes[non_null],
                np.concatenate(([0], np.cumsum(non_null))),
            ),
            shape=(codes.size, len(column.vocab)),
        )
        return indicator, column.vocab_array()

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
        kept = self._kept.get(scheme)
        rederived = self._advance([(scheme, kept)]) if self._stale(kept) else set()
        return self._kept_payload(scheme, attribute, rederived)

    def _stale(self, kept: _KeptScheme | None) -> bool:
        """Are these kept matrices behind the journal, in the same numbering?"""
        compiled = self.compiled
        return kept is not None and compiled.generation_start <= kept.position != compiled.position

    def _kept_payload(
        self, scheme: WalkScheme, attribute: str, rederived: set
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        """A current kept matrix (a hit unless just re-derived), else a full build."""
        compiled = self.compiled
        kept = self._kept.get(scheme)
        if kept is None or kept.position != compiled.position:
            kept = self._kept[scheme] = _KeptScheme(compiled.position)
        payload = kept.matrices.get(attribute)
        if payload is None:
            self._cache_misses["attr"].inc()
            destinations = self.destination_matrix(scheme)
            indicator, vocab = self._column(scheme.end_relation, attribute)
            payload = (_normalize_rows(destinations @ indicator), vocab)
            self._rows_rederived.inc(destinations.shape[0])
            kept.matrices[attribute] = payload
        elif (scheme, attribute) not in rederived:
            self._cache_hits["attr"].inc()
        return payload

    def attribute_views(
        self, queries: Sequence[tuple[WalkScheme, str]], since: int | None
    ) -> list[tuple[sparse.csr_matrix, np.ndarray, np.ndarray | None]]:
        """``(matrix, vocabulary, moved rows)`` per (scheme, attribute) query:
        :meth:`attribute_matrix` with :meth:`moved_rows` since ``since``,
        the stale schemes among the queries brought up to date together."""
        stale = [
            (scheme, self._kept[scheme])
            for scheme in dict.fromkeys(scheme for scheme, _ in queries)
            if self._stale(self._kept.get(scheme))
        ]
        rederived = self._advance(stale)
        return [
            (
                *self._kept_payload(scheme, attribute, rederived),
                self.moved_rows(scheme, attribute, since),
            )
            for scheme, attribute in queries
        ]

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

    def _advance(self, stale: list[tuple[WalkScheme, _KeptScheme]]) -> set:
        """Bring kept matrices to the current journal position.

        Per scheme, the rows any kept attribute has moved are re-derived
        once for all its attributes; the products with the columns'
        indicator matrices of every (scheme, attribute) then run as one
        accumulation, and each attribute with a moved row gets its rows
        spliced in.  Returns those (scheme, attribute) pairs.  A scheme
        whose moved rows are unknown drops its kept matrices, to be rebuilt
        on request.
        """
        position = self.compiled.position
        parts, block_rows, codes, masses = [], [], [], []
        offset = width = 0
        for scheme, kept in stale:
            attributes = list(kept.matrices)
            moved = [self.moved_rows(scheme, a, kept.position) for a in attributes]
            kept.position = position
            if any(rows is None for rows in moved):
                kept.matrices.clear()
                continue
            n_rows = self.compiled.relations[scheme.start_relation].num_rows
            columns = self.compiled.relations[scheme.end_relation].columns
            changed = [a for a, rows in zip(attributes, moved) if rows.any()]
            for attribute in attributes:
                matrix, vocab = kept.matrices[attribute]
                if len(columns[attribute].vocab) != vocab.size:
                    # codes only append between renumberings: a longer
                    # vocabulary keeps every code's value
                    vocab = columns[attribute].vocab_array()
                    matrix = sparse.csr_matrix(
                        (matrix.data, matrix.indices, matrix.indptr),
                        shape=(matrix.shape[0], vocab.size),
                    )
                    kept.matrices[attribute] = (matrix, vocab)
            self._rows_kept.inc(n_rows * (len(attributes) - len(changed)))
            if not changed:
                continue
            rows = np.flatnonzero(np.logical_or.reduce(moved))
            indptr, indices, data = self._destination_rows(scheme, rows)
            # block row ``offset + i`` is row ``rows[i]`` of one attribute:
            # each entry's mass goes to its destination's code, ⊥
            # destinations drop out
            owners = np.repeat(np.arange(rows.size), np.diff(indptr))
            ends = indices.tolist()
            for attribute in changed:
                column = columns[attribute]
                row_codes = np.array(list(map(column.codes.__getitem__, ends)), dtype=np.int64)
                valued = row_codes >= 0
                block_rows.append(offset + owners[valued])
                codes.append(row_codes[valued])
                masses.append(data[valued])
                parts.append((scheme, kept, attribute, rows, offset, n_rows))
                offset += rows.size
                width = max(width, len(column.vocab))
        if not parts:
            return set()
        b_indptr, b_indices, b_data = _accumulate(
            offset, np.concatenate(block_rows), np.concatenate(codes),
            np.concatenate(masses), width,
        )
        b_data = _normalized(b_indptr, b_data)
        for scheme, kept, attribute, rows, start, n_rows in parts:
            self._cache_misses["attr"].inc()
            self._rows_rederived.inc(rows.size)
            self._rows_kept.inc(n_rows - rows.size)
            matrix, vocab = kept.matrices[attribute]
            bounds = b_indptr[start : start + rows.size + 1]
            lo, hi = bounds[0], bounds[-1]
            block = (bounds - lo, b_indices[lo:hi], b_data[lo:hi])
            kept.matrices[attribute] = (
                _splice(matrix, rows, block, (n_rows, vocab.size)), vocab
            )
        return {(scheme, attribute) for scheme, _kept, attribute, *_rest in parts}

    def _destination_rows(self, scheme: WalkScheme, rows: np.ndarray) -> Block:
        """Rows ``rows`` of :meth:`destination_matrix`, bit for bit.

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

    def attribute_row(
        self, fact: Fact, scheme: WalkScheme, attribute: str
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(values, probabilities)`` of ``d_{f,s}[A]``, or None if absent."""
        return self._attribute_rows(fact, [(scheme, attribute)], batched=True)[0]

    # ------------------------------------------- reference-compatible views

    def destination_distribution(self, fact: Fact, scheme: WalkScheme) -> "DestinationDistribution":
        """The exact ``W(f, s)`` as a reference-compatible dataclass."""
        from repro.walks.random_walks import DestinationDistribution

        rows, probabilities = self.destination_row(fact, scheme)
        if rows.size == 0:
            return DestinationDistribution(scheme, (), np.zeros(0))
        end_ids = self.compiled.relations[scheme.end_relation].fact_ids
        facts = tuple(self.db.fact(end_ids[row]) for row in rows)
        return DestinationDistribution(scheme, facts, probabilities)

    def attribute_distribution(
        self, fact: Fact, scheme: WalkScheme, attribute: str
    ) -> "AttributeDistribution | None":
        """The distribution of ``d_{f,s}[A]``, or None when it does not exist."""
        return self.attribute_distributions(fact, [(scheme, attribute)])[0]

    def attribute_distributions(
        self, fact: Fact, queries: Sequence[tuple[WalkScheme, str]]
    ) -> "list[AttributeDistribution | None]":
        """:meth:`attribute_distribution` of every (scheme, attribute) query.

        Each distinct scheme's destination row is computed once, however many
        of its attributes are queried — the one-by-one extender asks for one
        attribute per walk target, and targets share schemes.
        """
        from repro.walks.random_walks import AttributeDistribution

        return [
            None
            if result is None
            else AttributeDistribution(scheme, attribute, tuple(result[0]), result[1])
            for (scheme, attribute), result in zip(
                queries, self._attribute_rows(fact, queries, batched=True)
            )
        ]
