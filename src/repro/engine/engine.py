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

All products are cached per scheme under a *dirty signature* — the per-
relation and per-foreign-key mutation counters the scheme actually reads —
so consumers that share an engine — FoRWaRD training, the dynamic extender,
the experiment drivers — never recompute a distribution the engine has
already seen, and a single-fact insert/delete/update during streaming only
invalidates the schemes whose relations or foreign keys it touched.  The
all-at-once extension batch reads whole attribute matrices and slices the
rows it needs.

Single-fact queries (the one-by-one extension path) slice a row of a
current destination matrix when one exists; otherwise they run an
index-backed BFS (O(walk support), so one-by-one dynamic insertion stays
O(walk) instead of O(database)).  The multi-query calls
(:meth:`WalkEngine.attribute_rows`,
:meth:`WalkEngine.attribute_distributions`) compute one destination row per
distinct scheme, however many of its attributes they read.  Through
:meth:`WalkEngine.destination_row`, a second *distinct* fact querying the
same scheme promotes to the batched matrix; :meth:`WalkEngine.attribute_rows`
never promotes.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.db.database import Database, Fact
from repro.engine.compiled import CompiledDatabase
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
    row_counts = np.diff(matrix.indptr)
    sums = np.zeros(row_counts.size, dtype=np.float64)
    non_empty = row_counts > 0
    if matrix.data.size:
        # reduceat over non-empty rows only: their start offsets are strictly
        # increasing, so each segment ends exactly at the next row's start
        sums[non_empty] = np.add.reduceat(matrix.data, matrix.indptr[:-1][non_empty])
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    matrix.data = matrix.data * np.repeat(scale, row_counts)
    return matrix


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
        self._dest_cache: dict[WalkScheme, tuple[tuple, sparse.csr_matrix]] = {}
        self._attr_cache: dict[
            tuple[WalkScheme, str], tuple[tuple, tuple[sparse.csr_matrix, np.ndarray]]
        ] = {}
        self._column_cache: dict[
            tuple[str, str], tuple[int, sparse.csr_matrix, np.ndarray, np.ndarray]
        ] = {}
        # the first fact to query each scheme through destination_row at the
        # current version — a *different* fact querying the same scheme
        # promotes to the full batched matrix
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

    def _scheme_struct_signature(self, scheme: WalkScheme) -> tuple:
        """The *structural* counters a scheme's distributions depend on.

        Pure appends leave these untouched (see
        :class:`~repro.engine.compiled.CompiledDatabase`), so while they
        match, a recompute differs from an earlier result only by rows
        appended at the bottom.  A forward step reads ``fk_fwd_struct`` (its
        rows change only when an existing pointer changes); a backward step
        reads ``fk_bwd_struct`` (additionally bumped by any resolved append,
        which renormalises the referenced row's in-degree).
        """
        compiled = self.compiled
        parts = [compiled.rel_struct_versions[scheme.start_relation]]
        for step in scheme.steps:
            name = step.foreign_key.name
            parts.append(
                compiled.fk_fwd_struct[name]
                if step.direction is Direction.FORWARD
                else compiled.fk_bwd_struct[name]
            )
        return tuple(parts)

    def attribute_struct_signature(self, scheme: WalkScheme) -> tuple:
        """Signature under which *existing* attribute rows are immutable.

        While this value is unchanged, every row a consumer has already read
        from :meth:`attribute_matrix` keeps its exact bits (new facts only
        append rows and vocabulary entries).  Callers caching per-row derived
        state — e.g. the dynamic extender's old-fact distributions — can key
        on it instead of :attr:`version` to survive pure insertions.
        """
        return (
            self._scheme_struct_signature(scheme),
            self.compiled.rel_struct_versions[scheme.end_relation],
        )

    def destination_matrix(self, scheme: WalkScheme) -> sparse.csr_matrix:
        """Row ``i`` is the destination distribution of start-relation row ``i``.

        Shape is ``(n_start, n_end)`` in compiled row numbering; rows of
        facts with no complete walk are empty (tombstoned rows always are).
        """
        signature = self._scheme_signature(scheme)
        hit = self._dest_cache.get(scheme)
        if hit is not None and hit[0] == signature:
            self._cache_hits["dest"].inc()
            return hit[1]
        self._cache_misses["dest"].inc()
        matrix = _normalize_rows(self._mass_matrix(scheme).copy())
        self._dest_cache[scheme] = (signature, matrix)
        return matrix

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
        querying ``scheme`` at the current version builds the batched matrix
        instead.  The fused pipeline (:meth:`attribute_rows`) never promotes:
        a streaming arrival queries every walk target exactly once, so
        building a whole-relation matrix per batch would cost far more than
        the O(walk support) propagation it replaces.
        """
        if fact.fact_id not in self.compiled.relations[scheme.start_relation].row_of:
            # the fact was inserted without add_facts/refresh; catch up
            self.refresh()
        hit = self._dest_cache.get(scheme)
        if hit is not None and hit[0] == self._scheme_signature(scheme):
            self._cache_hits["dest"].inc()
            matrix = hit[1]
        else:
            if self._row_queries_version != self.version:
                self._row_queries.clear()
                self._row_queries_version = self.version
            if not promote or (
                self._row_queries.setdefault(scheme, fact.fact_id) == fact.fact_id
            ):
                return self._bfs_row(fact, scheme)
            matrix = self.destination_matrix(scheme)
        row = self.compiled.relations[scheme.start_relation].row_of[fact.fact_id]
        lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
        return matrix.indices[lo:hi].astype(np.int64), matrix.data[lo:hi].copy()

    def attribute_rows(
        self, fact: Fact, queries: Sequence[tuple[WalkScheme, str]]
    ) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """``(values, probabilities)`` per (scheme, attribute) query for one fact.

        One destination propagation per *distinct* scheme — never promoted
        to a whole-relation matrix — and one shared column decode per (end
        relation, attribute).  Entries are None where the distribution does
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
        querier promotes the scheme to its destination matrix.  Without it
        (:meth:`attribute_rows`) every row is aggregated from a single-fact
        destination row that never promotes.
        """
        results: list[tuple[np.ndarray, np.ndarray] | None] = []
        destinations: dict[WalkScheme, tuple[np.ndarray, np.ndarray]] = {}
        for scheme, attribute in queries:
            self._check_start(fact, scheme)
            if batched:
                hit = self._attr_cache.get((scheme, attribute))
                row_of = self.compiled.relations[scheme.start_relation].row_of
                row = row_of.get(fact.fact_id)
                # an unknown fact falls through to the row path, which self-syncs
                if (
                    row is not None
                    and hit is not None
                    and hit[0] == self._attribute_signature(scheme)
                ):
                    matrix, vocab = hit[1]
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
        _indicator, vocab, codes = self._column(scheme.end_relation, attribute)
        row_codes = codes[rows]
        non_null = row_codes >= 0
        if not np.any(non_null):
            return None
        # aggregate over the walk support, not the whole vocabulary: the
        # support is a handful of codes while vocabularies can be huge
        used, inverse = np.unique(row_codes[non_null], return_inverse=True)
        mass = np.bincount(inverse, weights=probabilities[non_null])
        keep = mass > 0
        probs = mass[keep]
        return vocab[used[keep]], probs / probs.sum()

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

    def _column(
        self, relation: str, attribute: str
    ) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """(one-hot indicator over non-⊥ codes, vocabulary, codes) of a column."""
        key = (relation, attribute)
        rel_dirty = self.compiled.rel_versions[relation]
        hit = self._column_cache.get(key)
        if hit is not None and hit[0] == rel_dirty:
            self._cache_hits["column"].inc()
            return hit[1], hit[2], hit[3]
        self._cache_misses["column"].inc()
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
        vocab = column.vocab_array()
        self._column_cache[key] = (rel_dirty, indicator, vocab, codes)
        return indicator, vocab, codes

    def _attribute_signature(self, scheme: WalkScheme) -> tuple:
        return (
            self._scheme_signature(scheme),
            self.compiled.rel_versions[scheme.end_relation],
        )

    def attribute_matrix(
        self, scheme: WalkScheme, attribute: str
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        """``(matrix, vocabulary)``: row ``i`` is the distribution of
        ``d_{f_i,s}[A]`` over value codes, already conditioned on non-⊥.

        Empty rows mean the attribute distribution does not exist for that
        fact (no complete walk, or every destination has ⊥ in ``A``).
        """
        key = (scheme, attribute)
        signature = self._attribute_signature(scheme)
        hit = self._attr_cache.get(key)
        if hit is not None and hit[0] == signature:
            self._cache_hits["attr"].inc()
            return hit[1]
        self._cache_misses["attr"].inc()
        destinations = self.destination_matrix(scheme)
        indicator, vocab, _codes = self._column(scheme.end_relation, attribute)
        payload = (_normalize_rows(destinations @ indicator), vocab)
        self._attr_cache[key] = (signature, payload)
        return payload

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
