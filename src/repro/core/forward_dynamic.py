"""The FoRWaRD algorithm — dynamic phase (Section V-E of the paper).

A newly inserted ``R``-fact ``f_new`` is embedded without touching the
existing embeddings by solving the over-determined linear system of
Equation (9): each sampled triple ``(f_old, s, A)`` contributes one equation

    φ(f_new)ᵀ · ψ(s, A) · φ(f_old) = KD(d_{s,f_old}[A], d_{s,f_new}[A]),

i.e. a row ``C_i = ψ(s, A)·φ(f_old)`` and right-hand side ``b_i``; the
minimum-norm least-squares solution (Equation (10)) is ``φ(f_new)``.

The anchors ``f_old`` of a fact and walk target are a bottom-k sample keyed
on (extension key, fact id, target index, candidate fact id) — see
:func:`anchor_picks` — so they depend on nothing but the candidate set.
Distributions are computed by the compiled walk engine.  The one-by-one
path (:meth:`ForwardDynamicExtender.embed_fact`) queries a single fact's
rows; the all-at-once batch (:meth:`ForwardDynamicExtender.extend_batch`,
``recompute_old_paths``) slices every old and new fact's distribution for a
walk target out of the engine's attribute matrix, and re-derives only the
right-hand-side entries and solve operators whose inputs moved since the
previous batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.core.base import TupleEmbedding
from repro.core.forward import ForwardModel, WalkTarget
from repro.db.database import Database, Fact
from repro.engine import WalkEngine
from repro.kernels.base import Kernel
from repro.utils.linalg import pseudo_inverse, solve_least_squares
from repro.utils.rng import ensure_rng
from repro.walks.random_walks import AttributeDistribution


def anchor_key(rng: int | np.random.Generator | None) -> int:
    """The key anchor picks hash with: one draw of ``ensure_rng(rng)``, so an
    integer seed gives the same picks whichever component builds the extender."""
    return int(ensure_rng(rng).integers(2**63))


def _mix64(words: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser: a bijective avalanche of ``uint64`` words."""
    words = words ^ (words >> np.uint64(30))
    words = words * np.uint64(0xBF58476D1CE4E5B9)
    words = words ^ (words >> np.uint64(27))
    words = words * np.uint64(0x94D049BB133111EB)
    return words ^ (words >> np.uint64(31))


def anchor_picks(
    key: int,
    fact_ids: np.ndarray,
    target_index: int,
    candidate_ids: np.ndarray,
    count: int,
) -> np.ndarray:
    """Positions in ``candidate_ids`` of each fact's anchors, ascending.

    Fact ``f`` picks the ``count`` candidates ``c`` with the smallest hash
    ``h(key, f, target_index, c)`` — a bottom-k sample (Cohen & Kaplan,
    PODC 2007).  It is uniform without replacement, and a pure function of
    the candidate *set*: inserting or deleting a candidate that is not
    picked leaves the picks bit-identical.  One row per fact; every
    candidate when there are at most ``count``.
    """
    fact_ids = np.asarray(fact_ids, dtype=np.int64)
    if len(candidate_ids) <= count:
        return np.broadcast_to(np.arange(len(candidate_ids)), (fact_ids.size, len(candidate_ids)))
    salt = _mix64(np.array([key, target_index], dtype=np.uint64))
    streams = _mix64(fact_ids.astype(np.uint64) ^ salt[0]) ^ salt[1]
    labels = _mix64(np.asarray(candidate_ids, dtype=np.int64).astype(np.uint64))
    priorities = _mix64(streams[:, None] ^ labels)
    picks = np.argpartition(priorities, count - 1, axis=1)[:, :count]
    picks.sort(axis=1)
    return picks


@dataclass(eq=False)
class _TargetContext:
    """One walk target's share of an extension batch, kept as the record the
    next batch diffs against.

    ``matrix``/``vocab``: the target's attribute matrix and vocabulary;
    ``codebook``: the compiled column's vocabulary list, which only grows
    (a code keeps its value) until the compiled database is rebuilt;
    ``candidates``: φ rows of the trained facts alive and reaching it,
    ascending; ``positions``: batch positions of the facts reaching it.
    Assembly records the picks' ``key``; per fact, by sorted ``fact_ids``,
    its matrix row (``fact_rows``), anchor φ rows (``anchors``, ascending)
    and right-hand sides (``rhs``); and the anchors read (sorted φ rows
    ``picked``, their ``picked_rows``).
    """

    target: WalkTarget
    matrix: sparse.csr_matrix
    vocab: np.ndarray
    codebook: list
    candidates: np.ndarray
    positions: np.ndarray
    key: int = 0
    fact_ids: np.ndarray | None = None
    fact_rows: np.ndarray | None = None
    anchors: np.ndarray | None = None
    rhs: np.ndarray | None = None
    picked: np.ndarray | None = None
    picked_rows: np.ndarray | None = None

    def carries_to(self, current: "_TargetContext") -> bool:
        """Does every fact this batch recorded keep its picks and entries in
        ``current``: same key and candidates, and this batch's matrix rows a
        prefix of ``current``'s, bit for bit (only rows were appended)?

        A fact or anchor read at another row now was deleted in between,
        and a tombstoned row reads empty, so the prefix test fails for it.
        """
        old, new = self.matrix, current.matrix
        rows, nnz = old.shape[0], old.nnz
        return (
            self.key == current.key
            and self.codebook is current.codebook
            and new.shape[0] >= rows
            and np.array_equal(self.candidates, current.candidates)
            and np.array_equal(new.indptr[: rows + 1], old.indptr)
            and np.array_equal(new.indices[:nnz], old.indices)
            and np.array_equal(new.data[:nnz], old.data)
        )

    def moved(
        self,
        read: np.ndarray,
        old_rows: np.ndarray,
        rows: np.ndarray,
        current: "_TargetContext",
    ) -> np.ndarray:
        """Per row: does ``current.matrix``'s (non-empty) row ``rows[i]``
        differ from row ``old_rows[i]`` this batch ``read``?  Bit for bit, by
        value (codes are translated when the vocabulary was rebuilt); a row
        this batch did not read moved."""
        old, new = self.matrix, current.matrix
        lengths = new.indptr[rows + 1] - new.indptr[rows]
        same = read & (old.indptr[old_rows + 1] - old.indptr[old_rows] == lengths)
        check = np.flatnonzero(same)
        if check.size:
            new_entries, counts = _row_entries(new.indptr, rows[check])
            old_entries, _ = _row_entries(old.indptr, old_rows[check])
            codes = old.indices[old_entries]
            if self.codebook is not current.codebook:
                # a rebuilt vocabulary (compaction): match the codes by value
                position = {
                    value: code for code, value in enumerate(current.vocab.tolist())
                }
                codes = np.array(
                    [position.get(value, -1) for value in self.vocab[codes].tolist()],
                    dtype=np.int64,
                )
            differs = (new.indices[new_entries] != codes) | (
                new.data[new_entries] != old.data[old_entries]
            )
            same[check] = ~np.logical_or.reduceat(differs, np.cumsum(counts) - counts)
        return ~same

    def kd_entries(
        self, fact_rows: np.ndarray, owners: np.ndarray, anchor_rows: np.ndarray
    ) -> np.ndarray:
        """``KD(d_anchor, d_fact)`` of every (``fact_rows[owners[j]]``,
        ``anchor_rows[j]``) pair of matrix rows: ``Σ_u p_anchor(u)·S(fact, u)``
        with ``S(fact, u) = Σ_v p_fact(v)·K(u, v)`` — O(pairs × support),
        never an anchors × facts matrix.  Each sum runs over one row's
        entries in row order, so an entry's bits depend on its two rows alone.
        """
        indptr, indices, data = self.matrix.indptr, self.matrix.indices, self.matrix.data
        new_entries, new_lengths = _row_entries(indptr, fact_rows)
        entries, lengths = _row_entries(indptr, anchor_rows)
        # one kernel matrix between the codes the anchors use and the codes
        # the facts use
        new_codes, new_columns = np.unique(indices[new_entries], return_inverse=True)
        codes, columns = np.unique(indices[entries], return_inverse=True)
        kernel = self.target.kernel.cross_matrix(self.vocab[codes], self.vocab[new_codes])
        # S(fact, u) of each (fact, anchor code) pair that occurs, summed
        # over the fact's row
        pairs, pair_of_entry = np.unique(
            np.repeat(owners, lengths) * codes.size + columns, return_inverse=True
        )
        pair_facts, pair_codes = np.divmod(pairs, codes.size)
        fact_entries, spans = _row_entries(
            np.concatenate(([0], np.cumsum(new_lengths))), pair_facts
        )
        similarity = np.add.reduceat(
            data[new_entries[fact_entries]]
            * kernel[np.repeat(pair_codes, spans), new_columns[fact_entries]],
            np.cumsum(spans) - spans,
        )
        # every row reaches the target: no segment is empty
        return np.add.reduceat(
            data[entries] * similarity[pair_of_entry], np.cumsum(lengths) - lengths
        )


class ForwardDynamicExtender:
    """Extends a trained :class:`ForwardModel` to newly inserted facts.

    Parameters
    ----------
    model:
        The static-phase model (its ``φ``, ``ψ`` and walk targets are reused
        and never modified — stability by construction).
    db:
        The *current* database, i.e. the training database with the new
        facts (and their referenced facts) already inserted.
    recompute_old_paths:
        When true, destination distributions of *old* facts are recomputed on
        the current database (the paper's all-at-once setting); when false
        the training-time distributions are reused (the one-by-one setting,
        where recomputing for every arrival would be too slow).
    engine:
        An optional shared :class:`WalkEngine` compiled from ``db``; one is
        compiled lazily otherwise.  Call :meth:`notify_inserted` after
        inserting facts so the engine appends them incrementally.
    """

    def __init__(
        self,
        model: ForwardModel,
        db: Database,
        recompute_old_paths: bool = False,
        rng: int | np.random.Generator | None = None,
        engine: WalkEngine | None = None,
    ):
        self.model = model
        self.db = db
        self.recompute_old_paths = recompute_old_paths
        #: keys every anchor pick (see :func:`anchor_picks`); assign
        #: ``anchor_key(seed)`` to re-key
        self.key = anchor_key(rng)
        if engine is not None and engine.db is not db:
            raise ValueError("engine is compiled from a different database")
        self._engine = engine
        # target index -> (engine version, fact_id -> distribution or None):
        # the serial path's recomputed old-fact distributions
        self._old_cache: dict[
            int, tuple[int, dict[int, AttributeDistribution | None]]
        ] = {}
        # target index -> training-time distributions (static, cached once)
        self._trained_cache: dict[int, dict[int, AttributeDistribution | None]] = {}
        # the last extend_batch's per-target contexts, and per fact id
        # (targets reached, pseudo-inverse of its system)
        self._contexts: dict[int, _TargetContext] = {}
        self._operators: dict[int, tuple[int, np.ndarray]] = {}
        self._projections: np.ndarray | None = None

    @property
    def engine(self) -> WalkEngine:
        if self._engine is None:
            self._engine = WalkEngine(self.db)
        return self._engine

    @property
    def projections(self) -> np.ndarray:
        """``[t, row] = φ(row)·ψ(t)ᵀ``: every trained fact's equation row per
        walk target, computed once so its bits never depend on a batch."""
        if self._projections is None:
            self._projections = self.model.phi @ self.model.psi.transpose(0, 2, 1)
        return self._projections

    # ----------------------------------------------------------------- API

    def extend(self, new_facts: Iterable[Fact]) -> TupleEmbedding:
        """Embed every new fact of the model's relation; returns only the new vectors.

        Facts from other relations are ignored (FoRWaRD embeds the prediction
        relation only); facts that already have an embedding are skipped.
        The model is updated in place via :meth:`ForwardModel.add_extended`.
        """
        result = TupleEmbedding(self.model.dimension)
        for fact in new_facts:
            if fact.relation != self.model.relation or self.model.has_fact(fact):
                continue
            vector = self.embed_fact(fact)
            self.model.add_extended(fact, vector)
            result.set(fact, vector)
        return result

    def notify_inserted(self, facts: Iterable[Fact]) -> None:
        """Append facts inserted into ``db`` to the compiled engine.

        Call this between insertion steps so that distributions of *new*
        facts always see the current database.  The append is incremental —
        no arrays are recompiled — and version-keyed caches (including the
        recomputed old-fact distributions of the all-at-once setting)
        invalidate automatically.
        """
        self.engine.add_facts(facts)

    def notify_deleted(self, facts: Iterable[Fact]) -> None:
        """Tombstone facts deleted from ``db`` in the compiled engine.

        Deleted facts of the model's relation also lose their dynamically
        extended embedding (trained rows of ``φ`` are frozen and simply
        stop being candidates — their recomputed distributions are None).
        """
        facts = list(facts)
        self.engine.remove_facts(facts)
        for fact in facts:
            if fact.relation == self.model.relation:
                self.model.discard_extended(fact)

    def notify_updated(self, facts: Iterable[Fact]) -> None:
        """Re-encode updated facts (post-update values) in the compiled engine.

        Updated *streamed* facts of the model's relation lose their extended
        embedding so the next :meth:`extend`/:meth:`embed_fact` re-derives
        it from the new values; trained embeddings stay frozen.
        """
        facts = list(facts)
        self.engine.update_facts(facts)
        for fact in facts:
            if (
                fact.relation == self.model.relation
                and fact.fact_id not in self.model.fact_row
            ):
                self.model.discard_extended(fact)

    # ------------------------------------------------------------ internals

    def _old_distributions(self, target: WalkTarget) -> dict[int, AttributeDistribution | None]:
        """Training-time (or recomputed) distributions of all old facts."""
        if not self.recompute_old_paths:
            cached = self._trained_cache.get(target.index)
            if cached is None:
                cached = {
                    fact_id: self.model.distribution(fact_id, target.index)
                    for fact_id in self.model.fact_ids
                }
                self._trained_cache[target.index] = cached
            return cached
        engine = self.engine
        cached = self._old_cache.get(target.index)
        if cached is not None and cached[0] == engine.version:
            return cached[1]
        matrix, vocab = engine.attribute_matrix(target.scheme, target.attribute)
        compiled_rel = engine.compiled.relations[self.model.relation]
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        result: dict[int, AttributeDistribution | None] = {}
        for fact_id in self.model.fact_ids:
            row = compiled_rel.row_of.get(fact_id)
            if row is None:  # a trained fact deleted from the database
                result[fact_id] = None
                continue
            lo, hi = indptr[row], indptr[row + 1]
            if lo == hi:
                result[fact_id] = None
            else:
                result[fact_id] = AttributeDistribution(
                    target.scheme,
                    target.attribute,
                    tuple(vocab[indices[lo:hi]]),
                    data[lo:hi].copy(),
                )
        self._old_cache[target.index] = (engine.version, result)
        return result

    def embed_fact(self, fact: Fact) -> np.ndarray:
        """Compute ``φ(f_new)`` for one new fact (does not modify the model)."""
        engine = self.engine
        if not engine.compiled.has_fact(fact) or engine.compiled.num_facts != len(self.db):
            # insertions the caller did not pass to notify_inserted; catch up
            engine.refresh()
        rows: list[np.ndarray] = []
        rhs: list[np.ndarray] = []
        fact_ids = self.model.fact_ids
        targets = self.model.targets
        new_dists = engine.attribute_distributions(
            fact, [(target.scheme, target.attribute) for target in targets]
        )
        for target, new_dist in zip(targets, new_dists):
            if new_dist is None:
                continue
            old_dists = self._old_distributions(target)
            # deleted trained facts stop being regression anchors: in the
            # recompute setting their distribution is already None; the
            # one-by-one setting caches training-time distributions, so the
            # existence check is what drops them there
            candidates = np.array(
                [
                    row
                    for row, fid in enumerate(fact_ids)
                    if old_dists[fid] is not None
                    and fid in self.db._facts_by_id  # noqa: SLF001 - cheap membership
                ],
                dtype=np.intp,
            )
            if not candidates.size:
                continue
            picked = candidates[
                anchor_picks(
                    self.key,
                    [fact.fact_id],
                    target.index,
                    np.asarray(fact_ids)[candidates],
                    self.model.config.n_new_samples,
                )[0]
            ]
            rhs.append(
                _expected_kernels(
                    target.kernel, [old_dists[fact_ids[row]] for row in picked], new_dist
                )
            )
            rows.append(self.projections[target.index][picked])
        if not rows:
            # A fact with no completable walk to any kernelized attribute gives
            # an empty system; fall back to the centroid of the trained facts
            # so downstream consumers still receive a usable vector.
            return self.model.phi.mean(axis=0)
        return solve_least_squares(np.vstack(rows), np.concatenate(rhs))

    def extend_batch(self, facts: Sequence[Fact]) -> dict[int, np.ndarray]:
        """Embed many new facts through one fused batched pipeline.

        The all-at-once setting only (``recompute_old_paths``).  Semantically
        identical to calling :meth:`embed_fact` on every fact — both take each
        fact's anchors from :func:`anchor_picks` under :attr:`key` — but each
        walk target's old and new distributions are rows of one attribute
        matrix and its right-hand sides are computed in one pass with one
        kernel evaluation (see :meth:`_TargetContext.kd_entries`).  No
        per-fact engine query, distribution object or BFS is made.  Returns
        ``fact_id -> φ(f_new)``; the model is not modified.

        Only what moved since the previous call is re-derived.  Per walk
        target the rows the last batch read are compared bit for bit, and a
        right-hand-side entry ``KD(d_anchor, d_fact)`` is recomputed only when
        the fact's row moved, the anchor's row moved, or the anchor is newly
        picked; when the target's matrix only gained rows, the facts the last
        batch recorded keep their picks and entries without a diff.  Per
        fact, the :func:`~repro.utils.linalg.pseudo_inverse` of its system
        (rows of the frozen :attr:`projections`) is kept while its picks are
        unchanged and applied to its stacked right-hand sides.  Equal inputs
        give equal bits, so the reuse is exact: a batch that moves nothing
        computes no entry, factors no system and returns the previous
        vectors bit for bit.

        The three stages are instrumented as ``service.embed.prepare`` /
        ``service.embed.assemble`` / ``service.embed.solve`` when the
        engine's telemetry bundle is enabled, with the counters
        ``core.extend.rhs.{computed,reused}`` and
        ``core.extend.systems.{factored,reused}``.
        """
        if not self.recompute_old_paths:
            raise ValueError(
                "extend_batch embeds against recomputed old-fact distributions; "
                "construct the extender with recompute_old_paths=True"
            )
        facts = list(facts)
        if not facts:
            return {}
        engine = self.engine
        compiled = engine.compiled
        if compiled.num_facts != len(self.db) or not all(
            compiled.has_fact(fact) for fact in facts
        ):
            # insertions the caller did not pass to notify_inserted; catch up
            engine.refresh()
        telemetry = engine.telemetry
        metrics = telemetry.metrics
        fact_ids = np.fromiter((fact.fact_id for fact in facts), np.int64, len(facts))
        trained_ids = np.asarray(self.model.fact_ids, dtype=np.int64)
        with telemetry.stage("service.embed.prepare"):
            row_of = compiled.relations[self.model.relation].row_of
            new_rows = np.fromiter(
                (row_of[fact.fact_id] for fact in facts), dtype=np.intp, count=len(facts)
            )
            # compiled row of every trained fact (φ row order); -1 once deleted
            trained_rows = np.fromiter(
                (row_of.get(fact_id, -1) for fact_id in self.model.fact_ids),
                dtype=np.intp,
                count=trained_ids.size,
            )
            contexts = self._batch_contexts(new_rows, trained_rows)
        with telemetry.stage("service.embed.assemble"):
            # per target: (target index, batch positions, anchor φ rows, rhs)
            blocks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
            reached = np.zeros(len(facts), dtype=np.intp)
            stale = np.zeros(len(facts), dtype=bool)
            computed = 0
            for context in contexts:
                t_index, positions = context.target.index, context.positions
                anchors, rhs, repicked, n_computed = self._assemble(
                    context,
                    self._contexts.get(t_index),
                    fact_ids[positions],
                    new_rows[positions],
                    trained_ids,
                    trained_rows,
                )
                computed += n_computed
                stale[positions] |= repicked
                reached[positions] += 1
                blocks.append((t_index, positions, anchors, rhs))
            metrics.counter("core.extend.rhs.computed").inc(computed)
            metrics.counter("core.extend.rhs.reused").inc(
                sum(block[2].size for block in blocks) - computed
            )
        with telemetry.stage("service.embed.solve"):
            previous = self._operators
            operators: dict[int, tuple[int, np.ndarray]] = {}
            factor = np.zeros(len(facts), dtype=bool)
            for i, fact_id in enumerate(fact_ids.tolist()):
                cached = previous.get(fact_id)
                if not reached[i]:
                    continue
                if stale[i] or cached is None or cached[0] != reached[i]:
                    factor[i] = True
                else:
                    operators[fact_id] = cached
            n_trained = trained_ids.size
            systems = _by_fact(
                [
                    (positions, t_index * n_trained + anchors)
                    for t_index, positions, anchors, _ in blocks
                ],
                factor,
            )
            flat = self.projections.reshape(-1, self.model.dimension)
            for i, system in zip(np.flatnonzero(factor), systems):
                operators[int(fact_ids[i])] = (int(reached[i]), pseudo_inverse(flat[system]))
            metrics.counter("core.extend.systems.factored").inc(int(factor.sum()))
            metrics.counter("core.extend.systems.reused").inc(len(operators) - int(factor.sum()))
            # a fact with no completable walk to any kernelized attribute
            # falls back to the trained centroid, exactly like embed_fact
            solutions = np.tile(self.model.phi.mean(axis=0), (len(facts), 1))
            solved = reached > 0
            stacked = _by_fact([(positions, rhs) for _, positions, _, rhs in blocks], solved)
            for i, rhs in zip(np.flatnonzero(solved), stacked):
                solutions[i] = operators[int(fact_ids[i])][1] @ rhs
        self._contexts = {context.target.index: context for context in contexts}
        self._operators = operators
        return dict(zip(fact_ids.tolist(), solutions))

    def _assemble(
        self,
        context: _TargetContext,
        previous: _TargetContext | None,
        ids: np.ndarray,
        rows: np.ndarray,
        trained_ids: np.ndarray,
        trained_rows: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """One target's anchor φ rows and right-hand sides for the facts
        ``ids`` (matrix ``rows``), with whether their picks changed and how
        many entries were computed; records the batch on ``context``.

        An entry of ``previous`` is reused unless the fact's row moved, the
        anchor's row moved or the anchor is newly picked.  When ``previous``
        :meth:`~_TargetContext.carries_to` ``context``, its facts at unchanged
        rows keep their picks and entries and only the others are drawn.
        """
        n_trained = trained_ids.size
        candidates = context.candidates
        count = self.model.config.n_new_samples
        context.key = self.key
        # facts whose picks are drawn and whose entries are diffed; the others
        # carry their picks and entries over from ``previous`` unchanged
        fresh = np.ones(ids.size, dtype=bool)
        if previous is not None:
            pos = np.minimum(np.searchsorted(previous.fact_ids, ids), previous.fact_ids.size - 1)
            recorded = previous.fact_ids[pos] == ids
            if previous.carries_to(context):
                fresh = ~recorded
        anchors = np.empty((ids.size, min(count, candidates.size)), dtype=np.intp)
        anchors[fresh] = candidates[
            anchor_picks(
                self.key, ids[fresh], context.target.index, trained_ids[candidates], count
            )
        ]
        rhs = np.empty(anchors.shape)
        todo = np.repeat(fresh[:, None], anchors.shape[1], axis=1)
        repicked = fresh.copy()
        if not fresh.all():
            anchors[~fresh] = previous.anchors[pos[~fresh]]
            rhs[~fresh] = previous.rhs[pos[~fresh]]
        picked = np.flatnonzero(np.bincount(anchors.ravel(), minlength=n_trained))
        if previous is not None and fresh.all():
            if previous.anchors.shape[1] == anchors.shape[1]:
                repicked = ~recorded | (previous.anchors[pos] != anchors).any(axis=1)
            slot = np.minimum(np.searchsorted(previous.picked, picked), previous.picked.size - 1)
            moved = previous.moved(
                np.concatenate((recorded, previous.picked[slot] == picked)),
                np.concatenate((previous.fact_rows[pos], previous.picked_rows[slot])),
                np.concatenate((rows, trained_rows[picked])),
                context,
            )
            anchor_moved = np.zeros(n_trained, dtype=bool)
            anchor_moved[picked] = moved[ids.size :]
            # (recorded fact, anchor) pairs, ascending by construction
            pairs = (
                np.arange(previous.fact_ids.size)[:, None] * n_trained + previous.anchors
            ).ravel()
            wanted = pos[:, None] * n_trained + anchors
            slots = np.minimum(np.searchsorted(pairs, wanted), pairs.size - 1)
            todo = (
                ~recorded[:, None]
                | (pairs[slots] != wanted)
                | moved[: ids.size, None]
                | anchor_moved[anchors]
            )
            rhs[~todo] = previous.rhs.ravel()[slots[~todo]]
        if todo.any():
            pending = np.flatnonzero(todo.any(axis=1))
            rhs[todo] = context.kd_entries(
                rows[pending],
                np.repeat(np.arange(pending.size), todo[pending].sum(axis=1)),
                trained_rows[anchors[todo]],
            )
        order = np.argsort(ids)
        context.fact_ids, context.fact_rows = ids[order], rows[order]
        context.anchors, context.rhs = anchors[order], rhs[order]
        context.picked, context.picked_rows = picked, trained_rows[picked]
        return anchors, rhs, repicked, int(todo.sum())

    def _batch_contexts(
        self, new_rows: np.ndarray, trained_rows: np.ndarray
    ) -> list[_TargetContext]:
        """One :class:`_TargetContext` per walk target that is not inert.

        A target is inert when no fact of the batch reaches it or no trained
        fact survives as its anchor: :meth:`embed_fact` would skip it for
        every fact.
        """
        alive = np.flatnonzero(trained_rows >= 0)
        relations = self.engine.compiled.relations
        contexts: list[_TargetContext] = []
        for target in self.model.targets:
            matrix, vocab = self.engine.attribute_matrix(target.scheme, target.attribute)
            codebook = relations[target.scheme.end_relation].columns[target.attribute].vocab
            indptr = matrix.indptr
            candidates = alive[
                indptr[trained_rows[alive] + 1] > indptr[trained_rows[alive]]
            ]
            positions = np.flatnonzero(indptr[new_rows + 1] > indptr[new_rows])
            if candidates.size and positions.size:
                contexts.append(
                    _TargetContext(target, matrix, vocab, codebook, candidates, positions)
                )
        return contexts


def _by_fact(
    blocks: list[tuple[np.ndarray, np.ndarray]], wanted: np.ndarray
) -> list[np.ndarray]:
    """Per ``wanted`` batch position, in position order, the rows of every
    (positions, values) block that belong to it, block after block: the
    order of a fact's equations in :meth:`ForwardDynamicExtender.embed_fact`."""
    if not wanted.any():
        return []
    owners, values = [], []
    for positions, block in blocks:
        keep = wanted[positions]
        owners.append(np.repeat(positions[keep], block.shape[1]))
        values.append(block[keep].ravel())
    owners = np.concatenate(owners)
    values = np.concatenate(values)[np.argsort(owners, kind="stable")]
    counts = np.bincount(owners, minlength=wanted.size)[wanted]
    return np.split(values, np.cumsum(counts)[:-1])


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the given CSR rows' entries, row after row, and row lengths."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum()), lengths


def _expected_kernels(
    kernel: Kernel,
    old_dists: Sequence[AttributeDistribution],
    new_dist: AttributeDistribution,
) -> np.ndarray:
    """``KD(d_old, d_new)`` for many old distributions against one new one.

    Equivalent to per-pair :meth:`Kernel.expected_similarity`, but the kernel
    matrix against the new support is evaluated once over the union of old
    supports (old distributions share their vocabularies almost entirely), so
    the cost is ``|union| · |new|`` instead of ``Σ_i |old_i| · |new|``.
    """
    index: dict[Any, int] = {}
    for dist in old_dists:
        for value in dist.values:
            if value not in index:
                index[value] = len(index)
    union = list(index)
    new_probs = np.asarray(new_dist.probabilities, dtype=np.float64)
    similarity_to_new = kernel.cross_matrix(union, list(new_dist.values)) @ new_probs
    out = np.empty(len(old_dists), dtype=np.float64)
    for i, dist in enumerate(old_dists):
        positions = [index[value] for value in dist.values]
        out[i] = float(
            np.asarray(dist.probabilities, dtype=np.float64) @ similarity_to_new[positions]
        )
    return out
