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

Both of the paper's settings run one pipeline,
:meth:`ForwardDynamicExtender.extend_batch`.  A new fact's distribution
for a walk target is its row of the engine's current attribute matrix.  An
anchor's is a row of the current matrix too in the all-at-once setting
(``recompute_old_paths``), and a row of the model's training-time matrix
(:attr:`ForwardModel.training_matrices`) in the one-by-one setting.  Only
the right-hand-side entries and solve operators whose inputs moved since
the previous batch are re-derived: the engine names the matrix rows that
moved (:meth:`~repro.engine.WalkEngine.attribute_views`), and no row of a
training-time matrix ever moves.  :meth:`ForwardDynamicExtender.embed_fact`
is the serial oracle over the same rows.
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
from repro.engine.engine import row_entries
from repro.kernels.base import Kernel
from repro.utils.linalg import pseudo_inverse, solve_least_squares
from repro.utils.rng import ensure_rng


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


#: Record keys are ``target index · KEY_SPAN + fact id``; fact ids stay below it.
KEY_SPAN = 1 << 40


@dataclass(eq=False)
class _TargetContext:
    """One walk target's share of an extension batch.

    ``matrix``/``vocab``: the target's current attribute matrix and
    vocabulary, which the batch's facts are read from; ``moved``: the matrix
    rows that moved since the previous batch (a boolean mask, None when
    every row may have), from :meth:`WalkEngine.attribute_views`.  The
    ``anchor_*`` fields are the side the anchors are read from (see
    :meth:`ForwardDynamicExtender._anchor_side`): its matrix, vocabulary,
    the row of every φ row in it (-1 once the fact is deleted) and its moved
    rows.  ``candidates``: φ rows of the trained facts alive and reaching
    the target on the anchor side, ascending; ``positions``: batch positions
    of the facts reaching it.  Assembly records the picks' ``key`` and the
    target's right-hand sides (``rhs``, one row per fact of ``positions``).
    """

    target: WalkTarget
    matrix: sparse.csr_matrix
    vocab: np.ndarray
    moved: np.ndarray | None
    anchor_matrix: sparse.csr_matrix
    anchor_vocab: np.ndarray
    anchor_rows: np.ndarray
    anchor_moved: np.ndarray | None
    candidates: np.ndarray
    positions: np.ndarray
    key: int = 0
    rhs: np.ndarray | None = None

    def kd_entries(
        self, fact_rows: np.ndarray, owners: np.ndarray, anchor_rows: np.ndarray
    ) -> np.ndarray:
        """``KD(d_anchor, d_fact)`` of every (``fact_rows[owners[j]]``,
        ``anchor_rows[j]``) pair of rows of :attr:`matrix` and
        :attr:`anchor_matrix`: ``Σ_u p_anchor(u)·S(fact, u)`` with
        ``S(fact, u) = Σ_v p_fact(v)·K(u, v)``, term by term —
        O(Σ |anchor row| · |fact row|), never an anchors × facts matrix.
        Each sum runs over one row's entries in row order, so an entry's
        bits depend on its two rows alone.
        """
        anchor, fact = self.anchor_matrix, self.matrix
        entries, lengths = row_entries(anchor.indptr, anchor_rows)
        # every (anchor entry u, fact entry v) term, fact entries in row order
        terms, spans = row_entries(fact.indptr, np.repeat(fact_rows[owners], lengths))
        # the kernel only at the (anchor code, fact code) pairs that occur,
        # each evaluated once
        n_codes = self.vocab.size
        used, kernel_of = np.unique(
            np.repeat(anchor.indices[entries], spans) * n_codes + fact.indices[terms],
            return_inverse=True,
        )
        kernel = self.target.kernel.elementwise(
            self.anchor_vocab[used // n_codes], self.vocab[used % n_codes]
        )
        # every row reaches the target: no segment is empty
        similarity = np.add.reduceat(
            fact.data[terms] * kernel[kernel_of], np.cumsum(spans) - spans
        )
        return np.add.reduceat(anchor.data[entries] * similarity, np.cumsum(lengths) - lengths)


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
        When true, attribute distributions of *old* facts are recomputed on
        the current database (the paper's all-at-once setting); when false
        they are rows of the model's training-time attribute matrices (the
        one-by-one setting, where the paper does not recompute walks from
        old facts).
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
        # the last extend_batch's per-target contexts, and per fact id
        # (targets reached, pseudo-inverse of its system)
        self._contexts: dict[int, _TargetContext] = {}
        self._position: int | None = None  # the journal position they read
        # per (target, fact) record, sorted by key (target index · KEY_SPAN
        # + fact id): the anchor φ rows, ascending and padded with the
        # trained count, and their right-hand sides
        self._records: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
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
        relation only); facts that already have an embedding are skipped,
        and a fact given twice is embedded once.  One :meth:`extend_batch`
        call embeds the rest, and the model is updated in place via
        :meth:`ForwardModel.add_extended`.
        """
        facts: dict[int, Fact] = {}
        for fact in new_facts:
            if fact.relation == self.model.relation and not self.model.has_fact(fact):
                facts.setdefault(fact.fact_id, fact)
        result = TupleEmbedding(self.model.dimension)
        for fact_id, vector in self.extend_batch(list(facts.values())).items():
            self.model.add_extended(fact_id, vector)
            result.set(facts[fact_id], vector)
        return result

    def notify_inserted(self, facts: Iterable[Fact]) -> None:
        """Append facts inserted into ``db`` to the compiled engine.

        Call this between insertion steps so that distributions of *new*
        facts always see the current database.  The append is incremental —
        no arrays are recompiled — and the engine's matrices re-derive the
        rows it moves.
        """
        self.engine.add_facts(facts)

    def notify_deleted(self, facts: Iterable[Fact]) -> None:
        """Tombstone facts deleted from ``db`` in the compiled engine.

        Deleted facts of the model's relation also lose their dynamically
        extended embedding (trained rows of ``φ`` are frozen and simply
        stop being anchor candidates).
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

    def _anchor_side(
        self,
        target: WalkTarget,
        matrix: sparse.csr_matrix,
        vocab: np.ndarray,
        moved: np.ndarray | None,
        trained_rows: np.ndarray,
    ) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray, np.ndarray | None]:
        """Where a target's anchor distributions are read from: ``(matrix,
        vocabulary, row of every φ row, moved rows)``.

        In the all-at-once setting that is the current ``matrix`` with its
        ``moved`` rows, at the compiled rows ``trained_rows`` (-1 once
        deleted).  In the one-by-one setting it is the model's training-time
        matrix, at the φ rows of the facts still alive, and no row moves.
        """
        if self.recompute_old_paths:
            return matrix, vocab, trained_rows, moved
        if not self.model.training_matrices:
            raise ValueError(
                "the one-by-one setting reads the model's training-time attribute "
                "matrices, which are not persisted; extend a model loaded from disk "
                "with recompute_old_paths=True"
            )
        frozen, frozen_vocab = self.model.training_matrices[target.index]
        rows = np.where(trained_rows >= 0, np.arange(trained_rows.size), -1)
        return frozen, frozen_vocab, rows, np.zeros(frozen.shape[0], dtype=bool)

    def _trained_rows(self) -> np.ndarray:
        """The compiled row of every trained fact, in φ row order; -1 once deleted."""
        row_of = self.engine.compiled.relations[self.model.relation].row_of
        return np.fromiter(
            (row_of.get(fact_id, -1) for fact_id in self.model.fact_ids),
            dtype=np.intp,
            count=len(self.model.fact_ids),
        )

    def embed_fact(self, fact: Fact) -> np.ndarray:
        """Compute ``φ(f_new)`` for one new fact (does not modify the model).

        The serial oracle of :meth:`extend_batch`, in both settings: per walk
        target the fact's distribution is its row of the current attribute
        matrix and each anchor's is its row on the anchor side
        (:meth:`_anchor_side`); the expected kernels come from
        :func:`_expected_kernels` and the system is solved by least squares.
        """
        engine = self.engine
        if not engine.compiled.has_fact(fact) or engine.compiled.num_facts != len(self.db):
            # insertions the caller did not pass to notify_inserted; catch up
            engine.refresh()
        row = engine.compiled.relations[self.model.relation].row_of[fact.fact_id]
        trained_rows = self._trained_rows()
        fact_ids = np.asarray(self.model.fact_ids, dtype=np.int64)
        rows: list[np.ndarray] = []
        rhs: list[np.ndarray] = []
        for target in self.model.targets:
            matrix, vocab = engine.attribute_matrix(target.scheme, target.attribute)
            new_dist = _distribution(matrix, vocab, row)
            if new_dist is None:
                continue
            anchor, anchor_vocab, anchor_rows, _moved = self._anchor_side(
                target, matrix, vocab, None, trained_rows
            )
            # deleted trained facts and those with no distribution are no anchors
            reaching = np.diff(anchor.indptr) > 0
            candidates = np.flatnonzero((anchor_rows >= 0) & reaching[anchor_rows])
            if not candidates.size:
                continue
            picked = candidates[
                anchor_picks(
                    self.key,
                    [fact.fact_id],
                    target.index,
                    fact_ids[candidates],
                    self.model.config.n_new_samples,
                )[0]
            ]
            old_dists = [_distribution(anchor, anchor_vocab, anchor_rows[p]) for p in picked]
            rhs.append(_expected_kernels(target.kernel, old_dists, new_dist))
            rows.append(self.projections[target.index][picked])
        if not rows:
            # A fact with no completable walk to any kernelized attribute gives
            # an empty system; fall back to the centroid of the trained facts
            # so downstream consumers still receive a usable vector.
            return self.model.phi.mean(axis=0)
        return solve_least_squares(np.vstack(rows), np.concatenate(rhs))

    def extend_batch(self, facts: Sequence[Fact]) -> dict[int, np.ndarray]:
        """Embed many new facts through one fused batched pipeline.

        Both settings: the anchors' distributions are rows of the current
        attribute matrices under ``recompute_old_paths`` and of the model's
        training-time matrices otherwise (:meth:`_anchor_side`).
        Semantically identical to calling :meth:`embed_fact` on every fact —
        both take each fact's anchors from :func:`anchor_picks` under
        :attr:`key` — but each walk target's right-hand sides are computed
        from matrix rows in one pass that evaluates the kernel only where it
        is used (see :meth:`_TargetContext.kd_entries`).  No per-fact engine
        query, distribution object or BFS is made.  Returns
        ``fact_id -> φ(f_new)``; the model is not modified.

        Only what moved since the previous call is re-derived.  Per walk
        target the engine hands over, with the matrix, the rows that moved
        since the journal position the previous call read
        (:meth:`~repro.engine.WalkEngine.attribute_views`); every other row
        holds the same entries in the same order, by value, and no row of a
        training-time matrix moves.  A fact keeps
        its recorded picks while the key and the candidate set are
        unchanged, and a right-hand-side entry ``KD(d_anchor, d_fact)`` is
        recomputed only when the fact's row or the anchor's row moved, or
        the anchor is newly picked.  Per
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
            position = compiled.position
            contexts = self._batch_contexts(new_rows, self._trained_rows(), self._position)
        with telemetry.stage("service.embed.assemble"):
            positions, t_index, anchors, rhs, repicked, computed = self._assemble(
                contexts, fact_ids, new_rows, trained_ids
            )
            valid = anchors < trained_ids.size
            metrics.counter("core.extend.rhs.computed").inc(computed)
            metrics.counter("core.extend.rhs.reused").inc(int(valid.sum()) - computed)
        with telemetry.stage("service.embed.solve"):
            reached = np.bincount(positions, minlength=len(facts))
            stale = np.zeros(len(facts), dtype=bool)
            stale[positions[repicked]] = True
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
            # every fact's equations, target after target with anchors
            # ascending: the order of embed_fact's system (records are
            # target-major, and a stable sort keeps that per fact)
            counts = np.bincount(positions, valid.sum(axis=1), len(facts)).astype(np.int64)
            bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
            order = np.argsort(positions, kind="stable")
            valid = valid[order]
            targets = np.broadcast_to(t_index[order][:, None], valid.shape)[valid]
            anchors, rhs = anchors[order][valid], rhs[order][valid]
            for i in np.flatnonzero(factor).tolist():
                system = slice(bounds[i], bounds[i + 1])
                operators[int(fact_ids[i])] = (
                    int(reached[i]),
                    pseudo_inverse(self.projections[targets[system], anchors[system]]),
                )
            metrics.counter("core.extend.systems.factored").inc(int(factor.sum()))
            metrics.counter("core.extend.systems.reused").inc(len(operators) - int(factor.sum()))
            # a fact with no completable walk to any kernelized attribute
            # falls back to the trained centroid, exactly like embed_fact
            solutions = np.tile(self.model.phi.mean(axis=0), (len(facts), 1))
            for i in np.flatnonzero(reached).tolist():
                solutions[i] = operators[int(fact_ids[i])][1] @ rhs[bounds[i] : bounds[i + 1]]
        self._contexts = {context.target.index: context for context in contexts}
        self._position = position
        self._operators = operators
        return dict(zip(fact_ids.tolist(), solutions))

    def _assemble(
        self,
        contexts: list[_TargetContext],
        fact_ids: np.ndarray,
        new_rows: np.ndarray,
        trained_ids: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Every target's anchors and right-hand sides, one record per
        (target, fact reaching it), target after target.

        Returns the records' batch positions and target indexes; their
        anchor φ rows, ascending (slots past a target's anchor count hold
        ``n_trained``); the right-hand sides; whether a record's picks
        changed; and how many entries were computed.  A fact the previous
        call recorded keeps its picks while the key and the target's
        candidate set are unchanged, whatever rows moved: the picks are a
        function of those alone.  A recorded entry is reused unless the
        fact's row or the anchor's row is among the target's moved rows, or
        the anchor is newly picked.
        """
        n_trained = trained_ids.size
        pad = n_trained  # an empty anchor slot: sorts after every φ row
        count = self.model.config.n_new_samples
        sizes = [context.positions.size for context in contexts]
        blocks = np.cumsum([0, *sizes]).tolist()
        positions = np.concatenate(
            [np.zeros(0, dtype=np.intp), *(context.positions for context in contexts)]
        )
        t_index = np.repeat(
            np.array([context.target.index for context in contexts], dtype=np.int64), sizes
        )
        ids, rows = fact_ids[positions], new_rows[positions]
        keys = t_index * KEY_SPAN + ids
        anchors = np.full((positions.size, count), pad, dtype=np.intp)
        rhs = np.zeros(anchors.shape)
        recorded = np.zeros(positions.size, dtype=bool)
        keep = np.zeros(positions.size, dtype=bool)
        if self._records is not None:
            old_keys, old_anchors, old_rhs = self._records
            pos = np.minimum(np.searchsorted(old_keys, keys), old_keys.size - 1)
            recorded = old_keys[pos] == keys
            for context, lo, hi in zip(contexts, blocks, blocks[1:]):
                before = self._contexts.get(context.target.index)
                keep[lo:hi] = (
                    before is not None
                    and before.key == self.key
                    and np.array_equal(before.candidates, context.candidates)
                )
            keep &= recorded
            anchors[keep] = old_anchors[pos[keep]]
        for context, lo, hi in zip(contexts, blocks, blocks[1:]):
            context.key = self.key
            draw = lo + np.flatnonzero(~keep[lo:hi])
            if draw.size:
                picks = anchor_picks(
                    self.key, ids[draw], context.target.index,
                    trained_ids[context.candidates], count,
                )
                anchors[draw, : picks.shape[1]] = context.candidates[picks]
        repicked = ~keep
        todo = anchors < pad
        if self._records is not None and recorded.any():
            same = old_anchors[pos] == anchors
            repicked &= ~recorded | ~same.all(axis=1)
            # a recorded entry sits in the same slot while the picks hold; a
            # redrawn fact's anchors are looked up among its recorded pairs,
            # which are ascending by construction
            slots = pos[:, None] * count + np.arange(count)
            found = recorded[:, None] & same
            redrawn = np.flatnonzero(recorded & ~keep)
            if redrawn.size:
                pairs = (np.arange(old_keys.size)[:, None] * (pad + 1) + old_anchors).ravel()
                wanted = pos[redrawn, None] * (pad + 1) + anchors[redrawn]
                at = np.minimum(np.searchsorted(pairs, wanted), pairs.size - 1)
                slots[redrawn], found[redrawn] = at, pairs[at] == wanted
            # the moved rows of every target: all targets start at the
            # model's relation; an anchor's are looked up by φ row
            moved = np.stack([_mask(context.moved, context.matrix) for context in contexts])
            anchor_moved = np.stack([
                np.append(
                    _mask(context.anchor_moved, context.anchor_matrix)[context.anchor_rows],
                    False,
                )
                for context in contexts
            ])
            target_of = np.repeat(np.arange(len(contexts)), sizes)
            reuse = (
                todo
                & found
                & ~moved[target_of, rows][:, None]
                & ~anchor_moved[target_of[:, None], anchors]
            )
            rhs[reuse] = old_rhs.ravel()[slots[reuse]]
            todo &= ~reuse
        for context, lo, hi in zip(contexts, blocks, blocks[1:]):
            block = todo[lo:hi]
            pending = np.flatnonzero(block.any(axis=1))
            if pending.size:
                rhs[lo:hi][block] = context.kd_entries(
                    rows[lo + pending],
                    np.repeat(np.arange(pending.size), block[pending].sum(axis=1)),
                    context.anchor_rows[anchors[lo:hi][block]],
                )
            context.rhs = rhs[lo:hi, : min(count, context.candidates.size)]
        order = np.argsort(keys)
        self._records = (keys[order], anchors[order], rhs[order])
        return positions, t_index, anchors, rhs, repicked, int(todo.sum())

    def _batch_contexts(
        self, new_rows: np.ndarray, trained_rows: np.ndarray, since: int | None
    ) -> list[_TargetContext]:
        """One :class:`_TargetContext` per walk target that is not inert,
        with the rows moved since journal position ``since``.

        A target is inert when no fact of the batch reaches it or no trained
        fact survives as its anchor: :meth:`embed_fact` would skip it for
        every fact.
        """
        contexts: list[_TargetContext] = []
        targets = self.model.targets
        views = self.engine.attribute_views(
            [(target.scheme, target.attribute) for target in targets], since
        )
        for target, (matrix, vocab, moved) in zip(targets, views):
            anchor = self._anchor_side(target, matrix, vocab, moved, trained_rows)
            anchor_indptr, anchor_rows = anchor[0].indptr, anchor[2]
            alive = np.flatnonzero(anchor_rows >= 0)
            candidates = alive[
                anchor_indptr[anchor_rows[alive] + 1] > anchor_indptr[anchor_rows[alive]]
            ]
            positions = np.flatnonzero(matrix.indptr[new_rows + 1] > matrix.indptr[new_rows])
            if candidates.size and positions.size:
                contexts.append(
                    _TargetContext(target, matrix, vocab, moved, *anchor, candidates, positions)
                )
        return contexts


def _mask(moved: np.ndarray | None, matrix: sparse.csr_matrix) -> np.ndarray:
    """A moved-rows mask over ``matrix``'s rows; None means every row."""
    return np.ones(matrix.shape[0], dtype=bool) if moved is None else moved


#: One attribute distribution: ``(values, probabilities)``.
Distribution = tuple[np.ndarray, np.ndarray]


def _distribution(matrix: sparse.csr_matrix, vocab: np.ndarray, row: int) -> Distribution | None:
    """Row ``row`` of an attribute matrix as values and probabilities; None if empty."""
    lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
    if lo == hi:
        return None
    return vocab[matrix.indices[lo:hi]], matrix.data[lo:hi]


def _expected_kernels(
    kernel: Kernel,
    old_dists: Sequence[Distribution],
    new_dist: Distribution,
) -> np.ndarray:
    """``KD(d_old, d_new)`` for many old distributions against one new one.

    Equivalent to per-pair :meth:`Kernel.expected_similarity`, but the kernel
    matrix against the new support is evaluated once over the union of old
    supports (old distributions share their vocabularies almost entirely), so
    the cost is ``|union| · |new|`` instead of ``Σ_i |old_i| · |new|``.
    """
    index: dict[Any, int] = {}
    for values, _probabilities in old_dists:
        for value in values:
            if value not in index:
                index[value] = len(index)
    union = list(index)
    new_values, new_probs = new_dist
    similarity_to_new = kernel.cross_matrix(union, list(new_values)) @ new_probs
    out = np.empty(len(old_dists), dtype=np.float64)
    for i, (values, probabilities) in enumerate(old_dists):
        positions = [index[value] for value in values]
        out[i] = float(probabilities @ similarity_to_new[positions])
    return out
