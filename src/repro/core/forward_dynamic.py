"""The FoRWaRD algorithm — dynamic phase (Section V-E of the paper).

A newly inserted ``R``-fact ``f_new`` is embedded without touching the
existing embeddings by solving the over-determined linear system of
Equation (9): each sampled triple ``(f_old, s, A)`` contributes one equation

    φ(f_new)ᵀ · ψ(s, A) · φ(f_old) = KD(d_{s,f_old}[A], d_{s,f_new}[A]),

i.e. a row ``C_i = ψ(s, A)·φ(f_old)`` and right-hand side ``b_i``; the
minimum-norm least-squares solution (Equation (10)) is ``φ(f_new)``.

Distributions are computed by the compiled walk engine.  The one-by-one
path (:meth:`ForwardDynamicExtender.embed_fact`) queries a single fact's
rows; the all-at-once batch (:meth:`ForwardDynamicExtender.extend_batch`,
``recompute_old_paths``) slices every old and new fact's distribution for a
walk target out of the engine's attribute matrix and computes every
right-hand side of the batch in one sparse gather per target.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.core.base import TupleEmbedding
from repro.core.forward import ForwardModel, WalkTarget
from repro.db.database import Database, Fact
from repro.engine import WalkEngine
from repro.kernels.base import Kernel
from repro.utils.linalg import solve_least_squares
from repro.utils.rng import ensure_rng
from repro.walks.random_walks import AttributeDistribution


class _TargetContext:
    """One walk target's share of an extension batch: rows of its attribute
    matrix.

    ``matrix``/``vocab`` are the engine's attribute matrix of the target and
    its value vocabulary.  ``anchor_rows`` are the matrix rows of the
    candidate anchors — the trained facts that are alive and reach the
    target, in ``model.fact_ids`` order — and ``proj`` their projection rows
    ``φ(f_old)·ψᵀ``.  ``new_rows`` are the batch facts' rows; ``reaches``
    flags the non-empty ones (the facts with a distribution).
    """

    __slots__ = ("target", "matrix", "vocab", "anchor_rows", "proj", "new_rows", "reaches")

    def __init__(
        self,
        target: WalkTarget,
        matrix: "sparse.csr_matrix",
        vocab: np.ndarray,
        anchor_rows: np.ndarray,
        proj: np.ndarray,
        new_rows: np.ndarray,
        reaches: np.ndarray,
    ):
        self.target = target
        self.matrix = matrix
        self.vocab = vocab
        self.anchor_rows = anchor_rows
        self.proj = proj
        self.new_rows = new_rows
        self.reaches = reaches

    @property
    def n_candidates(self) -> int:
        return self.anchor_rows.size

    def rhs_blocks(
        self, requests: Sequence[tuple[int, np.ndarray]]
    ) -> list[np.ndarray]:
        """``KD(d_old, d_new)`` of every requested (fact index, picked anchors).

        One pass for the whole batch: one kernel evaluation between the codes
        the picked anchors use and the codes the requesting facts use, each
        fact's similarity row ``S[fact, u] = Σ_v p_new(v)·K(u, v)``, then
        every picked anchor's expectation ``Σ_u p_old(u)·S[fact, u]``
        gathered from its matrix row — O(picks × support), never an anchors
        × facts matrix.  Each sum runs over one row's entries in row order,
        so a right-hand side does not depend on what else the batch requests.
        """
        counts = [len(picked) for _, picked in requests]
        indptr, indices, data = self.matrix.indptr, self.matrix.indices, self.matrix.data
        new_entries, new_lengths = _row_entries(
            indptr, self.new_rows[[i for i, _ in requests]]
        )
        new_codes, new_columns = np.unique(indices[new_entries], return_inverse=True)
        entries, lengths = _row_entries(
            indptr, self.anchor_rows[np.concatenate([picked for _, picked in requests])]
        )
        anchor_codes, anchor_columns = np.unique(indices[entries], return_inverse=True)
        kernel = self.target.kernel.cross_matrix(
            self.vocab[anchor_codes], self.vocab[new_codes]
        )
        p_new = sparse.csr_matrix(
            (data[new_entries], new_columns, np.concatenate(([0], np.cumsum(new_lengths)))),
            shape=(len(requests), new_codes.size),
        )
        similarity = p_new @ kernel.T
        owners = np.repeat(np.repeat(np.arange(len(requests)), counts), lengths)
        terms = data[entries] * similarity[owners, anchor_columns]
        # every picked anchor reaches the target: no segment is empty
        values = np.add.reduceat(terms, np.cumsum(lengths) - lengths)
        bounds = np.cumsum(counts).tolist()
        return [values[lo:hi] for lo, hi in zip([0, *bounds], bounds)]


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
        self.rng = ensure_rng(rng)
        if engine is not None and engine.db is not db:
            raise ValueError("engine is compiled from a different database")
        self._engine = engine
        # target index -> (attribute struct signature, fact_id -> distribution
        # or None): the serial path's recomputed old-fact distributions, keyed
        # structurally so pure insertions — which only append attribute-matrix
        # rows — keep them cached
        self._old_cache: dict[
            int, tuple[tuple, dict[int, AttributeDistribution | None]]
        ] = {}
        # memo of the last embedded sequence: the recompute policy replays the
        # whole arrival stream under a freshly reseeded RNG every batch, so a
        # fact at an unchanged position receives the exact same candidate
        # draws; its picks, per-target equation blocks and solved vector are
        # reused without consuming randomness (see :meth:`extend_batch`)
        self._sequence_cache: dict[str, Any] | None = None
        # target index -> training-time distributions (static, cached once)
        self._trained_cache: dict[int, dict[int, AttributeDistribution | None]] = {}

    @property
    def engine(self) -> WalkEngine:
        if self._engine is None:
            self._engine = WalkEngine(self.db)
        return self._engine

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
        struct = engine.attribute_struct_signature(target.scheme)
        cached = self._old_cache.get(target.index)
        if cached is not None and cached[0] == struct:
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
        self._old_cache[target.index] = (struct, result)
        return result

    def embed_fact(self, fact: Fact) -> np.ndarray:
        """Compute ``φ(f_new)`` for one new fact (does not modify the model)."""
        engine = self.engine
        if not engine.compiled.has_fact(fact) or engine.compiled.num_facts != len(self.db):
            # insertions the caller did not pass to notify_inserted; catch up
            engine.refresh()
        rows: list[np.ndarray] = []
        rhs: list[np.ndarray] = []
        n_per_target = self.model.config.n_new_samples
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
            candidates = [
                fid
                for fid in self.model.fact_ids
                if old_dists[fid] is not None
                and fid in self.db._facts_by_id  # noqa: SLF001 - cheap membership
            ]
            if not candidates:
                continue
            chosen = self._choose_candidates(candidates, n_per_target)
            kd = _expected_kernels(
                target.kernel, [old_dists[fid] for fid in chosen], new_dist
            )
            chosen_rows = np.array([self.model.fact_row[fid] for fid in chosen])
            matrix = self.model.psi[target.index]
            rows.append(self.model.phi[chosen_rows] @ matrix.T)
            rhs.append(kd)
        if not rows:
            # A fact with no completable walk to any kernelized attribute gives
            # an empty system; fall back to the centroid of the trained facts
            # so downstream consumers still receive a usable vector.
            return self.model.phi.mean(axis=0)
        return solve_least_squares(np.vstack(rows), np.concatenate(rhs))

    def extend_batch(self, facts: Sequence[Fact]) -> dict[int, np.ndarray]:
        """Embed many new facts through one fused batched pipeline.

        The all-at-once setting only (``recompute_old_paths``).  Semantically
        identical to calling :meth:`embed_fact` on every fact in order — the
        RNG is consumed in the same fact-major, target-minor order, so a
        fixed seed produces the same candidate draws — but each walk target's
        old and new distributions are rows of one attribute matrix, and every
        right-hand side of a target is computed in one pass with one kernel
        evaluation (see :meth:`_TargetContext.rhs_blocks`).  No per-fact
        engine query, distribution object or BFS is made.  Returns
        ``fact_id -> φ(f_new)``; the model is not modified.

        Re-embedding the same arrival prefix (the recompute policy replays the
        whole stream every batch under a per-pass reseeded RNG) is memoised
        per fact *and* per target: while a fact sits at the same position of
        the sequence and every target's candidate count is unchanged, its
        candidate draws are identical by determinism, so the recorded picks
        and equation blocks are reused without touching the RNG at all.  A
        structural change in one walk target (a deletion, an update, or an
        insert that renormalises a backward step) recomputes only that
        target's right-hand sides and re-solves only the affected facts;
        everything else is returned verbatim.

        The three stages are instrumented as ``service.embed.prepare`` /
        ``service.embed.assemble`` / ``service.embed.solve`` when the
        engine's telemetry bundle is enabled.
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
        n_per_target = self.model.config.n_new_samples
        start_state = self.rng.bit_generator.state
        memo = self._sequence_cache
        cached_facts = (
            memo["facts"]
            if memo is not None and memo["start_state"] == start_state
            else []
        )
        with telemetry.stage("service.embed.prepare"):
            contexts = {
                context.target.index: context
                for context in self._batch_contexts(facts)
                if context is not None
            }
            structs = {
                t_index: engine.attribute_struct_signature(context.target.scheme)
                for t_index, context in contexts.items()
            }
        with telemetry.stage("service.embed.assemble"):
            centroid = self.model.phi.mean(axis=0)
            records: list[dict[str, Any]] = []
            vectors_list: list[np.ndarray | None] = [None] * len(facts)
            # target index -> (fact index, picked anchors) whose right-hand
            # side phase 2 gathers
            requests: dict[int, list[tuple[int, np.ndarray]]] = {}
            to_solve: list[int] = []
            # phase 1 — draw or reuse every fact's picks, fact-major and
            # target-minor like embed_fact.  A cached record stays valid while
            # the RNG start state, the fact's position, and the draw signature
            # chain before it are unchanged — then every recorded pick equals
            # what a live pass would draw
            prefix_ok = bool(cached_facts)
            for i, fact in enumerate(facts):
                contribs = [
                    context for context in contexts.values() if context.reaches[i]
                ]
                sig = tuple(
                    (context.target.index, context.n_candidates)
                    for context in contribs
                )
                record = (
                    cached_facts[i]
                    if prefix_ok and i < len(cached_facts)
                    else None
                )
                reuse = (
                    record is not None
                    and record["fact_id"] == fact.fact_id
                    and record["sig"] == sig
                )
                if not reuse and prefix_ok:
                    prefix_ok = False
                    if records:
                        # leave the reused region: position the generator
                        # exactly after the last reused fact's draws
                        self.rng.bit_generator.state = records[-1]["after_state"]
                blocks: dict[int, tuple] = {}
                stale = False
                for context in contribs:
                    t_index = context.target.index
                    if reuse:
                        cached_block = record["blocks"][t_index]
                        if cached_block[0] == structs[t_index]:
                            blocks[t_index] = cached_block
                            continue
                        # the draws are still the recorded ones; only the
                        # right-hand side moved with the structure
                        picked = cached_block[1]
                    else:
                        picked = self._choose_indices(
                            context.n_candidates, n_per_target
                        )
                    blocks[t_index] = (structs[t_index], picked, None)
                    requests.setdefault(t_index, []).append((i, picked))
                    stale = True
                if stale:
                    to_solve.append(i)
                elif reuse:
                    vectors_list[i] = record["vector"]
                else:
                    # no completable walk to any kernelized attribute: fall
                    # back to the trained centroid, exactly like embed_fact
                    vectors_list[i] = centroid
                records.append(
                    {
                        "fact_id": fact.fact_id,
                        "sig": sig,
                        "blocks": blocks,
                        "after_state": (
                            record["after_state"]
                            if reuse
                            else self.rng.bit_generator.state
                        ),
                        "vector": vectors_list[i],
                    }
                )
            # phase 2 — every pending right-hand side, one gather per target
            for t_index, pending in requests.items():
                rhs_blocks = contexts[t_index].rhs_blocks(pending)
                for (i, picked), rhs in zip(pending, rhs_blocks):
                    records[i]["blocks"][t_index] = (structs[t_index], picked, rhs)
            systems = [
                (i, *self._assemble_system(contexts, records[i]["blocks"]))
                for i in to_solve
            ]
        with telemetry.stage("service.embed.solve"):
            for i, matrix, rhs in systems:
                vectors_list[i] = solve_least_squares(matrix, rhs)
            for i, record in enumerate(records):
                record["vector"] = vectors_list[i]
        if records:
            # a fully reused pass never touched the generator; leave it where
            # a live pass would have, for callers that keep drawing
            self.rng.bit_generator.state = records[-1]["after_state"]
        self._sequence_cache = {"start_state": start_state, "facts": records}
        return {
            fact.fact_id: vector for fact, vector in zip(facts, vectors_list)
        }

    @staticmethod
    def _assemble_system(
        contexts: dict[int, _TargetContext], blocks: dict[int, tuple]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack one fact's per-target equation blocks into one system."""
        rows = []
        rhs = []
        for t_index, (_, picked, rhs_block) in blocks.items():
            rows.append(contexts[t_index].proj[picked])
            rhs.append(rhs_block)
        return np.vstack(rows), np.concatenate(rhs)

    def _batch_contexts(self, facts: Sequence[Fact]) -> list["_TargetContext | None"]:
        """One :class:`_TargetContext` per walk target (None when inert).

        A target is inert when no fact of the batch reaches it or no trained
        fact survives as its anchor: :meth:`embed_fact` would skip it for
        every fact without drawing.
        """
        engine = self.engine
        row_of = engine.compiled.relations[self.model.relation].row_of
        new_rows = np.fromiter(
            (row_of[fact.fact_id] for fact in facts), dtype=np.intp, count=len(facts)
        )
        # compiled row of every trained fact (φ row order); -1 once deleted
        trained_rows = np.fromiter(
            (row_of.get(fact_id, -1) for fact_id in self.model.fact_ids),
            dtype=np.intp,
            count=len(self.model.fact_ids),
        )
        alive = np.flatnonzero(trained_rows >= 0)
        contexts: list[_TargetContext | None] = []
        for target in self.model.targets:
            matrix, vocab = engine.attribute_matrix(target.scheme, target.attribute)
            indptr = matrix.indptr
            candidates = alive[
                indptr[trained_rows[alive] + 1] > indptr[trained_rows[alive]]
            ]
            reaches = indptr[new_rows + 1] > indptr[new_rows]
            if candidates.size == 0 or not reaches.any():
                contexts.append(None)
                continue
            contexts.append(
                _TargetContext(
                    target,
                    matrix,
                    vocab,
                    trained_rows[candidates],
                    self.model.phi[candidates] @ self.model.psi[target.index].T,
                    new_rows,
                    reaches,
                )
            )
        return contexts

    def _choose_indices(self, n_candidates: int, count: int) -> np.ndarray:
        """Positions of the sampled anchors within the candidate list.

        Consumes the RNG exactly as :meth:`_choose_candidates` (no draw when
        every candidate is taken), so the serial and batched paths stay in
        lockstep on a shared seed.
        """
        if n_candidates <= count:
            return np.arange(n_candidates)
        return self.rng.choice(n_candidates, size=count, replace=False)

    def _choose_candidates(self, candidates: Sequence[int], count: int) -> list[int]:
        if len(candidates) <= count:
            return list(candidates)
        return [candidates[int(i)] for i in self._choose_indices(len(candidates), count)]


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
