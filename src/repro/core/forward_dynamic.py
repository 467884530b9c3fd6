"""The FoRWaRD algorithm — dynamic phase (Section V-E of the paper).

A newly inserted ``R``-fact ``f_new`` is embedded without touching the
existing embeddings by solving the over-determined linear system of
Equation (9): each sampled triple ``(f_old, s, A)`` contributes one equation

    φ(f_new)ᵀ · ψ(s, A) · φ(f_old) = KD(d_{s,f_old}[A], d_{s,f_new}[A]),

i.e. a row ``C_i = ψ(s, A)·φ(f_old)`` and right-hand side ``b_i``; the
minimum-norm least-squares solution (Equation (10)) is ``φ(f_new)``.

Distributions are computed by the compiled walk engine: the new fact's
distribution is a single sparse row propagation, and inserted facts are
*appended* to the compiled arrays (no recompilation), so one-by-one arrival
streams stay cheap.  In the all-at-once setting (``recompute_old_paths``)
the old facts' distributions are recomputed for a whole walk target at once
from the engine's batched attribute matrix.
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
    """Per-walk-target state shared by every fact of one extension batch.

    Holds exactly the quantities :meth:`ForwardDynamicExtender.embed_fact`
    would recompute per fact: the candidate anchor list, each candidate's
    distribution as (union positions, probabilities), the new facts'
    distributions, and — the expensive part — one kernel cross-matrix over
    the union of *all* candidate supports against the union of *all* new
    supports, evaluated once per batch instead of once per fact.
    """

    __slots__ = (
        "target", "new_dists", "candidates", "supports", "union_index",
        "kernel_columns", "proj", "anchor",
    )

    def __init__(
        self,
        target: WalkTarget,
        new_dists: list[AttributeDistribution | None],
        candidates: list[int],
        supports: dict[int, tuple[np.ndarray, np.ndarray]],
        union_index: dict[Any, int],
        kernel_columns: dict[Any, np.ndarray],
        proj: np.ndarray,
        anchor: "sparse.csr_matrix",
    ):
        self.target = target
        self.new_dists = new_dists
        self.candidates = candidates
        self.supports = supports
        self.union_index = union_index
        self.kernel_columns = kernel_columns
        self.proj = proj
        self.anchor = anchor

    def similarity(self, new_dist: AttributeDistribution) -> np.ndarray:
        """``Σ_v K(union, v)·p_new(v)`` — the union's similarity to one fact.

        Kernel columns are memoised per value across batches and facts (the
        kernel depends only on the value pair, and the union is struct-keyed),
        so only first-seen values pay a kernel evaluation.
        """
        columns = self.kernel_columns
        missing = [value for value in new_dist.values if value not in columns]
        if missing:
            block = self.target.kernel.cross_matrix(list(self.union_index), missing)
            for j, value in enumerate(missing):
                columns[value] = np.ascontiguousarray(block[:, j])
        stacked = np.stack([columns[value] for value in new_dist.values], axis=1)
        return stacked @ np.asarray(new_dist.probabilities, dtype=np.float64)


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
        # or None); keyed structurally so pure insertions — which only append
        # attribute-matrix rows — keep the old facts' distributions cached
        self._old_cache: dict[
            int, tuple[tuple, dict[int, AttributeDistribution | None]]
        ] = {}
        # target index -> (attribute struct signature, candidates, supports,
        # union index, kernel column cache); the batched pipeline's per-target
        # anchor context, stable while no existing row changed structurally
        self._context_cache: dict[int, tuple] = {}
        # (target index, fact id) -> (attribute struct signature, distribution
        # or None) for *streamed* facts: under pure appends an already
        # computed row keeps its exact bits, so re-embedding the whole stream
        # each batch (the recompute policy) only queries the engine for the
        # facts that actually arrived in the batch
        self._new_dist_cache: dict[
            tuple[int, int], tuple[tuple, AttributeDistribution | None]
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

    def prime(self) -> None:
        """Build every walk target's batch context ahead of the stream.

        The per-target anchor state (recomputed old-fact distributions, the
        support union, the candidate projection and probability matrices) is
        fact-independent and struct-keyed, so a serving process can pay for
        it once at startup instead of inside the first batch's apply path.
        Idempotent; contexts invalidated by later structural changes are
        rebuilt lazily as usual.
        """
        self._batch_contexts([])

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

    def _old_distribution(
        self, fact_id: int, target: WalkTarget
    ) -> AttributeDistribution | None:
        if not self.recompute_old_paths:
            return self.model.distribution(fact_id, target.index)
        return self._old_distributions(target).get(fact_id)

    def embed_fact(self, fact: Fact) -> np.ndarray:
        """Compute ``φ(f_new)`` for one new fact (does not modify the model)."""
        engine = self.engine
        if not engine.compiled.has_fact(fact) or engine.compiled.num_facts != len(self.db):
            # insertions the caller did not pass to notify_inserted; catch up
            engine.refresh()
        rows: list[np.ndarray] = []
        rhs: list[np.ndarray] = []
        n_per_target = self.model.config.n_new_samples
        for target in self.model.targets:
            new_dist = engine.attribute_distribution(fact, target.scheme, target.attribute)
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

        Semantically identical to calling :meth:`embed_fact` on every fact in
        order — the RNG is consumed in the same fact-major, target-minor
        order, so a fixed seed produces the same candidate draws — but the
        per-target context (attribute matrix, candidate anchors, and one
        kernel cross-matrix over the union of all supports) is computed once
        per *batch* instead of once per *fact*, which is where the serial
        path spends almost all of its time.  Returns ``fact_id -> φ(f_new)``;
        the model is not modified.

        Re-embedding the same arrival prefix (the recompute policy replays the
        whole stream every batch under a per-pass reseeded RNG) is memoised
        per fact *and* per target: while a fact sits at the same position of
        the sequence and every target's candidate count is unchanged, its
        candidate draws are identical by determinism, so the recorded picks
        and equation blocks are reused without touching the RNG at all.  A
        structural change in one walk target (a deletion, an update, or an
        insert that renormalises a backward step) rebuilds only that target's
        block and re-solves only the affected facts; everything else is
        returned verbatim.

        The three stages are instrumented as ``service.embed.prepare`` /
        ``service.embed.assemble`` / ``service.embed.solve`` when the
        engine's telemetry bundle is enabled.
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
        n_per_target = self.model.config.n_new_samples
        start_state = self.rng.bit_generator.state
        memo = self._sequence_cache
        cached_facts = (
            memo["facts"]
            if memo is not None and memo["start_state"] == start_state
            else []
        )
        with telemetry.stage("service.embed.prepare"):
            contexts = self._batch_contexts(facts)
            structs = {
                context.target.index: engine.attribute_struct_signature(
                    context.target.scheme
                )
                for context in contexts
                if context is not None
            }
        with telemetry.stage("service.embed.assemble"):
            centroid = self.model.phi.mean(axis=0)
            records: list[dict[str, Any]] = []
            systems: list[tuple[int, np.ndarray, np.ndarray]] = []
            vectors_list: list[np.ndarray | None] = [None] * len(facts)
            # a cached record stays valid while the RNG start state, the fact's
            # position, and the draw signature chain before it are unchanged —
            # then every recorded pick equals what a live pass would draw
            prefix_ok = bool(cached_facts)
            for i, fact in enumerate(facts):
                contribs = [
                    context
                    for context in contexts
                    if context is not None and context.new_dists[i] is not None
                ]
                sig = tuple(
                    (context.target.index, len(context.candidates))
                    for context in contribs
                )
                record = (
                    cached_facts[i]
                    if prefix_ok and i < len(cached_facts)
                    else None
                )
                if (
                    record is not None
                    and record["fact_id"] == fact.fact_id
                    and record["sig"] == sig
                ):
                    blocks: dict[int, tuple] = {}
                    stale = False
                    for context in contribs:
                        t_index = context.target.index
                        cached_block = record["blocks"][t_index]
                        if cached_block[0] == structs[t_index]:
                            blocks[t_index] = cached_block
                        else:
                            # the draws are still the recorded ones; only the
                            # right-hand side moved with the structure
                            picked = cached_block[1]
                            blocks[t_index] = (
                                structs[t_index],
                                picked,
                                self._rhs_block(context, i, picked),
                            )
                            stale = True
                    if not contribs:
                        vectors_list[i] = record["vector"]
                    elif stale:
                        systems.append(
                            (i, *self._assemble_system(contribs, blocks))
                        )
                    else:
                        vectors_list[i] = record["vector"]
                    records.append(
                        {
                            "fact_id": fact.fact_id,
                            "sig": sig,
                            "blocks": blocks,
                            "after_state": record["after_state"],
                            "vector": record["vector"],
                        }
                    )
                    continue
                if prefix_ok:
                    prefix_ok = False
                    if records:
                        # leave the reused region: position the generator
                        # exactly after the last reused fact's draws
                        self.rng.bit_generator.state = records[-1]["after_state"]
                blocks = {}
                for context in contribs:
                    picked = self._choose_indices(
                        len(context.candidates), n_per_target
                    )
                    blocks[context.target.index] = (
                        structs[context.target.index],
                        picked,
                        self._rhs_block(context, i, picked),
                    )
                if contribs:
                    systems.append((i, *self._assemble_system(contribs, blocks)))
                else:
                    # no completable walk to any kernelized attribute: fall
                    # back to the trained centroid, exactly like embed_fact
                    vectors_list[i] = centroid
                records.append(
                    {
                        "fact_id": fact.fact_id,
                        "sig": sig,
                        "blocks": blocks,
                        "after_state": self.rng.bit_generator.state,
                        "vector": centroid if not contribs else None,
                    }
                )
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
    def _rhs_block(
        context: _TargetContext, fact_index: int, picked: np.ndarray
    ) -> np.ndarray:
        """Expected kernel distances of the picked anchors against one fact."""
        similarity = context.similarity(context.new_dists[fact_index])
        return (context.anchor @ similarity)[picked]

    @staticmethod
    def _assemble_system(
        contribs: list[_TargetContext], blocks: dict[int, tuple]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack the per-target equation blocks into one least-squares system."""
        rows = []
        rhs = []
        for context in contribs:
            _, picked, rhs_block = blocks[context.target.index]
            rows.append(context.proj[picked])
            rhs.append(rhs_block)
        return np.vstack(rows), np.concatenate(rhs)

    def _batch_contexts(self, facts: Sequence[Fact]) -> list["_TargetContext | None"]:
        """One :class:`_TargetContext` per walk target (None when inert)."""
        engine = self.engine
        targets = self.model.targets
        # scheme-level cache accounting: one hit/miss per (new fact, target)
        # distribution lookup and per anchor-context check, so a test (or an
        # operator) can verify that batches touching disjoint foreign keys
        # skip recomputation entirely (see docs/PERFORMANCE.md)
        metrics = engine.telemetry.metrics
        newdist_hits = metrics.counter("pipeline.cache.newdist.hits")
        newdist_misses = metrics.counter("pipeline.cache.newdist.misses")
        context_hits = metrics.counter("pipeline.cache.context.hits")
        context_misses = metrics.counter("pipeline.cache.context.misses")
        structs = [
            engine.attribute_struct_signature(target.scheme) for target in targets
        ]
        # new facts' distributions, fused: one engine call per fact covering
        # every target it has no struct-fresh cache entry for — a single
        # destination propagation per distinct scheme instead of one layered
        # query per (fact, target)
        dists: list[list[AttributeDistribution | None]] = [
            [None] * len(facts) for _ in targets
        ]
        for i, fact in enumerate(facts):
            missing: list[int] = []
            for j, target in enumerate(targets):
                hit = self._new_dist_cache.get((target.index, fact.fact_id))
                if hit is not None and hit[0] == structs[j]:
                    newdist_hits.inc()
                    dists[j][i] = hit[1]
                else:
                    newdist_misses.inc()
                    missing.append(j)
            if not missing:
                continue
            fused = engine.attribute_rows(
                fact, [(targets[j].scheme, targets[j].attribute) for j in missing]
            )
            for j, row in zip(missing, fused):
                target = targets[j]
                dist = (
                    None
                    if row is None
                    else AttributeDistribution(
                        target.scheme, target.attribute, tuple(row[0]), row[1]
                    )
                )
                self._new_dist_cache[(target.index, fact.fact_id)] = (structs[j], dist)
                dists[j][i] = dist
        contexts: list[_TargetContext | None] = []
        for j, target in enumerate(targets):
            struct = structs[j]
            new_dists = dists[j]
            if facts and all(dist is None for dist in new_dists):
                # no fact of this batch reaches the target (the serial path
                # would `continue` on every one, consuming no RNG) — don't
                # rebuild a possibly invalidated anchor context it won't use
                contexts.append(None)
                continue
            cached = self._context_cache.get(target.index)
            if cached is not None and cached[0] == struct:
                context_hits.inc()
                (
                    _, candidates, supports, union_index, kernel_columns,
                    proj, anchor,
                ) = cached
            else:
                context_misses.inc()
                old_dists = self._old_distributions(target)
                candidates = [
                    fid
                    for fid in self.model.fact_ids
                    if old_dists[fid] is not None
                    and fid in self.db._facts_by_id  # noqa: SLF001 - membership
                ]
                union_index = {}
                supports = {}
                for fid in candidates:
                    dist = old_dists[fid]
                    positions = np.empty(len(dist.values), dtype=np.intp)
                    for j, value in enumerate(dist.values):
                        position = union_index.get(value)
                        if position is None:
                            position = len(union_index)
                            union_index[value] = position
                        positions[j] = position
                    supports[fid] = (
                        positions,
                        np.asarray(dist.probabilities, dtype=np.float64),
                    )
                # kernel column per value, filled lazily below; K(u, v) depends
                # only on the pair, so columns survive as long as the union does
                kernel_columns = {}
                # candidate-order projection rows φ(f_old)·ψᵀ and one CSR of
                # candidate probabilities over the union: φ/ψ are frozen and
                # the supports are struct-stable, so a fact's equations reduce
                # to fancy-indexing ``proj`` and one matvec through ``anchor``
                cand_rows = np.array(
                    [self.model.fact_row[fid] for fid in candidates],
                    dtype=np.intp,
                )
                proj = self.model.phi[cand_rows] @ self.model.psi[target.index].T
                indptr = np.zeros(len(candidates) + 1, dtype=np.intp)
                for i, fid in enumerate(candidates):
                    indptr[i + 1] = indptr[i] + len(supports[fid][0])
                if candidates:
                    indices = np.concatenate(
                        [supports[fid][0] for fid in candidates]
                    )
                    data = np.concatenate(
                        [supports[fid][1] for fid in candidates]
                    )
                else:
                    indices = np.empty(0, dtype=np.intp)
                    data = np.empty(0, dtype=np.float64)
                anchor = sparse.csr_matrix(
                    (data, indices, indptr),
                    shape=(len(candidates), len(union_index)),
                )
                self._context_cache[target.index] = (
                    struct, candidates, supports, union_index, kernel_columns,
                    proj, anchor,
                )
            if not candidates or all(dist is None for dist in new_dists):
                # the serial path would `continue` on every fact (no RNG use)
                contexts.append(None)
                continue
            # coalesce the batch's first-seen kernel values into one
            # cross-matrix evaluation per target; per-fact lazy fills would
            # fragment the same work into hundreds of tiny kernel calls when
            # the recompute policy replays a long arrival stream
            missing_values = {
                value: None
                for dist in new_dists
                if dist is not None
                for value in dist.values
                if value not in kernel_columns
            }
            if missing_values:
                block = target.kernel.cross_matrix(
                    list(union_index), list(missing_values)
                )
                for k, value in enumerate(missing_values):
                    kernel_columns[value] = np.ascontiguousarray(block[:, k])
            contexts.append(
                _TargetContext(
                    target, new_dists, candidates, supports, union_index,
                    kernel_columns, proj, anchor,
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
