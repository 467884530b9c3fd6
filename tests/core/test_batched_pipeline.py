"""The batched extension pipeline: equivalence, reuse, cache keying.

:meth:`ForwardDynamicExtender.extend_batch` must be indistinguishable from
the per-fact serial path under a shared key (same anchor picks, same
equations, same least-squares solutions).  Across calls it re-derives only
what moved: replaying an unchanged database computes no right-hand-side
entry and factors no system, each batch reads one attribute matrix per walk
target and never `WalkEngine.attribute_rows`, and a mutation recomputes only
the entries whose attribute rows it changed — an update or delete that
touches no walk distribution recomputes nothing.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import ForwardConfig
from repro.core.forward import ForwardEmbedder
from repro.core.forward_dynamic import ForwardDynamicExtender, _TargetContext, anchor_key
from repro.datasets.movies import make_movies
from repro.dynamic.partition import partition_dataset
from repro.engine import WalkEngine
from repro.obs import Telemetry
from repro.utils.rng import ensure_rng

CONFIG = ForwardConfig(
    dimension=8, n_samples=60, batch_size=128, max_walk_length=2, epochs=2,
    learning_rate=0.05, n_new_samples=10,
)

#: Walk targets of the movie schema from MOVIES at length <= 2, counted by
#: hand from Figure 2: 3 own attributes (title/genre/budget), 2 on STUDIOS
#: via the studio FK, 3 back on MOVIES via studio forward+backward, and
#: 2+2+3 through COLLABORATIONS (actor1/actor2 to ACTORS, movie back to
#: MOVIES).  COLLABORATIONS itself has no non-FK attribute.
N_TARGETS = 15

REUSE_COUNTERS = (
    "core.extend.rhs.computed",
    "core.extend.rhs.reused",
    "core.extend.systems.factored",
    "core.extend.systems.reused",
)


@pytest.fixture
def streamed():
    """A trained movies model plus an inserted two-fact stream."""
    dataset = make_movies()
    partition = partition_dataset(dataset, ratio_new=0.3, rng=ensure_rng(5))
    model = ForwardEmbedder(
        partition.db, partition.prediction_relation, CONFIG, rng=0
    ).fit()
    new_facts = []
    for batch in reversed(partition.new_batches):
        for fact in batch:
            partition.db.reinsert(fact)
            new_facts.append(fact)
    # a second brand-new movie so prefix-replay tests have >= 2 facts
    new_facts.append(partition.db.insert("MOVIES", {
        "mid": "m99", "studio": "s02", "title": "Sequel", "genre": "Drama",
        "budget": 90,
    }))
    prediction = [
        f for f in new_facts if f.relation == partition.prediction_relation
    ]
    return model, partition.db, new_facts, prediction


def _extender(model, db, new_facts, telemetry=None, rng=123):
    engine = WalkEngine(db, telemetry=telemetry) if telemetry else WalkEngine(db)
    extender = ForwardDynamicExtender(
        model, db, recompute_old_paths=True, rng=rng, engine=engine
    )
    extender.notify_inserted(new_facts)
    return extender


def _sampled(model, db):
    """The model refitted with two anchors per target, so picks are sampled."""
    return ForwardEmbedder(
        db, model.relation, dataclasses.replace(CONFIG, n_new_samples=2), rng=0
    ).fit()


def _reuse(telemetry):
    """The four reuse counters' current values."""
    counters = telemetry.metrics.snapshot()["counters"]
    return {name: counters.get(name, 0) for name in REUSE_COUNTERS}


def _delta(before, after):
    return {name: after[name] - before[name] for name in REUSE_COUNTERS}


@pytest.fixture
def computing_targets(monkeypatch):
    """The walk-target indexes whose right-hand-side entries get computed."""
    seen: list[int] = []
    original = _TargetContext.kd_entries

    def spy(self, *args):
        seen.append(self.target.index)
        return original(self, *args)

    monkeypatch.setattr(_TargetContext, "kd_entries", spy)
    return seen


class TestSerialEquivalence:
    def test_batched_matches_per_fact_exactly(self, streamed):
        model, db, new_facts, prediction = streamed
        serial = _extender(model, db, new_facts, rng=99)
        expected = {f.fact_id: serial.embed_fact(f) for f in prediction}

        batched = _extender(model, db, new_facts, rng=99)
        result = batched.extend_batch(prediction)
        assert set(result) == set(expected)
        for fact_id, vector in expected.items():
            np.testing.assert_allclose(result[fact_id], vector, atol=1e-12)

    def test_rng_left_where_serial_leaves_it(self, streamed):
        """The generator an extender is built from gives one draw, the
        key; neither path draws again, in any order of calls."""
        model, db, new_facts, prediction = streamed
        serial_rng, batched_rng = ensure_rng(99), ensure_rng(99)
        serial = _extender(model, db, new_facts, rng=serial_rng)
        batched = _extender(model, db, new_facts, rng=batched_rng)
        assert serial.key == batched.key == anchor_key(99)
        for fact in reversed(prediction):
            serial.embed_fact(fact)
        batched.extend_batch(prediction)
        batched.extend_batch(prediction[:1])
        reference = ensure_rng(99)
        reference.integers(2**63)
        state = reference.bit_generator.state
        assert serial_rng.bit_generator.state == state
        assert batched_rng.bit_generator.state == state

    def test_empty_batch_returns_empty(self, streamed):
        model, db, new_facts, _ = streamed
        extender = _extender(model, db, new_facts)
        assert extender.extend_batch([]) == {}


class TestReplayDeterminism:
    """Replaying the arrival sequence against what the last batch recorded
    gives the bits a fresh pass gives."""

    def test_replay_with_same_seed_is_bit_identical(self, streamed):
        model, db, new_facts, prediction = streamed
        extender = _extender(model, db, new_facts, rng=7)
        first = extender.extend_batch(prediction)
        extender.key = anchor_key(7)
        second = extender.extend_batch(prediction)
        for fact_id, vector in first.items():
            assert np.array_equal(second[fact_id], vector)

    def test_replay_reuses_vectors_without_resolving(self, streamed):
        model, db, new_facts, prediction = streamed
        telemetry = Telemetry()
        extender = _extender(model, db, new_facts, telemetry, rng=7)
        first = extender.extend_batch(prediction)
        operators = dict(extender._operators)
        before = _reuse(telemetry)
        second = extender.extend_batch(prediction)
        delta = _delta(before, _reuse(telemetry))
        assert delta["core.extend.rhs.computed"] == 0
        assert delta["core.extend.systems.factored"] == 0
        assert delta["core.extend.systems.reused"] == len(prediction)
        assert delta["core.extend.rhs.reused"] == before["core.extend.rhs.computed"]
        # the recorded operators themselves are reused, not recomputations
        for fact_id, (reached, operator) in operators.items():
            assert extender._operators[fact_id][1] is operator
            assert np.array_equal(second[fact_id], first[fact_id])

    def test_growing_prefix_replay_matches_fresh_pass(self, streamed):
        model, db, new_facts, prediction = streamed
        assert len(prediction) >= 2
        extender = _extender(model, db, new_facts, rng=7)
        extender.extend_batch(prediction[:1])
        grown = extender.extend_batch(prediction)

        fresh = _extender(model, db, new_facts, rng=7)
        expected = fresh.extend_batch(prediction)
        for fact_id, vector in expected.items():
            assert np.array_equal(grown[fact_id], vector)

    def test_different_seed_invalidates_memo(self, streamed):
        """With two anchors per target the key decides the picks: re-keying
        an unchanged database re-draws them, like a fresh extender."""
        model, db, new_facts, prediction = streamed
        sampled = _sampled(model, db)
        extender = _extender(sampled, db, new_facts, rng=7)
        first = extender.extend_batch(prediction)
        extender.key = anchor_key(8)
        second = extender.extend_batch(prediction)

        fresh = _extender(sampled, db, new_facts, rng=8)
        expected = fresh.extend_batch(prediction)
        for fact_id in expected:
            assert np.array_equal(second[fact_id], expected[fact_id])
        assert any(not np.array_equal(first[f], second[f]) for f in first)


class TestReuseCounters:
    def test_unchanged_database_computes_and_factors_nothing(self, streamed):
        model, db, new_facts, prediction = streamed
        telemetry = Telemetry()
        extender = _extender(model, db, new_facts, telemetry)
        first = extender.extend_batch(prediction)
        after_first = _reuse(telemetry)
        assert after_first["core.extend.rhs.computed"] > 0
        assert after_first["core.extend.systems.factored"] == len(prediction)
        assert after_first["core.extend.rhs.reused"] == 0
        second = extender.extend_batch(prediction)
        delta = _delta(after_first, _reuse(telemetry))
        assert delta == {
            "core.extend.rhs.computed": 0,
            "core.extend.rhs.reused": after_first["core.extend.rhs.computed"],
            "core.extend.systems.factored": 0,
            "core.extend.systems.reused": len(prediction),
        }
        for fact_id, vector in first.items():
            assert np.array_equal(second[fact_id], vector)


class TestSampledPicks:
    def test_candidates_leaving_and_returning_match_serial(self, streamed):
        """With two anchors per target the picks are sampled; a trained
        movie that loses its only collaboration leaves the candidates of
        the ACTORS targets and returns with it, and every batch still
        equals the serial path and a fresh extender."""
        model, db, new_facts, prediction = streamed
        sampled = _sampled(model, db)
        telemetry = Telemetry()
        extender = _extender(sampled, db, [], telemetry)
        movies = {f["mid"]: f.fact_id for f in db.facts("MOVIES")}
        collaborations = list(db.facts("COLLABORATIONS"))
        lone = next(
            c for c in collaborations
            if movies.get(c["movie"]) in sampled.fact_row
            and sum(other["movie"] == c["movie"] for other in collaborations) == 1
        )
        steps = [(), ("delete", lone), ("insert", lone)]
        for step in steps:
            if step and step[0] == "delete":
                db.delete(lone)
                extender.notify_deleted([lone])
            elif step:
                db.reinsert(lone)
                extender.notify_inserted([lone])
            result = extender.extend_batch(prediction)
            serial = _extender(sampled, db, [])
            fresh = _extender(sampled, db, []).extend_batch(prediction)
            for fact in prediction:
                np.testing.assert_allclose(
                    result[fact.fact_id], serial.embed_fact(fact), atol=1e-12
                )
                assert np.array_equal(result[fact.fact_id], fresh[fact.fact_id])
        assert _reuse(telemetry)["core.extend.rhs.reused"] > 0

    def test_returning_trained_anchor_redraws_carried_facts(self, streamed):
        """A trained movie deleted before one batch and reinserted before
        the next only appends a row to the forward-walk targets' matrices,
        yet it is a candidate again: the facts the first batch recorded
        re-draw their picks there, as the serial path does."""
        model, db, _new_facts, prediction = streamed
        sampled = _sampled(model, db)
        extender = _extender(sampled, db, [])
        for fact_id in model.fact_ids:
            movie = db.fact(fact_id)
            db.delete(fact_id)
            extender.notify_deleted([movie])
            extender.extend_batch(prediction)
            db.reinsert(movie)
            extender.notify_inserted([movie])
            result = extender.extend_batch(prediction)
            serial = _extender(sampled, db, [])
            for fact in prediction:
                np.testing.assert_allclose(
                    result[fact.fact_id], serial.embed_fact(fact), atol=1e-12
                )


class TestSchemeCacheAccounting:
    """Each walk target's batch state comes from one attribute matrix, and
    a mutation recomputes exactly the right-hand-side entries whose fact or
    anchor row it changed."""

    def test_churn_batch_slices_attribute_matrices(self, streamed, monkeypatch):
        model, db, new_facts, prediction = streamed
        telemetry = Telemetry()
        extender = _extender(model, db, new_facts, telemetry)
        row_calls = []
        monkeypatch.setattr(
            WalkEngine, "attribute_rows",
            lambda self, *args: row_calls.append(args),
        )
        counters = telemetry.metrics.snapshot
        extender.extend_batch(prediction)
        misses = counters()["counters"].get("engine.cache.attr.misses", 0)
        assert 0 < misses <= N_TARGETS

        # one churn batch: a delete, an update and an insert, then re-embed
        victim = next(f for f in db.facts("ACTORS") if f["aid"] == "a03")
        db.delete(victim)
        extender.notify_deleted([victim])
        studio = db.facts("STUDIOS")[0]
        db.update(studio, {"loc": "NY"})
        extender.notify_updated([db.fact(studio.fact_id)])
        arrival = db.insert("MOVIES", {
            "mid": "m98", "studio": "s01", "title": "Prequel",
            "genre": "Drama", "budget": 40,
        })
        extender.notify_inserted([arrival])
        extender.extend_batch([*prediction, arrival])
        after = counters()["counters"]["engine.cache.attr.misses"]
        assert after - misses <= N_TARGETS
        assert row_calls == []

    def test_disjoint_fk_update_invalidates_only_studio_targets(
        self, streamed, computing_targets
    ):
        model, db, new_facts, prediction = streamed
        extender = _extender(model, db, new_facts)
        extender.extend_batch(prediction)
        assert computing_targets

        # rewriting a studio's location moves the rows of the targets that
        # read STUDIOS.loc, and nothing else: not the studio's name rows,
        # nor any walk target through MOVIES or ACTORS
        computing_targets.clear()
        studio = db.facts("STUDIOS")[0]
        db.update(studio, {"loc": "NY"})
        extender.notify_updated([db.fact(studio.fact_id)])
        extender.extend_batch(prediction)
        loc_targets = {
            target.index
            for target in model.targets
            if target.scheme.end_relation == "STUDIOS" and target.attribute == "loc"
        }
        assert len(loc_targets) == 1
        assert set(computing_targets) == loc_targets

    def test_delete_invalidates_like_update(self, streamed, computing_targets):
        """A delete goes through the same row diff as an update: neither
        recomputes anything when it moves no walk distribution."""
        model, db, new_facts, prediction = streamed
        telemetry = Telemetry()
        # an actor no walk reaches
        extra = db.insert("ACTORS", {"aid": "a99", "name": "Extra", "worth": 1})
        extender = _extender(model, db, [*new_facts, extra], telemetry)
        first = extender.extend_batch(prediction)
        computing_targets.clear()

        updated = db.update(extra, {"worth": 2})
        extender.notify_updated([updated])
        before = _reuse(telemetry)
        after_update = extender.extend_batch(prediction)
        assert _delta(before, _reuse(telemetry))["core.extend.rhs.computed"] == 0

        db.delete(updated)
        extender.notify_deleted([updated])
        before = _reuse(telemetry)
        after_delete = extender.extend_batch(prediction)
        delta = _delta(before, _reuse(telemetry))
        assert delta["core.extend.rhs.computed"] == 0
        assert delta["core.extend.systems.factored"] == 0
        assert computing_targets == []
        for fact_id, vector in first.items():
            assert np.array_equal(after_update[fact_id], vector)
            assert np.array_equal(after_delete[fact_id], vector)

    def test_compaction_keeps_entries_by_value(self, streamed, monkeypatch):
        """Compaction renumbers rows and rebuilds vocabularies; rows are
        matched by fact id and codes by value.  Deleting the trained movie
        whose title has code 0 shifts every other title's code, yet the
        title target still reuses the entries of unchanged rows, and the
        result is exact."""
        model, db, new_facts, prediction = streamed
        computed: dict[int, int] = {}
        original = _TargetContext.kd_entries

        def spy(self, fact_rows, owners, anchor_rows):
            computed[self.target.index] = anchor_rows.size
            return original(self, fact_rows, owners, anchor_rows)

        monkeypatch.setattr(_TargetContext, "kd_entries", spy)
        telemetry = Telemetry()
        extender = _extender(model, db, new_facts, telemetry)
        extender.engine.compiled.COMPACT_MIN_DEAD = 1
        extender.engine.compiled.COMPACT_FRACTION = 0.0
        extender.extend_batch(prediction)
        title = next(
            t.index for t in model.targets
            if not t.scheme.steps and t.attribute == "title"
        )
        victim = next(f for f in db.facts("MOVIES") if f.fact_id in model.fact_row)
        assert extender._contexts[title].vocab[0] == victim["title"]
        db.delete(victim)
        extender.notify_deleted([victim])
        assert telemetry.metrics.snapshot()["counters"]["engine.compactions"] >= 1
        computed.clear()
        result = extender.extend_batch(prediction)
        assert extender._contexts[title].vocab[0] != victim["title"]
        assert computed.get(title, 0) < extender._contexts[title].rhs.size
        expected = _extender(model, db, []).extend_batch(prediction)
        for fact in prediction:
            np.testing.assert_allclose(
                result[fact.fact_id], expected[fact.fact_id], atol=1e-12
            )

    def test_rebuilt_vocabulary_is_never_carried(self, streamed):
        """Compaction rebuilds vocabularies.  A trained movie whose budget
        became a new value can take the old value's code, so the budget
        target's matrix stays bit-identical while the value behind a code
        moved; its entries are still re-derived, by value."""
        model, db, new_facts, prediction = streamed
        extender = _extender(model, db, new_facts)
        extender.engine.compiled.COMPACT_MIN_DEAD = 1
        extender.engine.compiled.COMPACT_FRACTION = 0.0
        extender.extend_batch(prediction)
        budget = next(
            t.index for t in model.targets
            if not t.scheme.steps and t.attribute == "budget"
        )
        before = extender._contexts[budget].matrix
        movie = next(f for f in db.facts("MOVIES") if f["mid"] == "m06")
        assert movie.fact_id in model.fact_row and movie["budget"] == 100
        extender.notify_updated([db.update(movie, {"budget": 120})])
        actor = next(iter(db.facts("ACTORS")))
        db.delete(actor)
        extender.notify_deleted([actor])
        result = extender.extend_batch(prediction)
        after = extender._contexts[budget].matrix
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(after, name), getattr(before, name))
        serial = _extender(model, db, [])
        for fact in prediction:
            np.testing.assert_allclose(
                result[fact.fact_id], serial.embed_fact(fact), atol=1e-12
            )

    def test_batched_embeddings_survive_invalidation(self, streamed):
        model, db, new_facts, prediction = streamed
        extender = _extender(model, db, new_facts, rng=3)
        extender.extend_batch(prediction)

        studio = db.facts("STUDIOS")[0]
        db.update(studio, {"loc": "NY"})
        extender.notify_updated([db.fact(studio.fact_id)])
        streamed_result = extender.extend_batch(prediction)

        fresh = _extender(model, db, new_facts, rng=3)
        expected = fresh.extend_batch(prediction)
        for fact_id, vector in expected.items():
            np.testing.assert_allclose(
                streamed_result[fact_id], vector, atol=1e-12
            )


class TestOneByOne:
    """Without ``recompute_old_paths`` the anchors are rows of the model's
    training-time matrices: a mutation that moves only trained facts' rows
    on the current database leaves every new fact's vector as it was."""

    def test_anchors_keep_training_time_rows(self, streamed):
        model, db, new_facts, prediction = streamed
        sequel = next(f for f in prediction if f["mid"] == "m99")
        # a trained movie of another studio: no walk of length <= 2 from the
        # sequel reaches it, while it is an anchor of every MOVIES target
        other = next(
            f for f in db.facts("MOVIES")
            if f.fact_id in model.fact_row and f["studio"] != sequel["studio"]
        )
        frozen = _extender(model, db, new_facts)
        frozen.recompute_old_paths = False
        recomputed = _extender(model, db, new_facts)
        before = {
            name: extender.extend_batch([sequel])[sequel.fact_id]
            for name, extender in (("frozen", frozen), ("recomputed", recomputed))
        }
        db.update(other, {"title": "Retitled", "budget": 7})
        frozen.notify_updated([db.fact(other.fact_id)])
        recomputed.notify_updated([db.fact(other.fact_id)])
        assert np.array_equal(frozen.extend_batch([sequel])[sequel.fact_id], before["frozen"])
        assert not np.allclose(
            recomputed.extend_batch([sequel])[sequel.fact_id], before["recomputed"]
        )

    def test_needs_training_matrices(self, streamed, tmp_path):
        from repro.core import load_forward_model, save_forward_model

        model, db, _new_facts, prediction = streamed
        save_forward_model(model, tmp_path / "model")
        restored = load_forward_model(tmp_path / "model", db)
        assert restored.training_matrices == ()
        extender = ForwardDynamicExtender(restored, db, recompute_old_paths=False)
        with pytest.raises(ValueError, match="recompute_old_paths=True"):
            extender.extend_batch(prediction)


def _cross_matrix_entries(context, fact_rows, owners, anchor_rows):
    """``_TargetContext.kd_entries`` as it was computed from one dense
    ``kernel.cross_matrix`` between the codes the anchors and the facts use:
    the anchors' of the anchor matrix, the facts' of the current one."""
    from repro.engine.engine import row_entries

    indptr, indices, data = context.matrix.indptr, context.matrix.indices, context.matrix.data
    anchor = context.anchor_matrix
    new_entries, new_lengths = row_entries(indptr, fact_rows)
    entries, lengths = row_entries(anchor.indptr, anchor_rows)
    new_codes, new_columns = np.unique(indices[new_entries], return_inverse=True)
    codes, columns = np.unique(anchor.indices[entries], return_inverse=True)
    kernel = context.target.kernel.cross_matrix(
        context.anchor_vocab[codes], context.vocab[new_codes]
    )
    pairs, pair_of_entry = np.unique(
        np.repeat(owners, lengths) * codes.size + columns, return_inverse=True
    )
    pair_facts, pair_codes = np.divmod(pairs, codes.size)
    fact_entries, spans = row_entries(np.concatenate(([0], np.cumsum(new_lengths))), pair_facts)
    similarity = np.add.reduceat(
        data[new_entries[fact_entries]]
        * kernel[np.repeat(pair_codes, spans), new_columns[fact_entries]],
        np.cumsum(spans) - spans,
    )
    return np.add.reduceat(
        anchor.data[entries] * similarity[pair_of_entry], np.cumsum(lengths) - lengths
    )


class TestKernelGather:
    """The right-hand-side gather evaluates the kernel only on the (anchor
    code, fact code) pairs that occur, through ``Kernel.elementwise``; the
    entries are bit-identical to evaluating one dense ``cross_matrix``, with
    the anchors on the current matrix (all-at-once) or on a matrix of their
    own, in a vocabulary of its own (one-by-one)."""

    @pytest.mark.parametrize("kind", ["gaussian", "equality"])
    def test_entries_match_the_cross_matrix_path_bit_for_bit(self, kind):
        from scipy import sparse

        from repro.core.forward import WalkTarget
        from repro.kernels import EqualityKernel, GaussianKernel
        from repro.walks import WalkScheme

        rng = np.random.default_rng(4)
        n_rows, n_codes = 40, 25
        if kind == "gaussian":
            kernel = GaussianKernel(variance=30.0)
            values = list(rng.integers(0, 60, n_codes).astype(float))
        else:
            kernel = EqualityKernel()
            values = [f"v{int(code) % 9}" for code in rng.integers(0, 60, n_codes)]
        vocab = np.empty(n_codes, dtype=object)
        vocab[:] = values
        matrix = sparse.random(n_rows, n_codes, density=0.2, format="csr", random_state=5)
        matrix.data = rng.random(matrix.nnz) + 0.1
        reached = np.flatnonzero(np.diff(matrix.indptr) > 0)
        # a second anchor side: its first codes mean what the current
        # matrix's do, in another order, and it has codes of its own
        frozen_vocab = np.empty(n_codes + 5, dtype=object)
        frozen_vocab[:] = [*vocab[::-1], *vocab[:5]]
        frozen = sparse.random(n_rows, n_codes + 5, density=0.2, format="csr", random_state=6)
        frozen.data = rng.random(frozen.nnz) + 0.1
        frozen_reached = np.flatnonzero(np.diff(frozen.indptr) > 0)
        target = WalkTarget(0, WalkScheme("MOVIES"), "title", kernel)
        fact_rows = reached[:6]
        owners = np.repeat(np.arange(fact_rows.size), 5)
        for anchor, anchor_vocab, rows in (
            (matrix, vocab, reached), (frozen, frozen_vocab, frozen_reached)
        ):
            context = _TargetContext(
                target, matrix, vocab, None, anchor, anchor_vocab,
                np.arange(n_rows), None, rows, reached,
            )
            anchor_rows = rng.choice(rows, owners.size)
            expected = _cross_matrix_entries(context, fact_rows, owners, anchor_rows)
            assert np.array_equal(
                context.kd_entries(fact_rows, owners, anchor_rows), expected
            )
