"""The fused per-fact query path: ``attribute_rows`` vs the serial APIs.

``WalkEngine.attribute_rows`` answers every (scheme, attribute) walk target
of one fact in a single call — one destination propagation per *distinct*
scheme, one shared column decode per (relation, attribute), and never a
whole-relation matrix build.  It must agree exactly with the per-query
``attribute_row``/``attribute_distribution`` path and with the reference
BFS, before and after incremental appends.
"""

import numpy as np
import pytest

from repro.engine import WalkEngine
from repro.walks import enumerate_walk_schemes
from repro.walks.random_walks import attribute_distribution

MAX_LENGTH = 2


def _queries(db, relation):
    """Every (scheme, attribute) walk target from ``relation``."""
    queries = []
    for scheme in enumerate_walk_schemes(db.schema, relation, MAX_LENGTH):
        end = db.schema.relation(scheme.end_relation)
        fk_attrs = {
            attr
            for fk in db.schema.foreign_keys_from(scheme.end_relation)
            for attr in fk.source_attrs
        }
        for attribute in end.attribute_names:
            if attribute not in fk_attrs and attribute not in end.key:
                queries.append((scheme, attribute))
    return queries


class TestFusedEqualsSerial:
    def test_matches_attribute_row_exactly(self, movies_db):
        engine = WalkEngine(movies_db)
        queries = _queries(movies_db, "MOVIES")
        assert queries
        for fact in movies_db.facts("MOVIES"):
            fused = engine.attribute_rows(fact, queries)
            assert len(fused) == len(queries)
            for entry, (scheme, attribute) in zip(fused, queries):
                serial = engine.attribute_row(fact, scheme, attribute)
                if serial is None:
                    assert entry is None
                    continue
                values, probabilities = entry
                np.testing.assert_array_equal(np.sort(values), np.sort(serial[0]))
                order = {v: p for v, p in zip(values, probabilities)}
                for value, p in zip(*serial):
                    assert order[value] == pytest.approx(p, abs=1e-12)

    def test_matches_reference_bfs(self, movies_db):
        engine = WalkEngine(movies_db)
        queries = _queries(movies_db, "MOVIES")
        fact = movies_db.facts("MOVIES")[0]
        for entry, (scheme, attribute) in zip(
            engine.attribute_rows(fact, queries), queries
        ):
            reference = attribute_distribution(movies_db, fact, scheme, attribute)
            if reference is None:
                assert entry is None
                continue
            values, probabilities = entry
            expected = dict(zip(reference.values, reference.probabilities))
            assert set(values) == set(expected)
            for value, p in zip(values, probabilities):
                assert p == pytest.approx(expected[value], abs=1e-12)

    def test_rejects_wrong_start_relation(self, movies_db):
        engine = WalkEngine(movies_db)
        (scheme, attribute), *_ = _queries(movies_db, "MOVIES")
        actor = movies_db.facts("ACTORS")[0]
        with pytest.raises(ValueError, match="starts"):
            engine.attribute_rows(actor, [(scheme, attribute)])


class TestFusionBehaviour:
    def test_one_propagation_per_distinct_scheme(self, movies_db, monkeypatch):
        engine = WalkEngine(movies_db)
        queries = _queries(movies_db, "MOVIES")
        distinct = {scheme for scheme, _ in queries}
        assert len(distinct) < len(queries)  # fusion has something to fuse
        calls = []
        original = WalkEngine._single_row
        monkeypatch.setattr(
            WalkEngine,
            "_single_row",
            lambda self, fact, scheme, **kw: calls.append(scheme)
            or original(self, fact, scheme, **kw),
        )
        engine.attribute_rows(movies_db.facts("MOVIES")[0], queries)
        assert len(calls) == len(distinct)
        assert set(calls) == distinct

    def test_distributions_propagate_once_per_distinct_scheme(
        self, movies_db, monkeypatch
    ):
        """``attribute_distributions`` (one arrival's walk targets in the
        one-by-one extender) runs one BFS per distinct scheme and agrees
        bit for bit with per-query ``attribute_distribution``."""
        queries = _queries(movies_db, "MOVIES")
        distinct = {scheme for scheme, _ in queries}
        fact = movies_db.facts("MOVIES")[0]
        serial_engine = WalkEngine(movies_db)
        serial = [
            serial_engine.attribute_distribution(fact, scheme, attribute)
            for scheme, attribute in queries
        ]
        engine = WalkEngine(movies_db)
        calls = []
        original = WalkEngine._bfs_row
        monkeypatch.setattr(
            WalkEngine,
            "_bfs_row",
            lambda self, fact, scheme: calls.append(scheme)
            or original(self, fact, scheme),
        )
        grouped = engine.attribute_distributions(fact, queries)
        assert sorted(map(repr, calls)) == sorted(map(repr, distinct))
        assert len(grouped) == len(serial)
        for entry, expected in zip(grouped, serial):
            if expected is None:
                assert entry is None
                continue
            assert entry.values == expected.values
            assert np.array_equal(entry.probabilities, expected.probabilities)

    def test_never_promotes_to_relation_matrices(self, movies_db):
        engine = WalkEngine(movies_db)
        queries = _queries(movies_db, "MOVIES")
        for fact in movies_db.facts("MOVIES"):
            engine.attribute_rows(fact, queries)
        # the fused path serves single rows; a batch of arrivals must not
        # have built whole-relation CSR matrices
        assert not engine._mass_cache  # noqa: SLF001

    def test_append_extension_is_bit_identical(self, movies_db):
        """Incremental appends: the fused rows on an engine that saw facts
        arrive one batch at a time equal a from-scratch engine's exactly."""
        streamed = movies_db.copy()
        arrival = streamed.facts("COLLABORATIONS")[-1]
        streamed.delete(arrival)
        engine = WalkEngine(streamed)
        queries = _queries(streamed, "MOVIES")
        fact = streamed.facts("MOVIES")[0]
        engine.attribute_rows(fact, queries)  # warm pre-append caches

        streamed.reinsert(arrival)
        engine.add_facts([arrival])
        fresh = WalkEngine(streamed)
        for incremental, scratch in zip(
            engine.attribute_rows(fact, queries),
            fresh.attribute_rows(fact, queries),
        ):
            if scratch is None:
                assert incremental is None
                continue
            assert np.array_equal(incremental[0], scratch[0])
            assert np.array_equal(incremental[1], scratch[1])
