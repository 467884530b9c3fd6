"""``WalkEngine.attribute_rows``: one fact's rows of the attribute matrices.

``attribute_rows`` answers every (scheme, attribute) walk target of one
fact as a slice of :meth:`WalkEngine.attribute_matrix`.  It must equal the
per-query matrix rows exactly, agree with the reference BFS, refuse a
scheme that does not start at the fact's relation, and read the same bits
after incremental appends as a fresh engine does, leaving the matrices and
vocabularies it handed out before untouched.
"""

import numpy as np
import pytest
from engine_rows import assert_maps_equal, attribute_map, reference_attribute_map

from repro.engine import WalkEngine
from repro.walks import enumerate_walk_schemes

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
        """Every fact's answer for all queries at once equals, bit for bit,
        its row of ``attribute_matrix`` read one query at a time on a
        separate engine."""
        engine = WalkEngine(movies_db)
        serial_engine = WalkEngine(movies_db)
        queries = _queries(movies_db, "MOVIES")
        assert queries
        for fact in movies_db.facts("MOVIES"):
            fused = engine.attribute_rows(fact, queries)
            assert len(fused) == len(queries)
            for entry, (scheme, attribute) in zip(fused, queries):
                serial = attribute_map(serial_engine, fact, scheme, attribute)
                if serial is None:
                    assert entry is None
                    continue
                values, probabilities = entry
                assert dict(zip(values.tolist(), probabilities.tolist())) == serial

    def test_matches_reference_bfs(self, movies_db):
        engine = WalkEngine(movies_db)
        queries = _queries(movies_db, "MOVIES")
        assert queries
        for fact in movies_db.facts("MOVIES"):
            rows = engine.attribute_rows(fact, queries)
            assert len(rows) == len(queries)
            for entry, (scheme, attribute) in zip(rows, queries):
                computed = None if entry is None else dict(zip(entry[0], entry[1]))
                assert_maps_equal(
                    reference_attribute_map(movies_db, fact, scheme, attribute),
                    computed,
                    (str(scheme), attribute, fact.fact_id),
                )

    def test_rejects_wrong_start_relation(self, movies_db):
        engine = WalkEngine(movies_db)
        (scheme, attribute), *_ = _queries(movies_db, "MOVIES")
        actor = movies_db.facts("ACTORS")[0]
        with pytest.raises(ValueError, match="starts"):
            engine.attribute_rows(actor, [(scheme, attribute)])


class TestFusionBehaviour:
    def test_append_extension_is_bit_identical(self, movies_db):
        """Incremental appends: the rows on an engine that saw facts arrive
        one batch at a time equal a from-scratch engine's exactly, and no
        append or compaction writes into a matrix or vocabulary handed out."""
        streamed = movies_db.copy()
        arrival = streamed.facts("COLLABORATIONS")[-1]
        streamed.delete(arrival)
        engine = WalkEngine(streamed)
        queries = _queries(streamed, "MOVIES")
        fact = streamed.facts("MOVIES")[0]
        engine.attribute_rows(fact, queries)  # warm pre-append matrices

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

        # every matrix and vocabulary handed out stays as it was, bit for
        # bit, while inserts fill the columns' spare capacity and grow them
        # past it, and after a forced compaction
        handed_out, frozen = [], []

        def hand_out():
            for scheme, attribute in queries:
                matrix, vocab = engine.attribute_matrix(scheme, attribute)
                handed_out.append((matrix, vocab))
                frozen.append((matrix.indptr.copy(), matrix.indices.copy(),
                               matrix.data.copy(), vocab.tolist()))

        def assert_unchanged():
            for (matrix, vocab), (indptr, indices, data, values) in zip(handed_out, frozen):
                assert np.array_equal(matrix.indptr, indptr)
                assert np.array_equal(matrix.indices, indices)
                assert np.array_equal(matrix.data, data)
                assert vocab.tolist() == values

        hand_out()
        studios = []
        for i in range(12):
            studio = {"sid": f"s-new{i}", "name": f"N{i}", "loc": f"L{i}"}
            movie = {
                "mid": f"m-new{i}", "studio": f"s-new{i}", "title": f"T{i}",
                "genre": f"G{i}", "budget": 1000 + i,
            }
            added = [streamed.insert("STUDIOS", studio), streamed.insert("MOVIES", movie)]
            studios.append(added[0])
            engine.add_facts(added)
            hand_out()
            assert_unchanged()
        for studio in studios[::2]:
            streamed.delete(studio)
        engine.remove_facts(studios[::2])
        assert engine.compiled.compact()
        hand_out()
        assert_unchanged()
