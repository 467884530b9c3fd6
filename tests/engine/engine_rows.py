"""One fact's rows of the engine's batched matrices, next to the reference.

The engine answers no per-fact query: a fact's destination or attribute
distribution is its row of :meth:`WalkEngine.destination_matrix` or
:meth:`WalkEngine.attribute_matrix`.  These helpers read such a row as a
``{key: probability}`` map, read the reference BFS
(:mod:`repro.walks.random_walks`) the same way, and compare two maps to
1e-12.
"""

import pytest

from repro.walks import attribute_distribution, destination_distribution


def row_map(matrix, labels, row):
    """``{labels[column]: probability}`` of one CSR row; None when it is empty."""
    lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
    if lo == hi:
        return None
    return {
        labels[column]: float(p)
        for column, p in zip(matrix.indices[lo:hi].tolist(), matrix.data[lo:hi])
    }


def destination_map(engine, fact, scheme):
    """``{end fact id: probability}``: the fact's row of ``destination_matrix``."""
    start = engine.compiled.relations[scheme.start_relation]
    end_ids = [int(fid) for fid in engine.compiled.relations[scheme.end_relation].fact_ids]
    return row_map(engine.destination_matrix(scheme), end_ids, start.row_of[fact.fact_id]) or {}


def attribute_map(engine, fact, scheme, attribute):
    """``{value: probability}``: the fact's row of ``attribute_matrix``, or None."""
    matrix, vocab = engine.attribute_matrix(scheme, attribute)
    row = engine.compiled.relations[scheme.start_relation].row_of[fact.fact_id]
    return row_map(matrix, vocab, row)


def reference_destination_map(db, fact, scheme):
    """The reference BFS's ``W(f, s)`` as ``{end fact id: probability}``."""
    distribution = destination_distribution(db, fact, scheme)
    return {f.fact_id: float(p) for f, p in zip(distribution.facts, distribution.probabilities)}


def reference_attribute_map(db, fact, scheme, attribute):
    """The reference BFS's ``d_{f,s}[A]`` as ``{value: probability}``, or None."""
    distribution = attribute_distribution(db, fact, scheme, attribute)
    if distribution is None:
        return None
    out = {}
    for value, p in zip(distribution.values, distribution.probabilities):
        out[value] = out.get(value, 0.0) + float(p)
    return out


def assert_maps_equal(reference, computed, context):
    """Same support, and every probability within 1e-12 (None only with None)."""
    if reference is None or computed is None:
        assert reference is None and computed is None, context
        return
    assert set(reference) == set(computed), context
    for key, p in reference.items():
        assert computed[key] == pytest.approx(p, abs=1e-12), (context, key)
