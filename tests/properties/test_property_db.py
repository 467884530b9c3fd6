"""Property-based tests for the relational substrate (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.db import Database
from repro.db.errors import KeyViolation
from repro.datasets.movies import movies_schema


def _random_movie_rows(draw, count):
    rows = []
    for index in range(count):
        rows.append(
            {
                "mid": f"m{index}",
                "studio": draw(st.sampled_from(["s1", "s2", None])),
                "title": draw(st.text(min_size=0, max_size=6)),
                "genre": draw(st.sampled_from(["Drama", "SciFi", None])),
                "budget": draw(st.integers(min_value=0, max_value=500) | st.none()),
            }
        )
    return rows


@st.composite
def movie_databases(draw):
    """Random databases over the Figure-2 schema with consistent FKs."""
    db = Database(movies_schema())
    for sid in ("s1", "s2"):
        db.insert("STUDIOS", {"sid": sid, "name": f"Studio {sid}", "loc": "LA"})
    count = draw(st.integers(min_value=0, max_value=12))
    for row in _random_movie_rows(draw, count):
        db.insert("MOVIES", row)
    return db


@given(movie_databases())
@settings(max_examples=30, deadline=None)
def test_generated_databases_satisfy_constraints(db):
    assert db.check_foreign_keys() == []
    # key index agrees with fact listing
    for fact in db.facts("MOVIES"):
        assert db.lookup_by_key("MOVIES", fact.key_values()) is fact


@given(movie_databases(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_delete_then_reinsert_is_identity(db, random):
    movies = list(db.facts("MOVIES"))
    if not movies:
        return
    victim = random.choice(movies)
    before_ids = {f.fact_id for f in db}
    db.delete(victim)
    db.reinsert(victim)
    assert {f.fact_id for f in db} == before_ids
    assert db.check_foreign_keys() == []


@given(movie_databases(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_cascade_delete_leaves_consistent_database(db, random):
    facts = list(db)
    if not facts:
        return
    victim = random.choice(facts)
    deleted = db.delete_cascade(victim)
    assert db.check_foreign_keys() == []
    deleted_ids = {f.fact_id for f in deleted}
    assert victim.fact_id in deleted_ids
    for fact in db:
        assert fact.fact_id not in deleted_ids


@given(movie_databases())
@settings(max_examples=20, deadline=None)
def test_copy_is_deep_with_respect_to_fact_sets(db):
    clone = db.copy()
    assert {f.fact_id for f in clone} == {f.fact_id for f in db}
    for fact in list(clone.facts("MOVIES")):
        clone.delete(fact)
    assert db.num_facts("MOVIES") >= clone.num_facts("MOVIES")
    assert clone.num_facts("MOVIES") == 0


#: Small key pools, so random histories keep re-using keys: references
#: dangle, resolve, dangle again when their target is deleted or re-keyed.
KEYS = {
    "STUDIOS": ("s1", "s2", "s3"),
    "MOVIES": ("m1", "m2", "m3", "m4"),
    "ACTORS": ("a1", "a2"),
}


def _random_row(draw, relation):
    if relation == "STUDIOS":
        return {"sid": draw(st.sampled_from(KEYS["STUDIOS"])), "loc": "LA"}
    if relation == "MOVIES":
        return {
            "mid": draw(st.sampled_from(KEYS["MOVIES"])),
            "studio": draw(st.sampled_from(KEYS["STUDIOS"] + (None,))),
            "genre": draw(st.sampled_from(["Drama", None])),
        }
    if relation == "ACTORS":
        return {"aid": draw(st.sampled_from(KEYS["ACTORS"]))}
    return {
        "actor1": draw(st.sampled_from(KEYS["ACTORS"])),
        "actor2": draw(st.sampled_from(KEYS["ACTORS"])),
        "movie": draw(st.sampled_from(KEYS["MOVIES"])),
    }


def _fk_state(db):
    """The FK indexes as comparable plain values."""
    forward = {
        name: {fid: target.fact_id for fid, target in index.items()}
        for name, index in db._fk_forward.items()
    }
    backward = {
        name: {fid: set(sources) for fid, sources in index.items()}
        for name, index in db._fk_backward.items()
    }
    dangling = {
        name: {ref: set(sources) for ref, sources in index.items()}
        for name, index in db._dangling.items()
    }
    return forward, backward, dangling


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_fk_indexes_match_rebuild_after_random_crud(data):
    """Incrementally maintained FK indexes — dangling references included —
    equal those of a database rebuilt from the surviving facts."""
    db = Database(movies_schema())
    for _ in range(data.draw(st.integers(1, 30), label="n_ops")):
        op = data.draw(st.sampled_from(["insert", "insert", "delete", "update"]))
        relation = data.draw(st.sampled_from(sorted(KEYS) + ["COLLABORATIONS"]))
        facts = list(db.facts(relation))
        try:
            if op == "insert":
                db.insert(relation, _random_row(data.draw, relation))
            elif op == "delete" and facts:
                db.delete(data.draw(st.sampled_from(facts)))
            elif op == "update" and facts:
                fact = data.draw(st.sampled_from(facts))
                changes = _random_row(data.draw, relation)
                attribute = data.draw(st.sampled_from(sorted(changes)))
                db.update(fact, {attribute: changes[attribute]})
        except KeyViolation:
            continue
    rebuilt = Database(movies_schema())
    for fact in db:
        rebuilt.reinsert(fact)
    assert _fk_state(db) == _fk_state(rebuilt)
    # every non-null reference either resolves or is recorded as dangling
    for fk in db.schema.foreign_keys:
        for fact in db.facts(fk.source):
            ref = fact.project(fk.source_attrs)
            linked = fact.fact_id in db._fk_forward[fk.name]
            waiting = fact.fact_id in db._dangling[fk.name].get(ref, ())
            if any(v is None for v in ref):
                assert not linked and not waiting
            else:
                assert linked != waiting
                assert linked == (db.lookup_by_key(fk.target, ref) is not None)
