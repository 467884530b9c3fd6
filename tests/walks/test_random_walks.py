"""Tests for random walks and destination distributions (Examples 5.2/5.3)."""

import numpy as np
import pytest

from repro.datasets.movies import movies_database, movies_schema
from repro.walks import (
    Direction,
    WalkScheme,
    WalkStep,
    attribute_distribution,
    destination_distribution,
    sample_walk,
)


@pytest.fixture
def db():
    return movies_database()


def scheme_s5(schema):
    """ACTORS[aid]—COLLAB[actor2], COLLAB[movie]—MOVIES[mid] (Example 5.1)."""
    fk_actor2 = next(
        fk for fk in schema.foreign_keys_to("ACTORS") if fk.source_attrs == ("actor2",)
    )
    fk_movie = next(
        fk for fk in schema.foreign_keys_from("COLLABORATIONS") if fk.target == "MOVIES"
    )
    return WalkScheme(
        "ACTORS",
        (WalkStep(fk_actor2, Direction.BACKWARD), WalkStep(fk_movie, Direction.FORWARD)),
    )


def scheme_s5_from_actor1(schema):
    """Same as s5 but entering COLLABORATIONS through actor1 (paper's s5 variant)."""
    fk_actor1 = next(
        fk for fk in schema.foreign_keys_to("ACTORS") if fk.source_attrs == ("actor1",)
    )
    fk_movie = next(
        fk for fk in schema.foreign_keys_from("COLLABORATIONS") if fk.target == "MOVIES"
    )
    return WalkScheme(
        "ACTORS",
        (WalkStep(fk_actor1, Direction.BACKWARD), WalkStep(fk_movie, Direction.FORWARD)),
    )


class TestExample52And53:
    def test_two_walks_from_a1(self, db):
        """From a1 via actor1 there are exactly two walks, ending at m3 and m6."""
        a1 = db.lookup_by_key("ACTORS", ["a01"])
        dist = destination_distribution(db, a1, scheme_s5_from_actor1(db.schema))
        destinations = {f["mid"] for f in dist.facts}
        assert destinations == {"m03", "m06"}
        assert np.allclose(dist.probabilities, [0.5, 0.5])

    def test_budget_distribution(self, db):
        a1 = db.lookup_by_key("ACTORS", ["a01"])
        dist = attribute_distribution(db, a1, scheme_s5_from_actor1(db.schema), "budget")
        assert dist.probability_of(150) == pytest.approx(0.5)
        assert dist.probability_of(100) == pytest.approx(0.5)

    def test_genre_distribution_conditions_on_non_null(self, db):
        """m3's genre is null, so the posterior puts all mass on 'Bio' (m6)."""
        a1 = db.lookup_by_key("ACTORS", ["a01"])
        dist = attribute_distribution(db, a1, scheme_s5_from_actor1(db.schema), "genre")
        assert dist.probability_of("Bio") == pytest.approx(1.0)

    def test_zero_length_scheme_ends_at_start(self, db):
        a1 = db.lookup_by_key("ACTORS", ["a01"])
        dist = destination_distribution(db, a1, WalkScheme("ACTORS"))
        assert len(dist.facts) == 1 and dist.facts[0] is a1
        assert dist.probabilities[0] == pytest.approx(1.0)


class TestDistributionProperties:
    def test_probabilities_sum_to_one(self, db):
        a4 = db.lookup_by_key("ACTORS", ["a04"])
        dist = destination_distribution(db, a4, scheme_s5_from_actor1(db.schema))
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_dead_end_gives_empty_distribution(self, db):
        # a2 (Watanabe) never appears as actor1, so the actor1-based scheme dead-ends.
        a2 = db.lookup_by_key("ACTORS", ["a02"])
        dist = destination_distribution(db, a2, scheme_s5_from_actor1(db.schema))
        assert dist.is_empty

    def test_missing_attribute_distribution_is_none(self, db):
        a2 = db.lookup_by_key("ACTORS", ["a02"])
        assert attribute_distribution(db, a2, scheme_s5_from_actor1(db.schema), "genre") is None

    def test_wrong_start_relation_rejected(self, db):
        movie = db.facts("MOVIES")[0]
        with pytest.raises(ValueError):
            destination_distribution(db, movie, scheme_s5_from_actor1(db.schema))

    def test_probability_of_absent_fact_is_zero(self, db):
        a1 = db.lookup_by_key("ACTORS", ["a01"])
        dist = destination_distribution(db, a1, scheme_s5_from_actor1(db.schema))
        titanic = db.lookup_by_key("MOVIES", ["m01"])
        assert dist.probability_of(titanic) == 0.0


class TestSampling:
    def test_sample_walk_follows_scheme(self, db):
        a1 = db.lookup_by_key("ACTORS", ["a01"])
        scheme = scheme_s5_from_actor1(db.schema)
        walk = sample_walk(db, a1, scheme, rng=0)
        assert walk is not None
        assert [f.relation for f in walk] == ["ACTORS", "COLLABORATIONS", "MOVIES"]
        assert walk[2]["mid"] in {"m03", "m06"}

    def test_sample_walk_dead_end_returns_none(self, db):
        a2 = db.lookup_by_key("ACTORS", ["a02"])
        assert sample_walk(db, a2, scheme_s5_from_actor1(db.schema), rng=0) is None

    def test_sampled_destinations_match_distribution(self, db):
        a1 = db.lookup_by_key("ACTORS", ["a01"])
        scheme = scheme_s5_from_actor1(db.schema)
        rng = np.random.default_rng(1)
        samples = [sample_walk(db, a1, scheme, rng=rng)[-1]["mid"] for _ in range(300)]
        fraction_m03 = samples.count("m03") / len(samples)
        assert 0.35 < fraction_m03 < 0.65  # both destinations have probability 0.5
