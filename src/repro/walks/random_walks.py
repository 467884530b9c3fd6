"""Random walks over database facts and their destination distributions.

Given a start fact ``f`` and a walk scheme ``s``, the paper defines the
distribution ``W(f, s)`` over walks obtained by repeatedly selecting the next
valid fact uniformly at random, and the random variable ``d_{f,s}`` mapping a
walk to its destination fact.  The destination distribution can be computed
exactly by breadth-first propagation along the scheme (Section V-A), which
is what :func:`destination_distribution` does.  It is the reference the
compiled :class:`~repro.engine.WalkEngine` is tested against.
:func:`sample_walk` draws one walk at a time, the Monte-Carlo view of the
same law.  FoRWaRD's training (Equation (5)) samples from the engine's
attribute matrices, not through this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.db.database import Database, Fact
from repro.utils.rng import ensure_rng
from repro.walks.schemes import Direction, WalkScheme, WalkStep


@dataclass(frozen=True)
class DestinationDistribution:
    """The exact distribution of ``d_{f,s}`` over destination facts."""

    scheme: WalkScheme
    facts: tuple[Fact, ...]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "probabilities", probs)
        if len(self.facts) != probs.shape[0]:
            raise ValueError("facts and probabilities must have the same length")

    @property
    def is_empty(self) -> bool:
        return len(self.facts) == 0

    def support(self) -> tuple[Fact, ...]:
        return self.facts

    def probability_of(self, fact: Fact) -> float:
        """``Pr(d_{f,s} = fact)``, zero when the fact is not in the support."""
        for candidate, prob in zip(self.facts, self.probabilities):
            if candidate.fact_id == fact.fact_id:
                return float(prob)
        return 0.0


@dataclass(frozen=True)
class AttributeDistribution:
    """The distribution of ``d_{f,s}[A]`` over non-null attribute values.

    Following the paper's convention, the distribution is the posterior given
    ``d_{f,s}[A] ≠ ⊥``; when every destination has a null in ``A`` the
    distribution does not exist and callers receive ``None`` instead.
    """

    scheme: WalkScheme
    attribute: str
    values: tuple[Any, ...]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "probabilities", probs)
        if len(self.values) != probs.shape[0]:
            raise ValueError("values and probabilities must have the same length")

    def probability_of(self, value: Any) -> float:
        total = 0.0
        for candidate, prob in zip(self.values, self.probabilities):
            if candidate == value:
                total += float(prob)
        return total


def _step_candidates(db: Database, fact: Fact, step: WalkStep) -> tuple[Fact, ...]:
    """The set ``{g ∈ R_k | g[B_k] = fact[A_{k-1}]}`` for one walk step."""
    if step.direction is Direction.FORWARD:
        target = db.referenced_fact(fact, step.foreign_key)
        return (target,) if target is not None else ()
    return db.referencing_facts(fact, step.foreign_key)


def destination_distribution(
    db: Database, fact: Fact, scheme: WalkScheme
) -> DestinationDistribution:
    """Exact destination distribution of random walks with ``scheme`` from ``fact``.

    Walk prefixes that reach a fact with no valid continuation are dropped
    and the remaining mass is renormalised; if no complete walk exists the
    returned distribution is empty.
    """
    if fact.relation != scheme.start_relation:
        raise ValueError(
            f"fact is from relation {fact.relation!r} but scheme starts at "
            f"{scheme.start_relation!r}"
        )
    current: dict[int, tuple[Fact, float]] = {fact.fact_id: (fact, 1.0)}
    for step in scheme.steps:
        upcoming: dict[int, tuple[Fact, float]] = {}
        for current_fact, mass in current.values():
            candidates = _step_candidates(db, current_fact, step)
            if not candidates:
                continue
            share = mass / len(candidates)
            for candidate in candidates:
                existing = upcoming.get(candidate.fact_id)
                if existing is None:
                    upcoming[candidate.fact_id] = (candidate, share)
                else:
                    upcoming[candidate.fact_id] = (candidate, existing[1] + share)
        current = upcoming
        if not current:
            break
    if not current:
        return DestinationDistribution(scheme, (), np.zeros(0))
    facts = tuple(entry[0] for entry in current.values())
    probs = np.array([entry[1] for entry in current.values()], dtype=np.float64)
    probs = probs / probs.sum()
    return DestinationDistribution(scheme, facts, probs)


def attribute_distribution(
    db: Database, fact: Fact, scheme: WalkScheme, attribute: str
) -> AttributeDistribution | None:
    """The distribution of ``d_{f,s}[A]``, or None when it does not exist."""
    destinations = destination_distribution(db, fact, scheme)
    if destinations.is_empty:
        return None
    value_mass: dict[Any, float] = {}
    for destination, prob in zip(destinations.facts, destinations.probabilities):
        value = destination[attribute]
        if value is None:
            continue
        value_mass[value] = value_mass.get(value, 0.0) + float(prob)
    if not value_mass:
        return None
    values = tuple(value_mass.keys())
    probs = np.array([value_mass[v] for v in values], dtype=np.float64)
    probs = probs / probs.sum()
    return AttributeDistribution(scheme, attribute, values, probs)


def sample_walk(
    db: Database,
    fact: Fact,
    scheme: WalkScheme,
    rng: int | np.random.Generator | None = None,
) -> list[Fact] | None:
    """Sample one walk with ``scheme`` from ``fact``; None if it dead-ends."""
    generator = ensure_rng(rng)
    walk = [fact]
    current = fact
    for step in scheme.steps:
        candidates = _step_candidates(db, current, step)
        if not candidates:
            return None
        current = candidates[int(generator.integers(len(candidates)))]
        walk.append(current)
    return walk

