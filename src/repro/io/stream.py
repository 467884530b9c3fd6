"""Streaming adapter: replay an ingested table as a change feed.

Layer: ``io`` (relational ingestion; bridges ``db`` to ``service``).

An ingested corpus is a static snapshot, but the serving layer
(:mod:`repro.service`) consumes ordered :class:`~repro.service.ChangeBatch` streams.
:func:`stream_table` splits one relation's facts into a *base* database
(everything that was "already there") and a :class:`ChangeFeed` of the
held-out tail in original row order — external data usually arrives
time-ordered, so the last rows make the natural stream.  Batch ids embed
the fact-id range they deliver, so regenerating the stream from the same
ingest yields identical ids: the idempotence anchor the service
deduplicates on under at-least-once delivery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.database import Database, Fact
from repro.service.feed import ChangeFeed


@dataclass(frozen=True)
class TableStream:
    """An ingested table split into a base database and an insert feed."""

    base: Database
    """A copy of the ingested database *without* the streamed facts."""

    feed: ChangeFeed
    """The held-out facts as ordered insert batches (original row order)."""

    streamed: tuple[Fact, ...]
    """The held-out facts, in arrival order."""


def stream_table(
    db: Database,
    relation: str,
    *,
    fraction: float = 0.2,
    count: int | None = None,
    batch_size: int = 32,
    name: str | None = None,
    check: bool = True,
) -> TableStream:
    """Hold out the tail of ``relation`` and replay it as insert batches.

    The last ``count`` facts (or ``round(fraction * n)`` when ``count`` is
    None) of the relation — clamped so at least one fact is streamed and at
    least one stays in the base — are deleted from a copy of ``db`` and
    appended to a fresh :class:`ChangeFeed` in ``batch_size`` groups.
    Train a model on ``base``, hand it to an
    :class:`~repro.service.EmbeddingService` over ``base``, and apply the
    feed to drive the online service with external data.

    With ``check`` (the default) the base database is verified to have no
    dangling references into the held-out facts; streaming a relation that
    other relations reference raises with a pointer at the usual fix
    (stream a leaf relation, e.g. the prediction relation).
    """
    facts = db.facts(relation)
    total = len(facts)
    if total < 2:
        raise ValueError(
            f"relation {relation!r} has {total} fact(s); streaming needs at least "
            "two (one to keep in the base, one to stream)"
        )
    if count is None:
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be strictly between 0 and 1")
        count = round(total * fraction)
    count = min(max(count, 1), total - 1)
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")

    base = db.copy()
    streamed = tuple(base.fact(fact.fact_id) for fact in facts[total - count:])
    for fact in streamed:
        base.delete(fact)
    if check:
        problems = base.check_foreign_keys()
        if problems:
            raise ValueError(
                f"streaming the tail of {relation!r} leaves {len(problems)} dangling "
                f"reference(s) in the base database (e.g. {problems[0]}); stream a "
                "relation that nothing references, such as the prediction relation"
            )

    feed = ChangeFeed(name or f"ingest-{relation}")
    for start in range(0, count, batch_size):
        group = streamed[start : start + batch_size]
        feed.append(
            group,
            batch_id=f"{feed.name}:{len(feed):06d}:"
            f"{group[0].fact_id}-{group[-1].fact_id}",
        )
    return TableStream(base=base, feed=feed, streamed=streamed)
