"""Online embedding serving layer.

The experiment drivers exercise the paper's central claim — embeddings stay
consistent under database updates without retraining — as offline batch
jobs.  This package turns that machinery into a long-lived *service*:

* :mod:`repro.service.store` — :class:`EmbeddingStore`, a versioned,
  snapshotable store of tuple embeddings with batched queries (fetch by
  fact, k-nearest-neighbour, per-relation slices);
* :mod:`repro.service.feed` — :class:`ChangeFeed`, an ordered stream of typed change batches (insert / delete / update ops)
  with idempotent batch ids, plus the :func:`partition_feed` adapter that
  replays a dataset's dynamic split and :func:`churn_feed`, which turns the
  same split into a full-CRUD churn workload;
* :mod:`repro.service.service` — :class:`EmbeddingService`, the
  orchestrator that drives any :class:`~repro.api.protocol.Embedder`
  supporting ``partial_fit`` (a :class:`~repro.core.forward.ForwardModel`
  is wrapped on the spot), applies feed batches and commits one store
  version per batch;
* :mod:`repro.service.replay` — the streaming scenario driver behind
  ``python -m repro replay``.
"""

from repro.service.feed import (
    ChangeBatch,
    ChangeFeed,
    ChangeOp,
    churn_feed,
    partition_feed,
)
from repro.service.service import ApplyOutcome, EmbeddingService, ServiceStats
from repro.service.store import EmbeddingStore, StoreSnapshot

__all__ = [
    "ApplyOutcome",
    "ChangeBatch",
    "ChangeFeed",
    "ChangeOp",
    "EmbeddingService",
    "EmbeddingStore",
    "ServiceStats",
    "StoreSnapshot",
    "churn_feed",
    "partition_feed",
]
