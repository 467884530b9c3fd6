"""The estimator protocol every embedding method implements.

Layer: ``api`` (unified estimator surface; uses ``core``, used by
``evaluation``, ``service``, ``io`` and the CLI).

:class:`Embedder` is the sklearn-style contract of the whole system: every
method — FoRWaRD, the Node2Vec adaptation, any future baseline — is a
stateful estimator with

* ``fit(db, relation)`` — train the static embedding and return ``self``;
* ``transform(facts)`` — read embeddings off the fitted model;
* ``partial_fit(batch)`` — embed newly inserted facts incrementally
  (the paper's dynamic extension), when the method supports it.

Capabilities the serving layer needs beyond the big three are expressed as
small hooks with safe defaults (``supports_recompute``, ``tracked_relation``,
``engine_version``, …) so :class:`~repro.service.service.EmbeddingService`
can drive *any* embedder that implements ``partial_fit``, not just FoRWaRD.
Concrete implementations live in :mod:`repro.api.embedders`; string-spec
construction (``make_embedder("forward(dimension=64)")``) in
:mod:`repro.api.registry`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, Mapping, Sequence

import numpy as np

from repro.core.base import TupleEmbedding
from repro.db.database import Database, Fact

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import WalkEngine


class NotFittedError(RuntimeError):
    """Raised when ``transform``/``partial_fit`` is called before ``fit``."""


class Embedder(abc.ABC):
    """A named embedding estimator with static fit and dynamic extension.

    Subclasses set :attr:`name`, implement :meth:`fit` / :meth:`transform`,
    and — when the method can embed newly inserted facts without retraining
    from scratch — set :attr:`supports_partial_fit` and implement
    :meth:`partial_fit`.  The fitted state lives in ``model_`` (sklearn's
    trailing-underscore convention) and the training database in ``db_``.
    """

    name: ClassVar[str] = "embedder"

    #: Whether :meth:`partial_fit` is implemented.
    supports_partial_fit: ClassVar[bool] = False

    #: Whether :meth:`recompute_extension` is implemented (the service's
    #: ``recompute`` policy needs it for one-shot-equivalent replays).
    supports_recompute: ClassVar[bool] = False

    def __init__(self, config: Any = None):
        self.config = config
        self.model_: Any = None
        self.db_: Database | None = None
        self._trained_fact_ids: frozenset[int] | None = None

    # ------------------------------------------------------------- fitting

    @property
    def is_fitted(self) -> bool:
        return self.model_ is not None

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(
                f"this {self.name!r} embedder is not fitted; call fit(db, ...) first"
            )

    @abc.abstractmethod
    def fit(
        self,
        db: Database,
        relation: str | None = None,
        *,
        rng: int | np.random.Generator | None = None,
        engine: "WalkEngine | None" = None,
    ) -> "Embedder":
        """Train the static embedding on ``db`` and return ``self``.

        ``relation`` names the relation to embed for methods that embed one
        relation (FoRWaRD); whole-database methods ignore it.  ``rng`` seeds
        every stochastic step so two fits of the same spec and seed are
        bit-identical; ``engine`` optionally shares a compiled
        :class:`~repro.engine.engine.WalkEngine`.
        """

    @abc.abstractmethod
    def transform(self, facts: Iterable[Fact] | None = None) -> TupleEmbedding:
        """Embeddings of ``facts`` (default: everything the model embeds).

        Facts the model has no embedding for are silently omitted, so the
        result may be smaller than the request.
        """

    @property
    def dimension(self) -> int:
        """The embedding dimension (available before and after fitting)."""
        return int(self.config.dimension)

    # --------------------------------------------------- dynamic extension

    def configure_extension(
        self,
        *,
        recompute_old_paths: bool = False,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        """Configure how :meth:`partial_fit` embeds subsequent batches.

        ``recompute_old_paths`` selects the paper's all-at-once setting for
        methods that distinguish it (FoRWaRD); ``rng`` seeds the extension.
        Called by the drivers and the service at bind time; the default
        implementation ignores every argument, which is correct for methods
        without extension state.
        """

    def partial_fit(self, facts: Sequence[Fact]) -> TupleEmbedding:
        """Embed newly inserted facts; existing embeddings stay untouched.

        Returns only the new facts' embeddings.  Methods that cannot extend
        incrementally leave :attr:`supports_partial_fit` false and inherit
        this ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"method {self.name!r} does not support partial_fit"
        )

    def notify_inserted(self, facts: Sequence[Fact]) -> None:
        """Hook called after ``facts`` were inserted into the database.

        FoRWaRD appends them to its compiled engine here; methods without
        incremental engine state need not override.
        """

    def notify_deleted(self, facts: Sequence[Fact]) -> None:
        """Hook called after ``facts`` were deleted from the database.

        FoRWaRD tombstones them in its compiled engine and discards their
        dynamically extended embeddings; methods without incremental engine
        state need not override (their stale internal state simply no longer
        influences facts the store has tombstoned).
        """

    def notify_updated(self, facts: Sequence[Fact]) -> None:
        """Hook called after ``facts`` were updated in place (same ids).

        ``facts`` carry the post-update values.  FoRWaRD re-encodes them in
        its compiled engine and discards the extended embeddings of updated
        *streamed* facts so a subsequent ``partial_fit`` re-derives them;
        trained embeddings stay frozen (the stability guarantee).
        """

    # ------------------------------------------------------- serving hooks

    @property
    def tracked_relation(self) -> str | None:
        """Relation whose streamed facts the service re-embeds (None = all)."""
        return None

    @property
    def supports_on_arrival(self) -> bool:
        """Whether the one-by-one (``on_arrival``) serving policy is usable."""
        return self.supports_partial_fit

    @property
    def trained_fact_ids(self) -> frozenset[int]:
        """Fact ids of the *static* training set (excluding extensions).

        Implementations should assign ``self._trained_fact_ids`` inside
        ``fit``; the fallback snapshots ``transform()`` on first access,
        which is only correct while no ``partial_fit`` has run yet.
        """
        if self._trained_fact_ids is None:
            self._check_fitted()
            self._trained_fact_ids = frozenset(self.transform().fact_ids)
        return self._trained_fact_ids

    def is_trained(self, fact_id: int) -> bool:
        """Whether ``fact_id`` was part of the static training set."""
        return int(fact_id) in self.trained_fact_ids

    @property
    def embedded_fact_ids(self) -> tuple[int, ...]:
        """Every fact id the fitted model currently embeds, stable order."""
        self._check_fitted()
        return self.transform().fact_ids

    def recompute_extension(
        self, facts: Sequence[Fact], seed: int | None
    ) -> Mapping[Fact, np.ndarray]:
        """Deterministically re-embed all streamed ``facts`` (in order).

        The service's ``recompute`` policy calls this after every commit;
        re-seeding from ``seed`` makes the result independent of how the
        arrivals were batched.  Only methods with
        :attr:`supports_recompute` implement it.
        """
        raise NotImplementedError(
            f"method {self.name!r} does not support the recompute policy"
        )

    @property
    def engine(self) -> "WalkEngine | None":
        """The compiled walk engine backing extension, if the method has one."""
        return None

    @property
    def engine_version(self) -> int:
        """Monotonic version of the backing engine (0 for engineless methods)."""
        engine = self.engine
        return engine.version if engine is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fitted" if self.is_fitted else "unfitted"
        return f"{type(self).__name__}(name={self.name!r}, {state})"
