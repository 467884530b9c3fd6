"""Concrete :class:`~repro.api.protocol.Embedder` implementations.

Layer: ``api`` (unified estimator surface over :mod:`repro.core`).

Each class is a thin stateful shell over the corresponding trainer/extender
pair in :mod:`repro.core` — the numerics are untouched, so a fit through
this API is bit-identical to calling the core classes directly with the
same seed.  All are registered in :mod:`repro.api.registry`, which is what
``make_embedder("forward(dimension=64)")`` resolves against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Iterable, Mapping, Sequence

import numpy as np

from repro.api.protocol import Embedder
from repro.api.registry import register_method
from repro.core.base import TupleEmbedding
from repro.core.config import ForwardConfig, Node2VecConfig
from repro.core.forward import ForwardEmbedder, ForwardModel
from repro.core.forward_dynamic import ForwardDynamicExtender, anchor_key
from repro.core.node2vec import Node2VecEmbedder, Node2VecModel
from repro.core.node2vec_dynamic import Node2VecDynamicExtender
from repro.db.database import Database, Fact
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import WalkEngine


@register_method(
    "forward",
    config=ForwardConfig,
    aliases={"dim": "dimension", "samples": "n_samples", "walks": "n_samples",
             "lr": "learning_rate"},
    summary="FoRWaRD: walk-scheme kernel regression on one relation "
    "(static fit + stable dynamic extension)",
)
class ForwardEmbedding(Embedder):
    """FoRWaRD behind the estimator protocol (Sections V and V-E).

    ``fit(db, relation)`` trains :class:`~repro.core.forward.ForwardEmbedder`
    on one relation; ``partial_fit`` solves the least-squares extension of
    newly inserted facts through a lazily created
    :class:`~repro.core.forward_dynamic.ForwardDynamicExtender`, configured
    via :meth:`~repro.api.protocol.Embedder.configure_extension`.
    """

    name: ClassVar[str] = "forward"
    supports_partial_fit: ClassVar[bool] = True
    supports_recompute: ClassVar[bool] = True

    def __init__(self, config: ForwardConfig | None = None, *, kernels=None):
        super().__init__(config or ForwardConfig())
        self.kernels = kernels
        self._shared_engine: "WalkEngine | None" = None
        self._extender: ForwardDynamicExtender | None = None
        self._recompute_old_paths = False
        self._extension_rng: int | np.random.Generator | None = None

    @classmethod
    def from_model(
        cls,
        model: ForwardModel,
        db: Database,
        *,
        engine: "WalkEngine | None" = None,
    ) -> "ForwardEmbedding":
        """Wrap an already trained :class:`ForwardModel` (e.g. loaded from disk)."""
        embedder = cls(model.config)
        embedder.model_ = model
        embedder.db_ = db
        embedder._trained_fact_ids = frozenset(model.fact_row)
        embedder._shared_engine = engine
        return embedder

    # ------------------------------------------------------------- fitting

    def fit(
        self,
        db: Database,
        relation: str | None = None,
        *,
        rng: int | np.random.Generator | None = None,
        engine: "WalkEngine | None" = None,
    ) -> "ForwardEmbedding":
        if relation is None:
            raise ValueError(
                "forward embeds one relation at a time; call fit(db, relation)"
            )
        trainer = ForwardEmbedder(
            db, relation, self.config, kernels=self.kernels, rng=rng, engine=engine
        )
        self.model_ = trainer.fit()
        self.db_ = db
        self._trained_fact_ids = frozenset(self.model_.fact_row)
        self._shared_engine = trainer.engine  # compiled during fit; reused below
        self._extender = None
        return self

    def transform(self, facts: Iterable[Fact] | None = None) -> TupleEmbedding:
        self._check_fitted()
        full = self.model_.embedding()
        if facts is None:
            return full
        return full.restrict([f for f in facts if f in full])

    @property
    def dimension(self) -> int:
        return self.model_.dimension if self.is_fitted else int(self.config.dimension)

    # --------------------------------------------------- dynamic extension

    def configure_extension(
        self,
        *,
        recompute_old_paths: bool = False,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self._recompute_old_paths = recompute_old_paths
        self._extension_rng = rng
        self._extender = None

    @property
    def extender(self) -> ForwardDynamicExtender:
        """The bound dynamic extender (created on first use)."""
        self._check_fitted()
        if self._extender is None:
            self._extender = ForwardDynamicExtender(
                self.model_,
                self.db_,
                recompute_old_paths=self._recompute_old_paths,
                rng=self._extension_rng,
                engine=self._shared_engine,
            )
            self._shared_engine = self._extender.engine
        return self._extender

    def partial_fit(self, facts: Sequence[Fact]) -> TupleEmbedding:
        return self.extender.extend(facts)

    def notify_inserted(self, facts: Sequence[Fact]) -> None:
        self.extender.notify_inserted(facts)

    def notify_deleted(self, facts: Sequence[Fact]) -> None:
        self.extender.notify_deleted(facts)

    def notify_updated(self, facts: Sequence[Fact]) -> None:
        self.extender.notify_updated(facts)

    # ------------------------------------------------------- serving hooks

    @property
    def tracked_relation(self) -> str | None:
        self._check_fitted()
        return self.model_.relation

    @property
    def supports_on_arrival(self) -> bool:
        # a model restored from disk has no training-time distribution cache;
        # one-by-one extension would silently fall back to the trained centroid
        self._check_fitted()
        return bool(self.model_.distributions)

    def is_trained(self, fact_id: int) -> bool:
        self._check_fitted()
        return int(fact_id) in self.model_.fact_row

    @property
    def embedded_fact_ids(self) -> tuple[int, ...]:
        self._check_fitted()
        return (*self.model_.fact_ids, *self.model_.extended_fact_ids)

    def recompute_extension(
        self, facts: Sequence[Fact], seed: int | None
    ) -> Mapping[Fact, np.ndarray]:
        extender = self.extender
        # the seed keys the anchor picks; the same seed gives the same key,
        # so re-keying every pass only matters when the seed changes
        extender.key = anchor_key(seed)
        facts = list(facts)
        vectors = extender.extend_batch(facts)
        updates: dict[Fact, np.ndarray] = {}
        for fact in facts:
            vector = vectors[fact.fact_id]
            self.model_.add_extended(fact, vector)
            updates[fact] = vector
        return updates

    @property
    def engine(self) -> "WalkEngine":
        return self.extender.engine


@register_method(
    "node2vec",
    config=Node2VecConfig,
    aliases={"dim": "dimension", "walks": "walks_per_node", "lr": "learning_rate"},
    summary="Node2Vec adaptation: skip-gram over the fact/value graph "
    "(static fit + aligned continuation of new nodes)",
)
class Node2VecEmbedding(Embedder):
    """The Node2Vec adaptation behind the estimator protocol (Section IV).

    ``fit`` embeds every fact of the database; ``partial_fit`` is the
    *aligned* dynamic extension — skip-gram training continues on walks from
    the new nodes with all old embeddings frozen, so existing vectors stay
    bit-stable.
    """

    name: ClassVar[str] = "node2vec"
    supports_partial_fit: ClassVar[bool] = True

    def __init__(self, config: Node2VecConfig | None = None):
        super().__init__(config or Node2VecConfig())
        self._extender: Node2VecDynamicExtender | None = None
        self._extension_rng: int | np.random.Generator | None = None

    @classmethod
    def from_model(cls, model: Node2VecModel) -> "Node2VecEmbedding":
        """Wrap an already trained :class:`Node2VecModel`."""
        embedder = cls(model.config)
        embedder.model_ = model
        embedder.db_ = model.db
        embedder._trained_fact_ids = frozenset(
            f.fact_id for f in model.db if model.graph.has_fact(f)
        )
        return embedder

    def fit(
        self,
        db: Database,
        relation: str | None = None,
        *,
        rng: int | np.random.Generator | None = None,
        engine: "WalkEngine | None" = None,
    ) -> "Node2VecEmbedding":
        del relation  # Node2Vec embeds every fact of the database
        self.model_ = Node2VecEmbedder(db, self.config, rng=rng, engine=engine).fit()
        self.db_ = db
        self._trained_fact_ids = frozenset(f.fact_id for f in db)
        self._extender = None
        return self

    def transform(self, facts: Iterable[Fact] | None = None) -> TupleEmbedding:
        self._check_fitted()
        return self.model_.embedding(facts)

    def configure_extension(
        self,
        *,
        recompute_old_paths: bool = False,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        # the model's graph is extended in place
        del recompute_old_paths
        self._extension_rng = rng
        self._extender = None

    def partial_fit(self, facts: Sequence[Fact]) -> TupleEmbedding:
        self._check_fitted()
        if self._extender is None:
            self._extender = Node2VecDynamicExtender(
                self.model_, rng=ensure_rng(self._extension_rng)
            )
        return self._extender.extend(facts)


@register_method(
    "node2vec_retrained",
    config=Node2VecConfig,
    aliases={"dim": "dimension", "walks": "walks_per_node", "lr": "learning_rate"},
    summary="Retrain-from-scratch Node2Vec baseline: partial_fit refits the "
    "whole model (no stability guarantee)",
)
class Node2VecRetrainedEmbedding(Node2VecEmbedding):
    """The retrain-from-scratch baseline the paper's stability claim is against.

    ``partial_fit`` throws the model away and refits on the current database,
    so new facts are embedded at full static quality — but every *old*
    embedding changes too.  Useful as the upper-accuracy / zero-stability
    anchor next to the aligned extension.
    """

    name: ClassVar[str] = "node2vec_retrained"

    @property
    def supports_on_arrival(self) -> bool:
        # every partial_fit produces a *new* embedding space; committing it
        # next to frozen earlier vectors would mix incomparable spaces in
        # one store snapshot, so the serving layer must refuse this method
        return False

    def partial_fit(self, facts: Sequence[Fact]) -> TupleEmbedding:
        self._check_fitted()
        rng = ensure_rng(self._extension_rng)
        self.model_ = Node2VecEmbedder(self.db_, self.config, rng=rng).fit()
        self._extender = None
        return self.transform(facts)
