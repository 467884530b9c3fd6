"""Hyper-parameter configurations (Table II of the paper).

The defaults reproduce Table II: FoRWaRD uses an embedding dimension of 100,
5 000 samples, batch size 50 000, maximum walk length 1–3 and 5–10 epochs;
Node2Vec uses dimension 100, 40 walks per node of 30 steps, a context window
of 5, 20 negatives per positive, batch size 40 000 and 10 epochs.  The
dynamic phase uses 2 500 extension samples for FoRWaRD and 5 continuation
epochs for Node2Vec (Section VI-C-2).  Learning rates are not reported in
the paper; the defaults below were chosen so training converges on all five
benchmarks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

#: Accepted Python types per declared field type.  ``bool`` is checked before
#: ``int`` (it is an ``int`` subclass); ``float`` fields accept ints.
_ACCEPTED: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
}


class ConfigBase:
    """Dict round-tripping shared by every hyper-parameter dataclass.

    Subclasses are plain dataclasses; this mixin adds :meth:`to_dict` and a
    validating :meth:`from_dict` so configs can travel through JSON/YAML
    files, method-spec strings (:mod:`repro.api.registry`) and saved-model
    metadata without losing type safety.  ``from_dict`` rejects unknown keys
    and type mismatches with actionable messages instead of letting bad
    values surface deep inside training.
    """

    def to_dict(self) -> dict[str, Any]:
        """The config as a JSON-safe ``{field: value}`` dict."""
        return dataclasses.asdict(self)  # type: ignore[call-overload]

    @classmethod
    def field_types(cls) -> dict[str, str]:
        """Declared type *name* of every config field, in declaration order.

        Annotations arrive as strings under ``from __future__ import
        annotations`` but as type objects without it; both normalise to the
        name here so validation works for extension configs either way.
        """
        return {
            f.name: (f.type.__name__ if isinstance(f.type, type) else str(f.type))
            for f in dataclasses.fields(cls)  # type: ignore[arg-type]
        }

    @classmethod
    def from_dict(cls, values: Mapping[str, Any]):
        """Build a validated config from a mapping.

        Raises ``ValueError`` naming the offending key for unknown fields
        (listing the valid ones) and for type mismatches (stating the
        expected and received type); range violations are caught by the
        dataclass's own ``__post_init__``.
        """
        types = cls.field_types()
        cleaned: dict[str, Any] = {}
        for key, value in values.items():
            if key not in types:
                raise ValueError(
                    f"{cls.__name__} has no parameter {key!r}; "
                    f"valid parameters: {', '.join(types)}"
                )
            declared = types[key]
            accepted = _ACCEPTED.get(declared)
            if accepted is not None:
                if isinstance(value, bool) and declared != "bool":
                    raise ValueError(
                        f"{cls.__name__}.{key} expects {declared}, got {value!r} (bool)"
                    )
                if not isinstance(value, accepted):
                    raise ValueError(
                        f"{cls.__name__}.{key} expects {declared}, "
                        f"got {value!r} ({type(value).__name__})"
                    )
            cleaned[key] = value
        return cls(**cleaned)


@dataclass
class ForwardConfig(ConfigBase):
    """Hyper-parameters of the FoRWaRD embedder."""

    dimension: int = 100
    """Embedding dimension ``d``."""

    n_samples: int = 5_000
    """Training samples drawn per walk target ``(s, A)`` (``n_samples``)."""

    batch_size: int = 50_000
    """Mini-batch size of the stochastic gradient descent."""

    max_walk_length: int = 2
    """Maximum walk-scheme length ``ℓ_max`` (the paper uses 1–3)."""

    epochs: int = 5
    """Number of training epochs (the paper uses 5–10)."""

    learning_rate: float = 0.01
    """Adam learning rate (not reported in the paper)."""

    n_new_samples: int = 2_500
    """Linear-equation samples per target when embedding a new tuple."""

    init_scale: float = 0.1
    """Standard deviation of the random initialisation of ``φ`` and ``ψ``."""

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.max_walk_length < 0:
            raise ValueError("max_walk_length must be non-negative")
        if self.epochs <= 0 or self.n_samples <= 0 or self.batch_size <= 0:
            raise ValueError("epochs, n_samples and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.n_new_samples <= 0:
            raise ValueError("n_new_samples must be positive")


@dataclass
class Node2VecConfig(ConfigBase):
    """Hyper-parameters of the Node2Vec adaptation."""

    dimension: int = 100
    """Embedding dimension."""

    walks_per_node: int = 40
    """Number of random walks started at every node."""

    walk_length: int = 30
    """Number of steps per walk."""

    window_size: int = 5
    """Skip-gram context window."""

    negatives_per_positive: int = 20
    """Negative samples per positive (center, context) pair."""

    batch_size: int = 40_000
    """Mini-batch size."""

    epochs: int = 10
    """Training epochs in the static phase."""

    dynamic_epochs: int = 5
    """Training epochs of the continuation in the dynamic phase."""

    learning_rate: float = 0.025
    """Adam learning rate (not reported in the paper)."""

    p: float = 1.0
    """Node2Vec return parameter."""

    q: float = 1.0
    """Node2Vec in-out parameter."""

    dynamic_walks_per_node: int = 10
    """Walks per new node sampled in the dynamic phase."""

    identify_foreign_keys: bool = True
    """Merge value nodes linked by foreign keys (Section IV).  Disabling this
    is an ablation that shows how much the FK identification contributes."""

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.walks_per_node <= 0 or self.walk_length <= 0:
            raise ValueError("walks_per_node and walk_length must be positive")
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if self.epochs <= 0 or self.dynamic_epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.dynamic_walks_per_node <= 0:
            raise ValueError("dynamic_walks_per_node must be positive")
