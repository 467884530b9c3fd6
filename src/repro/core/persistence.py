"""Saving and loading embeddings and trained FoRWaRD models.

Downstream applications (record similarity, entity resolution, column
prediction) consume the embedding long after training; these helpers persist
a :class:`TupleEmbedding` to ``.npz`` and a :class:`ForwardModel`'s
parameters (φ, ψ, walk-target metadata) to a directory so the dynamic
extension can be resumed in a later process against the same database.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.base import TupleEmbedding
from repro.core.config import ForwardConfig
from repro.core.forward import ForwardModel
from repro.kernels.base import Kernel
from repro.kernels.categorical import EqualityKernel
from repro.kernels.numeric import GaussianKernel
from repro.kernels.text import EditDistanceKernel, TokenJaccardKernel


def _library_version() -> str:
    """The stamping version (read lazily to avoid an import cycle)."""
    from repro import __version__

    return __version__


def save_embedding(embedding: TupleEmbedding, path: str | Path) -> None:
    """Write a tuple embedding to a ``.npz`` file (fact ids + matrix).

    The file carries the library version it was written by (``repro_version``)
    so saved artifacts are traceable; loaders ignore the stamp.
    """
    fact_ids = np.array(embedding.fact_ids, dtype=np.int64)
    matrix = embedding.matrix(fact_ids) if len(fact_ids) else np.zeros((0, embedding.dimension))
    np.savez_compressed(
        Path(path),
        fact_ids=fact_ids,
        vectors=matrix,
        dimension=np.array([embedding.dimension]),
        repro_version=np.array(_library_version()),
    )


def load_embedding(path: str | Path) -> TupleEmbedding:
    """Load a tuple embedding previously written by :func:`save_embedding`."""
    data = np.load(Path(path))
    embedding = TupleEmbedding(int(data["dimension"][0]))
    for fact_id, vector in zip(data["fact_ids"], data["vectors"]):
        embedding.set(int(fact_id), vector)
    return embedding


def _kernel_spec(kernel: Kernel) -> dict | None:
    """A JSON-safe description of a kernel, or None for unknown custom kernels.

    Exact type matches only: a *subclass* of a built-in kernel computes
    different similarities, so serializing it as its base class would
    silently change embeddings after a reload — it must take the
    unserializable path (warn on save, refit defaults on load) instead.
    """
    if type(kernel) is GaussianKernel:
        return {"type": "gaussian", "variance": kernel.variance}
    if type(kernel) is EqualityKernel:
        return {"type": "equality"}
    if type(kernel) is EditDistanceKernel:
        return {"type": "edit_distance"}
    if type(kernel) is TokenJaccardKernel:
        return {"type": "token_jaccard"}
    return None


def _kernel_from_spec(spec: dict) -> Kernel:
    kind = spec["type"]
    if kind == "gaussian":
        return GaussianKernel(spec["variance"])
    if kind == "equality":
        return EqualityKernel()
    if kind == "edit_distance":
        return EditDistanceKernel()
    if kind == "token_jaccard":
        return TokenJaccardKernel()
    raise ValueError(f"unknown kernel spec {spec!r}")


def save_forward_model(model: ForwardModel, directory: str | Path) -> None:
    """Persist a trained FoRWaRD model's parameters and metadata.

    The save is self-contained for a service restart: besides ``φ``/``ψ``
    and the walk-target list, every target's *kernel state* is stored (e.g.
    the Gaussian bandwidth fitted to the training data), so
    :func:`load_forward_model` reconstructs identical kernels instead of
    refitting them to whatever data the post-restart database happens to
    hold.  The training-time attribute matrices are *not* persisted (they
    are a function of the training database); a model loaded from disk
    therefore extends new tuples with ``recompute_old_paths=True``.
    """
    import warnings

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for target in model.targets:
        if _kernel_spec(target.kernel) is None:
            warnings.warn(
                f"walk target {target} uses a {type(target.kernel).__name__}, which "
                "cannot be serialized; load_forward_model will fall back to the "
                "default kernels fit on the load-time database for this target",
                stacklevel=2,
            )
    np.savez_compressed(
        directory / "parameters.npz",
        phi=model.phi,
        psi=model.psi,
        fact_ids=np.array(model.fact_ids, dtype=np.int64),
        extended_ids=np.array(model.extended_fact_ids, dtype=np.int64),
        extended_vectors=(
            np.vstack([model.vector(fid) for fid in model.extended_fact_ids])
            if model.extended_fact_ids
            else np.zeros((0, model.dimension))
        ),
    )
    config = model.config
    metadata = {
        "repro_version": _library_version(),
        "relation": model.relation,
        "loss_history": list(model.loss_history),
        "config": {
            "dimension": config.dimension,
            "n_samples": config.n_samples,
            "batch_size": config.batch_size,
            "max_walk_length": config.max_walk_length,
            "epochs": config.epochs,
            "learning_rate": config.learning_rate,
            "n_new_samples": config.n_new_samples,
            "init_scale": config.init_scale,
        },
        "targets": [
            {
                "index": t.index,
                "attribute": t.attribute,
                "scheme": str(t.scheme),
                "kernel": _kernel_spec(t.kernel),
            }
            for t in model.targets
        ],
    }
    (directory / "model.json").write_text(json.dumps(metadata, indent=2))


def load_forward_model(directory: str | Path, db) -> ForwardModel:
    """Load a FoRWaRD model saved by :func:`save_forward_model`.

    ``db`` must be over (structurally) the training schema: walk targets are
    re-enumerated from ``db.schema`` and matched against the stored target
    list to guarantee the ψ matrices line up.  Nothing but the schema is
    read from ``db`` — kernels come from the persisted kernel state — so a
    restarted service can load against a freshly restored database whose
    contents have since grown.  (Saves from before kernel state was
    persisted fall back to refitting the default kernels on ``db``.)
    """
    from repro.kernels.registry import default_kernels
    from repro.walks.schemes import walk_targets
    from repro.core.forward import WalkTarget

    directory = Path(directory)
    metadata = json.loads((directory / "model.json").read_text())
    arrays = np.load(directory / "parameters.npz")
    config = ForwardConfig(**metadata["config"])
    pairs = walk_targets(db.schema, metadata["relation"], config.max_walk_length)
    stored = metadata["targets"]
    if len(pairs) != len(stored) or any(
        attr.name != s["attribute"] or str(scheme) != s["scheme"]
        for (scheme, attr), s in zip(pairs, stored)
    ):
        raise ValueError(
            "walk targets derived from the given database do not match the saved model; "
            "was the schema changed since training?"
        )
    fallback = None  # legacy saves without kernel state refit on ``db``
    targets = []
    for index, ((scheme, attr), s) in enumerate(zip(pairs, stored)):
        spec = s.get("kernel")
        if spec is not None:
            kernel = _kernel_from_spec(spec)
        else:
            if fallback is None:
                fallback = default_kernels(db)
            kernel = fallback.get(scheme.end_relation, attr.name)
        targets.append(WalkTarget(index, scheme, attr.name, kernel))
    model = ForwardModel(
        metadata["relation"],
        config,
        targets,
        [int(fid) for fid in arrays["fact_ids"]],
        arrays["phi"],
        arrays["psi"],
        loss_history=metadata["loss_history"],
    )
    for fact_id, vector in zip(arrays["extended_ids"], arrays["extended_vectors"]):
        model.add_extended(int(fact_id), vector)
    return model
