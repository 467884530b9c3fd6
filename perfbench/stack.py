"""The FoRWaRD serving stack both HTTP workloads set up and tear down.

Set-up is what a deployment does once it holds a database: compile the walk
engine, fit the static model, start the embedding service (which primes the
extension pipeline and commits the baseline store version) and serve it
over HTTP.  The client is the single keep-alive connection the benchmark
drives; it connects on the first request.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ForwardSizes:
    """Static-model hyper-parameters: small, so set-up stays well under a second."""

    dimension: int = 16
    n_samples: int = 400
    batch_size: int = 1024
    max_walk_length: int = 2
    epochs: int = 4
    learning_rate: float = 0.02
    n_new_samples: int = 30


@dataclass
class Stack:
    db: object
    engine: object
    model: object
    service: object
    router: object
    backend: object
    server: object
    client: object

    def close(self) -> None:
        self.client.close()
        self.server.stop()


def start_stack(db, relation: str, sizes: ForwardSizes, seed: int, telemetry) -> Stack:
    from repro.core.config import ForwardConfig
    from repro.core.forward import ForwardEmbedder
    from repro.engine import WalkEngine
    from repro.serve import EmbeddingServer, LocalBackend, ServeClient, SnapshotRouter
    from repro.service.service import EmbeddingService

    config = ForwardConfig(
        dimension=sizes.dimension,
        n_samples=sizes.n_samples,
        batch_size=sizes.batch_size,
        max_walk_length=sizes.max_walk_length,
        epochs=sizes.epochs,
        learning_rate=sizes.learning_rate,
        n_new_samples=sizes.n_new_samples,
    )
    engine = WalkEngine(db)
    model = ForwardEmbedder(db, relation, config, rng=seed, engine=engine).fit()
    service = EmbeddingService(model, db, engine=engine, seed=seed, telemetry=telemetry)
    router = SnapshotRouter(service.store)
    service.attach_router(router)
    backend = LocalBackend(router, telemetry=telemetry)
    server = EmbeddingServer(backend).start()
    client = ServeClient(server.host, server.port)
    return Stack(db, engine, model, service, router, backend, server, client)
