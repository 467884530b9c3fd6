"""Relational ingestion layer: external CSV/SQLite corpora → typed databases.

Layer: ``io`` — the top of the dependency stack; uses ``db`` (schema and
database construction), ``kernels`` (type → kernel mapping), ``core``
(CLI embedding), ``datasets`` (registry integration) and ``service`` (the
streaming adapter).  Nothing inside the library imports ``io``.

The pipeline::

    files ──read──► RawTable ──infer──► Schema ──build──► Database
             readers.py       infer.py   + overrides.py    build.py

* :func:`ingest_csv_dir` / :func:`ingest_sqlite` / :func:`ingest_path` —
  one-call ingestion with per-column type inference, primary-key
  detection, and foreign-key discovery (inclusion dependencies scored by
  name similarity), returning an :class:`IngestResult`;
* :func:`load_overrides` / :class:`OverrideSpec` — the declarative
  correction layer for when inference needs a human decision;
* :func:`export_csv_dir` / :func:`export_sqlite` — schema-less dumps of
  any :class:`~repro.db.database.Database` (the exact inverses of the
  importers; round trips reproduce embeddings bit-for-bit);
* :func:`stream_table` — replay an ingested table through a
  :class:`~repro.service.ChangeFeed` so external data drives the online
  embedding service;
* :func:`register_ingested` — make an external corpus available to every
  experiment driver via ``load_dataset(name)``;
* ``python -m repro ingest`` — the file → database → embeddings → saved
  model command line (:mod:`repro.cli.ingest`).

See ``docs/INGESTION.md`` for the full guide.
"""

from repro.io.errors import (
    InferenceError,
    IngestionError,
    MalformedSourceError,
    OverrideError,
)
from repro.io.export import export_csv_dir, export_sqlite
from repro.io.infer import (
    InferenceReport,
    discover_foreign_keys,
    infer_column_type,
    infer_key,
    infer_schema,
)
from repro.io.overrides import OverrideSpec, load_overrides
from repro.io.pipeline import (
    IngestResult,
    ingest_csv_dir,
    ingest_path,
    ingest_sqlite,
    ingest_tables,
    register_ingested,
)
from repro.io.readers import read_csv_dir, read_sqlite
from repro.io.stream import TableStream, stream_table
from repro.io.tables import DEFAULT_NULL_VALUES, RawTable

__all__ = [
    # errors
    "IngestionError",
    "MalformedSourceError",
    "InferenceError",
    "OverrideError",
    # raw tables and readers
    "RawTable",
    "DEFAULT_NULL_VALUES",
    "read_csv_dir",
    "read_sqlite",
    # inference
    "InferenceReport",
    "infer_column_type",
    "infer_key",
    "infer_schema",
    "discover_foreign_keys",
    # overrides
    "OverrideSpec",
    "load_overrides",
    # ingestion
    "IngestResult",
    "ingest_tables",
    "ingest_csv_dir",
    "ingest_sqlite",
    "ingest_path",
    "register_ingested",
    # export
    "export_csv_dir",
    "export_sqlite",
    # streaming adapter
    "TableStream",
    "stream_table",
]
