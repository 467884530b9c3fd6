"""End-to-end ingestion pipeline: files → typed ``Database`` → ``Dataset``.

Layer: ``io`` (relational ingestion; top of the stack — uses ``db``,
``kernels``, ``core``, ``datasets`` and ``service``).

The high-level entry points bundle the whole pipeline of this package —
read (:mod:`repro.io.readers`), infer (:mod:`repro.io.infer`), override
(:mod:`repro.io.overrides`), build (:mod:`repro.io.build`) — and return an
:class:`IngestResult` that plugs into the rest of the system: a validated
:class:`~repro.db.database.Database`, the kernel registry mapping inferred
types to domain kernels, a :class:`~repro.datasets.base.Dataset` wrapper
for the experiment drivers, and registration into the dataset registry.

The companion CLI is ``python -m repro ingest`` (:mod:`repro.cli.ingest`),
which drives this pipeline end to end — files → database → embeddings →
saved model in one command.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.datasets.base import Dataset
from repro.datasets.registry import register_dataset
from repro.db.database import Database
from repro.db.schema import Schema
from repro.io.errors import MalformedSourceError, OverrideError
from repro.io.infer import DEFAULT_MIN_FK_SCORE, InferenceReport, infer_schema
from repro.io.overrides import OverrideSpec, load_overrides
from repro.io.readers import (
    SQLITE_SUFFIXES,
    read_csv_dir,
    read_sqlite,
    resolve_relation_order,
)
from repro.io.build import build_database
from repro.io.tables import DEFAULT_NULL_VALUES, RawTable


@dataclass
class IngestResult:
    """Everything one ingestion run produced."""

    database: Database
    schema: Schema
    report: InferenceReport
    source: str
    table_rows: dict[str, int]
    """Rows ingested per table, in table order."""

    def kernels(self, numeric_variance: float | None = None):
        """The kernel registry induced by the inferred types.

        Numeric attributes get Gaussian kernels fit to their ingested
        active domains; categorical/text/identifier attributes fall back
        to the equality kernel — the paper's default assignment applied to
        the inferred schema.
        """
        from repro.kernels.registry import default_kernels

        return default_kernels(self.database, numeric_variance=numeric_variance)

    def dataset(
        self,
        prediction_relation: str,
        prediction_attribute: str,
        name: str | None = None,
    ) -> Dataset:
        """Wrap the ingested database as a :class:`Dataset` for the drivers."""
        return Dataset(
            name=name or f"ingested:{Path(self.source).name}",
            db=self.database,
            prediction_relation=prediction_relation,
            prediction_attribute=prediction_attribute,
            description=f"Ingested from {self.source}",
        )

    def summary(self) -> str:
        """A one-paragraph human-readable description of the run."""
        counts = self.schema.summary()
        return (
            f"{self.source}: {counts['relations']} relations, "
            f"{sum(self.table_rows.values())} rows, {counts['attributes']} attributes, "
            f"{counts['foreign_keys']} foreign keys discovered"
        )


def ingest_tables(
    tables: Sequence[RawTable],
    *,
    overrides: OverrideSpec | Mapping[str, Any] | str | Path | None = None,
    source: str = "in-memory tables",
    allow_dangling: bool = False,
) -> IngestResult:
    """Infer a schema over raw tables and build the validated database.

    The core of every import path: applies the override spec (types, keys,
    foreign-key additions/removals, acceptance threshold, and — when the
    tables were not already ordered by a reader — ``relation_order``),
    runs inference, and inserts all rows.  Raises :class:`IngestionError`
    subclasses with actionable messages on any defect; ``null_values`` in
    the spec is rejected here because it only means something while
    *parsing* CSV text, and this function receives already-parsed values.
    """
    spec = overrides if isinstance(overrides, OverrideSpec) else load_overrides(overrides)
    if spec.null_values is not None:
        raise OverrideError(
            "override spec (null_values): applies while parsing CSV text, but "
            "this source provides already-parsed values; use ingest_csv_dir on "
            "the CSV files, or apply the spellings with repro.io.tables.parse_cell"
        )
    if spec.relation_order is not None:
        by_name = {table.name: table for table in tables}
        order = resolve_relation_order(
            [table.name for table in tables], spec.relation_order, source
        )
        tables = [by_name[name] for name in order]
    spec.validate_against(tables)
    schema, report = infer_schema(
        tables,
        min_fk_score=spec.min_fk_score if spec.min_fk_score is not None else DEFAULT_MIN_FK_SCORE,
        type_overrides=spec.type_overrides,
        key_overrides=spec.key_overrides,
        transform=spec.apply_foreign_keys,
    )
    database = build_database(tables, schema, allow_dangling=allow_dangling)
    return IngestResult(
        database=database,
        schema=schema,
        report=report,
        source=source,
        table_rows={table.name: table.num_rows for table in tables},
    )


def ingest_csv_dir(
    directory: str | Path,
    *,
    overrides: OverrideSpec | Mapping[str, Any] | str | Path | None = None,
    delimiter: str = ",",
    encoding: str = "utf-8-sig",
    allow_dangling: bool = False,
) -> IngestResult:
    """Ingest a directory of ``*.csv`` files (one relation per file).

    Tables are ordered by file name unless the override spec pins
    ``relation_order`` (the order matters: it determines the foreign-key
    list order and therefore the walk-scheme enumeration downstream — see
    ``docs/INGESTION.md``).  Null spellings default to
    :data:`~repro.io.tables.DEFAULT_NULL_VALUES` and are overridable via
    ``null_values`` in the spec.  Both reader-level spec fields are
    consumed here, so the downstream :func:`ingest_tables` call sees a
    spec without them.
    """
    spec = overrides if isinstance(overrides, OverrideSpec) else load_overrides(overrides)
    tables = read_csv_dir(
        directory,
        null_values=(
            spec.null_values if spec.null_values is not None else DEFAULT_NULL_VALUES
        ),
        relation_order=spec.relation_order,
        delimiter=delimiter,
        encoding=encoding,
    )
    spec = replace(spec, null_values=None, relation_order=None)  # consumed above
    return ingest_tables(
        tables, overrides=spec, source=str(directory), allow_dangling=allow_dangling
    )


def ingest_sqlite(
    path: str | Path,
    *,
    overrides: OverrideSpec | Mapping[str, Any] | str | Path | None = None,
    allow_dangling: bool = False,
) -> IngestResult:
    """Ingest a SQLite file (tables in creation order, rows in rowid order).

    ``relation_order`` in the spec re-orders the tables (strictly
    validated, like the CSV path); ``null_values`` is rejected because
    SQLite values arrive typed — there is no text to interpret.
    """
    spec = overrides if isinstance(overrides, OverrideSpec) else load_overrides(overrides)
    tables = read_sqlite(path)
    return ingest_tables(
        tables, overrides=spec, source=str(path), allow_dangling=allow_dangling
    )


def ingest_path(
    source: str | Path,
    *,
    overrides: OverrideSpec | Mapping[str, Any] | str | Path | None = None,
    delimiter: str | None = None,
    encoding: str | None = None,
    allow_dangling: bool = False,
) -> IngestResult:
    """Ingest ``source``, auto-detecting the format.

    Directories are read as CSV corpora (``delimiter``/``encoding`` apply
    there and are rejected for SQLite sources, where they mean nothing);
    files with a SQLite suffix (``.sqlite``/``.sqlite3``/``.db``) are read
    as SQLite databases.
    """
    source = Path(source)
    if not source.exists():
        raise MalformedSourceError(
            f"{source}: no such file or directory; check the path"
        )
    if source.is_dir():
        csv_kwargs = {}
        if delimiter is not None:
            csv_kwargs["delimiter"] = delimiter
        if encoding is not None:
            csv_kwargs["encoding"] = encoding
        return ingest_csv_dir(
            source, overrides=overrides, allow_dangling=allow_dangling, **csv_kwargs
        )
    if source.suffix.lower() in SQLITE_SUFFIXES:
        if delimiter is not None or encoding is not None:
            raise MalformedSourceError(
                f"{source}: delimiter/encoding apply to CSV directories only; "
                "a SQLite file needs neither"
            )
        return ingest_sqlite(source, overrides=overrides, allow_dangling=allow_dangling)
    raise MalformedSourceError(
        f"{source}: cannot auto-detect the format; pass a directory of .csv files "
        f"or a SQLite file ({'/'.join(SQLITE_SUFFIXES)})"
    )


def register_ingested(
    name: str,
    source: str | Path,
    prediction_relation: str,
    prediction_attribute: str,
    *,
    overrides: OverrideSpec | Mapping[str, Any] | str | Path | None = None,
    overwrite: bool = False,
) -> None:
    """Register an external corpus in the dataset registry.

    After this, ``load_dataset(name)`` re-ingests ``source`` and returns a
    :class:`Dataset`, so every experiment driver and benchmark accepts the
    corpus by name.  The registry's ``scale``/``seed`` arguments are
    accepted and ignored — an external corpus has one fixed size.
    """

    def builder(scale: float = 1.0, seed: int | None = 0) -> Dataset:
        del scale, seed  # fixed external corpus: nothing to scale or seed
        result = ingest_path(source, overrides=overrides)
        return result.dataset(prediction_relation, prediction_attribute, name=name)

    register_dataset(name, builder, overwrite=overwrite)
