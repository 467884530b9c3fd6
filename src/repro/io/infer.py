"""Schema inference: attribute types, primary keys, and foreign keys.

Layer: ``io`` (relational ingestion; sits on top of ``db``).

Given raw tables (:mod:`repro.io.tables`), this module reconstructs a
typed :class:`~repro.db.schema.Schema`:

* **Types** — a column whose non-null values are all numbers becomes
  :attr:`~repro.db.schema.AttributeType.NUMERIC` (and will receive a
  Gaussian kernel from :func:`repro.kernels.registry.default_kernels`);
  string columns split into ``TEXT`` (mostly-distinct, free-form) and
  ``CATEGORICAL`` (repeating labels, equality kernel); key and
  foreign-key columns are re-typed ``IDENTIFIER`` at the end, because
  surrogate-key values carry no semantic meaning of their own — even when
  they happen to look numeric, a Gaussian kernel over ids is noise.
* **Keys** — the leftmost non-null column with all-distinct values; if no
  single column qualifies, the leftmost all-distinct column *pair*.
* **Foreign keys** — inclusion-dependency candidates scored by name
  similarity.  A column ``S.c`` is a candidate reference of table ``T``'s
  key ``p`` when every non-null value of ``S.c`` occurs in ``T.p`` and
  both columns hold the same value class (numbers join numbers, strings
  join strings).  Candidates are scored by

  ``score = 0.6 · sim(c, T) + 0.4 · sim(c, p)``

  (``sim`` is a normalised :class:`difflib.SequenceMatcher` ratio over
  lower-cased names), the best-scoring target above ``min_fk_score`` wins
  the column, and a mutual key↔key inclusion (two tables in 1:1
  correspondence) keeps only the better-scoring direction.  The heuristic
  is motivated by the foreign-key ablation
  (``benchmarks/bench_ablation_fk_identification.py``), which measures how
  much correctly identified references contribute to accuracy: getting
  foreign keys right is what lets signal flow across relations, so
  ingestion treats their discovery as a first-class concern.

Every decision — chosen keys, accepted and rejected foreign-key
candidates, runner-up targets, type-tie notes — is recorded in an
:class:`InferenceReport` so inference is auditable and correctable through
the override spec (:mod:`repro.io.overrides`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from difflib import SequenceMatcher
from itertools import combinations
from typing import Any, Callable, Mapping, Sequence

from repro.db.schema import Attribute, AttributeType, ForeignKey, RelationSchema, Schema
from repro.io.errors import InferenceError
from repro.io.tables import RawTable, is_number, value_class

RELATION_NAME_WEIGHT = 0.6
"""Weight of the source-column ↔ target-*relation* name similarity."""

KEY_NAME_WEIGHT = 0.4
"""Weight of the source-column ↔ target-*key-column* name similarity."""

DEFAULT_MIN_FK_SCORE = 0.3
"""Candidates scoring below this are rejected (tune via the override spec)."""

AMBIGUITY_MARGIN = 0.1
"""A runner-up within this margin of the winner is reported as ambiguous."""

TEXT_DISTINCT_RATIO = 0.8
"""Minimum distinct/total ratio for a string column to be considered TEXT."""


# ---------------------------------------------------------------- reporting


@dataclass
class ColumnDecision:
    """Why one column got its type."""

    type: AttributeType
    reason: str


@dataclass
class ForeignKeyDecision:
    """One accepted or rejected foreign-key candidate."""

    source: str
    source_attr: str
    target: str
    target_attr: str
    score: float
    accepted: bool
    reason: str
    runners_up: tuple[str, ...] = ()
    """Other targets within :data:`AMBIGUITY_MARGIN` of the winner."""

    @property
    def name(self) -> str:
        return f"{self.source}[{self.source_attr}]->{self.target}[{self.target_attr}]"


@dataclass
class InferenceReport:
    """A full audit trail of one schema-inference run."""

    columns: dict[str, dict[str, ColumnDecision]] = field(default_factory=dict)
    keys: dict[str, tuple[tuple[str, ...], str]] = field(default_factory=dict)
    foreign_keys: list[ForeignKeyDecision] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def accepted_foreign_keys(self) -> list[ForeignKeyDecision]:
        return [d for d in self.foreign_keys if d.accepted]

    @property
    def ambiguous_foreign_keys(self) -> list[ForeignKeyDecision]:
        """Accepted decisions that had a close runner-up target."""
        return [d for d in self.foreign_keys if d.accepted and d.runners_up]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe document (written as ``report.json`` by the CLI)."""
        return {
            "columns": {
                table: {
                    name: {"type": decision.type.value, "reason": decision.reason}
                    for name, decision in decisions.items()
                }
                for table, decisions in self.columns.items()
            },
            "keys": {
                table: {"key": list(key), "reason": reason}
                for table, (key, reason) in self.keys.items()
            },
            "foreign_keys": [
                {
                    "name": d.name,
                    "score": round(d.score, 4),
                    "accepted": d.accepted,
                    "reason": d.reason,
                    "runners_up": list(d.runners_up),
                }
                for d in self.foreign_keys
            ],
            "notes": list(self.notes),
        }

    def format(self) -> str:
        """A human-readable summary (printed by ``python -m repro ingest --report``)."""
        lines: list[str] = []
        for table, (key, reason) in self.keys.items():
            lines.append(f"{table}: key ({', '.join(key)}) — {reason}")
            for name, decision in self.columns.get(table, {}).items():
                lines.append(f"  {name}: {decision.type.value} — {decision.reason}")
        accepted = self.accepted_foreign_keys
        lines.append(f"foreign keys ({len(accepted)} accepted):")
        for d in self.foreign_keys:
            flag = "+" if d.accepted else "-"
            lines.append(f"  {flag} {d.name} (score {d.score:.2f}) — {d.reason}")
            for other in d.runners_up:
                lines.append(f"      runner-up: {other}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


# ------------------------------------------------------------------- types


def infer_column_type(values: Sequence[Any]) -> ColumnDecision:
    """Infer the :class:`AttributeType` of one column from its values.

    Tie rules (all recorded in the decision's reason):

    * no non-null evidence → ``CATEGORICAL`` by default;
    * every non-null value a number → ``NUMERIC``;
    * numbers *and* strings mixed → ``CATEGORICAL`` (strings win: a column
      that is not uniformly numeric is treated as labels);
    * strings → ``TEXT`` when mostly distinct (ratio ≥ 0.8) and free-form
      (half the values contain whitespace, or the average length ≥ 15),
      ``CATEGORICAL`` otherwise.
    """
    present = [v for v in values if v is not None]
    if not present:
        return ColumnDecision(
            AttributeType.CATEGORICAL, "no non-null values; defaulted to categorical"
        )
    numbers = sum(1 for v in present if is_number(v))
    if numbers == len(present):
        return ColumnDecision(
            AttributeType.NUMERIC, f"all {len(present)} non-null values are numeric"
        )
    if numbers:
        return ColumnDecision(
            AttributeType.CATEGORICAL,
            f"type tie: {numbers} numeric and {len(present) - numbers} string values; "
            "treated as categorical labels (override with types.<column> = 'numeric')",
        )
    texts = [str(v) for v in present]
    distinct_ratio = len(set(texts)) / len(texts)
    spaced = sum(1 for t in texts if any(ch.isspace() for ch in t)) / len(texts)
    mean_length = sum(len(t) for t in texts) / len(texts)
    if distinct_ratio >= TEXT_DISTINCT_RATIO and (spaced >= 0.5 or mean_length >= 15):
        return ColumnDecision(
            AttributeType.TEXT,
            f"free-form text: {distinct_ratio:.0%} distinct, "
            f"{spaced:.0%} multi-word, mean length {mean_length:.1f}",
        )
    return ColumnDecision(
        AttributeType.CATEGORICAL,
        f"repeating labels: {len(set(texts))} distinct values over {len(texts)} rows",
    )


# -------------------------------------------------------------------- keys


def infer_key(table: RawTable) -> tuple[tuple[str, ...], str]:
    """Infer a primary key: leftmost unique column, else leftmost unique pair.

    Returns ``(key_attributes, reason)``.  An empty table gets its first
    column (vacuously unique).  Raises :class:`InferenceError` when neither
    a single column nor a pair is a key — the message points at the
    ``relations.<table>.key`` override.
    """
    if not table.rows:
        return (table.columns[0],), "empty table; defaulted to the first column"
    columns = {name: table.column_values(name) for name in table.columns}
    for name in table.columns:
        values = columns[name]
        if None in values:
            continue
        if len(set(values)) == len(values):
            return (name,), f"leftmost column with {len(values)} distinct non-null values"
    for left, right in combinations(table.columns, 2):
        pairs = list(zip(columns[left], columns[right]))
        if any(a is None or b is None for a, b in pairs):
            continue
        if len(set(pairs)) == len(pairs):
            return (left, right), "leftmost column pair with all-distinct non-null values"
    raise InferenceError(
        f"table {table.name!r}: no column (or column pair) is unique and non-null, "
        "so no primary key can be inferred; declare one in the override spec via "
        f'{{"relations": {{"{table.name}": {{"key": [...]}}}}}} or deduplicate the data'
    )


# ------------------------------------------------------------ foreign keys


def name_similarity(left: str, right: str) -> float:
    """Case-insensitive Ratcliff/Obershelp similarity of two names."""
    return SequenceMatcher(None, left.lower(), right.lower()).ratio()


def candidate_score(source_attr: str, target_relation: str, target_attr: str) -> float:
    """The name-similarity score of one inclusion-dependency candidate."""
    return RELATION_NAME_WEIGHT * name_similarity(
        source_attr, target_relation
    ) + KEY_NAME_WEIGHT * name_similarity(source_attr, target_attr)


@dataclass
class _Candidate:
    source: str
    source_attr: str
    target: str
    target_attr: str
    score: float


def discover_foreign_keys(
    tables: Sequence[RawTable],
    keys: Mapping[str, tuple[str, ...]],
    *,
    min_score: float = DEFAULT_MIN_FK_SCORE,
    report: InferenceReport | None = None,
) -> list[ForeignKey]:
    """Discover single-column foreign keys via inclusion + name similarity.

    Tables are visited in their given order and columns in position order,
    so the resulting foreign-key list order is a deterministic function of
    the table order — the property the exact round-trip guarantee rests on.
    Composite keys cannot be discovered (add them via the override spec); a
    note is recorded for every composite-key table skipped as a target.
    """
    report = report if report is not None else InferenceReport()
    value_sets: dict[tuple[str, str], set] = {}
    classes: dict[tuple[str, str], set[str]] = {}
    for table in tables:
        for column in table.columns:
            present = [v for v in table.column_values(column) if v is not None]
            value_sets[(table.name, column)] = set(present)
            classes[(table.name, column)] = {value_class(v) for v in present}

    targets: list[tuple[str, str]] = []  # (relation, single key column)
    for table in tables:
        key = keys[table.name]
        if len(key) == 1:
            targets.append((table.name, key[0]))
        else:
            report.notes.append(
                f"{table.name}: composite key ({', '.join(key)}) cannot be a "
                "discovered foreign-key target; add such references via the "
                'override spec ("foreign_keys": {"add": [...]})'
            )

    chosen: dict[tuple[str, str], _Candidate] = {}
    for table in tables:
        for column in table.columns:
            source_values = value_sets[(table.name, column)]
            if not source_values:
                continue
            candidates: list[_Candidate] = []
            for target, target_attr in targets:
                if target == table.name and target_attr == column:
                    continue  # a column trivially includes itself
                if classes[(table.name, column)] != classes[(target, target_attr)]:
                    continue  # numbers join numbers, strings join strings
                if not source_values <= value_sets[(target, target_attr)]:
                    continue
                candidates.append(
                    _Candidate(
                        table.name, column, target, target_attr,
                        candidate_score(column, target, target_attr),
                    )
                )
            if not candidates:
                continue
            best = max(candidates, key=lambda c: c.score)
            runners_up = tuple(
                f"{c.target}[{c.target_attr}] (score {c.score:.2f})"
                for c in candidates
                if c is not best and best.score - c.score < AMBIGUITY_MARGIN
            )
            if best.score < min_score:
                report.foreign_keys.append(
                    ForeignKeyDecision(
                        best.source, best.source_attr, best.target, best.target_attr,
                        best.score, False,
                        f"inclusion holds but the name-similarity score is below "
                        f"min_fk_score={min_score}; force it via the override spec "
                        "if the reference is real",
                    )
                )
                continue
            chosen[(table.name, column)] = best
            reason = "inclusion dependency with the best name-similarity score"
            if runners_up:
                reason += "; close runner-up targets exist — verify or override"
            report.foreign_keys.append(
                ForeignKeyDecision(
                    best.source, best.source_attr, best.target, best.target_attr,
                    best.score, True, reason, runners_up,
                )
            )

    _resolve_mutual_keys(chosen, keys, {t.name: i for i, t in enumerate(tables)}, report)
    return [
        ForeignKey(c.source, (c.source_attr,), c.target, (c.target_attr,))
        for c in chosen.values()
    ]


def _resolve_mutual_keys(
    chosen: dict[tuple[str, str], _Candidate],
    keys: Mapping[str, tuple[str, ...]],
    table_order: Mapping[str, int],
    report: InferenceReport,
) -> None:
    """Keep only the better direction of a mutual key↔key inclusion.

    When two tables are in 1:1 correspondence (every key value of each
    occurs in the other), inclusion holds both ways but real data has one
    *referencing* side.  The lower-scoring direction is dropped; an exact
    tie keeps the direction whose source table appears later in the input
    (references usually point backwards to earlier-created tables).
    """
    for (source, column), candidate in list(chosen.items()):
        if (source, column) not in chosen:  # already dropped by a prior pass
            continue
        reverse = chosen.get((candidate.target, candidate.target_attr))
        if reverse is None or (reverse.target, reverse.target_attr) != (source, column):
            continue
        if keys.get(source) != (column,):
            continue  # only key↔key correspondences are symmetric
        if candidate.score == reverse.score:
            # exact tie: keep the later table's outgoing reference
            loser = min(candidate, reverse, key=lambda c: table_order[c.source])
        else:
            loser = min(candidate, reverse, key=lambda c: c.score)
        winner = reverse if loser is candidate else candidate
        del chosen[(loser.source, loser.source_attr)]
        for decision in report.foreign_keys:
            if decision.accepted and (decision.source, decision.source_attr) == (
                loser.source, loser.source_attr,
            ):
                decision.accepted = False
                decision.reason = (
                    f"mutual inclusion with {winner.source}[{winner.source_attr}]->"
                    f"{winner.target}[{winner.target_attr}] (score {winner.score:.2f} "
                    f"vs {loser.score:.2f}); kept the better-named direction only"
                )


# ------------------------------------------------------------------ schema


def infer_schema(
    tables: Sequence[RawTable],
    *,
    min_fk_score: float = DEFAULT_MIN_FK_SCORE,
    type_overrides: Mapping[str, Mapping[str, AttributeType]] | None = None,
    key_overrides: Mapping[str, Sequence[str]] | None = None,
    transform: Callable[[Schema], Schema] | None = None,
) -> tuple[Schema, InferenceReport]:
    """Infer a full :class:`Schema` (types, keys, foreign keys) from raw tables.

    ``type_overrides`` / ``key_overrides`` pin individual decisions (the
    override spec of :mod:`repro.io.overrides` feeds them in); overridden
    types are never re-typed to ``IDENTIFIER`` afterwards.  ``transform``
    — when given — rewrites the schema *between* foreign-key discovery and
    identifier re-typing (the pipeline passes the override spec's
    foreign-key add/remove step), so a column forced into a foreign key
    becomes an identifier and a column whose inferred foreign key is
    removed keeps its data-inferred type.  Returns the schema together
    with the :class:`InferenceReport` explaining it.
    """
    type_overrides = type_overrides or {}
    key_overrides = key_overrides or {}
    report = InferenceReport()

    types: dict[tuple[str, str], AttributeType] = {}
    pinned: set[tuple[str, str]] = set()
    keys: dict[str, tuple[str, ...]] = {}
    for table in tables:
        report.columns[table.name] = {}
        for column in table.columns:
            override = type_overrides.get(table.name, {}).get(column)
            if override is not None:
                decision = ColumnDecision(override, "overridden by the override spec")
                pinned.add((table.name, column))
            else:
                decision = infer_column_type(table.column_values(column))
            report.columns[table.name][column] = decision
            types[(table.name, column)] = decision.type
        if table.name in key_overrides:
            keys[table.name] = tuple(key_overrides[table.name])
            report.keys[table.name] = (keys[table.name], "overridden by the override spec")
        else:
            keys[table.name], reason = infer_key(table)
            report.keys[table.name] = (keys[table.name], reason)

    foreign_keys = discover_foreign_keys(
        tables, keys, min_score=min_fk_score, report=report
    )
    schema = _build_schema(tables, types, keys)
    schema = Schema(schema.relations, foreign_keys)
    if transform is not None:
        schema = transform(schema)

    # Key and foreign-key columns (of the *final* FK set) are identifiers:
    # their values are handles, not quantities, so they must not receive a
    # Gaussian kernel downstream.
    identifier_columns: set[tuple[str, str]] = set()
    for table in tables:
        for attr in keys[table.name]:
            identifier_columns.add((table.name, attr))
    for fk in schema.foreign_keys:
        for attr in fk.source_attrs:
            identifier_columns.add((fk.source, attr))
        for attr in fk.target_attrs:
            identifier_columns.add((fk.target, attr))
    for spot in identifier_columns - pinned:
        if types[spot] is not AttributeType.IDENTIFIER:
            types[spot] = AttributeType.IDENTIFIER
            table_name, column = spot
            decision = report.columns[table_name][column]
            decision.type = AttributeType.IDENTIFIER
            decision.reason += "; re-typed identifier (key or foreign-key column)"

    retyped = _build_schema(tables, types, keys)
    return Schema(retyped.relations, schema.foreign_keys), report


def _build_schema(
    tables: Sequence[RawTable],
    types: Mapping[tuple[str, str], AttributeType],
    keys: Mapping[str, tuple[str, ...]],
) -> Schema:
    return Schema(
        RelationSchema(
            table.name,
            [Attribute(column, types[(table.name, column)]) for column in table.columns],
            keys[table.name],
        )
        for table in tables
    )
