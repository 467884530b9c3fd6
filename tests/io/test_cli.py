"""The ``python -m repro ingest`` command line, run in-process."""

from __future__ import annotations

import json

import numpy as np

from repro.core import load_forward_model
from repro.core.persistence import load_embedding
from repro.db.serialization import load_database_json
from repro.cli.ingest import run


def test_ingest_only(tmp_path, mondial_csv_dir, capsys):
    out = tmp_path / "artifacts"
    assert run([str(mondial_csv_dir), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "40 relations" in printed and "40 foreign keys" in printed
    schema = json.loads((out / "schema.json").read_text())
    assert len(schema["relations"]) == 40
    report = json.loads((out / "report.json").read_text())
    assert len(report["foreign_keys"]) >= 40
    restored = load_database_json(out / "database.json")
    assert restored.num_facts() > 0


def test_full_pipeline_to_saved_model(tmp_path, mondial_csv_dir, small_mondial, capsys):
    """file → database → embeddings → saved model, one command."""
    out = tmp_path / "artifacts"
    code = run(
        [
            str(mondial_csv_dir), "--out", str(out),
            "--relation", "TARGET", "--attribute", "target",
            "--dimension", "8", "--epochs", "1", "--samples", "80",
            "--walk-length", "1", "--batch-size", "256",
        ]
    )
    assert code == 0
    assert "embedded" in capsys.readouterr().out
    embedding = load_embedding(out / "embeddings.npz")
    assert embedding.dimension == 8
    assert len(embedding) == small_mondial.db.num_facts("TARGET")
    restored_db = load_database_json(out / "database.json")
    model = load_forward_model(out / "model", restored_db)
    some_id = embedding.fact_ids[0]
    np.testing.assert_array_equal(model.vector(some_id), embedding.vector(some_id))


def test_delimiter_flag_reaches_the_reader(tmp_path, capsys):
    source = tmp_path / "semi"
    source.mkdir()
    (source / "t.csv").write_text("id;x\na;1\nb,c;2\n")
    out = tmp_path / "o"
    assert run([str(source), "--out", str(out)]) == 2  # comma default: ragged
    assert "delimiter" in capsys.readouterr().err
    assert run([str(source), "--out", str(out), "--delimiter", ";"]) == 0
    assert "1 relations" in capsys.readouterr().out


def test_report_flag_prints_decisions(tmp_path, mondial_csv_dir, capsys):
    out = tmp_path / "artifacts"
    assert run([str(mondial_csv_dir), "--out", str(out), "--report"]) == 0
    printed = capsys.readouterr().out
    assert "foreign keys (40 accepted)" in printed
    assert "TARGET[country]->COUNTRY[code]" in printed


def test_errors_are_actionable(tmp_path, capsys):
    # a malformed source fails with exit code 2 and the file named
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "t.csv").write_text("a,b\n1\n")
    assert run([str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "row 2" in capsys.readouterr().err

    # --attribute without --relation
    assert run([str(bad), "--out", str(tmp_path / "o"), "--attribute", "x"]) == 2
    assert "--relation" in capsys.readouterr().err

    # unknown relation to embed
    good = tmp_path / "good"
    good.mkdir()
    (good / "t.csv").write_text("id,x\na,1\nb,2\n")
    assert run([str(good), "--out", str(tmp_path / "o2"), "--relation", "GHOST"]) == 2
    assert "ingested relations are" in capsys.readouterr().err

    # an unknown prediction attribute lists the relation's real attributes
    assert run(
        [str(good), "--out", str(tmp_path / "o5"), "--relation", "t",
         "--attribute", "nope"]
    ) == 2
    assert "its attributes are: id, x" in capsys.readouterr().err

    # a key attribute cannot be the (masked) prediction attribute
    assert run(
        [str(good), "--out", str(tmp_path / "o6"), "--relation", "t",
         "--attribute", "id"]
    ) == 2
    assert "part of the key" in capsys.readouterr().err

    # invalid embedding hyper-parameters fail cleanly, not with a traceback
    assert run(
        [str(good), "--out", str(tmp_path / "o4"), "--relation", "t", "--epochs", "0"]
    ) == 2
    assert "embedding failed" in capsys.readouterr().err

    # embedding failure surfaces as exit 2, artifacts from ingestion remain
    tiny = tmp_path / "tiny"
    tiny.mkdir()
    (tiny / "solo.csv").write_text("id\nonly\n")
    assert run([str(tiny), "--out", str(tmp_path / "o3"), "--relation", "solo"]) == 2
    assert "embedding failed" in capsys.readouterr().err
    assert (tmp_path / "o3" / "schema.json").exists()
