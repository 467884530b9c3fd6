"""Tests for the unified ``python -m repro`` command line."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import __version__
from repro.cli.main import SUBCOMMANDS, main

TINY_FORWARD = (
    "forward(dimension=8, epochs=2, n_samples=200, batch_size=512, max_walk_length=1)"
)


def run_embed(entry, out, seed):
    """One tiny mondial embed invocation through the given entry point."""
    return entry([
        "embed", "--dataset", "mondial", "--scale", "0.08",
        "--method", TINY_FORWARD, "--out", str(out), "--seed", str(seed),
    ])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {__version__}"


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_every_subcommand_has_help(sub, capsys):
    with pytest.raises(SystemExit) as info:
        main([sub, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "--seed" in out and "--config" in out  # the shared option layer


def test_no_subcommand_prints_help_and_fails(capsys):
    assert main([]) == 2
    assert "command" in capsys.readouterr().err


def test_unknown_subcommand_fails(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_bad_attribute_is_actionable_not_a_traceback(tiny_csv_dir, tmp_path, capsys):
    code = main([
        "embed", "--source", str(tiny_csv_dir), "--relation", "TARGET",
        "--attribute", "nonexistent", "--out", str(tmp_path / "e.npz"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "no attribute 'nonexistent'" in err and "its attributes are" in err


def test_bad_relation_on_dataset_is_actionable(tmp_path, capsys):
    code = main([
        "embed", "--dataset", "mondial", "--scale", "0.08",
        "--relation", "GHOST", "--out", str(tmp_path / "e.npz"),
    ])
    assert code == 2
    assert "unknown relation 'GHOST'" in capsys.readouterr().err


def test_bad_method_spec_is_actionable(tiny_csv_dir, tmp_path, capsys):
    code = main([
        "embed", "--source", str(tiny_csv_dir), "--relation", "TARGET",
        "--method", "no_such(dim=2)", "--out", str(tmp_path / "e.npz"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown embedding method" in err and "forward" in err


def test_method_spec_conflicting_with_hyper_flags_is_rejected(
    tiny_csv_dir, tmp_path, capsys
):
    code = main([
        "ingest", str(tiny_csv_dir), "--out", str(tmp_path / "o"),
        "--relation", "TARGET", "--method", "forward", "--dimension", "64",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "--method supersedes" in err and "dimension" in err


def test_default_replay_streams_at_least_twenty_facts():
    """The default ``repro replay`` measures a stream, not a handful of
    facts: partitioned with the parser's defaults (no model is fitted),
    Mondial streams at least 20 facts of the prediction relation."""
    from repro.cli.main import build_parser
    from repro.datasets import load_dataset
    from repro.dynamic.partition import partition_dataset

    args = build_parser()[0].parse_args(["replay"])
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    partition = partition_dataset(dataset, ratio_new=args.insert_ratio, rng=args.seed)
    streamed = [
        fact
        for batch in partition.new_batches
        for fact in batch
        if fact.relation == partition.prediction_relation
    ]
    assert len(streamed) >= 20


class TestEmbedSubcommand:
    def test_embed_dataset_writes_versioned_npz(self, tmp_path, capsys):
        out = tmp_path / "emb.npz"
        code = run_embed(main, out, seed=3)
        assert code == 0
        assert f"repro {__version__}" in capsys.readouterr().out
        data = np.load(out)
        assert str(data["repro_version"]) == __version__
        assert data["vectors"].shape[1] == 8

    def test_same_seed_is_bit_identical(self, tmp_path):
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        assert run_embed(main, first, seed=5) == 0
        assert run_embed(main, second, seed=5) == 0
        a, b = np.load(first), np.load(second)
        np.testing.assert_array_equal(a["fact_ids"], b["fact_ids"])
        np.testing.assert_array_equal(a["vectors"], b["vectors"])

    def test_non_prediction_relation_embeds_unmasked(self, tmp_path, capsys):
        out = tmp_path / "country.npz"
        assert main([
            "embed", "--dataset", "mondial", "--scale", "0.08",
            "--relation", "COUNTRY", "--method", TINY_FORWARD,
            "--out", str(out), "--seed", "0",
        ]) == 0
        assert "'COUNTRY'" in capsys.readouterr().out and out.exists()

    def test_different_seed_differs(self, tmp_path):
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        assert run_embed(main, first, seed=5) == 0
        assert run_embed(main, second, seed=6) == 0
        a, b = np.load(first), np.load(second)
        assert not np.array_equal(a["vectors"], b["vectors"])


class TestConfigFileLayer:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "dataset": "mondial", "scale": 0.08,
            "method": "forward(dimension=8, epochs=2, n_samples=200, "
                      "batch_size=512, max_walk_length=1)",
            "out": str(tmp_path / "from_cfg.npz"),
        }))
        assert main(["embed", "--config", str(config)]) == 0
        assert (tmp_path / "from_cfg.npz").exists()

    def test_explicit_flags_override_the_file(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "dataset": "mondial", "scale": 0.08,
            "method": "forward(dimension=8, epochs=2, n_samples=200, "
                      "batch_size=512, max_walk_length=1)",
            "out": str(tmp_path / "ignored.npz"),
        }))
        out = tmp_path / "flag_wins.npz"
        assert main(["embed", "--config", str(config), "--out", str(out)]) == 0
        assert out.exists() and not (tmp_path / "ignored.npz").exists()

    def test_dashed_keys_are_accepted(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"no-mask": True, "dataset": "mondial",
                                      "scale": 0.08,
                                      "method": "forward(dimension=8, epochs=2, "
                                      "n_samples=200, batch_size=512, max_walk_length=1)",
                                      "out": str(tmp_path / "o.npz")}))
        assert main(["embed", "--config", str(config)]) == 0

    def test_explicit_flag_beats_config_across_mutually_exclusive_group(
        self, tiny_csv_dir, tmp_path
    ):
        # the file pins a dataset, the user types --source: the typed flag
        # must win instead of tripping the dataset-xor-source check
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dataset": "mondial", "scale": 0.08}))
        out = tmp_path / "src_wins.npz"
        assert main([
            "embed", "--config", str(config), "--source", str(tiny_csv_dir),
            "--relation", "TARGET", "--attribute", "target",
            "--method", TINY_FORWARD, "--out", str(out), "--seed", "0",
        ]) == 0
        assert out.exists()
        # an unambiguous argparse abbreviation counts as explicitly typed too
        out2 = tmp_path / "abbrev_wins.npz"
        assert main([
            "embed", "--config", str(config), "--sour", str(tiny_csv_dir),
            "--relation", "TARGET", "--attribute", "target",
            "--method", TINY_FORWARD, "--out", str(out2), "--seed", "0",
        ]) == 0
        assert out2.exists()

    def test_wrong_typed_config_values_are_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dataset": "mondial", "seed": 1.5}))
        assert main(["embed", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "expects int" in err and "1.5" in err
        # an int for a float option coerces instead of failing
        config.write_text(json.dumps({
            "dataset": "mondial", "scale": 1, "out": str(tmp_path / "i.npz"),
            "method": TINY_FORWARD,
        }))
        assert main(["embed", "--config", str(config), "--scale", "0.08"]) == 0

    def test_choices_are_enforced_for_config_values(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"experiment": "statics"}))
        assert main([
            "evaluate", "--dataset", "mondial", "--config", str(config),
        ]) == 2
        err = capsys.readouterr().err
        assert "must be one of static, dynamic" in err and "'statics'" in err

    def test_scalar_config_value_for_list_option_is_wrapped(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "dataset": "mondial", "scale": 0.08, "methods": TINY_FORWARD,
            "experiment": "static", "n-splits": 2, "no-baselines": True,
        }))
        assert main(["evaluate", "--config", str(config), "--seed", "0"]) == 0
        assert "forward" in capsys.readouterr().out

    def test_positionals_are_not_config_keys(self, tiny_csv_dir, tmp_path, capsys):
        # ingest's 'source' positional cannot come from the file, so the
        # unknown-key message must not advertise it
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"no_such": 1}))
        assert main(["ingest", str(tiny_csv_dir), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "valid options" in err and "source" not in err.split("valid options")[1]

    def test_option_name_keys_reach_renamed_dests(self, tiny_csv_dir, tmp_path):
        # --samples has dest n_samples and --walk-length dest max_walk_length;
        # config keys are the documented long option names, and --out may
        # come from the file too
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "out": str(tmp_path / "artifacts"),
            "relation": "TARGET", "attribute": "target",
            "dimension": 8, "epochs": 2, "samples": 200,
            "walk-length": 1, "batch-size": 512,
        }))
        assert main(["ingest", str(tiny_csv_dir), "--config", str(config)]) == 0
        assert (tmp_path / "artifacts" / "embeddings.npz").exists()

    def test_unknown_config_key_is_actionable(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"no_such_option": 1}))
        assert main(["embed", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "unknown option 'no_such_option'" in err and "valid options" in err

    def test_missing_config_file_is_actionable(self, tmp_path, capsys):
        assert main(["embed", "--config", str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_non_mapping_config_is_actionable(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        assert main(["embed", "--config", str(config)]) == 2
        assert "mapping" in capsys.readouterr().err


class TestEvaluateSubcommand:
    def test_static_experiment_from_specs(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = main([
            "evaluate", "--dataset", "mondial", "--scale", "0.08",
            "--methods", "forward(dimension=8, epochs=2, n_samples=200, "
            "batch_size=512, max_walk_length=1)",
            "--experiment", "static", "--n-splits", "3",
            "--no-baselines", "--out", str(out), "--seed", "0",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "forward" in printed
        report = json.loads(out.read_text())
        assert report["repro_version"] == __version__
        assert report["results"][0]["method"] == "forward"
        assert 0.0 <= report["results"][0]["accuracy_mean"] <= 1.0
