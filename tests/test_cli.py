import re
from pathlib import Path

import numpy as np
import pytest

from promptlab.checkpoint import load_tensors, save_tensors
from promptlab.cli import _build_train_config, build_parser, main, run_grad_check
from promptlab.data import load_dataset
from promptlab.encoder import EncoderState
from promptlab.evaluate import parse_table
from promptlab.trainer import _CONFIG_KEYS, ENV_PREFIX, TrainConfig, load_records

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# Small world so every invocation stays fast.
WORLD = [
    "--classes", "4", "--patch-count", "4", "--patch-dim", "6",
    "--samples-per-class", "8", "--noise-std", "0.2", "--shift", "1.0",
    "--depth", "1", "--width", "16", "--heads", "2", "--output-dim", "8",
]
TRAIN = WORLD + [
    "--m", "2", "--depth-range", "1..1", "--shots", "2",
    "--epochs", "2", "--lr", "0.1", "--batch-size", "8",
]


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_progressive_full_depth(capsys):
    assert main(["params", "--strategy", "progressive",
                 "--m", "16", "--layers", "1..12", "--d", "768"]) == 0
    assert capsys.readouterr().out.strip() == "147456"


def test_params_shallow_counts_one_layer(capsys):
    assert main(["params", "--strategy", "shallow",
                 "--m", "60", "--layers", "1..12", "--d", "512"]) == 0
    assert capsys.readouterr().out.strip() == "30720"


def test_params_deep_counts_span(capsys):
    assert main(["params", "--strategy", "deep",
                 "--m", "4", "--layers", "2..4", "--d", "8"]) == 0
    assert capsys.readouterr().out.strip() == "96"


def test_params_none_is_zero(capsys):
    assert main(["params", "--strategy", "none",
                 "--m", "4", "--layers", "1..2", "--d", "8"]) == 0
    assert capsys.readouterr().out.strip() == "0"


@pytest.mark.parametrize("width", ["0", "-3"])
def test_params_refuses_non_positive_width(width, capsys):
    assert main(["params", "--strategy", "deep",
                 "--m", "2", "--layers", "1..2", "--d", width]) == 1
    assert "error: ConfigError" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------

def test_grad_check_default_passes_all_modes(capsys):
    assert main(["grad-check"]) == 0
    out = capsys.readouterr().out
    for mode in ("ce_only", "ref", "kd"):
        assert f"{mode}: max relative error" in out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_grad_check_single_mode(capsys):
    assert main(["grad-check", "--loss-mode", "ref"]) == 0
    out = capsys.readouterr().out
    assert out.count("max relative error") == 1


def test_grad_check_impossible_tolerance_fails(capsys):
    assert main(["grad-check", "--loss-mode", "ce_only", "--tolerance", "1e-15"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_grad_check_reports_are_finite():
    report = run_grad_check("ref")
    assert np.isfinite(report.max_rel_error)
    assert report.passed


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_runtime_error_exits_one(capsys):
    assert main(["train", "--shots", "3"]) == 1
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("key, text", [("strategy", "bogus"), ("m", "x"),
                                       ("eval_each_epoch", "maybe")])
def test_bad_flag_value_fails_like_bad_env_value(key, text, monkeypatch, capsys):
    assert main(["train", "--" + key.replace("_", "-"), text]) == 1
    from_flag = capsys.readouterr().err
    monkeypatch.setenv(ENV_PREFIX + key.upper(), text)
    assert main(["train"]) == 1
    from_env = capsys.readouterr().err
    assert "ConfigError" in from_flag and from_flag == from_env


def test_unreadable_config_exits_one(capsys):
    assert main(["train", "--config", "/no/such/file.cfg"]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / eval / grid round trips
# ---------------------------------------------------------------------------

def _train_once(tmp_path, tag, extra=()):
    records = tmp_path / f"{tag}.jsonl"
    checkpoint = tmp_path / f"{tag}.bin"
    table = tmp_path / f"{tag}.csv"
    code = main(["train", *TRAIN, "--seeds", "0,1",
                 "--records", str(records), "--checkpoint", str(checkpoint),
                 "--table", str(table), *extra])
    assert code == 0
    return records, checkpoint, table


def test_train_writes_all_artifacts(tmp_path, capsys):
    records, checkpoint, table = _train_once(tmp_path, "run")
    out = capsys.readouterr().out
    assert "seed 0:" in out and "seed 1:" in out
    assert "epochs=2" in out

    loaded = load_records(records)
    assert [r["seed"] for r in loaded] == [0, 1]
    assert len({step["lr"] for step in loaded[0]["steps"]}) == 2  # cosine decays

    prompts = load_tensors(checkpoint)
    assert set(prompts) == {"prompts.layer_0"}
    assert prompts["prompts.layer_0"].shape == (2, 16)

    rows = parse_table(table.read_bytes().decode(), format="csv")
    assert len(rows) == 1
    assert rows[0]["seed_count"] == 2
    assert rows[0]["params"] == 32


def test_repeated_invocations_are_byte_identical(tmp_path):
    first = _train_once(tmp_path, "a")
    second = _train_once(tmp_path, "b")
    for left, right in zip(first, second):
        assert left.read_bytes() == right.read_bytes()


def test_eval_with_checkpoint_matches_train_metrics(tmp_path):
    table_train = tmp_path / "train.csv"
    checkpoint = tmp_path / "prompts.bin"
    assert main(["train", *TRAIN, "--seed", "0", "--checkpoint", str(checkpoint),
                 "--table", str(table_train)]) == 0
    table_eval = tmp_path / "eval.csv"
    assert main(["eval", *TRAIN, "--seed", "0", "--checkpoint", str(checkpoint),
                 "--table", str(table_eval)]) == 0
    trained = parse_table(table_train.read_bytes().decode(), format="csv")[0]
    evaluated = parse_table(table_eval.read_bytes().decode(), format="csv")[0]
    for column in ("base", "novel", "h", "params"):
        assert evaluated[column] == trained[column]


def test_eval_rejects_checkpoint_from_other_strategy(tmp_path, capsys):
    checkpoint = tmp_path / "deep.bin"
    two_blocks = [*WORLD, "--depth", "2"]
    assert main(["train", *two_blocks, "--m", "2", "--strategy", "deep",
                 "--depth-range", "1..2", "--shots", "2", "--epochs", "1",
                 "--seed", "0", "--checkpoint", str(checkpoint)]) == 0
    capsys.readouterr()
    assert main(["eval", *two_blocks, "--m", "2", "--strategy", "shallow",
                 "--depth-range", "1..2", "--shots", "2", "--seed", "0",
                 "--checkpoint", str(checkpoint)]) == 1
    captured = capsys.readouterr()
    assert "CheckpointError" in captured.err and "prompts.layer_1" in captured.err
    assert "base_accuracy=" not in captured.out


def test_eval_refuses_depth_range_past_encoder_before_any_forward(monkeypatch, capsys):
    forwards = []
    forward = EncoderState.forward

    def counting(state, *args, **kwargs):
        forwards.append(state)
        return forward(state, *args, **kwargs)

    monkeypatch.setattr(EncoderState, "forward", counting)
    assert main(["eval", *WORLD, "--depth", "2", "--m", "2", "--depth-range", "1..3",
                 "--shots", "2", "--seed", "0"]) == 1
    assert "ConfigError" in capsys.readouterr().err
    assert forwards == []


def test_eval_without_checkpoint_runs_fresh_prompts(capsys):
    assert main(["eval", *TRAIN, "--seed", "0"]) == 0
    assert "base_accuracy=" in capsys.readouterr().out


def test_grid_table_has_one_row_per_cell(tmp_path, capsys):
    table = tmp_path / "grid.csv"
    records = tmp_path / "grid.jsonl"
    assert main(["grid", *TRAIN, "--seeds", "0",
                 "--axis", "alpha=0.1,0.9", "--axis", "lambda=0.0,1.0",
                 "--records", str(records), "--table", str(table)]) == 0
    out = capsys.readouterr().out
    assert "4 cells, 4 runs, 0 failed" in out
    rows = parse_table(table.read_bytes().decode(), format="csv")
    assert len(rows) == 4
    assert {(r["alpha"], r["lambda"]) for r in rows} == {(0.1, 0.0), (0.1, 1.0),
                                                         (0.9, 0.0), (0.9, 1.0)}
    assert len(load_records(records)) == 4


def test_grid_reports_marked_failures_but_continues(tmp_path, capsys):
    assert main(["grid", *TRAIN, "--seeds", "0",
                 "--axis", "alpha=0.1,7.0"]) == 0
    captured = capsys.readouterr()
    assert "failed" in captured.err
    assert "2 cells, 1 runs, 1 failed" in captured.out


def test_grid_unparseable_axis_value_fails_only_its_cell(capsys):
    assert main(["grid", *TRAIN, "--seeds", "0",
                 "--axis", "alpha=0.1,x"]) == 0
    captured = capsys.readouterr()
    failed = [line for line in captured.err.splitlines() if line.startswith("failed:")]
    assert len(failed) == 1
    assert "'x'" in failed[0] and "ConfigError" in failed[0]
    assert "2 cells, 1 runs, 1 failed" in captured.out


def test_grid_shots_the_dataset_cannot_supply_fail_only_their_cell(capsys):
    # WORLD has 8 samples per class: enough for 1 shot, not for 16.
    assert main(["grid", *TRAIN, "--mode", "few_shot", "--seeds", "0",
                 "--axis", "shots=1,16"]) == 0
    captured = capsys.readouterr()
    failed = [line for line in captured.err.splitlines() if line.startswith("failed:")]
    assert len(failed) == 1 and "DataError" in failed[0]
    assert "grid: 2 cells, 1 runs, 1 failed" in captured.out


def test_grid_bad_axis_spec_exits_one(capsys):
    assert main(["grid", *TRAIN, "--axis", "alpha"]) == 1
    assert "ConfigError" in capsys.readouterr().err


def test_grid_repeated_axis_exits_one(capsys):
    assert main(["grid", *TRAIN, "--seeds", "0",
                 "--axis", "alpha=0.1", "--axis", "alpha=0.3"]) == 1
    assert "ConfigError" in capsys.readouterr().err


def test_env_var_overrides_defaults(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PROMPTLAB_EPOCHS", "1")
    assert main(["train", *WORLD, "--m", "2", "--depth-range", "1..1",
                 "--shots", "2", "--lr", "0.1", "--seed", "0"]) == 0
    assert "epochs=1" in capsys.readouterr().out


# One non-default text per config key; a key added to the table must be added here.
KEY_TEXTS = {
    "strategy": "deep", "m": "3", "alpha": "0.3", "lambda": "0.5", "beta": "0.25",
    "loss_mode": "kd", "lr": "0.2", "wd": "0.001", "momentum": "0.5",
    "schedule": "constant", "batch_size": "4", "epochs": "7", "shots": "4",
    "mode": "few_shot", "seeds": "3,5", "depth_range": "2..3", "eval_each_epoch": "off",
}


@pytest.mark.parametrize("key", sorted(_CONFIG_KEYS))
def test_every_config_key_has_a_flag_equal_to_its_env_var(key, monkeypatch):
    assert set(KEY_TEXTS) == set(_CONFIG_KEYS)
    parser = build_parser()
    from_flag = _build_train_config(parser.parse_args(["train", "--" + key.replace("_", "-"),
                                                       KEY_TEXTS[key]]))
    monkeypatch.setenv(ENV_PREFIX + key.upper(), KEY_TEXTS[key])
    from_env = _build_train_config(parser.parse_args(["train"]))
    assert from_flag == from_env != TrainConfig()


def test_readme_key_table_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^\| `(\w+)` \|", section, flags=re.M)) == set(_CONFIG_KEYS)


def test_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr = 0.07\nschedule = constant\nepochs = 1\n"
                   "m = 2\nshots = 2\ndepth_range = 1..1\nseeds = 0\n")
    records = tmp_path / "r.jsonl"
    assert main(["train", *WORLD, "--config", str(cfg), "--lr", "0.09",
                 "--records", str(records)]) == 0
    loaded = load_records(records)
    assert loaded[0]["steps"][0]["lr"] == 0.09


# ---------------------------------------------------------------------------
# export-embeddings / make-data
# ---------------------------------------------------------------------------

def test_eval_rejects_non_finite_checkpoint(tmp_path, capsys):
    checkpoint = tmp_path / "prompts.bin"
    assert main(["train", *TRAIN, "--seed", "0", "--epochs", "1",
                 "--checkpoint", str(checkpoint)]) == 0
    prompts = load_tensors(checkpoint)
    save_tensors(checkpoint, {name: np.full_like(v, np.nan) for name, v in prompts.items()})
    capsys.readouterr()
    assert main(["eval", *TRAIN, "--seed", "0", "--checkpoint", str(checkpoint)]) == 1
    captured = capsys.readouterr()
    assert "CheckpointError" in captured.err and "accuracy" not in captured.out


@pytest.mark.parametrize("argv", [
    ["train", *TRAIN, "--seeds=-1"],
    ["train", *TRAIN, "--seed=-1"],
    ["train", *TRAIN, "--seed", "0", "--encoder-seed=-1"],
    ["train", *TRAIN, "--seed", "0", "--prototype-seed=-1"],
    ["train", *TRAIN, "--seed", "0", "--bank", "random", "--bank-seed=-1"],
    ["eval", *TRAIN, "--seed=-1"],
    ["export-embeddings", *TRAIN, "--seed=-1", "--out", "unused.tsv"],
    ["make-data", *WORLD, "--seed=-1", "--out", "unused.bin"],
], ids=["train-seeds", "train-seed", "encoder-seed", "prototype-seed", "bank-seed",
        "eval-seed", "export-seed", "make-data-seed"])
def test_negative_seeds_exit_one(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "ConfigError" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "eval"])
def test_infinite_temperature_exits_one(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([command, *TRAIN, "--seed", "0", "--temperature", "inf"]) == 1
    captured = capsys.readouterr()
    assert "ConfigError" in captured.err and "temperature" in captured.err
    assert "base_accuracy=" not in captured.out


def test_export_embeddings_writes_two_variants(tmp_path, capsys):
    out = tmp_path / "emb.tsv"
    assert main(["export-embeddings", *TRAIN, "--seed", "0",
                 "--limit", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    variants = {line.split("\t")[0] for line in lines[1:]}
    assert variants == {"frozen", "prompted"}


def test_export_embeddings_rejects_negative_limit(tmp_path, capsys):
    out = tmp_path / "emb.tsv"
    assert main(["export-embeddings", *TRAIN, "--seed", "0",
                 "--limit", "-1", "--out", str(out)]) == 1
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


def test_make_data_round_trips(tmp_path):
    out = tmp_path / "data.bin"
    assert main(["make-data", *WORLD, "--seed", "3", "--out", str(out)]) == 0
    store = load_dataset(out)
    assert store.spec.class_count == 4
    assert len(store.samples) == 32
    assert store.seed == 3
