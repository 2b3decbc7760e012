import numpy as np
import pytest

from promptlab.checkpoint import load_tensors
from promptlab.cli import main, run_grad_check
from promptlab.data import load_dataset
from promptlab.evaluate import parse_table
from promptlab.trainer import load_records

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


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------

def test_grad_check_default_passes_all_modes(capsys):
    assert main(["grad-check", "--config", "default"]) == 0
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


def test_grid_bad_axis_spec_exits_one(capsys):
    assert main(["grid", *TRAIN, "--axis", "alpha"]) == 1
    assert "ConfigError" in capsys.readouterr().err


def test_env_var_overrides_defaults(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PROMPTLAB_EPOCHS", "1")
    assert main(["train", *WORLD, "--m", "2", "--depth-range", "1..1",
                 "--shots", "2", "--lr", "0.1", "--seed", "0"]) == 0
    assert "epochs=1" in capsys.readouterr().out


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

def test_export_embeddings_writes_two_variants(tmp_path, capsys):
    out = tmp_path / "emb.tsv"
    assert main(["export-embeddings", *TRAIN, "--seed", "0",
                 "--limit", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    variants = {line.split("\t")[0] for line in lines[1:]}
    assert variants == {"frozen", "prompted"}


def test_make_data_round_trips(tmp_path):
    out = tmp_path / "data.bin"
    assert main(["make-data", *WORLD, "--seed", "3", "--out", str(out)]) == 0
    store = load_dataset(out)
    assert store.spec.class_count == 4
    assert len(store.samples) == 32
    assert store.seed == 3
