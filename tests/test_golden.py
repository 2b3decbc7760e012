"""Numerics lock: one short CLI training run must reproduce pinned bytes.

Any change to the forward path, the losses, the optimizer, the data
generator or the record/checkpoint formats moves these hashes. A change
that moves them on purpose must say why in CHANGES.md and re-pin them.
"""

import hashlib
import os

import pytest

from promptlab.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

WORLD = [
    "--classes", "4", "--patch-count", "4", "--patch-dim", "6",
    "--samples-per-class", "8", "--noise-std", "0.2", "--shift", "1.0",
    "--depth", "2", "--width", "16", "--heads", "2", "--output-dim", "8",
]
TRAIN = [
    "--m", "2", "--strategy", "progressive", "--depth-range", "1..2",
    "--shots", "2", "--epochs", "2", "--lr", "0.1", "--batch-size", "8",
    "--seed", "0",
]

RECORDS_SHA256 = "ea2b21f1378b0ec183d61668eac0e7d6bd4859c84833a1f1b03962be56a03860"
CHECKPOINT_SHA256 = "6bb0a50477e0f6f4399207eebeaec6d95ff68fed50a84743370151b79bd4cf0c"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_train_records_and_checkpoint_hashes(tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith("PROMPTLAB_"):
            monkeypatch.delenv(name)
    records = tmp_path / "runs.jsonl"
    checkpoint = tmp_path / "prompts.bin"
    assert main(["train", *WORLD, *TRAIN,
                 "--records", str(records), "--checkpoint", str(checkpoint)]) == 0
    assert _sha256(records) == RECORDS_SHA256
    assert _sha256(checkpoint) == CHECKPOINT_SHA256
