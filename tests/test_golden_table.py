"""Numerics lock over every insertion strategy and loss mode.

Each row of `RUNS` trains one seed through the CLI on a depth-3 world and
pins the sha256 of the records file followed by the checkpoint. The rows
span shallow/deep/progressive x ce_only/ref/kd on blocks 1..2 and 2..3.
`ONE_IMAGE` pins a run whose last minibatch and last eval chunk each hold
exactly one image, and `NONE_EVAL` pins every feature matrix that
`evaluate_task` computes for the frozen (`none`) stack, plus its metrics.
A change that moves a digest on purpose must say why in CHANGES.md.
"""

import hashlib
import json
import os

import pytest

from promptlab import diffcore, trainer
from promptlab.cli import main
from promptlab.data import SyntheticTaskSpec, generate_dataset, sample_k_shot
from promptlab.encoder import EncoderConfig, EncoderState

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

WORLD = [
    "--classes", "4", "--patch-count", "4", "--patch-dim", "6",
    "--samples-per-class", "8", "--noise-std", "0.2", "--shift", "1.0",
    "--depth", "3", "--width", "16", "--heads", "2", "--output-dim", "8",
]
TRAIN = ["--m", "2", "--shots", "2", "--epochs", "2", "--lr", "0.1", "--seed", "0"]

RUNS = {
    ("shallow", "ce_only", "1..2"):
        "d4f94c1c4cef079561fc318d722856e2f78ab87b25ac9c2d8bfb3ad7fc4f96a4",
    ("shallow", "ce_only", "2..3"):
        "7eb9d9a2027a17a636cd70447dc9e08c878cca8dab360988cede80ec533c587e",
    ("shallow", "ref", "1..2"):
        "030598182f7881c8573ceb765b3a54cc71438db63394dfe9f9084effaaa4b802",
    ("shallow", "ref", "2..3"):
        "6c7ee7a8c55f8adb91a8c1e68e53a76f0fe10f4a8102975f47e56421fbab8e97",
    ("shallow", "kd", "1..2"):
        "4ce3ee6eee04b6b00779d453fdae2da27c6d6b60d2dc80419c69f226f04725cd",
    ("shallow", "kd", "2..3"):
        "88ed5964a1ea0f2df7d2babfe48cdadb5698c0df55ca93492f7dad6e475668cc",
    ("deep", "ce_only", "1..2"):
        "5ff4e24592487ebe47cd26e9c0cd7ac91d769a56edfd76350fb3cad5dc5bd5e6",
    ("deep", "ce_only", "2..3"):
        "134b56fc42125073e8b28af53d66098cc7cf2e5c82c84adf346fcb45f1f42049",
    ("deep", "ref", "1..2"):
        "b7281255b9484ceb6d2543bca140286578de33eb5683d166d19415fdae6f904d",
    ("deep", "ref", "2..3"):
        "31f95906916824553c5dc98c8c297de69fff063886301ec9f84ce4cbb8a869e5",
    ("deep", "kd", "1..2"):
        "9f5fb2e7d505cc41a32e03d0a46e7d5496d09baa36bf41ea4e1d86ac3a3780dc",
    ("deep", "kd", "2..3"):
        "423540d33bf181c42d0e543cbbe0fd47adb51f498b58750a1f136c8e442defc8",
    ("progressive", "ce_only", "1..2"):
        "b55ab304eff742972374210da7f18ba8eeff7a53fc3b7c0a6a67cc0f8baee04f",
    ("progressive", "ce_only", "2..3"):
        "6661bc06e23e1f76da1a676110a4267bba29ef5c804764d152765a7005403fb3",
    ("progressive", "ref", "1..2"):
        "dfd8188498f181c16e1da8b88eef5a2704b83795a3dc1b62513c9d3204f9019e",
    ("progressive", "ref", "2..3"):
        "802b26a2a39f08300a5fcc295cdb7e5a2273774b7c213e1a6b71532f922be906",
    ("progressive", "kd", "1..2"):
        "d83924fa0db0d663833d8c601d6afe4803ed68dbe0dd23c404209b0080927fb9",
    ("progressive", "kd", "2..3"):
        "30cdc81a84ccc2a3fbf2e5c1052833c689ad5cac2e4e092962f16046778ae7eb",
}

# few_shot on 4 classes x 2 shots: 8 train images in minibatches of 7, and a
# 24-image eval pool in chunks of 23.
ONE_IMAGE_BATCH, ONE_IMAGE_CHUNK = 7, 23
ONE_IMAGE = "2eac14505b096c361507dc00de9389a4ce6364a11a8af5386378cb971523f78c"

NONE_EVAL = "fd884d943491680e0c1108dd0cdd5c7357f6848076ef012a9df1b1d1129a9479"


@pytest.fixture(autouse=True)
def _no_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("PROMPTLAB_"):
            monkeypatch.delenv(name)


def _train_digest(tmp_path, *flags):
    records, checkpoint = tmp_path / "runs.jsonl", tmp_path / "prompts.bin"
    assert main(["train", *WORLD, *TRAIN, *flags,
                 "--records", str(records), "--checkpoint", str(checkpoint)]) == 0
    return hashlib.sha256(records.read_bytes() + checkpoint.read_bytes()).hexdigest()


@pytest.mark.parametrize("strategy,loss_mode,depth_range", sorted(RUNS))
def test_run_digest(strategy, loss_mode, depth_range, tmp_path):
    digest = _train_digest(tmp_path, "--strategy", strategy, "--loss-mode", loss_mode,
                           "--depth-range", depth_range, "--batch-size", "2")
    assert digest == RUNS[strategy, loss_mode, depth_range]


def test_one_image_minibatch_and_eval_chunk_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(trainer, "_EVAL_CHUNK", ONE_IMAGE_CHUNK)
    batches = {True: [], False: []}
    forward = EncoderState.forward

    def recording(state, images):
        batches[diffcore.grad_enabled()].append(len(images))
        return forward(state, images)

    monkeypatch.setattr(EncoderState, "forward", recording)
    digest = _train_digest(tmp_path, "--strategy", "progressive", "--loss-mode", "ref",
                           "--depth-range", "2..3", "--mode", "few_shot",
                           "--batch-size", str(ONE_IMAGE_BATCH))
    assert batches[True][-1] == 1 and 1 in batches[False]
    assert digest == ONE_IMAGE


def test_none_stack_evaluate_task_feature_digest(monkeypatch):
    spec = SyntheticTaskSpec(class_count=4, patch_count=4, patch_dim=6, samples_per_class=8,
                             noise_std=0.2, shift_magnitude=1.0)
    state = EncoderState.create(EncoderConfig(depth=3, width=16, heads=2, patch_count=4,
                                              patch_dim=6, output_dim=8))
    store = generate_dataset(spec, 0)
    bank = trainer.prototype_bank(state, store, temperature=0.1)
    task = sample_k_shot(store, 2, 0, mode="few_shot")
    digest = hashlib.sha256()
    features = trainer._forward_features

    def hashing(state, images):
        feats = features(state, images)
        digest.update(feats.tobytes())
        return feats

    monkeypatch.setattr(trainer, "_forward_features", hashing)
    metrics = trainer.evaluate_task(state, bank, task)
    digest.update(json.dumps(metrics, sort_keys=True).encode("ascii"))
    assert digest.hexdigest() == NONE_EVAL
