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

from promptlab import trainer
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
        "6d41c402eb8d3779ce5dd3577cecce0abae82fa93f0a77b33c2fea5f0d3e5bb3",
    ("shallow", "ce_only", "2..3"):
        "3861dd12421750ce39300742435371bd23fef44b03140fd4c030d92b7461d049",
    ("shallow", "ref", "1..2"):
        "a04d36d8343f18b54d90d873fb9a79ece29ebb30c32e620954d3eddcd126a226",
    ("shallow", "ref", "2..3"):
        "975cf603d990442f3c8b75d1f16561d13b26fdc156c946f314325521654efe18",
    ("shallow", "kd", "1..2"):
        "86e2638f540a20f2227aa48b756663643dad40a20093cb213b0d23a08329be0a",
    ("shallow", "kd", "2..3"):
        "757d2e0d7a1b3a58787018eca24503000c8448b7ca48906e9665402685343228",
    ("deep", "ce_only", "1..2"):
        "1fa6ae7bc62a4fe82e5fbc5afb67f73a14b4e80536823d0f959facf853282e94",
    ("deep", "ce_only", "2..3"):
        "f8f915bc93bb9561d702fe3b939a29b327e06f5342152466fa2c667eeb196893",
    ("deep", "ref", "1..2"):
        "cab098e2078af667a214365679b149e7b84f0b08dc6071f313ffbecfc648f999",
    ("deep", "ref", "2..3"):
        "06eb539c01e97254c05326b74368e89c41ba10765391d60be224c206f9148838",
    ("deep", "kd", "1..2"):
        "5a0ca58179af2df7fc9a2868cb244b39992027f459a294d5b4dfb8e2b83ae62b",
    ("deep", "kd", "2..3"):
        "58d530899532f27fb3a41378cdee80af853b5e0c94c746ff3c6e53ebad002046",
    ("progressive", "ce_only", "1..2"):
        "27b4a1ad39fe048baed39754b8be1dc88f483bcab8c18c3ac27670b8a0227c49",
    ("progressive", "ce_only", "2..3"):
        "3ebd5b1ea482471ebd17f8f11e900f98a8bfb31d9b7ccab4def474f1dc2c71fa",
    ("progressive", "ref", "1..2"):
        "f7431169b7e1d09f38c3bedbba96320f84ae7208f647b2b4aefc81e052442fe3",
    ("progressive", "ref", "2..3"):
        "7821cb3047ab4bc0fe025add1a17ddfaa75a9cb04c318ca600dd7ce23c683942",
    ("progressive", "kd", "1..2"):
        "e522bcd95c57c339dae34823cee84a67a983895dc680640f09c18029d9147fe8",
    ("progressive", "kd", "2..3"):
        "2e33ca724262305603048891246a0f6a2b07485faa7266efac351e891aa561a8",
}

# few_shot on 4 classes x 2 shots: 8 train images in minibatches of 7, and a
# 24-image eval pool in chunks of 23.
ONE_IMAGE_BATCH, ONE_IMAGE_CHUNK = 7, 23
ONE_IMAGE = "9e17e4ddf2fdbec147e94f94a7e19f8768c50401d3c471562346645b7b355d93"

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
        out = forward(state, images)
        batches[out.requires_grad].append(len(images))
        return out

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
