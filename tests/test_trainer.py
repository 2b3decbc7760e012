from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from promptlab import diffcore as dc
from promptlab import kernels, trainer
from promptlab.data import (
    FewShotTask,
    SyntheticTaskSpec,
    generate_dataset,
    sample_k_shot,
)
from promptlab.diffcore import Tensor
from promptlab.encoder import EncoderConfig, EncoderState, PromptStack, backbone_checksum
from promptlab.errors import ConfigError, DivergenceError, EvaluationError, InvariantError
from promptlab.heads import ClassEmbeddingBank, LossConfig
from promptlab.trainer import (
    SGD,
    TrainConfig,
    _forward_features,
    epochs_for_shots,
    evaluate_task,
    load_config,
    load_records,
    parse_depth_range,
    prototype_bank,
    run_grid,
    save_records,
    train,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# ---------------------------------------------------------------------------
# epoch budgets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,expected", [(16, 200), (8, 200), (4, 100), (2, 100), (1, 50)])
def test_epoch_budget_few_shot(k, expected):
    assert epochs_for_shots(k, "few_shot") == expected


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_epoch_budget_base_to_novel_is_always_100(k):
    assert epochs_for_shots(k, "base_to_novel") == 100


def test_epoch_budget_rejects_unsupported_shots():
    with pytest.raises(ConfigError):
        epochs_for_shots(3, "few_shot")
    with pytest.raises(ConfigError):
        epochs_for_shots(16, "leave_one_out")


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": -0.1},
        {"batch_size": 0},
        {"max_epochs": 0},
        {"lr_schedule": "linear"},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"weight_decay": -1e-4},
        {"mode": "transductive"},
        {"shots": 3},
        {"seeds": ()},
        {"depth_range": (0, 4)},
        {"depth_range": (3, 2)},
        {"strategy": "prefix"},
        {"prompt_length": 0},
        {"alpha": 1.5},
        {"alpha": -0.1},
        {"seeds": (0, 0)},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"weight_decay": float("nan")},
        {"weight_decay": float("inf")},
        {"seeds": (0, -1)},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def test_active_layers_are_zero_based():
    assert TrainConfig(depth_range=(1, 4)).active_layers() == (0, 1, 2, 3)
    assert TrainConfig(depth_range=(2, 3)).active_layers() == (1, 2)


def test_epochs_prefers_explicit_budget():
    assert TrainConfig(max_epochs=7).epochs() == 7
    assert TrainConfig(shots=16, mode="few_shot").epochs() == 200
    assert TrainConfig(shots=16, mode="base_to_novel").epochs() == 100


def test_coordinates_track_strategy_and_loss_mode():
    coords = TrainConfig(strategy="deep", alpha=None,
                         loss=LossConfig(mode="kd", kd_weight=0.3)).coordinates()
    assert coords["alpha"] is None
    assert coords["lambda"] is None
    assert coords["beta"] == 0.3
    coords = TrainConfig().coordinates()
    assert coords["alpha"] == 0.1
    assert coords["lambda"] == 1.0
    assert coords["beta"] is None


def test_parse_depth_range():
    assert parse_depth_range("1..12") == (1, 12)
    assert parse_depth_range("3..3") == (3, 3)
    for bad in ("4", "0..2", "5..2", "a..b", "1..2..3"):
        with pytest.raises(ConfigError):
            parse_depth_range(bad)


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

def _param(value):
    t = Tensor(np.array(value, dtype=float), requires_grad=True)
    return t


def test_sgd_plain_step_matches_hand_arithmetic():
    p = _param([1.0])
    opt = SGD([("p", p)], momentum=0.0, weight_decay=0.0)
    p.grad = np.array([0.5])
    opt.step(0.1)
    assert p.data[0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_zero_gradient_leaves_param_alone():
    p = _param([2.5])
    opt = SGD([("p", p)], momentum=0.0, weight_decay=0.0)
    p.grad = np.array([0.0])
    opt.step(0.1)
    assert p.data[0] == 2.5


def test_sgd_momentum_accumulates_velocity():
    p = _param([0.0])
    opt = SGD([("p", p)], momentum=0.9, weight_decay=0.0)
    p.grad = np.array([1.0])
    opt.step(1.0)            # v = 1, p = -1
    p.grad = np.array([1.0])
    opt.step(1.0)            # v = 1.9, p = -2.9
    assert p.data[0] == pytest.approx(-2.9, abs=1e-15)


def test_sgd_weight_decay_pulls_toward_zero():
    p = _param([10.0])
    opt = SGD([("p", p)], momentum=0.0, weight_decay=0.1)
    p.grad = np.array([0.0])
    opt.step(1.0)            # update = wd * p = 1
    assert p.data[0] == pytest.approx(9.0, abs=1e-15)


def test_sgd_rejects_nonfinite_gradient():
    p = _param([1.0])
    opt = SGD([("prompts.layer_0", p)], momentum=0.0, weight_decay=0.0)
    p.grad = np.array([np.nan])
    with pytest.raises(DivergenceError, match="prompts.layer_0"):
        opt.step(0.1)


def test_sgd_requires_gradient_accumulator():
    p = Tensor(np.ones(2))          # requires_grad False, grad is None
    opt = SGD([("p", p)], momentum=0.0)
    with pytest.raises(InvariantError):
        opt.step(0.1)


def test_sgd_refuses_a_parameter_the_loss_never_reached():
    p, q = _param([1.0]), _param([2.0])
    opt = SGD([("p", p), ("prompts.layer_1", q)], momentum=0.0, weight_decay=0.1)
    opt.zero_grad()
    dc.tensor_sum(dc.mul(p, p)).backward()
    with pytest.raises(InvariantError, match="prompts.layer_1"):
        opt.step(0.1)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

SPEC = SyntheticTaskSpec(class_count=4, patch_count=4, patch_dim=6,
                         samples_per_class=12, noise_std=0.2, shift_magnitude=1.5)
ENC_CFG = EncoderConfig(depth=2, width=16, heads=2, patch_count=4, patch_dim=6,
                        output_dim=8, seed=7)


@pytest.fixture(scope="module")
def encoder():
    return EncoderState.create(ENC_CFG)


@pytest.fixture(scope="module")
def bank():
    return ClassEmbeddingBank.generate(4, 8, seed=3, temperature=0.15, max_cosine=0.5)


def _short_config(**overrides):
    base = dict(strategy="progressive", prompt_length=4, alpha=0.1, depth_range=(1, 2),
                learning_rate=0.2, batch_size=8, max_epochs=4, shots=4,
                mode="base_to_novel", seeds=(0,),
                loss=LossConfig(mode="ref", ref_weight=0.7), eval_each_epoch=True)
    base.update(overrides)
    return TrainConfig(**base)


def _episode(seed=0, shots=4, mode="base_to_novel"):
    store = generate_dataset(SPEC, seed)
    return sample_k_shot(store, shots, seed, mode=mode)


def test_loss_identity_holds_at_every_step(encoder, bank):
    record = train(_episode(), encoder, bank, _short_config(), seed=0)
    assert record.steps
    for entry in record.steps:
        assert entry["total"] == entry["ce"] + 0.7 * entry["ref"]


def test_ce_only_steps_have_no_extra_component(encoder, bank):
    cfg = _short_config(loss=LossConfig(mode="ce_only"))
    record = train(_episode(), encoder, bank, cfg, seed=0)
    for entry in record.steps:
        assert "ref" not in entry and "kd" not in entry
        assert entry["total"] == entry["ce"]


def test_kd_mode_logs_kd_component(encoder, bank):
    cfg = _short_config(loss=LossConfig(mode="kd", kd_weight=0.4))
    record = train(_episode(), encoder, bank, cfg, seed=0)
    for entry in record.steps:
        assert entry["total"] == entry["ce"] + 0.4 * entry["kd"]


def test_all_logged_components_finite(encoder, bank):
    record = train(_episode(), encoder, bank, _short_config(), seed=0)
    for entry in record.steps:
        assert all(np.isfinite(v) for v in entry.values())


def test_step_count_matches_epochs_and_batches(encoder, bank):
    cfg = _short_config(max_epochs=3, batch_size=3)
    record = train(_episode(), encoder, bank, cfg, seed=0)
    # base_to_novel with C=4, k=4: 2 base classes x 4 shots = 8 samples
    per_epoch = int(np.ceil(8 / 3))
    assert len(record.steps) == 3 * per_epoch
    assert len(record.epoch_eval) == 3


def test_training_is_bit_reproducible(encoder, bank):
    first = train(_episode(), encoder, bank, _short_config(), seed=0)
    second = train(_episode(), encoder, bank, _short_config(), seed=0)
    assert first.steps == second.steps
    assert first.eval_metrics == second.eval_metrics
    for key in first.prompt_state:
        assert np.array_equal(first.prompt_state[key], second.prompt_state[key])


def test_training_depends_on_seed(encoder, bank):
    first = train(_episode(0), encoder, bank, _short_config(), seed=0)
    second = train(_episode(1), encoder, bank, _short_config(), seed=1)
    assert first.steps != second.steps


def test_frozen_weights_unchanged_by_training(encoder, bank):
    before = backbone_checksum(encoder)
    train(_episode(), encoder, bank, _short_config(), seed=0)
    assert backbone_checksum(encoder) == before


def test_frozen_path_features_unchanged_by_training(encoder, bank):
    task = _episode()
    pristine = EncoderState.create(ENC_CFG)
    expected = pristine.forward(task.train_images)
    train(task, encoder, bank, _short_config(), seed=0)
    actual = encoder.forward(task.train_images)
    assert np.array_equal(actual.data, expected.data)


def test_depth_range_past_encoder_is_refused_before_any_forward(encoder, bank, monkeypatch):
    forwards = []
    forward = EncoderState.forward

    def counting(state, *args, **kwargs):
        forwards.append(state)
        return forward(state, *args, **kwargs)

    monkeypatch.setattr(EncoderState, "forward", counting)
    with pytest.raises(ConfigError, match="exceed encoder depth"):
        train(_episode(), encoder, bank, _short_config(depth_range=(1, 3)), seed=0)
    assert forwards == []


def test_training_runs_frozen_work_once_per_run(bank, monkeypatch):
    """A deep 2..3 run embeds each image and runs block 0 on it once, in a
    prefix pass: the train images once for every step, the frozen features
    and the train accuracy; the test pool once for every epoch's base-split
    eval and the base and novel splits of the final eval."""
    deep3 = EncoderState.create(replace(ENC_CFG, depth=3))
    task = _episode()
    cfg = _short_config(strategy="deep", alpha=None, depth_range=(2, 3), batch_size=3,
                        max_epochs=2, loss=LossConfig(mode="kd", kd_weight=0.4),
                        eval_each_epoch=True)
    where = []
    calls = Counter()
    embedded = Counter()

    def entered(context, original):
        def wrapped(*args):
            calls["called", context] += 1
            where.append(context)
            try:
                return original(*args)
            finally:
                where.pop()
        return wrapped

    def embed(state, images):
        context = where[-1] if where else "step"
        calls["embed", context] += 1
        embedded[context] += len(images)
        return embed_patches(state, images)

    def block(state, x, index, *args):
        calls[index, where[-1] if where else "step"] += 1
        return run_block(state, x, index, *args)

    embed_patches, run_block = EncoderState.embed_patches, EncoderState._block
    monkeypatch.setattr(EncoderState, "prefix", entered("prefix", EncoderState.prefix))
    monkeypatch.setattr(trainer, "_forward_features", entered("features", trainer._forward_features))
    monkeypatch.setattr(EncoderState, "embed_patches", embed)
    monkeypatch.setattr(EncoderState, "_block", block)
    record = train(task, deep3, bank, cfg, seed=0)

    steps = len(record.steps)
    assert steps == 2 * int(np.ceil(len(task.train_images) / 3))
    # the train images and the test pool: one chunk each
    assert calls["called", "prefix"] == calls["embed", "prefix"] == calls[0, "prefix"] == 2
    assert calls[1, "prefix"] == calls[2, "prefix"] == 0
    assert calls["embed", "step"] == calls[0, "step"] == 0
    assert calls[1, "step"] == calls[2, "step"] == steps
    assert embedded["prefix"] == len(task.train_images) + len(task.test_images)
    assert calls["embed", "features"] == calls[0, "features"] == 0
    # frozen features, 2 epoch evals, base, novel and train accuracy resume at block 1
    assert calls[1, "features"] == 1 + 2 + 2 + 1


def test_training_step_computes_one_erf_per_block(monkeypatch):
    cfg = replace(ENC_CFG, depth=3)
    stack = PromptStack.create("deep", 2, cfg.width, active_layers=(0, 1, 2), seed=0)
    state = EncoderState.create(cfg, stack)
    images = _episode().train_images[:4]
    erf = kernels._erf
    counted = []

    def counting(x):
        counted.append(x.shape)
        return erf(x)

    monkeypatch.setattr(kernels, "_erf", counting)
    feats = state.forward(images)
    assert len(counted) == cfg.depth
    dc.tensor_sum(feats).backward()
    assert len(counted) == cfg.depth
    assert all(np.abs(t.grad).max() > 0 for _, t in stack.parameters())


def test_passed_encoder_stack_is_not_replaced(encoder, bank):
    stack_before = encoder.prompt_stack
    train(_episode(), encoder, bank, _short_config(), seed=0)
    assert encoder.prompt_stack is stack_before


def test_record_serialization_round_trips(encoder, bank, tmp_path):
    record = train(_episode(), encoder, bank, _short_config(max_epochs=2), seed=0)
    path = tmp_path / "records.jsonl"
    save_records(path, [record, record])
    loaded = load_records(path)
    assert len(loaded) == 2
    assert loaded[0]["seed"] == 0
    assert loaded[0]["steps"] == record.steps
    assert loaded[0]["eval_metrics"] == record.eval_metrics
    assert loaded[0] == loaded[1]
    assert "prompt_state" not in loaded[0]


def test_record_bytes_are_deterministic(encoder, bank, tmp_path):
    record_a = train(_episode(), encoder, bank, _short_config(max_epochs=2), seed=0)
    record_b = train(_episode(), encoder, bank, _short_config(max_epochs=2), seed=0)
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_records(path_a, [record_a])
    save_records(path_b, [record_b])
    assert path_a.read_bytes() == path_b.read_bytes()


def test_divergence_error_on_nonfinite_input(encoder, bank):
    task = _episode()
    bad = task.train_images.copy()
    bad[0, 0, 0] = np.inf
    broken = FewShotTask(
        shots=task.shots, mode=task.mode, split=task.split,
        train_images=bad, train_labels=task.train_labels, train_ids=task.train_ids,
        base_test_images=task.base_test_images, base_test_labels=task.base_test_labels,
        base_test_ids=task.base_test_ids, novel_test_images=task.novel_test_images,
        novel_test_labels=task.novel_test_labels, novel_test_ids=task.novel_test_ids,
    )
    with pytest.raises(DivergenceError):
        train(broken, encoder, bank, _short_config(), seed=0)


def test_lr_schedule_values(encoder, bank):
    cosine = _short_config(max_epochs=4, learning_rate=0.2, lr_schedule="cosine")
    record = train(_episode(), encoder, bank, cosine, seed=0)
    lrs = sorted({entry["lr"] for entry in record.steps}, reverse=True)
    assert lrs[0] == pytest.approx(0.2)
    assert lrs == sorted(lrs, reverse=True) and len(lrs) == 4
    expected_half = 0.2 * 0.5 * (1 + np.cos(np.pi * 2 / 4))
    assert expected_half in [pytest.approx(v) for v in lrs]

    constant = _short_config(max_epochs=3, learning_rate=0.2, lr_schedule="constant")
    record = train(_episode(), encoder, bank, constant, seed=0)
    assert {entry["lr"] for entry in record.steps} == {0.2}


def test_evaluate_task_metric_keys(encoder, bank):
    b2n = evaluate_task(encoder, bank, _episode(mode="base_to_novel"))
    assert {"base_accuracy", "novel_accuracy", "harmonic_mean"} <= set(b2n)
    few = evaluate_task(encoder, bank, _episode(mode="few_shot"))
    assert "test_accuracy" in few
    from promptlab.evaluate import harmonic_mean
    assert b2n["harmonic_mean"] == pytest.approx(
        harmonic_mean(b2n["base_accuracy"], b2n["novel_accuracy"]))


def _recording_features(monkeypatch):
    """Patch trainer._forward_features to record (rows, features) of every call."""
    seen = []
    features = trainer._forward_features

    def recording(state, images):
        feats = features(state, images)
        seen.append((len(images), feats))
        return feats

    monkeypatch.setattr(trainer, "_forward_features", recording)
    return seen


def test_evaluate_task_embeds_each_test_image_once(monkeypatch):
    """On an eval_pool-shaped task the deep 3..4 stack embeds its 1680 test
    images once, runs blocks 1 and 2 on each once, and resumes blocks 3 and 4
    for the base, novel and all-class splits."""
    spec = SyntheticTaskSpec(class_count=20, samples_per_class=100)
    encoder = EncoderState.create(EncoderConfig())
    store = generate_dataset(spec, 0)
    bank = prototype_bank(encoder, store, temperature=0.2)
    task = sample_k_shot(store, 16, 0, mode="few_shot")
    stack = PromptStack.create("deep", 8, encoder.config.width, active_layers=(2, 3), seed=0)
    state = EncoderState(encoder.config, encoder.weights, stack)
    n_test = len(task.base_test_images) + len(task.novel_test_images)
    assert n_test == 1680
    rows = Counter()
    embed_patches, run_block = EncoderState.embed_patches, EncoderState._block

    def embed(state, images):
        rows["embed"] += len(images)
        return embed_patches(state, images)

    def block(state, x, index, *args):
        rows[index] += x.shape[0]
        return run_block(state, x, index, *args)

    monkeypatch.setattr(EncoderState, "embed_patches", embed)
    monkeypatch.setattr(EncoderState, "_block", block)
    evaluate_task(state, bank, task)
    assert rows["embed"] == rows[0] == rows[1] == n_test
    assert rows[2] == rows[3] == 2 * n_test


def _eval_world(mode, empty_novel):
    spec = SyntheticTaskSpec(class_count=4, patch_count=4, patch_dim=6, samples_per_class=150,
                             noise_std=0.2, shift_magnitude=1.5)
    store = generate_dataset(spec, 0)
    task = sample_k_shot(store, 4, 0, mode=mode)
    if empty_novel:
        task = replace(task, novel_test_images=task.novel_test_images[:0],
                       novel_test_labels=task.novel_test_labels[:0],
                       novel_test_ids=task.novel_test_ids[:0])
    return task


@pytest.mark.parametrize("mode, empty_novel", [
    ("few_shot", False), ("base_to_novel", False), ("few_shot", True),
], ids=["few_shot", "base_to_novel", "few_shot-empty-novel"])
def test_evaluate_task_matches_per_split_image_forwards_bitwise(bank, monkeypatch, mode, empty_novel):
    """Every split resumes from one prefix of the pool, whose chunks of 256
    images do not line up with the splits, with the bytes of forwards from
    each split's images."""
    task = _eval_world(mode, empty_novel)
    assert len(task.test_images) > 256
    encoder = EncoderState.create(replace(ENC_CFG, depth=3))
    all_classes = sorted(task.split.base + task.split.novel)
    splits = [
        (task.base_test_images, task.base_test_labels, task.split.base),
        (task.novel_test_images, task.novel_test_labels, task.split.novel),
    ]
    if mode == "few_shot":
        splits.append((task.test_images, task.test_labels, all_classes))
    splits = [s for s in splits if len(s[0])]
    stacks = [PromptStack.none()] + [
        TrainConfig(strategy=strategy, depth_range=depth,
                    alpha=0.1 if strategy == "progressive" else None).prompt_stack(ENC_CFG.width, seed=1)
        for strategy in ("shallow", "deep", "progressive")
        for depth in ((1, 2), (2, 3), (3, 3))
    ]
    for stack in stacks:
        state = EncoderState(encoder.config, encoder.weights, stack)
        expected = [_forward_features(state, images) for images, _, _ in splits]
        expected_scores = [trainer._split_accuracy(state, bank, *split) for split in splits]
        seen = _recording_features(monkeypatch)
        metrics = evaluate_task(state, bank, task)
        monkeypatch.undo()
        assert [rows for rows, _ in seen] == [len(images) for images, _, _ in splits]
        assert [f.tobytes() for _, f in seen] == [f.tobytes() for f in expected]
        assert metrics["base_accuracy"] == expected_scores[0]
        if empty_novel:
            assert "novel_accuracy" not in metrics and "harmonic_mean" not in metrics
        else:
            assert metrics["novel_accuracy"] == expected_scores[1]
        if mode == "few_shot":
            assert metrics["test_accuracy"] == expected_scores[-1]
        else:
            assert "test_accuracy" not in metrics


def test_non_finite_features_are_not_scored(encoder, bank):
    # NaN prompts give NaN features, and argmax over NaN rows would pick
    # class 0 and report a plausible accuracy.
    stack = _short_config().prompt_stack(ENC_CFG.width, seed=0)
    for _, tensor in stack.parameters():
        tensor.data[...] = np.nan
    state = EncoderState(encoder.config, encoder.weights, stack)
    with pytest.raises(EvaluationError):
        evaluate_task(state, bank, _episode(mode="base_to_novel"))


def test_forward_features_allocate_no_grad_buffers(encoder, monkeypatch):
    original = dc._from_op
    results = []

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(dc, "_from_op", recording)
    stack = _short_config().prompt_stack(ENC_CFG.width, seed=0)
    assert all(tensor.requires_grad for _, tensor in stack.parameters())
    state = EncoderState(encoder.config, encoder.weights, stack)
    images = _episode().train_images
    feats = _forward_features(state, images)
    assert feats.shape[1] == ENC_CFG.output_dim
    assert results
    assert not [out for out in results if out._parents or out.grad is not None]

    # A training forward afterwards records its graph again.
    results.clear()
    dc.tensor_sum(state.forward(images[:8])).backward()
    assert any(out._parents for out in results)
    assert all(np.abs(tensor.grad).max() > 0 for _, tensor in stack.parameters())


def test_prototype_bank_rows_are_frozen_prototype_features(encoder):
    store = generate_dataset(SPEC, 0)
    bank = prototype_bank(encoder, store, temperature=0.1)
    expected = encoder.forward(store.prototypes)
    assert np.array_equal(bank.embeddings.data, expected.data)
    assert bank.temperature == 0.1
    norms = np.linalg.norm(bank.embeddings.data, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_prototype_bank_classifies_noiseless_data_perfectly(encoder):
    clean = SyntheticTaskSpec(class_count=4, patch_count=4, patch_dim=6,
                              samples_per_class=6, noise_std=0.0)
    store = generate_dataset(clean, 0)
    bank = prototype_bank(encoder, store, temperature=0.1)
    task = sample_k_shot(store, 2, 0, mode="few_shot")
    metrics = evaluate_task(encoder, bank, task)
    assert metrics["test_accuracy"] == 100.0


# ---------------------------------------------------------------------------
# convergence on a separable task
# ---------------------------------------------------------------------------

CLEAN_SPEC = SyntheticTaskSpec(class_count=4, patch_count=4, patch_dim=6,
                               samples_per_class=24, noise_std=0.0)
WIDE_CFG = EncoderConfig(depth=2, width=32, heads=4, patch_count=4, patch_dim=6,
                         output_dim=8, seed=7)


@pytest.mark.parametrize("strategy", ["deep", "progressive"])
def test_noiseless_task_trains_to_full_accuracy(strategy):
    encoder = EncoderState.create(WIDE_CFG)
    bank = ClassEmbeddingBank.generate(4, 8, seed=3, temperature=0.1, max_cosine=0.5)
    store = generate_dataset(CLEAN_SPEC, 0)
    task = sample_k_shot(store, 16, 0, mode="few_shot")
    cfg = TrainConfig(strategy=strategy, prompt_length=8,
                      alpha=0.1 if strategy == "progressive" else None,
                      depth_range=(1, 2), learning_rate=0.3, batch_size=32,
                      shots=16, mode="few_shot", seeds=(0,),
                      loss=LossConfig(mode="ce_only"), eval_each_epoch=False)
    record = train(task, encoder, bank, cfg, seed=0)
    assert record.eval_metrics["train_accuracy"] == 100.0

    by_epoch = {}
    for entry in record.steps:
        by_epoch.setdefault(entry["epoch"], []).append(entry["ce"])
    means = [float(np.mean(v)) for _, v in sorted(by_epoch.items())]
    assert means[-1] < 0.01
    assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def _grid_base(**overrides):
    base = dict(strategy="progressive", prompt_length=4, alpha=0.1, depth_range=(1, 2),
                learning_rate=0.2, batch_size=8, max_epochs=2, shots=4,
                mode="base_to_novel", seeds=(0, 1),
                loss=LossConfig(mode="ref", ref_weight=1.0), eval_each_epoch=False)
    base.update(overrides)
    return TrainConfig(**base)


def test_grid_covers_cartesian_product(encoder, bank):
    cells = run_grid({"alpha": [0.1, 0.5], "lambda": [0.0, 1.0]}, _grid_base(),
                     encoder, SPEC, bank_factory=lambda e, s: bank)
    assert len(cells) == 4
    seen = {(c["coordinates"]["alpha"], c["coordinates"]["lambda"]) for c in cells}
    assert seen == {(0.1, 0.0), (0.1, 1.0), (0.5, 0.0), (0.5, 1.0)}
    for cell in cells:
        assert len(cell["records"]) == 2
        assert cell["failures"] == []
        assert {r.seed for r in cell["records"]} == {0, 1}


def test_grid_without_axes_runs_base_config(encoder, bank):
    cells = run_grid({}, _grid_base(seeds=(0,)), encoder, SPEC,
                     bank_factory=lambda e, s: bank)
    assert len(cells) == 1
    assert len(cells[0]["records"]) == 1


def test_grid_rejects_unknown_or_empty_axes(encoder, bank):
    with pytest.raises(ConfigError):
        run_grid({"dropout": [0.1]}, _grid_base(), encoder, SPEC,
                 bank_factory=lambda e, s: bank)
    with pytest.raises(ConfigError):
        run_grid({"alpha": []}, _grid_base(), encoder, SPEC,
                 bank_factory=lambda e, s: bank)


def test_grid_continues_past_run_failures(encoder, bank):
    calls = []
    bad_bank = ClassEmbeddingBank.generate(4, 6, seed=5, temperature=0.15, max_cosine=0.5)

    def flaky_factory(enc, store):
        calls.append(None)
        return bad_bank if len(calls) % 2 == 0 else bank

    cells = run_grid({"alpha": [0.1, 0.5]}, _grid_base(), encoder, SPEC,
                     bank_factory=flaky_factory)
    assert len(cells) == 2
    for cell in cells:
        assert len(cell["records"]) == 1
        assert len(cell["failures"]) == 1
        assert "DimensionError" in cell["failures"][0]["error"]


def test_grid_marks_invalid_cell_configs(encoder, bank):
    cells = run_grid({"alpha": [0.1, 7.0]}, _grid_base(), encoder, SPEC,
                     bank_factory=lambda e, s: bank)
    assert len(cells) == 2
    good = [c for c in cells if not c["failures"]]
    bad = [c for c in cells if c["failures"]]
    assert len(good) == 1 and len(bad) == 1
    assert bad[0]["records"] == []
    # Rejected at config time: one failure for the cell, not one per seed.
    assert len(bad[0]["failures"]) == 1
    assert bad[0]["failures"][0]["seed"] == "*"
    assert "ConfigError" in bad[0]["failures"][0]["error"]


def test_grid_depth_range_and_strategy_axes(encoder, bank):
    cells = run_grid({"strategy": ["deep", "progressive"], "depth_range": ["1..1", "1..2"]},
                     _grid_base(seeds=(0,)), encoder, SPEC,
                     bank_factory=lambda e, s: bank)
    assert len(cells) == 4
    for cell in cells:
        assert cell["failures"] == []
        coords = cell["coordinates"]
        if coords["strategy"] == "deep":
            assert coords["alpha"] is None
    params = {(c["coordinates"]["strategy"], c["coordinates"]["depth_range"]):
              c["records"][0].trainable_params for c in cells}
    assert params[("deep", "1..1")] == 4 * 16
    assert params[("deep", "1..2")] == 2 * 4 * 16
    assert params[("progressive", "1..2")] == 2 * 4 * 16


def test_grid_strategy_axis_gives_progressive_cell_default_alpha(encoder, bank):
    cells = run_grid({"strategy": ["deep", "progressive"]},
                     _grid_base(strategy="deep", alpha=None, seeds=(0,)), encoder, SPEC,
                     bank_factory=lambda e, s: bank)
    alphas = {c["coordinates"]["strategy"]: c["coordinates"]["alpha"] for c in cells}
    assert alphas == {"deep": None, "progressive": TrainConfig().alpha}
    for cell in cells:
        assert cell["failures"] == []
        assert len(cell["records"]) == 1


# ---------------------------------------------------------------------------
# config files and environment overrides
# ---------------------------------------------------------------------------

def test_parse_config_file_full_schema(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# desk-scale defaults\n"
        "strategy = progressive\n"
        "m = 6\n"
        "alpha = 0.3\n"
        "lambda = 0.5\n"
        "lr = 0.07   # overrides the default\n"
        "wd = 0.001\n"
        "momentum = 0.8\n"
        "schedule = constant\n"
        "shots = 8\n"
        "seeds = 3,4,5\n"
        "depth_range = 2..3\n"
        "\n"
        "mode = few_shot\n"
    )
    config = load_config(path, env={})
    assert config.strategy == "progressive"
    assert config.prompt_length == 6
    assert config.alpha == 0.3
    assert config.loss.ref_weight == 0.5
    assert config.learning_rate == 0.07
    assert config.weight_decay == 0.001
    assert config.momentum == 0.8
    assert config.lr_schedule == "constant"
    assert config.shots == 8
    assert config.seeds == (3, 4, 5)
    assert config.depth_range == (2, 3)
    assert config.mode == "few_shot"


def test_parse_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("optimizer = adam\n")
    with pytest.raises(ConfigError, match="line 1|:1"):
        load_config(path, env={})


def test_parse_config_file_rejects_missing_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("strategy progressive\n")
    with pytest.raises(ConfigError):
        load_config(path, env={})


def test_config_defaults_match_documented_values():
    config = load_config(env={})
    assert config.strategy == "progressive"
    assert config.learning_rate == 0.05
    assert config.weight_decay == 0.0005
    assert config.momentum == 0.9
    assert config.lr_schedule == "cosine"
    assert config.seeds == (0, 1, 2)
    assert config.loss.mode == "ref"
    assert config.loss.ref_weight == 1.0
    assert config.batch_size == 32


def test_env_overrides_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 0.05\nshots = 16\n")
    config = load_config(path, env={"PROMPTLAB_LR": "0.2"})
    assert config.learning_rate == 0.2
    assert config.shots == 16
    config = load_config(path, env={"PROMPTLAB_SHOTS": "4"})
    assert config.shots == 4


def test_cli_style_overlay_beats_env(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 0.05\n")
    config = load_config(path, overrides={"lr": 0.9}, env={"PROMPTLAB_LR": "0.2"})
    assert config.learning_rate == 0.9


def test_config_rejects_unparseable_values():
    with pytest.raises(ConfigError):
        load_config(overrides={"m": "many"}, env={})
    with pytest.raises(ConfigError):
        load_config(overrides={"seeds": "0,x"}, env={})
    with pytest.raises(ConfigError):
        load_config(overrides={"eval_each_epoch": "maybe"}, env={})
    with pytest.raises(ConfigError):
        load_config(overrides={"strategy": "deep", "alpha": "abc"}, env={})


def test_non_progressive_config_drops_alpha():
    config = load_config(overrides={"strategy": "deep"}, env={})
    assert config.alpha is None
    assert TrainConfig(strategy="deep", alpha=0.5).alpha is None
    assert replace(TrainConfig(strategy="deep", alpha=None), strategy="progressive").alpha == 0.1


def test_kd_config_wires_beta():
    config = load_config(overrides={"loss_mode": "kd", "beta": 0.25}, env={})
    assert config.loss.mode == "kd"
    assert config.loss.kd_weight == 0.25
