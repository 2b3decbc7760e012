"""perfbench wraps promptlab functions by name; renaming or deleting one must fail here.

The hooks in ``perfbench/instrument.py`` are installed on a live promptlab,
run over one small forward, and taken off again. Nothing under
``perfbench/`` is changed.
"""

import json
import os
import sys

import numpy as np
import pytest

from promptlab import diffcore, encoder, trainer
from promptlab.data import SyntheticTaskSpec, generate_dataset, sample_k_shot
from promptlab.encoder import EncoderConfig, EncoderState, PromptStack
from promptlab.heads import ClassEmbeddingBank, LossConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _bindings():
    """Every name bound in a promptlab module or on a class perfbench wraps."""
    owners = [m for n, m in sys.modules.items() if n == "promptlab" or n.startswith("promptlab.")]
    owners += [encoder.EncoderState, trainer.SGD, diffcore.Tensor]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def _record_feature_calls(patcher, probe, calls):
    """Append (image count, inside ``_split_accuracy``) for every ``_forward_features`` call."""
    def recording(original):
        def forward_features(state, images):
            calls.append((len(images), probe._in_eval))
            return original(state, images)
        return forward_features

    patcher.wrap(trainer, "_forward_features", recording)


def test_probe_and_tracer_install_run_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import instrument

    before = _bindings()
    patcher = instrument.Patcher()
    tracer = instrument.Tracer()
    try:
        instrument.Probe().install(patcher)
        tracer.install(patcher)
        cfg = EncoderConfig(depth=1, width=8, heads=2, patch_count=3, patch_dim=4, output_dim=4)
        EncoderState.create(cfg).forward(np.ones((2, cfg.patch_count, cfg.patch_dim)))
    finally:
        patcher.restore()
    assert {"encoder.forward", "diffcore.layernorm", "kernels.layernorm_lastaxis"} <= set(tracer.names)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_prompted_forward_feeds_prefix_and_eval_counters(monkeypatch):
    """A prompted state's forward, without a per-call stack, still reports its
    prefix and block count, and eval images are counted through
    ``_split_accuracy`` -> ``_forward_features``."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import instrument

    cfg = EncoderConfig(depth=2, width=8, heads=2, patch_count=3, patch_dim=4, output_dim=4)
    stack = PromptStack.create("deep", 2, cfg.width, active_layers=(1,), seed=0)
    state = EncoderState.create(cfg, stack)
    images = np.ones((5, cfg.patch_count, cfg.patch_dim))
    bank = ClassEmbeddingBank.generate(2, cfg.output_dim, seed=0, temperature=0.1, max_cosine=0.9)
    patcher = instrument.Patcher()
    tracer = instrument.Tracer()
    probe = instrument.Probe()
    try:
        tracer.install(patcher)
        state.forward(images[:2])
        probe.install(patcher)
        trainer._split_accuracy(state, bank, images, np.zeros(5, dtype=int), [0, 1])
    finally:
        patcher.restore()
    counted = {(kind, amount) for _, kind, amount in tracer.events}
    assert {("images", 2), ("prefix", 1), ("blocks", 2), ("images", 5)} <= counted
    assert probe.eval_images == 5


def _tiny_train(patcher, hooks):
    """A two-epoch, three-step-per-epoch few-shot deep run with `hooks`
    installed through `patcher` for the run only; returns the task and the
    run record."""
    cfg = EncoderConfig(depth=3, width=8, heads=2, patch_count=3, patch_dim=4, output_dim=4)
    spec = SyntheticTaskSpec(class_count=4, patch_count=3, patch_dim=4, samples_per_class=6)
    task = sample_k_shot(generate_dataset(spec, 0), 2, 0, mode="few_shot")
    bank = ClassEmbeddingBank.generate(4, cfg.output_dim, seed=0, temperature=0.1, max_cosine=0.9)
    config = trainer.TrainConfig(strategy="deep", prompt_length=2, alpha=None, depth_range=(2, 3),
                                 batch_size=3, max_epochs=2, shots=2, mode="few_shot",
                                 loss=LossConfig(mode="kd"), eval_each_epoch=True)
    try:
        hooks.install(patcher)
        return task, trainer.train(task, EncoderState.create(cfg), bank, config, seed=0)
    finally:
        patcher.restore()


def test_probe_times_one_step_per_optimizer_step(monkeypatch):
    """The probe's step clock starts at the one forward a step makes outside
    ``_forward_features``; a run resumed from a prefix must keep that shape,
    and the forward's argument must have the batch's length."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import instrument

    probe = instrument.Probe()
    task, record = _tiny_train(instrument.Patcher(), probe)
    assert len(probe.step_ms) == len(record.steps) == 2 * 3
    assert all(ms > 0 for ms in probe.step_ms)
    assert probe.train_images == 2 * len(task.train_images)


def test_tracer_spans_each_backward_and_counts_reached_nodes(monkeypatch):
    """Traced runs wrap ``Tensor.backward`` and, after each call, count the
    op results of its graph that hold a gradient: one ``diffcore.backward``
    span per training step, each with a positive ``reached`` event."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import instrument

    tracer = instrument.Tracer()
    _, record = _tiny_train(instrument.Patcher(), tracer)
    backward = [i for i, name in enumerate(tracer.names) if name == "diffcore.backward"]
    reached = {i: amount for i, kind, amount in tracer.events if kind == "reached"}
    assert len(backward) == len(record.steps) == 2 * 3
    assert sorted(reached) == backward
    assert all(amount > 0 for amount in reached.values())


def test_evaluate_task_makes_three_eval_feature_calls(monkeypatch):
    """perfbench's eval_pool digest hashes every ``_forward_features`` result
    in order, and its ``eval_images`` counts their lengths. A few-shot
    ``evaluate_task`` must keep making exactly three such calls inside
    ``_split_accuracy``: base, novel, then both, whatever the calls receive."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import instrument

    cfg = EncoderConfig(depth=3, width=8, heads=2, patch_count=3, patch_dim=4, output_dim=4)
    spec = SyntheticTaskSpec(class_count=4, patch_count=3, patch_dim=4, samples_per_class=6)
    task = sample_k_shot(generate_dataset(spec, 0), 2, 0, mode="few_shot")
    bank = ClassEmbeddingBank.generate(4, cfg.output_dim, seed=0, temperature=0.1, max_cosine=0.9)
    stack = PromptStack.create("deep", 2, cfg.width, active_layers=(1, 2), seed=0)
    state = EncoderState.create(cfg, stack)
    patcher = instrument.Patcher()
    probe = instrument.Probe()
    calls = []
    try:
        probe.install(patcher)
        _record_feature_calls(patcher, probe, calls)
        trainer.evaluate_task(state, bank, task)
    finally:
        patcher.restore()
    n_base, n_novel = len(task.base_test_images), len(task.novel_test_images)
    assert n_base and n_novel
    assert calls == [(n_base, 1), (n_novel, 1), (n_base + n_novel, 1)]
    assert probe.eval_images == 2 * (n_base + n_novel)


def test_epoch_eval_is_one_base_split_call_per_epoch(monkeypatch):
    """A ``base_to_novel`` run with ``eval_each_epoch`` scores each epoch with
    one ``_forward_features`` call of the base test images inside
    ``_split_accuracy``, then the base, novel and train splits; the probe's
    ``eval_images`` counts every one of them."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import instrument

    cfg = EncoderConfig(depth=3, width=8, heads=2, patch_count=3, patch_dim=4, output_dim=4)
    spec = SyntheticTaskSpec(class_count=4, patch_count=3, patch_dim=4, samples_per_class=6)
    task = sample_k_shot(generate_dataset(spec, 0), 2, 0, mode="base_to_novel")
    bank = ClassEmbeddingBank.generate(4, cfg.output_dim, seed=0, temperature=0.1, max_cosine=0.9)
    config = trainer.TrainConfig(strategy="deep", prompt_length=2, alpha=None, depth_range=(2, 3),
                                 batch_size=3, max_epochs=3, shots=2, mode="base_to_novel",
                                 loss=LossConfig(mode="kd"), eval_each_epoch=True)
    patcher = instrument.Patcher()
    probe = instrument.Probe()
    calls = []
    try:
        probe.install(patcher)
        _record_feature_calls(patcher, probe, calls)
        record = trainer.train(task, EncoderState.create(cfg), bank, config, seed=0)
    finally:
        patcher.restore()
    n_train, n_base, n_novel = len(task.train_images), len(task.base_test_images), len(task.novel_test_images)
    assert n_base and n_novel and len(record.epoch_eval) == 3
    assert calls == [(n_train, 0)] + [(n_base, 1)] * 3 + [(n_base, 1), (n_novel, 1), (n_train, 1)]
    assert probe.eval_images == 3 * n_base + n_base + n_novel + n_train


def _pinned_digests():
    with open(os.path.join(PERFBENCH, "digests.json"), encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["b2n_train", "fewshot_late", "eval_pool"])
def test_workload_operation_matches_pinned_digest(name, seed, monkeypatch):
    """One operation of each benchmark workload, with the probe that hashes
    its feature matrices installed, gives the digest ``digests.json`` pins."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import instrument
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed)
    patcher = instrument.Patcher()
    probe = instrument.Probe()
    try:
        probe.install(patcher)
        outcome = workload.operate(inputs)
    finally:
        patcher.restore()
    assert workload.digest(outcome, probe.features.hexdigest()) == _pinned_digests()[name][str(seed)]
