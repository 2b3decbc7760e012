"""perfbench wraps promptlab functions by name; renaming or deleting one must fail here.

The hooks in ``perfbench/instrument.py`` are installed on a live promptlab,
run over one small forward, and taken off again. Nothing under
``perfbench/`` is changed.
"""

import os
import sys

import numpy as np

from promptlab import diffcore, encoder, trainer
from promptlab.encoder import EncoderConfig, EncoderState, PromptStack
from promptlab.heads import ClassEmbeddingBank

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _bindings():
    """Every name bound in a promptlab module or on a class perfbench wraps."""
    owners = [m for n, m in sys.modules.items() if n == "promptlab" or n.startswith("promptlab.")]
    owners += [encoder.EncoderState, trainer.SGD, diffcore.Tensor]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


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
