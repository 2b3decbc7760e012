"""The benchmark workloads: inputs made from a seed, one timed operation each.

An operation is one ``train()`` call on the training workloads and one pass of
``evaluate_task`` over two prompt stacks on ``eval_pool``. The program only
ever receives the generated arrays. Every call goes through a module
attribute (``trainer.train``, ``data.generate_dataset``, ...) so that the
instrumentation, which swaps those attributes, sees it.
"""

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from promptlab import data, trainer
from promptlab.encoder import EncoderConfig, EncoderState, PromptStack
from promptlab.heads import ClassEmbeddingBank, LossConfig

BANK_TEMPERATURE = 0.2

# Frozen-path accuracy on the eval pool is about 99% for every seed tried; a
# broken forward pass lands near chance (5%).
FROZEN_ACCURACY_FLOOR = 90.0


@dataclass
class Inputs:
    seed: int
    bank: ClassEmbeddingBank
    task: data.FewShotTask
    states: Tuple[EncoderState, ...]


def _prepare(spec, shots, mode, seed):
    encoder = EncoderState.create(EncoderConfig())
    store = data.generate_dataset(spec, seed)
    bank = trainer.prototype_bank(encoder, store, temperature=BANK_TEMPERATURE)
    task = data.sample_k_shot(store, shots, seed, mode=mode)
    return encoder, bank, task


def _accuracy_problems(metrics):
    return [
        f"{name}={value!r} outside [0, 100]"
        for name, value in sorted(metrics.items())
        if not (np.isfinite(value) and 0.0 <= value <= 100.0)
    ]


class Training:
    """One seed of prompt training, as ``promptlab train`` runs it."""

    kind = "train"

    def __init__(self, name, spec, config):
        self.name = name
        self.spec = spec
        self.config = config

    def setup(self, seed):
        encoder, bank, task = _prepare(self.spec, self.config.shots, self.config.mode, seed)
        return Inputs(seed, bank, task, (encoder,))

    def warm_up(self, inputs):
        short = replace(self.config, max_epochs=1)
        trainer.train(inputs.task, inputs.states[0], inputs.bank, short, inputs.seed)

    def operate(self, inputs):
        return trainer.train(inputs.task, inputs.states[0], inputs.bank, self.config, inputs.seed)

    def digest(self, record, feature_digest):
        """sha256 of the sorted-key record JSON followed by the prompt bytes."""
        h = hashlib.sha256(json.dumps(record.to_json_dict(), sort_keys=True).encode("ascii"))
        for name in sorted(record.prompt_state):
            h.update(name.encode("ascii"))
            h.update(record.prompt_state[name].tobytes())
        return h.hexdigest()

    def problems(self, record):
        losses = [entry["total"] for entry in record.steps]
        found = [] if np.isfinite(losses).all() else ["non-finite loss in the step log"]
        return found + _accuracy_problems(record.eval_metrics)


class Evaluation:
    """``evaluate_task`` with a frozen stack and with a seeded ``deep`` stack."""

    kind = "eval"

    def __init__(self, name, spec, shots, deep_layers):
        self.name = name
        self.spec = spec
        self.shots = shots
        self.deep_layers = deep_layers

    def setup(self, seed):
        encoder, bank, task = _prepare(self.spec, self.shots, "few_shot", seed)
        deep = PromptStack.create(
            "deep", 8, encoder.config.width, active_layers=self.deep_layers, seed=seed
        )
        prompted = EncoderState(encoder.config, encoder.weights, deep)
        return Inputs(seed, bank, task, (encoder, prompted))

    def warm_up(self, inputs):
        for state in inputs.states:
            trainer._forward_features(state, inputs.task.test_images[:trainer._EVAL_CHUNK])

    def operate(self, inputs):
        return [trainer.evaluate_task(state, inputs.bank, inputs.task) for state in inputs.states]

    def digest(self, metrics, feature_digest):
        """sha256 of every feature matrix the operation computed, then the metrics."""
        h = hashlib.sha256(feature_digest.encode("ascii"))
        h.update(json.dumps(metrics, sort_keys=True).encode("ascii"))
        return h.hexdigest()

    def problems(self, metrics):
        found = [p for m in metrics for p in _accuracy_problems(m)]
        frozen = metrics[0]["test_accuracy"]
        if frozen < FROZEN_ACCURACY_FLOOR:
            found.append(f"frozen test accuracy {frozen:.2f} below {FROZEN_ACCURACY_FLOOR}")
        return found


WORKLOADS = {
    w.name: w
    for w in (
        Training(
            "b2n_train",
            data.SyntheticTaskSpec(shift_magnitude=2.0),
            trainer.TrainConfig(
                strategy="progressive", prompt_length=8, alpha=0.1, depth_range=(1, 4),
                learning_rate=0.2, shots=16, mode="base_to_novel",
                loss=LossConfig(mode="ref"), eval_each_epoch=True,
                # 10 of criterion 9's 100 epochs (30 steps, about 4 s): a
                # run holds several operations, so its median shrugs off a
                # burst of load from neighbouring VMs.
                max_epochs=10,
            ),
        ),
        Training(
            "fewshot_late",
            data.SyntheticTaskSpec(),
            trainer.TrainConfig(
                strategy="deep", prompt_length=8, alpha=None, depth_range=(3, 4),
                learning_rate=0.2, shots=2, mode="few_shot",
                loss=LossConfig(mode="kd"), eval_each_epoch=False,
            ),
        ),
        Evaluation(
            "eval_pool",
            data.SyntheticTaskSpec(class_count=20, samples_per_class=100),
            shots=16,
            deep_layers=(2, 3),
        ),
    )
}
