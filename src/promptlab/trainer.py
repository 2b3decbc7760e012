"""SGD training of prompt parameters against a frozen encoder.

One run owns: a fresh prompt stack (seeded per run), the shared frozen
backbone (read-only), a class-embedding bank restricted to the trainable
classes, and a k-shot episode. Per epoch the train set is reshuffled with
``seed + epoch``; each minibatch runs the prompted path, optionally the
frozen path (for the re-formation and distillation losses), and one SGD
step on the prompts alone. Every step is logged with its exact loss
components; wall-clock time is kept on the record but never serialized,
so that identical seeds give byte-identical record files.

Frozen features of the train set are computed once per run and reused:
the frozen path takes no gradients and is deterministic, so per-batch
recomputation would produce the identical values.
"""

import itertools
import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import MODES, SHOT_CHOICES, FewShotTask, generate_dataset, sample_k_shot
from .diffcore import Tensor
from .encoder import STRATEGIES, EncoderState, PromptStack, count_trainable_params
from .errors import ConfigError, DivergenceError, InvariantError, PromptLabError
from .evaluate import accuracy, harmonic_mean
from .heads import (
    ClassEmbeddingBank,
    LossConfig,
    clamp_counter,
    cosine_logits,
    cross_entropy,
    kd_loss,
    reformation_loss,
    total_loss,
)

LR_SCHEDULES = ("constant", "cosine")

_EVAL_CHUNK = 256

__all__ = [
    "LR_SCHEDULES",
    "TrainConfig",
    "RunRecord",
    "epochs_for_shots",
    "SGD",
    "train",
    "run_grid",
    "prototype_bank",
    "evaluate_task",
    "parse_depth_range",
    "load_config",
    "save_records",
    "load_records",
]


def epochs_for_shots(k: int, mode: str = "few_shot") -> int:
    """The epoch budget for a shot count, per training protocol."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if k not in SHOT_CHOICES:
        raise ConfigError(f"shots must be one of {SHOT_CHOICES}, got {k}")
    if mode == "base_to_novel":
        return 100
    return {16: 200, 8: 200, 4: 100, 2: 100, 1: 50}[k]


def parse_depth_range(text: str) -> Tuple[int, int]:
    """'i..j' (1-based, inclusive) to a (first, last) pair."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ConfigError(f"depth range must look like '1..4', got {text!r}")
    try:
        first, last = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"depth range must be integral, got {text!r}") from exc
    if first < 1 or last < first:
        raise ConfigError(f"depth range must satisfy 1 <= first <= last, got {text!r}")
    return first, last


@dataclass(frozen=True)
class TrainConfig:
    """Everything a single run needs besides the data and the backbone.

    `depth_range` is 1-based inclusive, matching the `i..j` notation used
    on the command line; `active_layers()` converts to 0-based block
    indices. `max_epochs=None` defers to :func:`epochs_for_shots`.
    """

    strategy: str = "progressive"
    prompt_length: int = 8
    alpha: Optional[float] = 0.1
    depth_range: Tuple[int, int] = (1, 4)
    learning_rate: float = 0.05
    weight_decay: float = 0.0005
    momentum: float = 0.9
    batch_size: int = 32
    max_epochs: Optional[int] = None
    lr_schedule: str = "cosine"
    shots: int = 16
    mode: str = "base_to_novel"
    seeds: Tuple[int, ...] = (0, 1, 2)
    loss: LossConfig = field(default_factory=LossConfig)
    eval_each_epoch: bool = True

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ConfigError(f"unknown lr schedule {self.lr_schedule!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.shots not in SHOT_CHOICES:
            raise ConfigError(f"shots must be one of {SHOT_CHOICES}, got {self.shots}")
        if len(self.seeds) == 0:
            raise ConfigError("seeds must not be empty")
        first, last = self.depth_range
        if first < 1 or last < first:
            raise ConfigError(f"depth_range must satisfy 1 <= first <= last, got {self.depth_range}")

    def active_layers(self) -> Tuple[int, ...]:
        first, last = self.depth_range
        return tuple(range(first - 1, last))

    def prompt_stack(self, width: int, seed: int) -> PromptStack:
        """A freshly initialized prompt stack of this config's shape."""
        return PromptStack.create(
            self.strategy,
            self.prompt_length,
            width,
            active_layers=self.active_layers(),
            alpha=self.alpha if self.strategy == "progressive" else None,
            seed=seed,
        )

    def epochs(self) -> int:
        if self.max_epochs is not None:
            return self.max_epochs
        return epochs_for_shots(self.shots, self.mode)

    def coordinates(self) -> Dict[str, object]:
        """The identity of a run for grids and aggregation."""
        return {
            "strategy": self.strategy,
            "m": self.prompt_length,
            "alpha": self.alpha if self.strategy == "progressive" else None,
            "loss_mode": self.loss.mode,
            "lambda": self.loss.ref_weight if self.loss.mode == "ref" else None,
            "beta": self.loss.kd_weight if self.loss.mode == "kd" else None,
            "depth_range": f"{self.depth_range[0]}..{self.depth_range[1]}",
            "shots": self.shots,
            "mode": self.mode,
        }


@dataclass
class RunRecord:
    """Everything one training run produced.

    `steps` has one entry per optimizer step: epoch, step index, the
    learning rate used, and the exact ce / extra / total loss values.
    `wall_clock_seconds` is measured but excluded from serialization.
    """

    seed: int
    coordinates: Dict[str, object]
    steps: List[Dict[str, float]]
    epoch_eval: List[Optional[float]]
    eval_metrics: Dict[str, float]
    trainable_params: int
    clamp_events: int
    prompt_state: Dict[str, np.ndarray]
    wall_clock_seconds: float

    def to_json_dict(self) -> Dict[str, object]:
        out = {
            "seed": self.seed,
            "coordinates": self.coordinates,
            "steps": self.steps,
            "epoch_eval": self.epoch_eval,
            "eval_metrics": self.eval_metrics,
            "trainable_params": self.trainable_params,
            "clamp_events": self.clamp_events,
        }
        return out


def save_records(path, records: Sequence[RunRecord]) -> None:
    """Line-delimited JSON, keys sorted; deterministic for identical runs."""
    with open(path, "w", encoding="ascii") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_dict(), sort_keys=True))
            fh.write("\n")


def load_records(path) -> List[Dict[str, object]]:
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


class SGD:
    """Momentum SGD with decoupled-from-nothing, classic L2 weight decay.

    v <- momentum * v + (grad + weight_decay * param)
    param <- param - lr_t * v
    """

    def __init__(self, named_params, momentum=0.9, weight_decay=0.0):
        self.named_params = list(named_params)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {name: np.zeros_like(t.data) for name, t in self.named_params}

    def zero_grad(self) -> None:
        for _, tensor in self.named_params:
            tensor.zero_grad()

    def step(self, lr_t: float, context: str = "") -> None:
        for name, tensor in self.named_params:
            grad = tensor.grad
            if grad is None:
                raise InvariantError(f"parameter {name} has no gradient accumulator")
            if not np.isfinite(grad).all():
                bad = int(np.size(grad) - np.isfinite(grad).sum())
                raise DivergenceError(
                    f"non-finite gradient in {name} ({bad} entries) {context}".strip()
                )
            update = grad + self.weight_decay * tensor.data
            v = self.velocity[name]
            v *= self.momentum
            v += update
            tensor.data -= lr_t * v


def _lr_at(config: TrainConfig, epoch: int, total_epochs: int) -> float:
    if config.lr_schedule == "constant":
        return config.learning_rate
    return config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


def prototype_bank(state: EncoderState, store, temperature: float = 0.1) -> ClassEmbeddingBank:
    """Class embeddings from the frozen encoder's view of the prototypes.

    Plays the role a text encoder plays at full scale: class embeddings
    that actually align with image features, so zero-shot transfer to
    held-out classes is meaningful. Row c is the frozen (promptless)
    feature of class c's prototype; rows are unit-norm already.
    """
    feats, _ = state.forward(store.prototypes, stack=PromptStack.none())
    return ClassEmbeddingBank(feats.data, temperature=temperature)


def _forward_features(state: EncoderState, images, stack=None) -> np.ndarray:
    """Feature matrix for a (possibly large) image set, without gradients."""
    chunks = []
    for start in range(0, len(images), _EVAL_CHUNK):
        feats, _ = state.forward(images[start:start + _EVAL_CHUNK], stack=stack)
        chunks.append(feats.data)
    return np.concatenate(chunks) if chunks else np.empty((0, state.config.output_dim))


def _split_accuracy(state: EncoderState, bank: ClassEmbeddingBank, images, labels, classes) -> Optional[float]:
    """Accuracy classifying `images` among `classes` only."""
    if len(images) == 0:
        return None
    classes = list(classes)
    sub = bank.subset(classes)
    feats = _forward_features(state, images)
    picked = cosine_logits(Tensor(feats), sub).data.argmax(axis=1)
    predictions = np.asarray(classes)[picked]
    return accuracy(predictions, labels)


def evaluate_task(state: EncoderState, bank: ClassEmbeddingBank, task: FewShotTask) -> Dict[str, float]:
    """Split accuracies of the state's current prompts on a task."""
    metrics: Dict[str, float] = {}
    base = _split_accuracy(state, bank, task.base_test_images, task.base_test_labels, task.split.base)
    novel = _split_accuracy(state, bank, task.novel_test_images, task.novel_test_labels, task.split.novel)
    if base is not None:
        metrics["base_accuracy"] = base
    if novel is not None:
        metrics["novel_accuracy"] = novel
    if base is not None and novel is not None:
        metrics["harmonic_mean"] = harmonic_mean(base, novel)
    if task.mode == "few_shot" and len(task.test_images):
        all_classes = sorted(task.split.base + task.split.novel)
        metrics["test_accuracy"] = _split_accuracy(
            state, bank, task.test_images, task.test_labels, all_classes
        )
    return metrics


def _epoch_eval_pool(task: FewShotTask):
    if task.mode == "base_to_novel":
        return task.base_test_images, task.base_test_labels, list(task.split.base)
    pool_classes = sorted(task.split.base + task.split.novel)
    return task.test_images, task.test_labels, pool_classes


def train(
    task: FewShotTask,
    encoder: EncoderState,
    bank: ClassEmbeddingBank,
    config: TrainConfig,
    seed: int,
) -> RunRecord:
    """Run one seed of prompt training; returns the full run record.

    The passed encoder is not mutated: a private state is built around the
    same frozen weights with a fresh, seed-initialized prompt stack.
    """
    started = time.perf_counter()
    clamp_baseline = clamp_counter.count

    stack = config.prompt_stack(encoder.config.width, seed)
    state = EncoderState(encoder.config, encoder.weights, stack)

    train_classes = sorted(int(c) for c in np.unique(task.train_labels))
    if not train_classes:
        raise ConfigError("task has no training samples")
    sub_bank = bank.subset(train_classes)
    class_index = {c: i for i, c in enumerate(train_classes)}
    local_labels = np.array([class_index[int(c)] for c in task.train_labels])
    images = task.train_images
    n = len(images)

    needs_frozen = config.loss.mode in ("ref", "kd")
    frozen_feats = _forward_features(state, images, stack=PromptStack.none()) if needs_frozen else None

    optimizer = SGD(stack.parameters(), momentum=config.momentum, weight_decay=config.weight_decay)
    total_epochs = config.epochs()
    steps: List[Dict[str, float]] = []
    epoch_eval: List[Optional[float]] = []
    eval_images, eval_labels, eval_classes = _epoch_eval_pool(task)

    for epoch in range(total_epochs):
        lr_t = float(_lr_at(config, epoch, total_epochs))
        order = np.random.default_rng(seed + epoch).permutation(n)
        for step_index, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            feats, _ = state.forward(images[idx])
            probs = cosine_logits(feats, sub_bank)
            ce = cross_entropy(probs, local_labels[idx])
            ref = kd = None
            if config.loss.mode == "ref":
                ref = reformation_loss(feats, Tensor(frozen_feats[idx]))
            elif config.loss.mode == "kd":
                frozen_probs = cosine_logits(Tensor(frozen_feats[idx]), sub_bank)
                kd = kd_loss(probs, frozen_probs)
            loss = total_loss(ce, ref, kd, config.loss)
            if not np.isfinite(loss.data).all():
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} step {step_index} (seed {seed})"
                )
            optimizer.zero_grad()
            loss.backward()
            _assert_frozen_untouched(state)
            optimizer.step(lr_t, context=f"at epoch {epoch} step {step_index} (seed {seed})")
            entry = {
                "epoch": epoch,
                "step": step_index,
                "lr": lr_t,
                "ce": ce.item(),
                "total": loss.item(),
            }
            if ref is not None:
                entry["ref"] = ref.item()
            if kd is not None:
                entry["kd"] = kd.item()
            steps.append(entry)
        if config.eval_each_epoch:
            epoch_eval.append(
                _split_accuracy(state, bank, eval_images, eval_labels, eval_classes)
            )

    eval_metrics = evaluate_task(state, bank, task)
    eval_metrics["train_accuracy"] = _split_accuracy(
        state, bank, images, task.train_labels, train_classes
    )
    return RunRecord(
        seed=int(seed),
        coordinates=config.coordinates(),
        steps=steps,
        epoch_eval=epoch_eval,
        eval_metrics=eval_metrics,
        trainable_params=count_trainable_params(state),
        clamp_events=clamp_counter.count - clamp_baseline,
        prompt_state=stack.state_dict(),
        wall_clock_seconds=time.perf_counter() - started,
    )


def _assert_frozen_untouched(state: EncoderState) -> None:
    for key, tensor in state.weights.items():
        if tensor.grad is not None or tensor.requires_grad:
            raise InvariantError(f"frozen weight {key} acquired a gradient")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

_GRID_AXES = ("alpha", "lambda", "depth_range", "strategy", "shots")


def _apply_axis(config: TrainConfig, axis: str, value) -> TrainConfig:
    if axis == "alpha":
        return replace(config, alpha=value)
    if axis == "lambda":
        return replace(config, loss=replace(config.loss, ref_weight=value))
    if axis == "depth_range":
        pair = parse_depth_range(value) if isinstance(value, str) else tuple(value)
        return replace(config, depth_range=pair)
    if axis == "strategy":
        updated = replace(config, strategy=value)
        if value != "progressive":
            updated = replace(updated, alpha=None)
        return updated
    if axis == "shots":
        return replace(config, shots=value)
    raise ConfigError(f"unknown grid axis {axis!r}; expected one of {_GRID_AXES}")


def run_grid(
    axes: Dict[str, Sequence],
    base: TrainConfig,
    encoder: EncoderState,
    task_spec,
    bank_factory=None,
) -> List[Dict[str, object]]:
    """Train the Cartesian product of `axes` values x `base.seeds`.

    Each cell gets a fresh dataset/episode per seed and an independently
    initialized prompt stack. `bank_factory(encoder, store)` supplies the
    class embeddings for each seed's dataset; the default embeds the
    store's prototypes through the frozen encoder. Failing runs are
    recorded with their error and do not stop the grid.
    """
    for axis in axes:
        if axis not in _GRID_AXES:
            raise ConfigError(f"unknown grid axis {axis!r}; expected one of {_GRID_AXES}")
        if len(axes[axis]) == 0:
            raise ConfigError(f"grid axis {axis!r} is empty")
    if bank_factory is None:
        bank_factory = prototype_bank
    names = sorted(axes)
    cells: List[Dict[str, object]] = []
    combos = itertools.product(*(axes[name] for name in names)) if names else [()]
    for combo in combos:
        try:
            config = base
            for axis, value in zip(names, combo):
                config = _apply_axis(config, axis, value)
        except PromptLabError as exc:
            cells.append(
                {
                    "coordinates": dict(zip(names, combo)),
                    "records": [],
                    "failures": [{"seed": "*", "error": f"{type(exc).__name__}: {exc}"}],
                }
            )
            continue
        records: List[RunRecord] = []
        failures: List[Dict[str, str]] = []
        for seed in config.seeds:
            store = generate_dataset(task_spec, seed)
            bank = bank_factory(encoder, store)
            task = sample_k_shot(store, config.shots, seed, mode=config.mode)
            try:
                records.append(train(task, encoder, bank, config, seed))
            except PromptLabError as exc:
                failures.append({"seed": str(seed), "error": f"{type(exc).__name__}: {exc}"})
        cells.append(
            {
                "coordinates": config.coordinates(),
                "records": records,
                "failures": failures,
            }
        )
    return cells


# ---------------------------------------------------------------------------
# config files and environment overrides
# ---------------------------------------------------------------------------

ENV_PREFIX = "PROMPTLAB_"

_CONFIG_KEYS = {
    "strategy": str,
    "m": int,
    "alpha": float,
    "lambda": float,
    "beta": float,
    "loss_mode": str,
    "lr": float,
    "wd": float,
    "momentum": float,
    "schedule": str,
    "batch_size": int,
    "epochs": int,
    "shots": int,
    "mode": str,
    "seeds": str,
    "depth_range": str,
    "eval_each_epoch": str,
}

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def load_config(path=None, overrides=None, env=None) -> TrainConfig:
    """Build a TrainConfig from layered textual keys.

    Precedence, lowest first: built-in defaults < the `key = value` file at
    `path` < PROMPTLAB_<KEY> variables in `env` (default: os.environ, e.g.
    PROMPTLAB_LR=0.1) < `overrides` (key -> value; values are str()-ed).
    """
    merged = _parse_config_file(path) if path is not None else {}
    env = os.environ if env is None else env
    for key in _CONFIG_KEYS:
        env_name = ENV_PREFIX + key.upper()
        if env_name in env:
            merged[key] = env[env_name]
    for key, value in (overrides or {}).items():
        merged[key] = str(value)
    return _config_from_keys(merged)


def _parse_config_file(path) -> Dict[str, str]:
    """`key = value` lines; '#' starts a comment; later keys win."""
    mapping: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r}; known keys: {sorted(_CONFIG_KEYS)}"
                )
            mapping[key] = value.strip()
    return mapping


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ConfigError(f"{key} must be boolean-like, got {value!r}")


def _config_from_keys(merged: Dict[str, str]) -> TrainConfig:
    for key in merged:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")

    def get(key, default=None):
        if key not in merged:
            return default
        caster = _CONFIG_KEYS[key]
        try:
            return caster(merged[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {merged[key]!r}") from exc

    strategy = get("strategy", "progressive")
    loss_mode = get("loss_mode", "ref")
    loss = LossConfig(
        mode=loss_mode,
        ref_weight=get("lambda", 1.0),
        kd_weight=get("beta", 1.0),
    )
    seeds_text = get("seeds")
    if seeds_text is None:
        seeds: Tuple[int, ...] = (0, 1, 2)
    else:
        try:
            seeds = tuple(int(s) for s in seeds_text.split(",") if s.strip() != "")
        except ValueError as exc:
            raise ConfigError(f"seeds must be comma-separated integers, got {seeds_text!r}") from exc
    alpha = get("alpha", 0.1) if strategy == "progressive" else None
    depth_text = get("depth_range")
    kwargs = dict(
        strategy=strategy,
        prompt_length=get("m", 8),
        alpha=alpha,
        learning_rate=get("lr", 0.05),
        weight_decay=get("wd", 0.0005),
        momentum=get("momentum", 0.9),
        batch_size=get("batch_size", 32),
        max_epochs=get("epochs"),
        lr_schedule=get("schedule", "cosine"),
        shots=get("shots", 16),
        mode=get("mode", "base_to_novel"),
        seeds=seeds,
        loss=loss,
    )
    if depth_text is not None:
        kwargs["depth_range"] = parse_depth_range(depth_text)
    if "eval_each_epoch" in merged:
        kwargs["eval_each_epoch"] = _parse_bool(merged["eval_each_epoch"], "eval_each_epoch")
    return TrainConfig(**kwargs)

