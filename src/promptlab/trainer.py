"""SGD training of prompt parameters against a frozen encoder.

One run owns: a fresh prompt stack (seeded per run), the shared frozen
backbone (read-only), a class-embedding bank restricted to the trainable
classes, and a k-shot episode. Per epoch the train set is reshuffled with
``seed + epoch``; each minibatch runs the prompted path, optionally the
frozen path (for the re-formation and distillation losses), and one SGD
step on the prompts alone. Every step is logged with its exact loss
components, and nothing time-dependent is recorded, so identical seeds
give byte-identical record files.

Nothing a run computes without the prompts is computed twice. Before the
first epoch the train images go through the patch embedding and the blocks
before the stack's first insertion layer once, graph-free
(:meth:`EncoderState.prefix`); every step resumes its forward from those
rows, and the frozen features (for the re-formation and distillation
losses) and the final train accuracy resume from the same prefix. The
frozen path takes no gradients and is deterministic, so per-batch
recomputation would produce the identical values. Evaluation does the
same: one test-pool prefix per run, before the first epoch, and one split
table (:func:`_splits`) say what the per-epoch eval (the mode's headline
split) and the final metrics (every split) score, from slices of it.
"""

import itertools
import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import MODES, SHOT_CHOICES, FewShotTask, generate_dataset, sample_k_shot
from .diffcore import Tensor, no_grad
from .encoder import EncoderState, PromptStack, count_trainable_params
from .errors import ConfigError, DivergenceError, EvaluationError, InvariantError, PromptLabError
from .evaluate import accuracy, harmonic_mean
from .heads import ClassEmbeddingBank, LossConfig, clamp_counter, cosine_logits, step_loss

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
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ConfigError(f"unknown lr schedule {self.lr_schedule!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be finite and non-negative, got {self.weight_decay}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.shots not in SHOT_CHOICES:
            raise ConfigError(f"shots must be one of {SHOT_CHOICES}, got {self.shots}")
        if len(self.seeds) == 0:
            raise ConfigError("seeds must not be empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {self.seeds}")
        first, last = self.depth_range
        if first < 1 or last < first:
            raise ConfigError(f"depth_range must satisfy 1 <= first <= last, got {self.depth_range}")
        # Only the progressive strategy mixes with alpha; a progressive
        # config without one takes the class default. The stack rules are
        # PromptStack's own.
        if self.strategy != "progressive":
            object.__setattr__(self, "alpha", None)
        elif self.alpha is None:
            object.__setattr__(self, "alpha", TrainConfig.alpha)
        PromptStack.check_rules(self.strategy, self.prompt_length, self.active_layers(), self.alpha)

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
            alpha=self.alpha,
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
            "alpha": self.alpha,
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
    """

    seed: int
    coordinates: Dict[str, object]
    steps: List[Dict[str, float]]
    epoch_eval: List[Optional[float]]
    eval_metrics: Dict[str, float]
    trainable_params: int
    clamp_events: int
    prompt_state: Dict[str, np.ndarray]

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "coordinates": self.coordinates,
            "steps": self.steps,
            "epoch_eval": self.epoch_eval,
            "eval_metrics": self.eval_metrics,
            "trainable_params": self.trainable_params,
            "clamp_events": self.clamp_events,
        }


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
                raise InvariantError(f"parameter {name} got no gradient: the loss does not reach it")
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


def prototype_bank(state: EncoderState, store, temperature: float) -> ClassEmbeddingBank:
    """Class embeddings from the frozen encoder's view of the prototypes.

    Plays the role a text encoder plays at full scale: class embeddings
    that actually align with image features, so zero-shot transfer to
    held-out classes is meaningful. Row c is the frozen (promptless)
    feature of class c's prototype; rows are unit-norm already.
    """
    frozen = EncoderState(state.config, state.weights, PromptStack.none())
    return ClassEmbeddingBank(_forward_features(frozen, store.prototypes), temperature=temperature)


def _forward_features(state: EncoderState, images) -> np.ndarray:
    """Feature matrix for a (possibly large) image set, in chunks, with the state's stack.

    `images` may also be a :class:`~promptlab.encoder.Prefix` of the set.

    Every chunk runs under :func:`no_grad`, so no graph is recorded and no
    gradient buffer is allocated, even through prompts that require gradients.
    """
    feats = np.empty((len(images), state.config.output_dim))
    with no_grad():
        for start in range(0, len(images), _EVAL_CHUNK):
            feats[start:start + _EVAL_CHUNK] = state.forward(images[start:start + _EVAL_CHUNK]).data
    return feats


def _split_accuracy(state: EncoderState, bank: ClassEmbeddingBank, images, labels, classes) -> Optional[float]:
    """Accuracy classifying `images` among `classes` only."""
    if len(images) == 0:
        return None
    sub = bank.subset(classes)
    feats = _forward_features(state, images)
    if not np.isfinite(feats).all():
        raise EvaluationError("features are not all finite; the prompts may hold NaN or inf")
    picked = cosine_logits(Tensor(feats), sub).data.argmax(axis=1)
    predictions = np.asarray(classes)[picked]
    return accuracy(predictions, labels)


def _splits(task: FewShotTask) -> Dict[str, Tuple[slice, np.ndarray, Sequence[int]]]:
    """Metric name -> (rows of ``task.test_images``, labels, classes): base,
    novel, then in ``few_shot`` mode the all-class split."""
    n_base = len(task.base_test_images)
    splits = {
        "base_accuracy": (slice(0, n_base), task.base_test_labels, task.split.base),
        "novel_accuracy": (slice(n_base, None), task.novel_test_labels, task.split.novel),
    }
    if task.mode == "few_shot":
        splits["test_accuracy"] = (slice(None), task.test_labels, sorted(task.split.base + task.split.novel))
    return splits


def _score(state: EncoderState, bank: ClassEmbeddingBank, task: FewShotTask, pool) -> Dict[str, float]:
    """Every split of :func:`_splits` that has images, read from `pool`, the test pool's prefix."""
    scores = {name: _split_accuracy(state, bank, pool[rows], labels, classes)
              for name, (rows, labels, classes) in _splits(task).items()}
    metrics = {name: value for name, value in scores.items() if value is not None}
    if "base_accuracy" in metrics and "novel_accuracy" in metrics:
        metrics["harmonic_mean"] = harmonic_mean(metrics["base_accuracy"], metrics["novel_accuracy"])
    return metrics


def evaluate_task(state: EncoderState, bank: ClassEmbeddingBank, task: FewShotTask) -> Dict[str, float]:
    """Split accuracies of the state's current prompts on a task.

    The test pool (base images, then novel) goes through the state's
    unprompted prefix once; the base, novel and all-class splits resume
    from slices of that one :class:`~promptlab.encoder.Prefix`, as in
    :func:`train`, which builds one test-pool prefix per run.
    """
    return _score(state, bank, task, state.prefix(task.test_images))


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
    clamp_baseline = clamp_counter.count

    stack = config.prompt_stack(encoder.config.width, seed)
    state = EncoderState(encoder.config, encoder.weights, stack)

    train_classes = sorted(int(c) for c in np.unique(task.train_labels))
    if not train_classes:
        raise ConfigError("task has no training samples")
    sub_bank = bank.subset(train_classes)
    class_index = {c: i for i, c in enumerate(train_classes)}
    local_labels = np.array([class_index[int(c)] for c in task.train_labels])
    prefix = state.prefix(task.train_images)
    n = len(prefix)

    needs_frozen = config.loss.mode in ("ref", "kd")
    frozen_state = EncoderState(encoder.config, encoder.weights, PromptStack.none())
    frozen_feats = _forward_features(frozen_state, prefix) if needs_frozen else None

    optimizer = SGD(stack.parameters(), momentum=config.momentum, weight_decay=config.weight_decay)
    total_epochs = config.epochs()
    steps: List[Dict[str, float]] = []
    epoch_eval: List[Optional[float]] = []
    pool = state.prefix(task.test_images)
    headline = "base_accuracy" if task.mode == "base_to_novel" else "test_accuracy"
    eval_rows, eval_labels, eval_classes = _splits(task)[headline]

    for epoch in range(total_epochs):
        lr_t = float(_lr_at(config, epoch, total_epochs))
        order = np.random.default_rng(seed + epoch).permutation(n)
        for step_index, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            feats = state.forward(prefix[idx])
            frozen = frozen_feats[idx] if needs_frozen else None
            loss, parts = step_loss(feats, frozen, sub_bank, local_labels[idx], config.loss)
            if not np.isfinite(loss.data).all():
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} step {step_index} (seed {seed})"
                )
            optimizer.zero_grad()
            loss.backward()
            _assert_frozen_untouched(state)
            optimizer.step(lr_t, context=f"at epoch {epoch} step {step_index} (seed {seed})")
            steps.append({
                "epoch": epoch,
                "step": step_index,
                "lr": lr_t,
                "total": loss.item(),
                **{k: v.item() for k, v in parts.items()},
            })
        if config.eval_each_epoch:
            epoch_eval.append(_split_accuracy(state, bank, pool[eval_rows], eval_labels, eval_classes))

    eval_metrics = _score(state, bank, task, pool)
    eval_metrics["train_accuracy"] = _split_accuracy(
        state, bank, prefix, task.train_labels, train_classes
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
    )


def _assert_frozen_untouched(state: EncoderState) -> None:
    for key, tensor in state.weights.items():
        if tensor.grad is not None or tensor.requires_grad:
            raise InvariantError(f"frozen weight {key} acquired a gradient")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

_GRID_AXES = ("alpha", "lambda", "depth_range", "strategy", "shots")


def run_grid(
    axes: Dict[str, Sequence],
    base: TrainConfig,
    encoder: EncoderState,
    task_spec,
    bank_factory,
) -> List[Dict[str, object]]:
    """Train the Cartesian product of `axes` values x `base.seeds`.

    Axis values are config text, parsed like the values of a config file
    (any value whose str() parses will do); a value that does not parse
    fails only its own cell. Each cell gets a fresh dataset/episode per
    seed and an independently initialized prompt stack.
    `bank_factory(encoder, store)` supplies the class embeddings for each
    seed's dataset. Failing runs are recorded with their error and do not
    stop the grid.
    """
    for axis in axes:
        if axis not in _GRID_AXES:
            raise ConfigError(f"unknown grid axis {axis!r}; expected one of {_GRID_AXES}")
        if len(axes[axis]) == 0:
            raise ConfigError(f"grid axis {axis!r} is empty")
    names = sorted(axes)
    cells: List[Dict[str, object]] = []
    combos = itertools.product(*(axes[name] for name in names)) if names else [()]
    for combo in combos:
        keys = {axis: str(value) for axis, value in zip(names, combo)}
        try:
            config = _apply_keys(base, keys)
        except PromptLabError as exc:
            cells.append(
                {
                    "coordinates": keys,
                    "records": [],
                    "failures": [{"seed": "*", "error": f"{type(exc).__name__}: {exc}"}],
                }
            )
            continue
        records: List[RunRecord] = []
        failures: List[Dict[str, str]] = []
        for seed in config.seeds:
            try:
                store = generate_dataset(task_spec, seed)
                bank = bank_factory(encoder, store)
                task = sample_k_shot(store, config.shots, seed, mode=config.mode)
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

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ValueError(f"not boolean-like: {value!r}")


def _parse_seeds(value: str) -> Tuple[int, ...]:
    return tuple(int(s) for s in value.split(",") if s.strip() != "")


# config key -> (TrainConfig field, or "loss.<LossConfig field>"; parser)
_CONFIG_KEYS = {
    "strategy": ("strategy", str),
    "m": ("prompt_length", int),
    "alpha": ("alpha", float),
    "lambda": ("loss.ref_weight", float),
    "beta": ("loss.kd_weight", float),
    "loss_mode": ("loss.mode", str),
    "lr": ("learning_rate", float),
    "wd": ("weight_decay", float),
    "momentum": ("momentum", float),
    "schedule": ("lr_schedule", str),
    "batch_size": ("batch_size", int),
    "epochs": ("max_epochs", int),
    "shots": ("shots", int),
    "mode": ("mode", str),
    "seeds": ("seeds", _parse_seeds),
    "depth_range": ("depth_range", parse_depth_range),
    "eval_each_epoch": ("eval_each_epoch", _parse_bool),
}


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
    return _apply_keys(TrainConfig(), merged)


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


def _apply_keys(config: TrainConfig, keys: Dict[str, str]) -> TrainConfig:
    """`config` with each textual key parsed into its field; absent keys keep theirs."""
    fields: Dict[str, object] = {}
    loss_fields: Dict[str, object] = {}
    for key, text in keys.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse = _CONFIG_KEYS[key]
        try:
            value = parse(text)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {text!r}") from exc
        owner, _, name = name.rpartition(".")
        (loss_fields if owner == "loss" else fields)[name] = value
    return replace(config, loss=replace(config.loss, **loss_fields), **fields)
