"""Frozen cosine-similarity classification head and the training losses.

The head scores an image feature against a bank of frozen unit-norm class
embeddings (softmax over cosine similarities divided by a temperature).
Three losses build on it, and `step_loss` combines them into the one
training objective that both the trainer and the gradient check use:

- cross-entropy on the head's probabilities;
- a contrastive feature re-formation term that pulls each prompted
  feature toward the frozen encoder's feature of the same image and away
  from the frozen features of other images in the batch;
- a KL term distilling the frozen head distribution into the prompted one.

Probabilities are clamped at ``CLAMP_EPS`` before any log; every clamp is
counted on a module counter and surfaced as a RuntimeWarning, never
swallowed.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    EvaluationError,
)

CLAMP_EPS = 1e-12

LOSS_MODES = ("ce_only", "ref", "kd")

__all__ = [
    "CLAMP_EPS",
    "LOSS_MODES",
    "ClassEmbeddingBank",
    "LossConfig",
    "clamp_counter",
    "cosine_logits",
    "one_hot",
    "cross_entropy",
    "reformation_loss",
    "kd_loss",
    "total_loss",
    "step_loss",
]


class _ClampCounter:
    """Running count of probability clamps, never reset.

    Callers take the difference of two reads: the trainer records the
    clamps of one run as the count at its end minus the count at its
    start.
    """

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


clamp_counter = _ClampCounter()


class ClassEmbeddingBank:
    """Frozen unit-norm class vectors and the softmax temperature.

    Immutable after construction; rows are guaranteed unit-norm to 1e-9.
    """

    def __init__(self, embeddings, temperature):
        arr = np.ascontiguousarray(embeddings, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"class embeddings must be 2-d, got shape {arr.shape}")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms == 0.0):
            raise DegenerateInputError("class embedding bank contains a zero row")
        if np.abs(norms - 1.0).max() > 1e-9:
            raise DegenerateInputError(
                "class embeddings must be unit-norm; normalize before constructing the bank"
            )
        if not 0 < temperature < np.inf:
            raise ConfigError(f"temperature must be positive and finite, got {temperature}")
        self.embeddings = Tensor(arr)
        self.temperature = float(temperature)

    @property
    def class_count(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def subset(self, class_ids) -> "ClassEmbeddingBank":
        """A bank restricted to the given class ids, in the given order.

        Used for split evaluation: base and novel test sets are each
        classified only among their own classes.
        """
        ids = list(class_ids)
        if not ids:
            raise ConfigError("subset needs at least one class id")
        if any(i < 0 or i >= self.class_count for i in ids):
            raise ConfigError(f"class ids {ids} out of range for {self.class_count} classes")
        return ClassEmbeddingBank(self.embeddings.data[ids], temperature=self.temperature)

    @classmethod
    def generate(cls, class_count, dim, seed, temperature, max_cosine):
        """Seeded random unit rows with pairwise cosine at most `max_cosine`.

        Rejection sampling keeps classes angularly separated so that desk
        scale tasks stay linearly separable. Raises if the budget of
        draws cannot satisfy the separation (dimension too low for the
        class count).
        """
        if class_count < 1:
            raise ConfigError(f"class_count must be positive, got {class_count}")
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        if not np.isfinite(max_cosine):
            raise ConfigError(f"max_cosine must be finite, got {max_cosine}")
        rng = np.random.default_rng(seed)
        rows = []
        attempts = 0
        budget = 1000 * class_count
        while len(rows) < class_count:
            if attempts >= budget:
                raise DegenerateInputError(
                    f"could not place {class_count} embeddings in {dim} dimensions "
                    f"with pairwise cosine <= {max_cosine} after {budget} draws"
                )
            attempts += 1
            candidate = rng.normal(size=dim)
            norm = np.linalg.norm(candidate)
            if norm == 0.0:
                continue
            candidate /= norm
            if rows and np.abs(np.asarray(rows) @ candidate).max() > max_cosine:
                continue
            rows.append(candidate)
        return cls(np.asarray(rows), temperature=temperature)


def one_hot(labels, class_count) -> np.ndarray:
    """Integer labels to a float64 one-hot matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise DimensionError(f"labels must be 1-d integers, got {labels.dtype} {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise EvaluationError(
            f"labels must lie in [0, {class_count}), got range [{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.size, class_count))
    out[np.arange(labels.size), labels] = 1.0
    return out


def cosine_logits(features: Tensor, bank: ClassEmbeddingBank) -> Tensor:
    """Class probabilities: softmax of (feature . class_embedding) / temperature.

    `features` is a (batch, dim) matrix; the result is (batch, classes).
    """
    if features.ndim != 2 or features.shape[1] != bank.dim:
        raise DimensionError(
            f"features must be (batch, {bank.dim}) to match the bank, got {features.shape}"
        )
    sims = dc.matmul(features, dc.swapaxes(bank.embeddings, 0, 1))
    return dc.softmax(dc.scale(sims, 1.0 / bank.temperature))


def _clamped_log(probs: Tensor, what: str) -> Tensor:
    clamps = int((probs.data < CLAMP_EPS).sum())
    if clamps:
        clamp_counter.add(clamps)
        warnings.warn(
            f"{what}: clamped {clamps} probabilit{'y' if clamps == 1 else 'ies'} "
            f"below {CLAMP_EPS:g}",
            RuntimeWarning,
            stacklevel=3,
        )
    return dc.log(dc.clamp_min(probs, CLAMP_EPS))


def cross_entropy(probabilities: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the true classes, given as integer ids."""
    if probabilities.ndim != 2:
        raise DimensionError(f"probabilities must be (batch, classes), got {probabilities.shape}")
    batch, class_count = probabilities.shape
    if batch == 0:
        raise EvaluationError("cross_entropy on an empty batch")
    targets = one_hot(labels, class_count)
    if targets.shape[0] != batch:
        raise DimensionError(
            f"{targets.shape[0]} labels do not match probabilities {probabilities.shape}"
        )
    picked = dc.tensor_sum(dc.mul(probabilities, Tensor(targets)), axis=1)
    log_picked = _clamped_log(picked, "cross_entropy")
    return dc.scale(dc.tensor_sum(log_picked), -1.0 / batch)


def reformation_loss(prompted: Tensor, frozen: Tensor) -> Tensor:
    """Contrastive pull of prompted features toward same-image frozen features.

    For each image i the positive is the frozen feature of i; the other
    frozen features in the batch are negatives. Cosine similarities, no
    temperature. The frozen side never receives gradients.
    """
    if prompted.ndim != 2 or frozen.ndim != 2:
        raise DimensionError(
            f"feature matrices must be 2-d, got {prompted.shape} and {frozen.shape}"
        )
    if prompted.shape != frozen.shape:
        raise DimensionError(
            f"feature matrices disagree: {prompted.shape} vs {frozen.shape}"
        )
    batch = prompted.shape[0]
    if batch == 0:
        raise EvaluationError("reformation_loss on an empty batch")
    anchors = dc.l2_normalize(prompted)
    references = dc.l2_normalize(frozen.detach())
    sims = dc.matmul(anchors, dc.swapaxes(references, 0, 1))
    pulled = dc.sub(dc.logsumexp(sims), dc.take_diagonal(sims))
    return dc.scale(dc.tensor_sum(pulled), 1.0 / batch)


def kd_loss(prompted_probs: Tensor, frozen_probs: Tensor) -> Tensor:
    """Mean KL(frozen || prompted) over the batch; zero iff they agree."""
    if prompted_probs.shape != frozen_probs.shape:
        raise DimensionError(
            f"probability matrices disagree: {prompted_probs.shape} vs {frozen_probs.shape}"
        )
    if prompted_probs.ndim != 2 or prompted_probs.shape[0] == 0:
        raise DimensionError(
            f"probability matrices must be non-empty 2-d, got {prompted_probs.shape}"
        )
    batch = prompted_probs.shape[0]
    reference = frozen_probs.detach()
    log_ref = _clamped_log(reference, "kd_loss (reference)")
    log_prompted = _clamped_log(prompted_probs, "kd_loss (prompted)")
    per_entry = dc.mul(reference, dc.sub(log_ref, log_prompted))
    return dc.scale(dc.tensor_sum(per_entry), 1.0 / batch)


@dataclass(frozen=True)
class LossConfig:
    """Which objective to train and the weights of its extra terms.

    `ref_weight` multiplies the re-formation term (mode "ref");
    `kd_weight` multiplies the KL term (mode "kd"). Each weight is read
    only in its own mode.
    """

    mode: str = "ref"
    ref_weight: float = 1.0
    kd_weight: float = 1.0

    def __post_init__(self):
        if self.mode not in LOSS_MODES:
            raise ConfigError(f"unknown loss mode {self.mode!r}; expected one of {LOSS_MODES}")
        if not 0.0 <= self.ref_weight <= 1.0:
            raise ConfigError(f"ref_weight must lie in [0, 1], got {self.ref_weight}")
        if not 0.0 <= self.kd_weight < np.inf:
            raise ConfigError(f"kd_weight must be finite and non-negative, got {self.kd_weight}")


def total_loss(ce: Tensor, ref: Optional[Tensor], kd: Optional[Tensor], config: LossConfig) -> Tensor:
    """Combine loss components according to the configured mode."""
    if config.mode == "ce_only":
        return ce
    if config.mode == "ref":
        if ref is None:
            raise ConfigError("mode 'ref' needs the re-formation component")
        return dc.add(ce, dc.scale(ref, config.ref_weight))
    if kd is None:
        raise ConfigError("mode 'kd' needs the KL component")
    return dc.add(ce, dc.scale(kd, config.kd_weight))


def step_loss(feats: Tensor, frozen_feats, bank: ClassEmbeddingBank, labels, config: LossConfig):
    """The training objective of one minibatch: (total, {component: loss}).

    `frozen_feats` is the frozen encoder's feature matrix of the same
    images (unused, and may be None, in mode "ce_only"). The components
    are "ce" plus "ref" or "kd" in those modes.
    """
    probs = cosine_logits(feats, bank)
    parts = {"ce": cross_entropy(probs, labels)}
    if config.mode == "ref":
        parts["ref"] = reformation_loss(feats, Tensor(frozen_feats))
    elif config.mode == "kd":
        parts["kd"] = kd_loss(probs, cosine_logits(Tensor(frozen_feats), bank))
    total = total_loss(parts["ce"], parts.get("ref"), parts.get("kd"), config)
    return total, parts
