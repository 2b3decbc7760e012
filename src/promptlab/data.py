"""Synthetic patch-space classification tasks.

Samples are class prototypes plus Gaussian noise, generated directly in
patch space (there is nothing to gain from rendering pixels here). A task
splits its classes into base and novel halves; novel prototypes can be
displaced by a magnitude-delta random direction, the knob that emulates a
distribution shift between the halves. Few-shot episodes draw k train
samples per class without replacement; everything else becomes test data.

All generation is a pure function of (spec, seed): independent generator
streams are derived through SeedSequence so that, for example, turning the
shift knob never changes the base-class prototypes.
"""

import warnings
from dataclasses import asdict, dataclass, fields
from typing import Tuple

import numpy as np

from .checkpoint import load_tensors, save_tensors
from .errors import CheckpointError, ConfigError, DataError

SHOT_CHOICES = (1, 2, 4, 8, 16)
MODES = ("few_shot", "base_to_novel")

_STREAM_PROTO = 0
_STREAM_SHIFT = 1
_STREAM_NOISE = 2
_STREAM_SPLIT = 3
_STREAM_SHOTS = 4

__all__ = [
    "SHOT_CHOICES",
    "MODES",
    "SyntheticTaskSpec",
    "BaseNovelSplit",
    "SampleStore",
    "FewShotTask",
    "generate_dataset",
    "split_base_novel",
    "sample_k_shot",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Knobs of one synthetic classification task."""

    class_count: int = 10
    patch_count: int = 16
    patch_dim: int = 12
    noise_std: float = 0.3
    shift_magnitude: float = 0.0
    samples_per_class: int = 40
    prototype_seed: int = 0

    def __post_init__(self):
        if self.class_count < 2:
            raise ConfigError(f"need at least 2 classes, got {self.class_count}")
        if self.samples_per_class < 1:
            raise ConfigError(f"samples_per_class must be positive, got {self.samples_per_class}")
        if min(self.patch_count, self.patch_dim) < 1:
            raise ConfigError("patch_count and patch_dim must be positive")
        for name in ("noise_std", "shift_magnitude"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class BaseNovelSplit:
    """A partition of class ids into base and novel halves."""

    base: Tuple[int, ...]
    novel: Tuple[int, ...]


def split_base_novel(class_count: int, seed) -> BaseNovelSplit:
    """Seeded permutation of class ids; even positions base, odd novel."""
    if class_count < 2:
        raise ConfigError(f"cannot split fewer than 2 classes, got {class_count}")
    perm = np.random.default_rng(_stream(seed, _STREAM_SPLIT)).permutation(class_count)
    return BaseNovelSplit(
        base=tuple(sorted(int(c) for c in perm[0::2])),
        novel=tuple(sorted(int(c) for c in perm[1::2])),
    )


def _stream(seed, tag: int) -> np.random.SeedSequence:
    """The generator seed for one purpose; every data seed passes through here."""
    if int(seed) < 0:
        raise ConfigError(f"seeds must be non-negative, got {seed}")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(tag,))


@dataclass(frozen=True)
class SampleStore:
    """An immutable generated dataset plus its class split."""

    spec: SyntheticTaskSpec
    seed: int
    samples: np.ndarray  # (N, patch_count, patch_dim)
    labels: np.ndarray  # (N,) int64
    ids: np.ndarray  # (N,) int64, globally unique
    prototypes: np.ndarray  # (C, patch_count, patch_dim), shift already applied
    split: BaseNovelSplit


def generate_dataset(spec: SyntheticTaskSpec, seed) -> SampleStore:
    """Prototype-plus-noise samples for every class; pure in (spec, seed).

    Prototypes come from the spec's own prototype seed, so different run
    seeds share geometry; the run seed drives the class split and the
    per-sample noise. Novel-class prototypes are displaced by a unit
    direction scaled by the spec's shift magnitude; the direction stream
    is separate, so shift_magnitude=0 reproduces the unshifted dataset
    exactly.
    """
    c, n_p, p_dim = spec.class_count, spec.patch_count, spec.patch_dim
    proto_rng = np.random.default_rng(_stream(spec.prototype_seed, _STREAM_PROTO))
    prototypes = proto_rng.normal(size=(c, n_p, p_dim))

    split = split_base_novel(c, seed)
    if spec.shift_magnitude > 0:
        shift_rng = np.random.default_rng(_stream(spec.prototype_seed, _STREAM_SHIFT))
        for class_id in range(c):
            direction = shift_rng.normal(size=(n_p, p_dim))
            if class_id in split.novel:
                direction /= np.linalg.norm(direction)
                prototypes[class_id] += spec.shift_magnitude * direction

    noise_rng = np.random.default_rng(_stream(seed, _STREAM_NOISE))
    per_class = spec.samples_per_class
    samples = np.empty((c * per_class, n_p, p_dim))
    labels = np.empty(c * per_class, dtype=np.int64)
    for class_id in range(c):
        lo = class_id * per_class
        noise = noise_rng.normal(size=(per_class, n_p, p_dim))
        samples[lo:lo + per_class] = prototypes[class_id] + spec.noise_std * noise
        labels[lo:lo + per_class] = class_id
    ids = np.arange(c * per_class, dtype=np.int64)
    return SampleStore(
        spec=spec,
        seed=int(seed),
        samples=samples,
        labels=labels,
        ids=ids,
        prototypes=prototypes,
        split=split,
    )


@dataclass(frozen=True)
class FewShotTask:
    """One training episode: k shots per class plus the full test pools."""

    shots: int
    mode: str
    split: BaseNovelSplit
    train_images: np.ndarray
    train_labels: np.ndarray
    train_ids: np.ndarray
    base_test_images: np.ndarray
    base_test_labels: np.ndarray
    base_test_ids: np.ndarray
    novel_test_images: np.ndarray
    novel_test_labels: np.ndarray
    novel_test_ids: np.ndarray

    @property
    def test_images(self) -> np.ndarray:
        return np.concatenate([self.base_test_images, self.novel_test_images])

    @property
    def test_labels(self) -> np.ndarray:
        return np.concatenate([self.base_test_labels, self.novel_test_labels])


def sample_k_shot(store: SampleStore, k: int, seed, mode: str = "few_shot") -> FewShotTask:
    """Draw a k-shot episode from the store.

    In "few_shot" mode every class contributes k train samples; in
    "base_to_novel" mode only base classes do, leaving the novel half
    entirely unseen. Each class draws k of its rows without replacement,
    class by class from one seeded stream; the episode lists every split in
    store row order, and its ids are read off those rows. Test pools are
    whatever the training draw left behind (all novel samples, in
    base_to_novel mode).
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if k not in SHOT_CHOICES:
        raise ConfigError(f"shots must be one of {SHOT_CHOICES}, got {k}")

    eligible = range(store.spec.class_count) if mode == "few_shot" else store.split.base
    rng = np.random.default_rng(_stream(seed, _STREAM_SHOTS))
    taken = np.zeros(len(store.labels), dtype=bool)
    for class_id in eligible:
        rows = np.flatnonzero(store.labels == class_id)
        if len(rows) < k:
            raise DataError(
                f"class {class_id} has only {len(rows)} samples, cannot draw {k} shots"
            )
        taken[rng.choice(rows, size=k, replace=False)] = True

    is_base = np.isin(store.labels, store.split.base)
    rest_base = np.flatnonzero(~taken & is_base)
    rest_novel = np.flatnonzero(~taken & ~is_base)

    if rest_base.size == 0 and rest_novel.size == 0:
        warnings.warn(
            f"k={k} consumed every sample; test pools are empty", RuntimeWarning, stacklevel=2
        )

    def gather(idx):
        return store.samples[idx], store.labels[idx], store.ids[idx]

    train_images, train_labels, train_ids = gather(np.flatnonzero(taken))
    base_images, base_labels, base_ids = gather(rest_base)
    novel_images, novel_labels, novel_ids = gather(rest_novel)
    return FewShotTask(
        shots=int(k),
        mode=mode,
        split=store.split,
        train_images=train_images,
        train_labels=train_labels,
        train_ids=train_ids,
        base_test_images=base_images,
        base_test_labels=base_labels,
        base_test_ids=base_ids,
        novel_test_images=novel_images,
        novel_test_labels=novel_labels,
        novel_test_ids=novel_ids,
    )


# ---------------------------------------------------------------------------
# persistence: a tensor container of kind "dataset"
# ---------------------------------------------------------------------------

def save_dataset(path, store: SampleStore) -> None:
    """The store's arrays, as float64, in a tensor container whose header states spec, seed and split."""
    header = {"kind": "dataset", "spec": asdict(store.spec), "seed": store.seed,
              "split": {"base": list(store.split.base), "novel": list(store.split.novel)}}
    save_tensors(path, {"samples": store.samples, "labels": store.labels, "ids": store.ids,
                        "prototypes": store.prototypes}, header)


def load_dataset(path) -> SampleStore:
    """Read a :func:`save_dataset` file; a malformed or inconsistent one raises DataError."""
    try:
        arrays, header = load_tensors(path)
    except CheckpointError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if header.get("kind") != "dataset":
        raise DataError(f"{path}: not a dataset file (kind {header.get('kind')!r})")
    try:
        spec = SyntheticTaskSpec(**header["spec"])
        seed, base, novel = (header["seed"], tuple(header["split"]["base"]),
                             tuple(header["split"]["novel"]))
        typed = [(field.type, header["spec"][field.name]) for field in fields(spec)]
    except (KeyError, TypeError, ConfigError) as exc:
        raise DataError(f"{path}: unusable header {header}: {exc!r}") from exc
    if any(type(v) is not kind and (kind, type(v)) != (float, int)
           for kind, v in typed + [(int, c) for c in (seed, *base, *novel)]):
        raise DataError(f"{path}: header values of the wrong type: {header}")

    n_p, p_dim, c = spec.patch_count, spec.patch_dim, spec.class_count
    count = arrays.get("samples", np.empty(())).shape[:1]
    shapes = {"samples": count + (n_p, p_dim), "labels": count, "ids": count,
              "prototypes": (c, n_p, p_dim)}
    if {name: arr.shape for name, arr in arrays.items()} != shapes:
        raise DataError(f"{path}: tensors {sorted(arrays)} do not have the shapes {shapes}")
    labels, ids = arrays["labels"], arrays["ids"]
    if not all(np.all(np.abs(a) < 2.0**53) and np.array_equal(a, np.trunc(a)) for a in (labels, ids)):
        raise DataError(f"{path}: labels and sample ids must be whole numbers below 2**53")
    labels, ids = labels.astype(np.int64), ids.astype(np.int64)
    if sorted(base + novel) != list(range(c)):
        raise DataError(f"{path}: base {base} and novel {novel} do not partition {c} classes")
    if np.any((labels < 0) | (labels >= c)):
        raise DataError(f"{path}: labels must lie in [0, {c}), got [{labels.min()}, {labels.max()}]")
    if np.any(np.diff(ids) <= 0):
        raise DataError(f"{path}: sample ids must be strictly increasing")
    return SampleStore(spec=spec, seed=seed, samples=arrays["samples"], labels=labels, ids=ids,
                       prototypes=arrays["prototypes"], split=BaseNovelSplit(base=base, novel=novel))
