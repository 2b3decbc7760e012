import numpy as np
import pytest

from promptlab import data
from promptlab.errors import ConfigError, DataError


def _spec(**kw):
    base = dict(class_count=4, patch_count=3, patch_dim=5, noise_std=0.2,
                shift_magnitude=0.0, samples_per_class=6, prototype_seed=1)
    base.update(kw)
    return data.SyntheticTaskSpec(**base)


# ---------------------------------------------------------------------------
# spec and split
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ConfigError):
        _spec(class_count=1)
    with pytest.raises(ConfigError):
        _spec(samples_per_class=0)
    with pytest.raises(ConfigError):
        _spec(noise_std=-0.1)
    with pytest.raises(ConfigError):
        _spec(shift_magnitude=float("inf"))


def test_split_is_a_partition():
    for c in (2, 3, 4, 7, 10, 11):
        split = data.split_base_novel(c, seed=3)
        assert len(split.base) == (c + 1) // 2
        assert len(split.novel) == c // 2
        assert set(split.base) | set(split.novel) == set(range(c))
        assert set(split.base) & set(split.novel) == set()


def test_split_deterministic_and_seed_sensitive():
    a = data.split_base_novel(10, seed=5)
    b = data.split_base_novel(10, seed=5)
    assert a == b
    others = [data.split_base_novel(10, seed=s) for s in range(20)]
    assert any(o != a for o in others)


def test_split_rejects_tiny_class_counts():
    with pytest.raises(ConfigError):
        data.split_base_novel(1, seed=0)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generation_is_pure_in_spec_and_seed():
    a = data.generate_dataset(_spec(), seed=9)
    b = data.generate_dataset(_spec(), seed=9)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.ids, b.ids)
    assert a.split == b.split
    c = data.generate_dataset(_spec(), seed=10)
    assert not np.array_equal(a.samples, c.samples)


def test_noiseless_samples_equal_prototypes():
    store = data.generate_dataset(_spec(noise_std=0.0), seed=2)
    for class_id in range(store.spec.class_count):
        block = store.samples[store.labels == class_id]
        assert np.array_equal(block, np.repeat(store.prototypes[class_id][None], 6, axis=0))


def test_shift_displaces_only_novel_prototypes_by_delta():
    plain = data.generate_dataset(_spec(), seed=4)
    shifted = data.generate_dataset(_spec(shift_magnitude=2.5), seed=4)
    assert plain.split == shifted.split
    for class_id in plain.split.base:
        assert np.array_equal(plain.prototypes[class_id], shifted.prototypes[class_id])
    for class_id in plain.split.novel:
        gap = np.linalg.norm(shifted.prototypes[class_id] - plain.prototypes[class_id])
        assert gap == pytest.approx(2.5, abs=1e-12)


def test_labels_and_ids_layout():
    store = data.generate_dataset(_spec(), seed=0)
    assert len(store.ids) == 4 * 6
    assert len(np.unique(store.ids)) == len(store.ids)
    assert np.array_equal(np.sort(np.unique(store.labels)), np.arange(4))
    np.testing.assert_array_equal(np.bincount(store.labels), [6, 6, 6, 6])


# ---------------------------------------------------------------------------
# episode sampling
# ---------------------------------------------------------------------------

def test_k_shot_counts_per_mode():
    store = data.generate_dataset(_spec(), seed=1)
    few = data.sample_k_shot(store, 1, seed=0, mode="few_shot")
    b2n = data.sample_k_shot(store, 1, seed=0, mode="base_to_novel")
    assert len(few.train_ids) == 4
    assert len(b2n.train_ids) == 2
    assert set(np.unique(b2n.train_labels)) <= set(store.split.base)


def test_k_shot_train_test_disjoint_and_exhaustive():
    store = data.generate_dataset(_spec(), seed=1)
    for mode in data.MODES:
        task = data.sample_k_shot(store, 2, seed=7, mode=mode)
        train = set(task.train_ids.tolist())
        test = set(task.base_test_ids.tolist()) | set(task.novel_test_ids.tolist())
        assert train.isdisjoint(test)
        assert train | test == set(store.ids.tolist())


def test_k_shot_novel_pool_is_untouched_in_base_to_novel():
    store = data.generate_dataset(_spec(), seed=1)
    task = data.sample_k_shot(store, 4, seed=3, mode="base_to_novel")
    novel_ids = np.concatenate([store.ids_of_class(c) for c in store.split.novel])
    assert set(task.novel_test_ids.tolist()) == set(novel_ids.tolist())
    assert set(np.unique(task.novel_test_labels)) == set(store.split.novel)


def test_k_shot_determinism_and_seed_sensitivity():
    store = data.generate_dataset(_spec(samples_per_class=20), seed=1)
    a = data.sample_k_shot(store, 4, seed=5)
    b = data.sample_k_shot(store, 4, seed=5)
    c = data.sample_k_shot(store, 4, seed=6)
    assert np.array_equal(a.train_ids, b.train_ids)
    assert not np.array_equal(a.train_ids, c.train_ids)


def test_k_shot_insufficient_samples_names_class():
    store = data.generate_dataset(_spec(samples_per_class=6), seed=1)
    with pytest.raises(DataError, match="class 0"):
        data.sample_k_shot(store, 8, seed=0)


def test_k_shot_rejects_unknown_knobs():
    store = data.generate_dataset(_spec(), seed=1)
    with pytest.raises(ConfigError):
        data.sample_k_shot(store, 3, seed=0)
    with pytest.raises(ConfigError):
        data.sample_k_shot(store, 1, seed=0, mode="zero_shot")


def test_k_shot_warns_when_test_pool_empties():
    store = data.generate_dataset(_spec(samples_per_class=16), seed=1)
    with pytest.warns(RuntimeWarning, match="empty"):
        task = data.sample_k_shot(store, 16, seed=0, mode="few_shot")
    assert task.base_test_ids.size == 0 and task.novel_test_ids.size == 0
    assert task.test_images.shape == (0, 3, 5)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_dataset_roundtrip_is_exact(tmp_path):
    store = data.generate_dataset(_spec(noise_std=0.37, shift_magnitude=1.25), seed=8)
    path = tmp_path / "task.plds"
    data.save_dataset(path, store)
    loaded = data.load_dataset(path)
    assert loaded.spec == store.spec
    assert loaded.seed == store.seed
    assert loaded.split == store.split
    assert np.array_equal(loaded.samples, store.samples)
    assert np.array_equal(loaded.labels, store.labels)
    assert np.array_equal(loaded.ids, store.ids)
    assert np.array_equal(loaded.prototypes, store.prototypes)


def test_dataset_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.plds"
    path.write_bytes(b"not a dataset at all")
    with pytest.raises(DataError):
        data.load_dataset(path)


def test_dataset_load_rejects_truncated_body(tmp_path):
    store = data.generate_dataset(_spec(), seed=8)
    path = tmp_path / "trunc.plds"
    data.save_dataset(path, store)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(DataError, match="bytes"):
        data.load_dataset(path)


def test_dataset_load_rejects_bad_header_line(tmp_path):
    store = data.generate_dataset(_spec(), seed=8)
    path = tmp_path / "hdr.plds"
    data.save_dataset(path, store)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"patch_dim=5", b"patch_dim five", 1))
    with pytest.raises(DataError):
        data.load_dataset(path)


# ---------------------------------------------------------------------------
# room-for-adaptation sanity
# ---------------------------------------------------------------------------

def test_zero_shot_on_shifted_novel_classes_is_imperfect():
    from promptlab.encoder import EncoderConfig, EncoderState
    from promptlab.heads import ClassEmbeddingBank, cosine_logits

    spec = data.SyntheticTaskSpec(
        class_count=8, patch_count=6, patch_dim=5, noise_std=0.0,
        shift_magnitude=4.0, samples_per_class=5, prototype_seed=3,
    )
    store = data.generate_dataset(spec, seed=11)
    cfg = EncoderConfig(depth=2, width=16, heads=2, patch_count=6, patch_dim=5,
                        output_dim=8, seed=1)
    enc = EncoderState.create(cfg)
    bank = ClassEmbeddingBank.generate(8, 8, seed=2, temperature=0.01, max_cosine=0.5)
    novel_mask = np.isin(store.labels, store.split.novel)
    feats = enc.forward(store.samples[novel_mask])
    preds = cosine_logits(feats, bank).data.argmax(axis=1)
    assert (preds == store.labels[novel_mask]).mean() < 1.0
