import numpy as np
import pytest

import promptlab.diffcore as dc
from promptlab import heads
from promptlab.cli import run_grad_check
from promptlab.diffcore import Tensor, finite_difference_check
from promptlab.encoder import EncoderConfig, EncoderState, PromptStack
from promptlab.errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    EvaluationError,
)


def _unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# class embedding bank
# ---------------------------------------------------------------------------

def test_bank_requires_unit_rows():
    with pytest.raises(DegenerateInputError):
        heads.ClassEmbeddingBank(np.array([[2.0, 0.0], [0.0, 1.0]]), temperature=0.01)
    with pytest.raises(DegenerateInputError):
        heads.ClassEmbeddingBank(np.array([[0.0, 0.0], [0.0, 1.0]]), temperature=0.01)


def test_bank_requires_positive_temperature():
    for temperature in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ConfigError):
            heads.ClassEmbeddingBank(np.eye(2), temperature=temperature)


def test_bank_generation_is_seeded_and_separated():
    a = heads.ClassEmbeddingBank.generate(8, 12, seed=4, temperature=0.01, max_cosine=0.5)
    b = heads.ClassEmbeddingBank.generate(8, 12, seed=4, temperature=0.01, max_cosine=0.5)
    assert np.array_equal(a.embeddings.data, b.embeddings.data)
    gram = a.embeddings.data @ a.embeddings.data.T
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 0.5
    assert np.abs(np.diag(gram) - 1.0).max() <= 1e-9
    assert a.class_count == 8 and a.dim == 12


def test_bank_generation_impossible_separation():
    # 20 directions with pairwise |cos| <= 0.05 do not fit in 2 dimensions
    with pytest.raises(DegenerateInputError):
        heads.ClassEmbeddingBank.generate(20, 2, seed=0, temperature=0.01, max_cosine=0.05)


@pytest.mark.parametrize("max_cosine", [np.nan, np.inf, -np.inf])
def test_bank_generation_refuses_non_finite_max_cosine(max_cosine):
    with pytest.raises(ConfigError, match="max_cosine"):
        heads.ClassEmbeddingBank.generate(10, 4, seed=0, temperature=0.1, max_cosine=max_cosine)


def test_bank_embeddings_never_require_grad():
    bank = heads.ClassEmbeddingBank.generate(4, 6, seed=1, temperature=0.01, max_cosine=0.5)
    feats = Tensor(_unit_rows(np.random.default_rng(0), 3, 6), requires_grad=True)
    with pytest.warns(RuntimeWarning, match="clamped"):
        loss = heads.cross_entropy(heads.cosine_logits(feats, bank), np.array([0, 1, 2]))
    loss.backward()
    assert bank.embeddings.grad is None
    assert np.abs(feats.grad).max() > 0


# ---------------------------------------------------------------------------
# cosine logits
# ---------------------------------------------------------------------------

def test_logits_rows_sum_to_one():
    rng = np.random.default_rng(2)
    bank = heads.ClassEmbeddingBank.generate(5, 8, seed=3, temperature=0.01, max_cosine=0.5)
    probs = heads.cosine_logits(Tensor(_unit_rows(rng, 16, 8)), bank)
    assert probs.shape == (16, 5)
    assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs.data > 0)


def test_logits_identical_embeddings_give_uniform():
    row = np.full((3, 4), 0.5)  # all rows the same unit vector
    bank = heads.ClassEmbeddingBank(row, temperature=0.01)
    probs = heads.cosine_logits(Tensor(np.array([[1.0, 0, 0, 0]])), bank)
    assert np.allclose(probs.data, 1.0 / 3.0, atol=1e-12)


def test_logits_two_class_hand_value():
    bank = heads.ClassEmbeddingBank(np.eye(2), temperature=1.0)
    probs = heads.cosine_logits(Tensor(np.array([[1.0, 0.0]])), bank)
    e = np.e
    assert np.allclose(probs.data, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)


def test_logits_temperature_preserves_argmax():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(6, 10))
    for trial in range(50):
        feats = Tensor(_unit_rows(rng, 20, 10))
        t1, t2 = rng.uniform(0.005, 5.0, size=2)
        bank1 = heads.ClassEmbeddingBank(_unit_rows(rng, 6, 10), temperature=t1)
        bank2 = heads.ClassEmbeddingBank(bank1.embeddings.data, temperature=t2)
        a = heads.cosine_logits(feats, bank1).data.argmax(axis=1)
        b = heads.cosine_logits(feats, bank2).data.argmax(axis=1)
        assert np.array_equal(a, b)


def test_logits_dim_mismatch():
    bank = heads.ClassEmbeddingBank.generate(4, 8, seed=0, temperature=0.01, max_cosine=0.5)
    with pytest.raises(DimensionError):
        heads.cosine_logits(Tensor(np.ones(5)), bank)
    with pytest.raises(DimensionError):
        heads.cosine_logits(Tensor(np.ones(8)), bank)  # right width, but not a batch


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_ce_uniform_is_log_class_count():
    for c in (2, 5, 11):
        probs = Tensor(np.full((4, c), 1.0 / c))
        labels = np.arange(4) % c
        assert abs(heads.cross_entropy(probs, labels).item() - np.log(c)) < 1e-9


def test_ce_perfect_prediction_is_zero():
    probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert heads.cross_entropy(probs, np.array([0, 1])).item() == 0.0


def test_ce_clamps_zero_probability_and_counts():
    probs = Tensor(np.array([[0.0, 1.0], [0.5, 0.5]]))
    before = heads.clamp_counter.count
    with pytest.warns(RuntimeWarning, match="clamped"):
        loss = heads.cross_entropy(probs, np.array([0, 0]))
    assert heads.clamp_counter.count - before == 1
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx((-np.log(1e-12) - np.log(0.5)) / 2)


def test_ce_shape_errors():
    with pytest.raises(EvaluationError):
        heads.cross_entropy(Tensor(np.zeros((0, 3))), np.array([], dtype=int))
    with pytest.raises(DimensionError):
        heads.cross_entropy(Tensor(np.ones(3)), np.array([0]))
    with pytest.raises(DimensionError):
        heads.cross_entropy(Tensor(np.ones((2, 3)) / 3), np.ones((3, 3)))
    with pytest.raises(DimensionError):  # one-hot rows are not labels
        heads.cross_entropy(Tensor(np.ones((2, 3)) / 3), np.eye(3)[[0, 1]])
    with pytest.raises(DimensionError):
        heads.cross_entropy(Tensor(np.ones((2, 3)) / 3), np.array([0, 1, 2]))


def test_one_hot_validation():
    out = heads.one_hot(np.array([1, 0]), 3)
    assert np.array_equal(out, [[0, 1, 0], [1, 0, 0]])
    with pytest.raises(EvaluationError):
        heads.one_hot(np.array([3]), 3)
    with pytest.raises(DimensionError):
        heads.one_hot(np.zeros((2, 2), dtype=int), 3)
    with pytest.raises(DimensionError):
        heads.one_hot(np.array([1.0, 0.0]), 3)


# ---------------------------------------------------------------------------
# re-formation loss
# ---------------------------------------------------------------------------

def test_ref_single_sample_is_exactly_zero():
    rng = np.random.default_rng(7)
    f = Tensor(_unit_rows(rng, 1, 6))
    assert heads.reformation_loss(f, f).item() == 0.0


def test_ref_orthogonal_pair_closed_form():
    f = Tensor(np.eye(2))
    want = -np.log(np.e / (np.e + 1.0))
    assert abs(heads.reformation_loss(f, f).item() - want) <= 1e-9


def test_ref_errors():
    with pytest.raises(EvaluationError):
        heads.reformation_loss(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))))
    with pytest.raises(DimensionError):
        heads.reformation_loss(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))))
    with pytest.raises(DimensionError):
        heads.reformation_loss(Tensor(np.ones(4)), Tensor(np.ones(4)))


def test_ref_is_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(50):
        fp = Tensor(rng.normal(size=(6, 5)))
        fz = Tensor(rng.normal(size=(6, 5)))
        assert heads.reformation_loss(fp, fz).item() >= 0.0


def test_ref_decreases_as_negatives_separate():
    # identical prompted/frozen features; shrink off-diagonal similarity by
    # rotating two unit vectors apart and watch the loss fall toward 0
    losses = []
    for angle in (0.3, 0.9, 1.5707963267948966):
        f = np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)]])
        losses.append(heads.reformation_loss(Tensor(f), Tensor(f)).item())
    assert losses[0] > losses[1] > losses[2]


def test_ref_frozen_side_gets_no_gradient():
    rng = np.random.default_rng(9)
    prompted = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    frozen = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    heads.reformation_loss(prompted, frozen).backward()
    assert np.abs(prompted.grad).max() > 0
    assert frozen.grad is None


def test_ref_gradient_matches_differences():
    rng = np.random.default_rng(10)
    frozen = Tensor(rng.normal(size=(5, 6)))
    report = finite_difference_check(
        lambda x: heads.reformation_loss(x, frozen), rng.normal(size=(5, 6)), tolerance=1e-6
    )
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# knowledge-distillation loss
# ---------------------------------------------------------------------------

def test_kd_zero_iff_equal():
    rng = np.random.default_rng(11)
    raw = rng.uniform(0.1, 1.0, size=(4, 5))
    probs = raw / raw.sum(axis=1, keepdims=True)
    assert heads.kd_loss(Tensor(probs), Tensor(probs)).item() == pytest.approx(0.0, abs=1e-12)


def test_kd_hand_value_with_clamp():
    with pytest.warns(RuntimeWarning):
        loss = heads.kd_loss(Tensor(np.array([[0.5, 0.5]])), Tensor(np.array([[1.0, 0.0]])))
    assert loss.item() == pytest.approx(np.log(2.0))


def test_kd_nonnegative_on_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = rng.uniform(0.01, 1.0, size=(3, 6))
        b = rng.uniform(0.01, 1.0, size=(3, 6))
        a /= a.sum(axis=1, keepdims=True)
        b /= b.sum(axis=1, keepdims=True)
        assert heads.kd_loss(Tensor(a), Tensor(b)).item() >= -1e-12


def test_kd_frozen_side_gets_no_gradient():
    rng = np.random.default_rng(13)
    raw = rng.uniform(0.1, 1.0, size=(3, 4))
    prompted = Tensor(raw / raw.sum(axis=1, keepdims=True), requires_grad=True)
    raw2 = rng.uniform(0.1, 1.0, size=(3, 4))
    frozen = Tensor(raw2 / raw2.sum(axis=1, keepdims=True), requires_grad=True)
    heads.kd_loss(prompted, frozen).backward()
    assert np.abs(prompted.grad).max() > 0
    assert frozen.grad is None


def test_kd_shape_mismatch():
    with pytest.raises(DimensionError):
        heads.kd_loss(Tensor(np.ones((2, 3)) / 3), Tensor(np.ones((2, 4)) / 4))


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

def test_total_loss_modes():
    ce = Tensor(np.array(0.5))
    ref = Tensor(np.array(0.3))
    kd = Tensor(np.array(0.2))
    assert heads.total_loss(ce, ref, kd, heads.LossConfig(mode="ce_only")).item() == 0.5
    combo = heads.total_loss(ce, ref, None, heads.LossConfig(mode="ref", ref_weight=1.0))
    assert combo.item() == pytest.approx(0.8)
    assert heads.total_loss(ce, ref, None, heads.LossConfig(mode="ref", ref_weight=0.0)).item() == 0.5
    kd_total = heads.total_loss(ce, None, kd, heads.LossConfig(mode="kd", kd_weight=2.0))
    assert kd_total.item() == pytest.approx(0.9)


@pytest.mark.parametrize("mode", heads.LOSS_MODES)
def test_step_loss_parts_and_total(mode):
    rng = np.random.default_rng(5)
    bank = heads.ClassEmbeddingBank.generate(3, 6, seed=6, temperature=0.2, max_cosine=0.5)
    feats = dc.l2_normalize(Tensor(rng.normal(size=(4, 6)), requires_grad=True))
    frozen = rng.normal(size=(4, 6))
    frozen /= np.linalg.norm(frozen, axis=1, keepdims=True)
    labels = np.array([0, 1, 2, 1])
    config = heads.LossConfig(mode=mode, ref_weight=0.5, kd_weight=2.0)
    total, parts = heads.step_loss(feats, frozen, bank, labels, config)
    # Exactly the components a training step records next to "total".
    assert sorted(parts) == {"ce_only": ["ce"], "ref": ["ce", "ref"], "kd": ["ce", "kd"]}[mode]
    expected = heads.total_loss(parts["ce"], parts.get("ref"), parts.get("kd"), config)
    assert total.item() == expected.item()
    probs = heads.cosine_logits(feats, bank)
    assert parts["ce"].item() == heads.cross_entropy(probs, labels).item()


def test_total_loss_missing_components():
    ce = Tensor(np.array(0.5))
    with pytest.raises(ConfigError):
        heads.total_loss(ce, None, None, heads.LossConfig(mode="ref"))
    with pytest.raises(ConfigError):
        heads.total_loss(ce, None, None, heads.LossConfig(mode="kd"))


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        heads.LossConfig(mode="contrastive")
    with pytest.raises(ConfigError):
        heads.LossConfig(ref_weight=1.5)
    with pytest.raises(ConfigError):
        heads.LossConfig(kd_weight=-0.1)
    for weight in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            heads.LossConfig(mode="kd", kd_weight=weight)


# ---------------------------------------------------------------------------
# gradients through the full prompted pipeline
# ---------------------------------------------------------------------------

def _tiny_pipeline(alpha=0.1, temperature=0.2):
    cfg = EncoderConfig(depth=2, width=16, heads=2, patch_count=4, patch_dim=6, output_dim=8, seed=21)
    stack = PromptStack.create("progressive", 2, cfg.width, active_layers=(0, 1), alpha=alpha, seed=22)
    enc = EncoderState.create(cfg, stack)
    bank = heads.ClassEmbeddingBank.generate(3, cfg.output_dim, seed=23, temperature=temperature,
                                           max_cosine=0.5)
    rng = np.random.default_rng(24)
    images = rng.normal(size=(1, cfg.patch_count, cfg.patch_dim))
    return enc, stack, bank, images


def test_ce_gradient_through_prompted_encoder():
    enc, stack, bank, images = _tiny_pipeline()
    labels = np.array([1])

    def f(x):
        stack.prompts[0] = x
        feats = enc.forward(images)
        return heads.cross_entropy(heads.cosine_logits(feats, bank), labels)

    report = finite_difference_check(f, stack.prompts[0].data.copy(), tolerance=1e-4)
    assert report.passed, str(report)


@pytest.mark.parametrize("mode", heads.LOSS_MODES)
@pytest.mark.parametrize("strategy", ["shallow", "deep", "progressive"])
def test_gradient_through_prompts_starting_past_block_one(strategy, mode):
    # Prompts on blocks 2..3 of 3: the gradient must flow through the
    # insertion at a block whose input already went through a frozen block.
    report = run_grad_check(mode, strategy=strategy, depth_range=(2, 3))
    assert report.passed, str(report)
