"""Acceptance gate: ten criteria, one test (and one printed verdict line) each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines; add ``-s`` to see the printed detail (margins, measured
values). Criterion 9 checks statistical trends on synthetic tasks and is
soft: a missed trend prints FLAG and raises a warning instead of failing,
since a desk-scale world cannot guarantee effect sizes, only directions.
"""

import math
import warnings

import numpy as np
import pytest

from promptlab.cli import main, run_grad_check
from promptlab.data import SyntheticTaskSpec, generate_dataset, sample_k_shot
from promptlab.diffcore import Tensor
from promptlab.encoder import (
    EncoderConfig,
    EncoderState,
    PromptStack,
    backbone_checksum,
    count_trainable_params,
)
from promptlab.evaluate import harmonic_mean
from promptlab.heads import (
    LOSS_MODES,
    ClassEmbeddingBank,
    LossConfig,
    cross_entropy,
    reformation_loss,
)
from promptlab.trainer import TrainConfig, prototype_bank, train

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _verdict(number, name, status, detail=""):
    extra = f"  ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{extra}")


# ---------------------------------------------------------------------------
# 1. harmonic mean reproduces recorded result triples
# ---------------------------------------------------------------------------

# (base %, novel %, harmonic %) triples recorded at two-decimal precision
# from published base-to-novel benchmark runs. Since the inputs are rounded,
# the recomputed mean may sit up to 0.01 from the printed one.
RECORDED_TRIPLES = (
    (69.34, 74.22, 71.70), (82.69, 63.22, 71.66), (80.47, 71.69, 75.83),
    (81.89, 71.85, 76.54), (85.14, 69.57, 76.57), (85.20, 73.22, 78.76),
    (72.43, 68.14, 70.22), (76.47, 67.88, 71.92), (75.98, 70.43, 73.10),
    (76.35, 69.26, 72.63), (75.59, 69.36, 72.34), (75.82, 69.21, 72.36),
    (96.84, 94.00, 95.40), (98.00, 89.81, 93.73), (97.96, 93.81, 95.84),
    (97.91, 94.40, 96.12), (99.01, 93.34, 96.09), (98.92, 94.21, 96.51),
    (91.17, 97.26, 94.12), (93.67, 95.29, 94.47), (95.20, 97.69, 96.43),
    (94.86, 97.52, 96.17), (95.80, 96.18, 95.99), (95.87, 97.65, 96.75),
    (63.37, 74.89, 68.65), (78.12, 60.40, 68.13), (70.49, 73.59, 72.01),
    (75.17, 74.37, 74.77), (80.97, 63.27, 71.03), (80.43, 67.96, 73.67),
    (72.08, 77.80, 74.83), (97.60, 59.67, 74.06), (94.87, 71.75, 81.71),
    (95.44, 74.04, 83.39), (98.45, 65.39, 78.58), (98.42, 72.06, 83.20),
    (90.10, 91.22, 90.66), (88.33, 82.26, 85.19), (90.70, 91.29, 90.99),
    (90.73, 91.27, 91.00), (90.16, 90.88, 90.52), (90.32, 90.91, 90.61),
    (27.19, 36.29, 31.09), (40.44, 22.30, 28.75), (33.41, 23.71, 27.74),
    (38.88, 31.63, 34.88), (46.04, 25.29, 32.65), (47.08, 29.87, 36.55),
    (69.36, 75.35, 72.23), (80.60, 65.89, 72.51), (79.74, 76.86, 78.27),
    (80.85, 74.93, 77.78), (80.33, 73.75, 76.90), (80.67, 76.11, 78.32),
    (53.24, 59.90, 56.37), (79.44, 41.18, 54.24), (77.01, 56.00, 64.85),
    (77.16, 54.63, 63.97), (84.76, 52.82, 65.08), (83.95, 59.06, 69.34),
    (56.48, 64.05, 60.03), (92.19, 54.74, 68.69), (87.49, 60.04, 71.21),
    (88.91, 53.75, 67.00), (97.46, 63.47, 76.88), (97.12, 72.91, 83.29),
    (70.53, 77.50, 73.85), (84.69, 56.05, 67.46), (82.33, 73.45, 77.64),
    (84.49, 74.52, 79.19), (87.99, 71.55, 78.92), (88.56, 75.55, 81.54),
)


def test_criterion_01_harmonic_mean_matches_recorded_triples():
    assert len(RECORDED_TRIPLES) == 72
    worst = 0.0
    for base, novel, printed in RECORDED_TRIPLES:
        worst = max(worst, abs(harmonic_mean(base, novel) - printed))
    ok = worst <= 0.01
    _verdict(1, "harmonic mean matches 72 recorded triples",
             "PASS" if ok else "FAIL", f"worst deviation {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 2. trainable-parameter counts for recorded (length, width) configurations
# ---------------------------------------------------------------------------

def test_criterion_02_trainable_parameter_counts():
    # Counting convention: parameters per inserted layer, so a one-block
    # encoder carries exactly length x width trainables.
    cases = (
        ("shallow", 60, 512, None, 30720),
        ("progressive", 48, 768, 0.1, 36864),
    )
    results = []
    for strategy, length, width, alpha, expected in cases:
        cfg = EncoderConfig(depth=1, width=width, heads=8,
                            patch_count=4, patch_dim=6, output_dim=8, seed=0)
        stack = PromptStack.create(strategy, length, width,
                                   active_layers=(0,), alpha=alpha)
        counted = count_trainable_params(EncoderState.create(cfg, stack))
        results.append((counted, expected))
    ok = all(counted == expected for counted, expected in results)
    detail = ", ".join(f"{c}=={e}" for c, e in results)
    _verdict(2, "trainable parameter counts", "PASS" if ok else "FAIL", detail)
    assert ok


# ---------------------------------------------------------------------------
# 3. alpha=0 collapses progressive onto deep
# ---------------------------------------------------------------------------

def test_criterion_03_zero_alpha_progressive_matches_deep():
    cfg = EncoderConfig()
    layers = tuple(range(cfg.depth))
    deep = PromptStack.create("deep", 8, cfg.width, active_layers=layers, seed=5)
    shared = {
        i: Tensor(t.data.copy(), requires_grad=True)
        for i, t in deep.prompts.items()
    }
    progressive = PromptStack("progressive", 8, layers, 0.0, shared)
    state = EncoderState.create(cfg, deep)
    images = np.random.default_rng(3).normal(
        size=(100, cfg.patch_count, cfg.patch_dim))
    feats_deep = state.forward(images).data
    feats_prog = EncoderState(cfg, state.weights, progressive).forward(images).data
    diff = float(np.max(np.abs(feats_deep - feats_prog)))
    ok = diff <= 1e-12
    _verdict(3, "alpha=0 progressive equals deep over 100 inputs",
             "PASS" if ok else "FAIL", f"max abs diff {diff:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 4. autodiff gradients match central differences for every loss mode
# ---------------------------------------------------------------------------

def test_criterion_04_loss_gradients_match_finite_differences():
    errors = {}
    for mode in LOSS_MODES:
        errors[mode] = run_grad_check(mode, step=1e-5, tolerance=1e-4).max_rel_error
    ok = all(err <= 1e-4 for err in errors.values())
    detail = ", ".join(f"{m} {e:.2e}" for m, e in errors.items())
    _verdict(4, "prompt gradients vs central differences",
             "PASS" if ok else "FAIL", detail)
    assert ok


# ---------------------------------------------------------------------------
# 5. the backbone stays bitwise frozen through training
# ---------------------------------------------------------------------------

def test_criterion_05_backbone_frozen_through_training():
    spec = SyntheticTaskSpec(class_count=4, patch_count=4, patch_dim=6,
                             noise_std=0.2, samples_per_class=12)
    store = generate_dataset(spec, 0)
    task = sample_k_shot(store, 2, 0, mode="few_shot")
    cfg = EncoderConfig(depth=2, width=16, heads=2, patch_count=4,
                        patch_dim=6, output_dim=8, seed=1)
    state = EncoderState.create(cfg)
    bank = ClassEmbeddingBank.generate(4, 8, seed=9, temperature=0.1, max_cosine=0.5)
    config = TrainConfig(prompt_length=2, depth_range=(1, 2),
                         learning_rate=0.1, batch_size=4, max_epochs=20,
                         shots=2, mode="few_shot",
                         loss=LossConfig(mode="ref", ref_weight=1.0))
    before = backbone_checksum(state)
    # train() shares these weight tensors and asserts on every step that
    # none of them picked up a gradient; a violation raises InvariantError
    # mid-run rather than surviving to the final checksum.
    record = train(task, state, bank, config, seed=0)
    after = backbone_checksum(state)
    untouched = after == before
    clean = all(
        not t.requires_grad and (t.grad is None or not np.any(t.grad))
        for t in state.weights.values()
    )
    ok = untouched and clean and len(record.steps) == 20 * 2
    _verdict(5, "backbone checksum unchanged after 20 epochs",
             "PASS" if ok else "FAIL",
             f"checksum {'stable' if untouched else 'MOVED'}, "
             f"frozen grads {'absent' if clean else 'PRESENT'}")
    assert ok


# ---------------------------------------------------------------------------
# 6. loss closed forms
# ---------------------------------------------------------------------------

def test_criterion_06_loss_closed_forms():
    # A single sample has no negatives: the pull and push terms cancel.
    lone = reformation_loss(Tensor([[1.0, 0.0]]), Tensor([[0.6, 0.8]]))
    # Two orthogonal unit features with the prompted path equal to the
    # frozen one: each row scores logsumexp(1, 0) - 1 = log(1 + e) - 1.
    eye = Tensor(np.eye(2))
    pair = reformation_loss(eye, Tensor(np.eye(2)))
    expected_pair = math.log(1.0 + math.e) - 1.0
    # Uniform predictions cost exactly log(C) nats.
    uniform = cross_entropy(Tensor(np.full((5, 7), 1.0 / 7.0)),
                            np.array([0, 3, 6, 1, 2]))
    checks = {
        "single-sample ref": abs(lone.item()),
        "orthogonal-pair ref": abs(pair.item() - expected_pair),
        "uniform ce": abs(uniform.item() - math.log(7.0)),
    }
    ok = all(err <= 1e-9 for err in checks.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in checks.items())
    _verdict(6, "loss closed forms", "PASS" if ok else "FAIL", detail)
    assert ok


# ---------------------------------------------------------------------------
# 7. progressive prompts adapt per input, deep prompts do not
# ---------------------------------------------------------------------------

def test_criterion_07_progressive_prompts_adapt_per_input(inserted_blocks):
    cfg = EncoderConfig()
    state = EncoderState.create(cfg, PromptStack.none())
    images = np.random.default_rng(11).normal(
        size=(2, cfg.patch_count, cfg.patch_dim))

    prog = PromptStack.create("progressive", 4, cfg.width,
                              active_layers=(0, 1), alpha=0.1, seed=2)
    inserted = inserted_blocks(EncoderState(cfg, state.weights, prog), images)
    prog_gap = float(np.max(np.abs(inserted[1][0] - inserted[1][1])))

    deep = PromptStack.create("deep", 4, cfg.width, active_layers=(0, 1), seed=2)
    inserted = inserted_blocks(EncoderState(cfg, state.weights, deep), images)
    deep_gap = float(np.max(np.abs(inserted[1][0] - inserted[1][1])))

    ok = prog_gap > 1e-6 and deep_gap == 0.0
    _verdict(7, "second-layer prompts differ across inputs only when progressive",
             "PASS" if ok else "FAIL",
             f"progressive gap {prog_gap:.2e}, deep gap {deep_gap:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 8. a noiseless task trains to 100% within the shots-derived epoch budget
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_noiseless_task_trains_to_full_accuracy():
    cfg = EncoderConfig(depth=2, width=32, heads=4, patch_count=4,
                        patch_dim=6, output_dim=8, seed=7)
    spec = SyntheticTaskSpec(class_count=4, patch_count=4, patch_dim=6,
                             noise_std=0.0, samples_per_class=24)
    bank = ClassEmbeddingBank.generate(4, 8, seed=3, temperature=0.1, max_cosine=0.5)
    state = EncoderState.create(cfg)
    outcomes = {}
    for strategy in ("deep", "progressive"):
        config = TrainConfig(
            strategy=strategy,
            alpha=0.1 if strategy == "progressive" else None,
            prompt_length=8, depth_range=(1, 2), learning_rate=0.3,
            batch_size=32, shots=16, mode="few_shot",
            loss=LossConfig(mode="ce_only"), eval_each_epoch=False,
        )
        assert config.epochs() == 200
        for seed in (0, 1, 2):
            store = generate_dataset(spec, seed)
            task = sample_k_shot(store, 16, seed, mode="few_shot")
            record = train(task, state, bank, config, seed=seed)
            outcomes[(strategy, seed)] = record.eval_metrics["train_accuracy"]
    ok = all(acc == 100.0 for acc in outcomes.values())
    misses = {k: v for k, v in outcomes.items() if v != 100.0}
    _verdict(8, "noiseless 16-shot task reaches 100% train accuracy 6/6",
             "PASS" if ok else "FAIL",
             f"misses {misses}" if misses else "deep+progressive x 3 seeds")
    assert ok


# ---------------------------------------------------------------------------
# 9. directional trends on the shifted synthetic task (soft: PASS or FLAG)
# ---------------------------------------------------------------------------

TREND_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def trend_runs():
    """Train every variant criterion 9 compares, once, over five seeds.

    Shared across the three trend checks because the base-to-novel runs
    take the bulk of the minutes.
    """
    cfg = EncoderConfig()
    state = EncoderState.create(cfg)
    spec = SyntheticTaskSpec(shift_magnitude=2.0)

    def b2n_config(strategy, loss_mode):
        return TrainConfig(
            strategy=strategy,
            alpha=0.1 if strategy == "progressive" else None,
            prompt_length=8, depth_range=(1, 4), learning_rate=0.2,
            shots=16, mode="base_to_novel",
            loss=LossConfig(mode=loss_mode, ref_weight=1.0),
        )

    def few_shot_config(strategy):
        return TrainConfig(
            strategy=strategy,
            alpha=0.1 if strategy == "progressive" else None,
            prompt_length=8, depth_range=(1, 4), learning_rate=0.2,
            shots=1, mode="few_shot",
            loss=LossConfig(mode="ce_only"), eval_each_epoch=False,
        )

    runs = {"ref": [], "ce": [], "deep": [], "fs_prog": [], "fs_deep": []}
    for seed in TREND_SEEDS:
        store = generate_dataset(spec, seed)
        bank = prototype_bank(state, store, temperature=0.2)
        task = sample_k_shot(store, 16, seed, mode="base_to_novel")
        runs["ref"].append(train(task, state, bank, b2n_config("progressive", "ref"), seed))
        runs["ce"].append(train(task, state, bank, b2n_config("progressive", "ce_only"), seed))
        runs["deep"].append(train(task, state, bank, b2n_config("deep", "ce_only"), seed))
        episode = sample_k_shot(store, 1, seed, mode="few_shot")
        runs["fs_prog"].append(train(episode, state, bank, few_shot_config("progressive"), seed))
        runs["fs_deep"].append(train(episode, state, bank, few_shot_config("deep"), seed))
    return runs


def _late_variance(record):
    series = record.epoch_eval
    tail = series[-max(1, len(series) // 4):]
    return float(np.var(tail))


def _trend(number, name, ok, detail):
    _verdict(number, name, "PASS" if ok else "FLAG", detail)
    if not ok:
        warnings.warn(f"trend flagged: {name} ({detail})")


@pytest.mark.slow
def test_criterion_09_desk_scale_trends(trend_runs):
    novel_ref = [r.eval_metrics["novel_accuracy"] for r in trend_runs["ref"]]
    novel_ce = [r.eval_metrics["novel_accuracy"] for r in trend_runs["ce"]]
    fs_prog = [r.eval_metrics["test_accuracy"] for r in trend_runs["fs_prog"]]
    fs_deep = [r.eval_metrics["test_accuracy"] for r in trend_runs["fs_deep"]]
    var_prog = [_late_variance(r) for r in trend_runs["ce"]]
    var_deep = [_late_variance(r) for r in trend_runs["deep"]]

    everything = novel_ref + novel_ce + fs_prog + fs_deep
    assert all(np.isfinite(v) and 0.0 <= v <= 100.0 for v in everything)

    gain = float(np.mean(novel_ref) - np.mean(novel_ce))
    _trend(9, "9a reformation preserves novel accuracy", gain >= -0.5,
           f"mean novel {np.mean(novel_ref):.2f} vs {np.mean(novel_ce):.2f}, "
           f"gain {gain:+.2f} >= -0.5")

    edge = float(np.mean(fs_prog) - np.mean(fs_deep))
    _trend(9, "9b progressive holds up at one shot", edge >= -0.5,
           f"mean accuracy {np.mean(fs_prog):.2f} vs {np.mean(fs_deep):.2f}, "
           f"edge {edge:+.2f} >= -0.5")

    vp, vd = float(np.mean(var_prog)), float(np.mean(var_deep))
    _trend(9, "9c progressive late-training eval variance stays comparable",
           vp <= 1.5 * vd + 1e-9, f"variance {vp:.4f} vs deep {vd:.4f}")


# ---------------------------------------------------------------------------
# 10. repeated CLI invocations are byte-identical
# ---------------------------------------------------------------------------

def test_criterion_10_cli_outputs_byte_identical(tmp_path):
    world = [
        "--classes", "4", "--patch-count", "4", "--patch-dim", "6",
        "--samples-per-class", "8", "--noise-std", "0.2", "--shift", "1.0",
        "--depth", "1", "--width", "16", "--heads", "2", "--output-dim", "8",
    ]
    train_args = world + [
        "--m", "2", "--depth-range", "1..1", "--shots", "2",
        "--epochs", "2", "--lr", "0.1", "--batch-size", "8",
    ]

    def invoke(directory):
        directory.mkdir()
        paths = {
            "records": directory / "records.jsonl",
            "checkpoint": directory / "prompts.bin",
            "table": directory / "results.csv",
            "embeddings": directory / "embeddings.tsv",
            "dataset": directory / "dataset.npz",
        }
        assert main(["train", *train_args, "--seeds", "0,1",
                     "--records", str(paths["records"]),
                     "--checkpoint", str(paths["checkpoint"]),
                     "--table", str(paths["table"])]) == 0
        assert main(["export-embeddings", *train_args, "--seed", "0",
                     "--out", str(paths["embeddings"])]) == 0
        assert main(["make-data", *world, "--seed", "3",
                     "--out", str(paths["dataset"])]) == 0
        return {name: path.read_bytes() for name, path in paths.items()}

    first = invoke(tmp_path / "first")
    second = invoke(tmp_path / "second")
    mismatched = [name for name in first if first[name] != second[name]]
    ok = not mismatched and all(len(first[name]) > 0 for name in first)
    _verdict(10, "repeated CLI invocations byte-identical",
             "PASS" if ok else "FAIL",
             f"mismatched: {mismatched}" if mismatched
             else f"{len(first)} artifacts compared")
    assert ok
