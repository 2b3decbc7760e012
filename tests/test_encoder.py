import numpy as np
import pytest

import promptlab.diffcore as dc
from promptlab.encoder import (
    EncoderConfig,
    EncoderState,
    PromptStack,
    backbone_checksum,
    count_trainable_params,
    insert_prompts,
    progressive_combine,
)
from promptlab.errors import CheckpointError, ConfigError, DimensionError

CFG = EncoderConfig(depth=3, width=16, heads=2, patch_count=5, patch_dim=4, output_dim=6, seed=7)


def _images(n, cfg=CFG, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, cfg.patch_count, cfg.patch_dim))


# ---------------------------------------------------------------------------
# configuration and stack construction
# ---------------------------------------------------------------------------

def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        EncoderConfig(width=30, heads=4)


@pytest.mark.parametrize("field, value", [("depth", 0), ("patch_count", 0), ("heads", 0), ("seed", -1)])
def test_config_rejects_nonpositive(field, value):
    with pytest.raises(ConfigError):
        EncoderConfig(**{field: value})


def test_stack_unknown_strategy():
    with pytest.raises(ConfigError):
        PromptStack.create("medium", 4, 16, active_layers=(0,))


def test_stack_requires_contiguous_layers():
    with pytest.raises(ConfigError):
        PromptStack.create("deep", 4, 16, active_layers=(0, 2))


def test_stack_alpha_rules():
    with pytest.raises(ConfigError):
        PromptStack.create("progressive", 4, 16, active_layers=(0, 1))  # missing alpha
    with pytest.raises(ConfigError):
        PromptStack.create("progressive", 4, 16, active_layers=(0, 1), alpha=1.5)
    with pytest.raises(ConfigError):
        PromptStack.create("deep", 4, 16, active_layers=(0, 1), alpha=0.1)
    assert PromptStack.create("progressive", 4, 16, active_layers=(0, 1), alpha=0.5).alpha == 0.5
    assert PromptStack.create("deep", 4, 16, active_layers=(0, 1)).alpha is None


def test_stack_ownership_by_strategy():
    shallow = PromptStack.create("shallow", 4, 16, active_layers=(1, 2, 3))
    deep = PromptStack.create("deep", 4, 16, active_layers=(1, 2, 3))
    none = PromptStack.none()
    assert sorted(shallow.prompts) == [1]
    assert sorted(deep.prompts) == [1, 2, 3]
    assert none.prompts == {} and none.insertion_layers() == ()
    assert shallow.insertion_layers() == (1,)
    assert deep.insertion_layers() == (1, 2, 3)


def test_prompt_init_is_xavier_bounded_and_seeded():
    m, d = 6, 32
    bound = np.sqrt(6.0 / (m + d))
    a = PromptStack.create("deep", m, d, active_layers=(0, 1), seed=11)
    b = PromptStack.create("deep", m, d, active_layers=(0, 1), seed=11)
    c = PromptStack.create("deep", m, d, active_layers=(0, 1), seed=12)
    for i in (0, 1):
        assert np.abs(a.prompts[i].data).max() <= bound
        assert np.array_equal(a.prompts[i].data, b.prompts[i].data)
        assert a.prompts[i].requires_grad
    assert not np.array_equal(a.prompts[0].data, c.prompts[0].data)
    assert not np.array_equal(a.prompts[0].data, a.prompts[1].data)


def test_stack_state_dict_roundtrip():
    stack = PromptStack.create("deep", 3, 16, active_layers=(0, 1), seed=5)
    saved = stack.state_dict()
    other = PromptStack.create("deep", 3, 16, active_layers=(0, 1), seed=99)
    other.load_state_dict(saved)
    for key in saved:
        assert np.array_equal(saved[key], dict(other.parameters())[key].data)
    with pytest.raises(CheckpointError, match="prompts.layer_0"):
        other.load_state_dict({})
    bad = {k: np.zeros((1, 1)) for k in saved}
    with pytest.raises(DimensionError):
        other.load_state_dict(bad)
    extra = dict(saved, **{"prompts.layer_2": np.zeros((3, 16))})
    with pytest.raises(CheckpointError, match="prompts.layer_2"):
        other.load_state_dict(extra)
    for value in (np.nan, np.inf):
        corrupt = dict(saved, **{"prompts.layer_1": np.full((3, 16), value)})
        with pytest.raises(CheckpointError, match="prompts.layer_1"):
            other.load_state_dict(corrupt)


def test_refused_load_leaves_every_prompt_unchanged():
    stack = PromptStack.create("deep", 2, 4, active_layers=(0, 1), seed=3)
    before = stack.state_dict()
    wrong_shape = {"prompts.layer_0": np.ones((2, 4)), "prompts.layer_1": np.ones((3, 4))}
    with pytest.raises(DimensionError):
        stack.load_state_dict(wrong_shape)
    not_finite = {"prompts.layer_0": np.ones((2, 4)), "prompts.layer_1": np.full((2, 4), np.nan)}
    with pytest.raises(CheckpointError):
        stack.load_state_dict(not_finite)
    for name, value in stack.state_dict().items():
        assert value.tobytes() == before[name].tobytes()


# ---------------------------------------------------------------------------
# patch embedding
# ---------------------------------------------------------------------------

def test_embed_shapes():
    enc = EncoderState.create(CFG)
    single = enc.embed_patches(np.zeros((1, CFG.patch_count, CFG.patch_dim)))
    batch = enc.embed_patches(_images(4))
    assert single.shape == (1, CFG.patch_count + 1, CFG.width)
    assert batch.shape == (4, CFG.patch_count + 1, CFG.width)


def test_embed_zero_image_is_class_token_plus_positions():
    enc = EncoderState.create(CFG)
    seq = enc.embed_patches(np.zeros((1, CFG.patch_count, CFG.patch_dim))).data[0]
    pos = enc.weights["backbone.pos_embed"].data
    cls = enc.weights["backbone.class_token"].data
    assert np.allclose(seq[0], cls + pos[0], atol=0)
    assert np.array_equal(seq[1:], pos[1:])  # the patch embedding has no bias


def test_embed_rejects_wrong_shape():
    enc = EncoderState.create(CFG)
    with pytest.raises(DimensionError):
        enc.embed_patches(np.zeros((CFG.patch_count + 1, CFG.patch_dim)))
    with pytest.raises(DimensionError):
        enc.embed_patches(np.zeros(3))


def test_embed_deterministic():
    imgs = _images(2)
    a = EncoderState.create(CFG).embed_patches(imgs).data
    b = EncoderState.create(CFG).embed_patches(imgs).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# progressive combination
# ---------------------------------------------------------------------------

def test_combine_endpoints_exact():
    rng = np.random.default_rng(1)
    p = dc.Tensor(rng.normal(size=(4, 8)))
    o = dc.Tensor(rng.normal(size=(4, 8)))
    assert np.array_equal(progressive_combine(p, o, 0.0).data, p.data)
    assert np.array_equal(progressive_combine(p, o, 1.0).data, o.data)


def test_combine_paper_default_value():
    p = dc.Tensor(np.ones((2, 3)))
    o = dc.Tensor(np.zeros((2, 3)))
    assert np.allclose(progressive_combine(p, o, 0.1).data, 0.9)


def test_combine_rejects_mismatch():
    with pytest.raises(DimensionError):
        progressive_combine(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((3, 2))), 0.5)


def test_combine_routes_gradients_to_both():
    p = dc.Tensor(np.ones((2, 2)), requires_grad=True)
    o = dc.Tensor(np.ones((2, 2)), requires_grad=True)
    dc.tensor_sum(progressive_combine(p, o, 0.25)).backward()
    assert np.allclose(p.grad, 0.75)
    assert np.allclose(o.grad, 0.25)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_frozen_forward_unit_norm_and_deterministic():
    enc = EncoderState.create(CFG)
    imgs = _images(6)
    f1 = enc.forward(imgs)
    f2 = enc.forward(imgs)
    assert np.allclose(np.linalg.norm(f1.data, axis=-1), 1.0, atol=1e-12)
    assert np.array_equal(f1.data, f2.data)


def test_single_image_forward_shape():
    enc = EncoderState.create(CFG)
    assert enc.forward(_images(1)).shape == (1, CFG.output_dim)
    with pytest.raises(DimensionError):
        enc.forward(_images(1)[0])


def test_insert_none_is_identity():
    enc = EncoderState.create(CFG)
    tokens = enc.embed_patches(_images(2))
    assert insert_prompts(tokens, 0, PromptStack.none()) is tokens


def test_deep_inserts_fresh_parameters_exactly(inserted_blocks):
    stack = PromptStack.create("deep", 4, CFG.width, active_layers=(0, 1, 2), seed=3)
    enc = EncoderState.create(CFG, stack)
    inserted = inserted_blocks(enc, _images(2))
    for i in (0, 1, 2):
        expected = np.broadcast_to(stack.prompts[i].data, inserted[i].shape)
        assert np.array_equal(inserted[i], expected)


def test_trace_block_counts_follow_depth_range(inserted_blocks):
    full = PromptStack.create("deep", 4, CFG.width, active_layers=(0, 1, 2), seed=3)
    one = PromptStack.create("deep", 4, CFG.width, active_layers=(0,), seed=3)
    imgs = _images(2)
    b_full = inserted_blocks(EncoderState.create(CFG, full), imgs)
    b_one = inserted_blocks(EncoderState.create(CFG, one), imgs)
    assert sorted(b_full) == [0, 1, 2]
    assert sorted(b_one) == [0]
    assert b_full[1].shape == (2, 4, CFG.width)


def test_shallow_records_single_insertion(inserted_blocks):
    stack = PromptStack.create("shallow", 4, CFG.width, active_layers=(0, 1, 2), seed=3)
    assert sorted(inserted_blocks(EncoderState.create(CFG, stack), _images(2))) == [0]


def test_alpha_zero_progressive_equals_deep():
    imgs = _images(10, seed=42)
    deep = PromptStack.create("deep", 4, CFG.width, active_layers=(0, 1, 2), seed=9)
    prog = PromptStack.create("progressive", 4, CFG.width, active_layers=(0, 1, 2), alpha=0.0, seed=9)
    fd = EncoderState.create(CFG, deep).forward(imgs)
    fp = EncoderState.create(CFG, prog).forward(imgs)
    assert np.abs(fd.data - fp.data).max() <= 1e-12


def test_progressive_layer2_blocks_are_instance_adaptive(inserted_blocks):
    imgs = _images(2, seed=8)
    prog = PromptStack.create("progressive", 4, CFG.width, active_layers=(0, 1, 2), alpha=0.1, seed=9)
    enc = EncoderState.create(CFG, prog)
    ta = inserted_blocks(enc, imgs[:1])
    tb = inserted_blocks(enc, imgs[1:2])
    assert np.abs(ta[0] - tb[0]).max() == 0.0
    assert np.abs(ta[1] - tb[1]).max() > 1e-6

    deep = PromptStack.create("deep", 4, CFG.width, active_layers=(0, 1, 2), seed=9)
    enc_d = EncoderState.create(CFG, deep)
    da = inserted_blocks(enc_d, imgs[:1])
    db = inserted_blocks(enc_d, imgs[1:2])
    assert np.abs(da[1] - db[1]).max() == 0.0


def test_progressive_gap_stack_is_config_error():
    # A hand-built stack skipping layer 1 would leave layer 2 without the
    # prompt outputs it mixes in; the constructor refuses it.
    built = PromptStack.create("progressive", 2, CFG.width, active_layers=(0, 1, 2), alpha=0.1, seed=1)
    prompts = {i: built.prompts[i] for i in (0, 2)}
    with pytest.raises(ConfigError):
        PromptStack("progressive", 2, (0, 2), 0.1, prompts)


def test_shallow_stack_owning_two_layers_is_config_error():
    built = PromptStack.create("deep", 2, CFG.width, active_layers=(0, 1), seed=1)
    with pytest.raises(ConfigError):
        PromptStack("shallow", 2, (0, 1), None, dict(built.prompts))


def _prompts(*layers):
    return {i: dc.Tensor(np.zeros((2, CFG.width)), requires_grad=True) for i in layers}


@pytest.mark.parametrize("strategy, layers, alpha, owned", [
    ("progressive", (0, 1), 1.5, (0, 1)),   # alpha outside [0, 1]
    ("deep", (0, 1), 0.1, (0, 1)),          # alpha on a non-progressive stack
    ("deep", (0, 2), None, (0, 2)),         # gap in the active layers
    ("deep", (0, 1), None, (0,)),           # prompts keyed off the owned layers
    ("deep", (0, 1), None, (0, 1, 2)),
    ("shallow", (1, 2), None, (2,)),
    ("none", (), None, (0,)),
], ids=["alpha-1.5", "alpha-on-deep", "gap", "owned-missing", "unowned-extra",
        "shallow-off-first", "none-with-prompts"])
def test_hand_built_stack_checks_rules(strategy, layers, alpha, owned):
    with pytest.raises(ConfigError):
        PromptStack(strategy, 2, layers, alpha, _prompts(*owned))


@pytest.mark.parametrize("shapes", [
    [(3, CFG.width), (3, CFG.width)],   # rows differ from the length, 2
    [(2, CFG.width), (2, 8)],           # widths differ between layers
    [(2 * CFG.width,), (2 * CFG.width,)],
], ids=["wrong-length", "mixed-widths", "flat"])
def test_hand_built_stack_checks_prompt_shapes(shapes):
    prompts = {i: dc.Tensor(np.zeros(shape), requires_grad=True) for i, shape in enumerate(shapes)}
    with pytest.raises(DimensionError):
        PromptStack("deep", 2, (0, 1), None, prompts)


def test_active_layers_must_fit_depth():
    stack = PromptStack.create("deep", 2, CFG.width, active_layers=(2, 3), seed=1)
    enc = EncoderState.create(CFG)
    with pytest.raises(ConfigError):
        EncoderState(enc.config, enc.weights, stack)


def test_prompt_width_must_match_encoder():
    stack = PromptStack.create("deep", 2, CFG.width // 2, active_layers=(0, 1), seed=1)
    enc = EncoderState.create(CFG)
    with pytest.raises(DimensionError):
        EncoderState(enc.config, enc.weights, stack)


DEPTH1 = EncoderConfig(depth=1, width=16, heads=2, patch_count=5, patch_dim=4, output_dim=6, seed=7)
ONE_PATCH = EncoderConfig(depth=3, width=16, heads=2, patch_count=1, patch_dim=4, output_dim=6, seed=7)
PRUNE_CASES = [(CFG, "none", ())] + [
    (CFG, strategy, layers)
    for strategy in ("shallow", "deep", "progressive")
    for layers in ((0, 1), (1, 2))
] + [
    (CFG, "shallow", (2,)),
    (DEPTH1, "none", ()),
    (DEPTH1, "progressive", (0,)),
    (ONE_PATCH, "none", ()),
    (ONE_PATCH, "deep", (1, 2)),
]


@pytest.mark.parametrize("batch", [1, 2, 5])
@pytest.mark.parametrize("cfg, strategy, layers", PRUNE_CASES)
def test_no_grad_forward_equals_graph_forward_bytes(cfg, strategy, layers, batch, monkeypatch):
    alpha = 0.1 if strategy == "progressive" else None
    stack = PromptStack.create(strategy, 3, cfg.width, active_layers=layers, alpha=alpha, seed=4)
    enc = EncoderState.create(cfg, stack)
    rows = []
    original = EncoderState._block

    def recording(state, x, index, *args):
        out = original(state, x, index, *args)
        rows.append(out.shape[1])
        return out

    monkeypatch.setattr(EncoderState, "_block", recording)
    imgs = _images(batch, cfg, seed=batch)
    full = enc.forward(imgs)
    full_rows = list(rows)
    rows.clear()
    with dc.no_grad():
        pruned = enc.forward(imgs)
    assert pruned.data.tobytes() == full.data.tobytes()
    assert full.requires_grad == (strategy != "none") and not pruned.requires_grad
    assert rows == full_rows[:-1] + [2]


# ---------------------------------------------------------------------------
# frozen-backbone guarantees and parameter accounting
# ---------------------------------------------------------------------------

def test_gradients_reach_only_prompts():
    stack = PromptStack.create("progressive", 4, CFG.width, active_layers=(0, 1, 2), alpha=0.1, seed=2)
    enc = EncoderState.create(CFG, stack)
    feat = enc.forward(_images(3))
    dc.tensor_sum(feat).backward()
    for _, tensor in stack.parameters():
        assert np.abs(tensor.grad).max() > 0
    for tensor in enc.weights.values():
        assert tensor.grad is None and not tensor.requires_grad


def test_forward_does_not_move_backbone_checksum():
    stack = PromptStack.create("deep", 4, CFG.width, active_layers=(0, 1, 2), seed=2)
    enc = EncoderState.create(CFG, stack)
    before = backbone_checksum(enc)
    feat = enc.forward(_images(4))
    dc.tensor_sum(feat).backward()
    stack.prompts[0].data += 1.0  # prompt mutation must not affect the backbone digest
    assert backbone_checksum(enc) == before


def test_default_backbone_identity_is_pinned():
    # Checkpoints are only meaningful against the backbone they were trained
    # on; any change to how the default backbone is drawn must show up here.
    enc = EncoderState.create(EncoderConfig())
    assert len(enc.weights) == 28
    for key, tensor in enc.weights.items():
        assert np.unique(tensor.data).size > 1, f"{key} is a constant array"
    assert backbone_checksum(enc) == (
        "5b33653db7744f8e2caf9e10513076c537c991428aed4883572856e36c167200"
    )


def test_count_trainable_params():
    none = EncoderState.create(CFG)
    shallow = EncoderState.create(
        CFG, PromptStack.create("shallow", 5, CFG.width, active_layers=(0, 1, 2), seed=0)
    )
    deep = EncoderState.create(
        CFG, PromptStack.create("deep", 5, CFG.width, active_layers=(0, 1, 2), seed=0)
    )
    assert count_trainable_params(none) == 0
    assert count_trainable_params(shallow) == 5 * CFG.width
    assert count_trainable_params(deep) == 3 * 5 * CFG.width


def test_frozen_features_ignore_prompt_values():
    stack = PromptStack.create("deep", 4, CFG.width, active_layers=(0, 1, 2), seed=2)
    enc = EncoderState.create(CFG, stack)
    frozen = EncoderState(enc.config, enc.weights, PromptStack.none())
    imgs = _images(3)
    f_before = frozen.forward(imgs)
    stack.prompts[0].data += 10.0
    f_after = frozen.forward(imgs)
    assert np.array_equal(f_before.data, f_after.data)
