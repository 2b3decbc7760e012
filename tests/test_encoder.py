import numpy as np
import pytest

import promptlab.diffcore as dc
from promptlab.encoder import (
    EncoderConfig,
    EncoderState,
    LayerTrace,
    PromptStack,
    backbone_checksum,
    count_trainable_params,
    insert_prompts,
    progressive_combine,
)
from promptlab.errors import CheckpointError, ConfigError, DimensionError, InvariantError

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


@pytest.mark.parametrize("field, value", [("depth", 0), ("patch_count", 0), ("heads", 0)])
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
    with pytest.raises(ConfigError):
        other.load_state_dict({})
    bad = {k: np.zeros((1, 1)) for k in saved}
    with pytest.raises(DimensionError):
        other.load_state_dict(bad)
    extra = dict(saved, **{"prompts.layer_2": np.zeros((3, 16))})
    with pytest.raises(CheckpointError, match="prompts.layer_2"):
        other.load_state_dict(extra)


# ---------------------------------------------------------------------------
# patch embedding
# ---------------------------------------------------------------------------

def test_embed_shapes():
    enc = EncoderState.create(CFG)
    single = enc.embed_patches(np.zeros((CFG.patch_count, CFG.patch_dim)))
    batch = enc.embed_patches(_images(4))
    assert single.shape == (CFG.patch_count + 1, CFG.width)
    assert batch.shape == (4, CFG.patch_count + 1, CFG.width)


def test_embed_zero_image_is_class_token_plus_positions():
    enc = EncoderState.create(CFG)
    seq = enc.embed_patches(np.zeros((CFG.patch_count, CFG.patch_dim))).data
    pos = enc.weights["backbone.pos_embed"].data
    cls = enc.weights["backbone.class_token"].data
    assert np.allclose(seq[0], cls + pos[0], atol=0)
    assert np.array_equal(seq[1:], pos[1:])  # patch bias is zero


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
    with pytest.raises(ConfigError):
        progressive_combine(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((2, 3))), -0.2)


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
    f1, t1 = enc.forward(imgs)
    f2, t2 = enc.forward(imgs)
    assert np.allclose(np.linalg.norm(f1.data, axis=-1), 1.0, atol=1e-12)
    assert np.array_equal(f1.data, f2.data)
    assert t1.inserted == {} and t1.prompt_outputs == {}
    assert np.array_equal(t1.feature, f1.data)


def test_single_image_forward_shape():
    enc = EncoderState.create(CFG)
    f, _ = enc.forward(_images(1)[0])
    assert f.shape == (CFG.output_dim,)


def test_insert_none_is_identity():
    enc = EncoderState.create(CFG)
    tokens = enc.embed_patches(_images(2))
    out, block = insert_prompts(tokens, 0, PromptStack.none(), LayerTrace())
    assert out is tokens and block is None


def test_deep_inserts_fresh_parameters_exactly():
    stack = PromptStack.create("deep", 4, CFG.width, active_layers=(0, 1, 2), seed=3)
    enc = EncoderState.create(CFG, stack)
    _, trace = enc.forward(_images(2))
    for i in (0, 1, 2):
        expected = np.broadcast_to(stack.prompts[i].data, trace.inserted[i].shape)
        assert np.array_equal(trace.inserted[i], expected)


def test_trace_block_counts_follow_depth_range():
    full = PromptStack.create("deep", 4, CFG.width, active_layers=(0, 1, 2), seed=3)
    one = PromptStack.create("deep", 4, CFG.width, active_layers=(0,), seed=3)
    imgs = _images(2)
    _, t_full = EncoderState.create(CFG, full).forward(imgs)
    _, t_one = EncoderState.create(CFG, one).forward(imgs)
    assert sorted(t_full.prompt_outputs) == [0, 1, 2]
    assert sorted(t_one.prompt_outputs) == [0]
    assert t_full.prompt_outputs[1].shape == (2, 4, CFG.width)


def test_shallow_records_single_insertion():
    stack = PromptStack.create("shallow", 4, CFG.width, active_layers=(0, 1, 2), seed=3)
    _, trace = EncoderState.create(CFG, stack).forward(_images(2))
    assert sorted(trace.inserted) == [0]
    assert sorted(trace.prompt_outputs) == [0]


def test_alpha_zero_progressive_equals_deep():
    imgs = _images(10, seed=42)
    deep = PromptStack.create("deep", 4, CFG.width, active_layers=(0, 1, 2), seed=9)
    prog = PromptStack.create("progressive", 4, CFG.width, active_layers=(0, 1, 2), alpha=0.0, seed=9)
    fd, _ = EncoderState.create(CFG, deep).forward(imgs)
    fp, _ = EncoderState.create(CFG, prog).forward(imgs)
    assert np.abs(fd.data - fp.data).max() <= 1e-12


def test_progressive_layer2_blocks_are_instance_adaptive():
    imgs = _images(2, seed=8)
    prog = PromptStack.create("progressive", 4, CFG.width, active_layers=(0, 1, 2), alpha=0.1, seed=9)
    enc = EncoderState.create(CFG, prog)
    _, ta = enc.forward(imgs[0])
    _, tb = enc.forward(imgs[1])
    assert np.abs(ta.inserted[0] - tb.inserted[0]).max() == 0.0
    assert np.abs(ta.inserted[1] - tb.inserted[1]).max() > 1e-6

    deep = PromptStack.create("deep", 4, CFG.width, active_layers=(0, 1, 2), seed=9)
    enc_d = EncoderState.create(CFG, deep)
    _, da = enc_d.forward(imgs[0])
    _, db = enc_d.forward(imgs[1])
    assert np.abs(da.inserted[1] - db.inserted[1]).max() == 0.0


def test_progressive_missing_previous_insertion_is_invariant_error():
    stack = PromptStack.create("progressive", 2, CFG.width, active_layers=(0, 1), alpha=0.1, seed=1)
    enc = EncoderState.create(CFG, stack)
    tokens = enc.embed_patches(_images(1))
    with pytest.raises(InvariantError):
        insert_prompts(tokens, 1, stack, LayerTrace())


def test_shallow_insert_at_later_layer_is_invariant_error():
    stack = PromptStack.create("shallow", 2, CFG.width, active_layers=(0, 1), seed=1)
    enc = EncoderState.create(CFG, stack)
    tokens = enc.embed_patches(_images(1))
    with pytest.raises(InvariantError):
        insert_prompts(tokens, 1, stack, LayerTrace())


def test_active_layers_must_fit_depth():
    stack = PromptStack.create("deep", 2, CFG.width, active_layers=(2, 3), seed=1)
    with pytest.raises(ConfigError):
        EncoderState.create(CFG, stack)
    enc = EncoderState.create(CFG)
    with pytest.raises(ConfigError):
        enc.forward(_images(1), stack=stack)


# ---------------------------------------------------------------------------
# frozen-backbone guarantees and parameter accounting
# ---------------------------------------------------------------------------

def test_gradients_reach_only_prompts():
    stack = PromptStack.create("progressive", 4, CFG.width, active_layers=(0, 1, 2), alpha=0.1, seed=2)
    enc = EncoderState.create(CFG, stack)
    feat, _ = enc.forward(_images(3))
    dc.tensor_sum(feat).backward()
    for _, tensor in stack.parameters():
        assert np.abs(tensor.grad).max() > 0
    for tensor in enc.weights.values():
        assert tensor.grad is None and not tensor.requires_grad


def test_forward_does_not_move_backbone_checksum():
    stack = PromptStack.create("deep", 4, CFG.width, active_layers=(0, 1, 2), seed=2)
    enc = EncoderState.create(CFG, stack)
    before = backbone_checksum(enc)
    feat, _ = enc.forward(_images(4))
    dc.tensor_sum(feat).backward()
    stack.prompts[0].data += 1.0  # prompt mutation must not affect the backbone digest
    assert backbone_checksum(enc) == before


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
    imgs = _images(3)
    f_before, _ = enc.forward_frozen(imgs)
    stack.prompts[0].data += 10.0
    f_after, _ = enc.forward_frozen(imgs)
    assert np.array_equal(f_before.data, f_after.data)
