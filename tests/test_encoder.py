from dataclasses import replace

import numpy as np
import pytest

import promptlab.diffcore as dc
from promptlab import encoder
from promptlab.encoder import (
    EncoderConfig,
    EncoderState,
    Prefix,
    PromptStack,
    backbone_checksum,
    count_trainable_params,
    insert_prompts,
    progressive_combine,
)
from promptlab.errors import CheckpointError, ConfigError, DimensionError
from promptlab.heads import ClassEmbeddingBank, LossConfig, step_loss

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
    for strategy, alpha in (("deep", None), ("shallow", None), ("progressive", 0.4)):
        stack = PromptStack.create(strategy, 3, 16, active_layers=(0, 1), alpha=alpha, seed=5)
        saved = stack.state_dict()
        rebuilt = PromptStack.from_state_dict(strategy, 3, (0, 1), alpha, saved)
        assert rebuilt.insertion_layers() == stack.insertion_layers()
        for (name, t), (rebuilt_name, r) in zip(stack.parameters(), rebuilt.parameters()):
            assert name == rebuilt_name and r.requires_grad
            assert r.data.tobytes() == t.data.tobytes()
            assert not np.shares_memory(r.data, saved[name])


def test_none_stack_from_empty_state_dict_has_no_active_layers():
    stack = PromptStack.from_state_dict("none", 0, (4, 5), None, {})
    assert stack.active_layers == () and stack.prompts == {}
    with pytest.raises(CheckpointError, match="prompts.layer_0"):
        PromptStack.from_state_dict("none", 0, (), None, {"prompts.layer_0": np.zeros((1, 4))})


def test_stack_from_state_dict_refuses_bad_tensors():
    saved = PromptStack.create("deep", 3, 16, active_layers=(0, 1), seed=5).state_dict()

    def build(arrays):
        return PromptStack.from_state_dict("deep", 3, (0, 1), None, arrays)

    with pytest.raises(CheckpointError, match="prompts.layer_0"):
        build({})
    with pytest.raises(DimensionError):
        build({k: np.zeros((1, 1)) for k in saved})
    with pytest.raises(CheckpointError, match="prompts.layer_2"):
        build(dict(saved, **{"prompts.layer_2": np.zeros((3, 16))}))
    for value in (np.nan, np.inf):
        with pytest.raises(CheckpointError, match="prompts.layer_1"):
            build(dict(saved, **{"prompts.layer_1": np.full((3, 16), value)}))


def test_refused_load_leaves_every_prompt_unchanged():
    stack = PromptStack.create("deep", 2, 4, active_layers=(0, 1), seed=3)
    before = stack.state_dict()
    wrong_shape = dict(stack.state_dict(), **{"prompts.layer_1": np.ones((3, 4))})
    not_finite = dict(stack.state_dict(), **{"prompts.layer_1": np.full((2, 4), np.nan)})
    built = []
    for arrays, error in ((wrong_shape, DimensionError), (not_finite, CheckpointError)):
        with pytest.raises(error):
            built.append(PromptStack.from_state_dict("deep", 2, (0, 1), None, arrays))
    assert built == []
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
# Token rows out of each block of a graph-free forward: the last block computes
# rows 0..1, and a deep block whose next block is owned its class and patch rows.
KEPT_ROWS = {
    (CFG, "none", ()): [6, 6, 2],
    (CFG, "shallow", (0, 1)): [9, 9, 2],
    (CFG, "shallow", (1, 2)): [6, 9, 2],
    (CFG, "deep", (0, 1)): [6, 9, 2],
    (CFG, "deep", (1, 2)): [6, 6, 2],
    (CFG, "progressive", (0, 1)): [9, 9, 2],
    (CFG, "progressive", (1, 2)): [6, 9, 2],
    (CFG, "shallow", (2,)): [6, 6, 2],
    (DEPTH1, "none", ()): [2],
    (DEPTH1, "progressive", (0,)): [2],
    (ONE_PATCH, "none", ()): [2, 2, 2],
    (ONE_PATCH, "deep", (1, 2)): [2, 2, 2],
}
PRUNE_CASES = list(KEPT_ROWS)
# (tile, images): the default tile over 1, 2 and 5 images, and tiles of 1 and
# 2 over one image more than a tile.
TILINGS = pytest.mark.parametrize("tile, batch", [
    (encoder._TILE, 1), (encoder._TILE, 2), (encoder._TILE, 5), (1, 2), (2, 3),
], ids=["1", "2", "5", "tile1-2", "tile2-3"])


def _tiles(batch, tile):
    return [min(tile, batch - start) for start in range(0, batch, tile)]


@TILINGS
@pytest.mark.parametrize("cfg, strategy, layers", PRUNE_CASES)
def test_no_grad_forward_equals_graph_forward_bytes(cfg, strategy, layers, tile, batch, monkeypatch):
    monkeypatch.setattr(encoder, "_TILE", tile)
    alpha = 0.1 if strategy == "progressive" else None
    stack = PromptStack.create(strategy, 3, cfg.width, active_layers=layers, alpha=alpha, seed=4)
    enc = EncoderState.create(cfg, stack)
    calls = []
    original = EncoderState._block

    def recording(state, x, index, *args):
        out = original(state, x, index, *args)
        calls.append(out.shape[:2])
        return out

    monkeypatch.setattr(EncoderState, "_block", recording)
    imgs = _images(batch, cfg, seed=batch)
    full = enc.forward(imgs)
    graph_calls = list(calls)
    calls.clear()
    pruned = EncoderState(cfg, enc.weights, stack.detached()).forward(imgs)
    assert pruned.data.tobytes() == full.data.tobytes()
    assert full.requires_grad == (strategy != "none") and not pruned.requires_grad
    assert calls == [(n, rows) for n in _tiles(batch, tile) for rows in KEPT_ROWS[cfg, strategy, layers]]
    # A none stack has no prompt to require a gradient, so it always prunes;
    # a forward that records a graph runs every row of the whole batch.
    graph = calls if strategy == "none" else [
        (batch, 1 + cfg.patch_count + (3 if i >= layers[0] else 0)) for i in range(cfg.depth)
    ]
    assert graph_calls == graph


PREFIX_CASES = [(CFG, "none", ())] + [
    (CFG, strategy, layers)
    for strategy in ("shallow", "deep", "progressive")
    for layers in ((0, 1), (1, 2), (2,))
] + [
    (ONE_PATCH, "none", ()),
    (ONE_PATCH, "shallow", (1, 2)),
    (ONE_PATCH, "deep", (1, 2)),
    (ONE_PATCH, "progressive", (2,)),
]


def _features_and_prompt_grads(enc, source, up):
    for _, tensor in enc.prompt_stack.parameters():
        tensor.zero_grad()
    feats = enc.forward(source)
    if feats.requires_grad:
        dc.tensor_sum(dc.mul(feats, up)).backward()
    return feats.data.tobytes(), [t.grad.tobytes() for _, t in enc.prompt_stack.parameters()]


@pytest.mark.parametrize("tile, pool, batch", [
    (3, 7, 1), (3, 7, 2), (3, 7, 5), (1, 2, 2), (2, 3, 3),
], ids=["1", "2", "5", "tile1-2", "tile2-3"])
@pytest.mark.parametrize("cfg, strategy, layers", PREFIX_CASES)
def test_prefix_resumed_forward_equals_image_forward_bytes(cfg, strategy, layers, tile, pool, batch, monkeypatch):
    # The prefix is built tile by tile from a pool of more than one tile, as
    # train builds one for all its images, and a minibatch of its rows is resumed.
    monkeypatch.setattr(encoder, "_TILE", tile)
    alpha = 0.1 if strategy == "progressive" else None
    stack = PromptStack.create(strategy, 3, cfg.width, active_layers=layers, alpha=alpha, seed=4)
    enc = EncoderState.create(cfg, stack)
    imgs = _images(pool, cfg, seed=batch)
    prefix = enc.prefix(imgs)
    assert prefix.block == enc.prefix_blocks == (layers[0] if layers else cfg.depth)
    # a none stack's prefix is past the last block, which computed rows 0..1
    rows = 2 if strategy == "none" else 1 + cfg.patch_count
    assert len(prefix) == pool and prefix.tokens.shape[1:] == (rows, cfg.width)
    idx = np.random.default_rng(batch).permutation(pool)[:batch]
    up = dc.Tensor(np.random.default_rng(9).normal(size=(batch, cfg.output_dim)))

    assert _features_and_prompt_grads(enc, prefix[idx], up) == _features_and_prompt_grads(enc, imgs[idx], up)
    detached = EncoderState(cfg, enc.weights, stack.detached())
    frozen = EncoderState(cfg, enc.weights, PromptStack.none())
    for state in (detached, frozen):
        assert state.forward(prefix[idx]).data.tobytes() == state.forward(imgs[idx]).data.tobytes()


def test_prefix_past_first_insertion_layer_is_refused():
    late = EncoderState.create(CFG, PromptStack.create("deep", 2, CFG.width, active_layers=(2,), seed=1))
    early = EncoderState(CFG, late.weights, PromptStack.create("deep", 2, CFG.width, active_layers=(1, 2), seed=1))
    prefix = late.prefix(_images(3))
    with pytest.raises(ConfigError, match="past this stack's first insertion layer"):
        early.forward(prefix)
    assert early.forward(early.prefix(_images(3))).shape == (3, CFG.output_dim)
    other = EncoderState.create(ONE_PATCH)
    with pytest.raises(DimensionError):
        other.forward(Prefix(prefix.tokens, 0, other.weights))
    # Two token rows are a prefix past the last block only; every other block takes all rows.
    frozen = EncoderState(CFG, late.weights, PromptStack.none())
    past_last = frozen.prefix(_images(3))
    assert past_last.tokens.shape == (3, 2, CFG.width)
    for tokens, block in ((past_last.tokens, 2), (prefix.tokens, CFG.depth)):
        with pytest.raises(DimensionError):
            frozen.forward(Prefix(tokens, block, frozen.weights))


def test_prefix_from_another_backbone_is_refused():
    """A prefix is resumed only by states over the weights that computed it:
    another seed's backbone of the same shape would resume it without a shape
    error and return plausible features of the wrong tower."""
    mine = EncoderState.create(CFG)
    other = EncoderState.create(replace(CFG, seed=5))
    prefix = mine.prefix(_images(3))
    for rows in (prefix, prefix[1:]):
        with pytest.raises(ConfigError, match="another backbone"):
            other.forward(rows)
    shared = EncoderState(CFG, mine.weights, PromptStack.none())
    assert shared.forward(prefix).data.tobytes() == mine.forward(_images(3)).data.tobytes()


def test_prefix_of_no_images_is_empty():
    prefix = EncoderState.create(CFG).prefix(np.zeros((0, CFG.patch_count, CFG.patch_dim)))
    assert len(prefix) == 0 and prefix.tokens.shape == (0, 2, CFG.width)


GRAPH_STACKS = pytest.mark.parametrize("strategy, layers", [
    (strategy, layers) for strategy in ("shallow", "deep", "progressive") for layers in ((0, 1), (1, 2), (2,))
])


def _graph_pass(strategy, layers, batch):
    """An encoder with a trainable stack, its images, and a function that runs
    a forward, a ``ce_only`` loss and a backward and returns the bytes of the
    features, the loss and every prompt gradient."""
    alpha = 0.1 if strategy == "progressive" else None
    stack = PromptStack.create(strategy, 3, CFG.width, active_layers=layers, alpha=alpha, seed=4)
    enc = EncoderState.create(CFG, stack)
    imgs = _images(batch, seed=batch)
    bank = ClassEmbeddingBank.generate(4, CFG.output_dim, seed=1, temperature=0.1, max_cosine=0.9)
    labels = np.arange(batch) % 4

    def run():
        for _, tensor in stack.parameters():
            tensor.zero_grad()
        feats = enc.forward(imgs)
        loss, _ = step_loss(feats, None, bank, labels, LossConfig(mode="ce_only"))
        loss.backward()
        return feats.data.tobytes(), loss.data.tobytes(), [t.grad.tobytes() for _, t in stack.parameters()]

    return enc, imgs, run


@pytest.mark.parametrize("batch", [1, 2, 5])
@GRAPH_STACKS
def test_graph_forward_on_kept_rows_equals_all_rows_bytes(strategy, layers, batch, monkeypatch):
    # A graph pass runs its row-wise ops only on the rows _kept_rows names,
    # keeping every product's shape; forcing every row must move no byte of
    # the features, the loss or any prompt gradient.
    _, _, run = _graph_pass(strategy, layers, batch)
    kept = run()
    monkeypatch.setattr(EncoderState, "_kept_rows", lambda state, index, seq_len: None)
    assert run() == kept


def _take_rows(x, rows):
    """The token rows of `x` in the (start, stop) ranges `rows`, in order; all of `x` for None."""
    if rows is None:
        return x
    parts = [dc.slice_axis(x, 1, start, stop) for start, stop in rows]
    return parts[0] if len(parts) == 1 else dc.concat(parts, axis=1)


def _composed_block(state, x, index, rows=None):
    """A block composed of one diffcore op per step, as the encoder ran it
    before its two fused ops: the reference they must match byte for byte."""
    cfg, p = state.config, f"backbone.block_{index}"
    b, h, dh = x.shape[0], cfg.heads, cfg.head_dim
    taken, live = (None, rows) if state.prompt_stack.requires_grad else (rows, None)

    def proj(src, name):
        out = dc.matmul(src, state.weights[f"{p}.attn.{name}"])
        return dc.swapaxes(dc.reshape(out, (b, src.shape[1], h, dh)), 1, 2)

    normed = dc.layernorm(x)
    q = proj(_take_rows(normed, taken), "wq")
    k, v = proj(normed, "wk"), proj(normed, "wv")
    scores = dc.scale(dc.matmul(q, dc.swapaxes(k, 2, 3)), dh ** -0.5)
    mixed = dc.matmul(dc.softmax(scores, live), v)
    merged = dc.reshape(dc.swapaxes(mixed, 1, 2), (b, q.shape[2], cfg.width))
    x = dc.add(_take_rows(x, taken), dc.matmul(merged, state.weights[f"{p}.attn.wo"]))
    hidden = dc.gelu(dc.matmul(dc.layernorm(x, live), state.weights[f"{p}.mlp.w1"]), live)
    return dc.add(x, dc.matmul(hidden, state.weights[f"{p}.mlp.w2"]))


@pytest.mark.parametrize("kept", [True, False], ids=["kept-rows", "all-rows"])
@pytest.mark.parametrize("batch", [1, 2, 5])
@GRAPH_STACKS
def test_fused_block_equals_composed_block_bytes(strategy, layers, batch, kept, monkeypatch):
    # The two fused ops make the same calls as the composed tape and sum the
    # layer norm's three projection gradients in its order, so the features,
    # the loss and every prompt gradient keep their bytes, as do the features
    # of a graph-free pass over the same prompts (one that computes only the
    # rows _kept_rows names, so only with the rule in place).
    if not kept:
        monkeypatch.setattr(EncoderState, "_kept_rows", lambda state, index, seq_len: None)
    enc, imgs, run = _graph_pass(strategy, layers, batch)
    frozen = EncoderState(CFG, enc.weights, enc.prompt_stack.detached())

    def both():
        return run(), frozen.forward(imgs).data.tobytes() if kept else None

    fused = both()
    monkeypatch.setattr(EncoderState, "_block", _composed_block)
    assert both() == fused


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
