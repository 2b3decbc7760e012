"""A small ViT-style encoder with pluggable prompt insertion.

The backbone (patch embedding, class token, positional embeddings, N
pre-norm transformer blocks, final projection) is generated from a seed and
frozen; it stands in for a pretrained visual tower at desk scale. Its linear
maps have no bias and its layer norms no scale or shift: a frozen tower
drawn at desk scale would hold them as zeros and ones. Prompt tokens are
the only trainable tensors. Four insertion strategies:

``none``
    the frozen feature path, no extra tokens.
``shallow``
    one prompt block inserted before the first active layer; its outputs
    ride through every later layer untouched.
``deep``
    each active layer discards the incoming prompt block and inserts its
    own fresh parameters.
``progressive``
    the first active layer inserts fresh parameters; every later active
    layer i inserts (1 - alpha) * P_i + alpha * O_{i-1}, mixing fresh
    parameters with the previous layer's prompt outputs, which makes the
    inserted block a function of the input.

A :class:`PromptStack` is checked once, by its constructor, and inserts
exactly at the layers it owns prompts for. An :class:`EncoderState` pairs
one backbone with one stack, checked once to fit; the frozen path f(x) pairs
the same weights with ``PromptStack.none()``. Token layout after insertion
is always [class, prompts, patches]. Prompt tokens receive no positional
embedding. :meth:`EncoderState.forward` returns only the unit-norm feature.

Nothing before a stack's first insertion layer depends on the prompts.
:meth:`EncoderState.prefix` runs that part once, graph-free, and returns a
:class:`Prefix` of token arrays; ``forward`` resumes from one at its block
with the same bits as a forward from the images.

Each block's output rows that something reads follow one rule
(:meth:`EncoderState._kept_rows`). A pass that records no graph (a prefix,
or a forward whose stack has no prompt requiring gradients) runs the blocks
over tiles of ``_TILE`` images, sized so a tile's arrays stay in a per-core
L2 cache, and each block computes only those rows. Every matmul inside the
blocks runs image by image on at least two rows, so neither the tile nor
the kept rows move a bit of the features. A pass that records a graph
keeps the shape of every product, since a training matmul of another shape
gives other bits, and runs only its softmax, MLP layer norm and GELU on the
kept rows; the others hold zeros there, which the fixed-shape matmuls carry
without touching a kept row. Both kinds of pass run a block as the same two
ops, :func:`diffcore.attention` and :func:`diffcore.mlp`, so a graph pass
records two nodes per block.
"""

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import CheckpointError, ConfigError, DimensionError

STRATEGIES = ("none", "shallow", "deep", "progressive")

# (start, stop) ranges of token positions that a block computes, in order.
Rows = Tuple[Tuple[int, int], ...]

# Images per pass of a graph-free forward or prefix through the blocks. A tile's
# largest array, the MLP hidden rows (64 x 25 x 128 float64, 1.6 MB on the default
# backbone with 8 prompts), fits a 2 MB L2 cache; 256 images did not.
_TILE = 64

# Rows of the last block's output that a forward keeps: the class row that the
# projection reads, plus one more, because a graph-free pass computes only these
# and a one-row matmul gives other bits than the same row in a larger one.
_LAST_ROWS = 2

__all__ = [
    "STRATEGIES",
    "EncoderConfig",
    "PromptStack",
    "EncoderState",
    "Prefix",
    "progressive_combine",
    "insert_prompts",
    "count_trainable_params",
    "backbone_checksum",
]


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of the frozen backbone."""

    depth: int = 4
    width: int = 32
    heads: int = 4
    patch_count: int = 16
    patch_dim: int = 12
    output_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError(f"depth must be at least 1, got {self.depth}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.patch_count < 1:
            raise ConfigError(f"patch_count must be at least 1, got {self.patch_count}")
        if min(self.width, self.heads, self.patch_dim, self.output_dim) < 1:
            raise ConfigError("width, heads, patch_dim and output_dim must be positive")
        if self.width % self.heads != 0:
            raise ConfigError(
                f"width {self.width} is not divisible by heads {self.heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.width // self.heads


class PromptStack:
    """Learnable prompt tokens plus the strategy that wires them in.

    The constructor is the one place the stack rules are checked
    (:meth:`check_rules`), and `prompts` must be keyed exactly by the layers
    the strategy owns, each a (length, width) tensor of one common width;
    those owned layers are where the stack inserts.
    """

    _NAME = "prompts.layer_{}"  # a prompt tensor's name in state_dict and checkpoints

    def __init__(self, strategy, length, active_layers, alpha, prompts):
        owned = self.check_rules(strategy, length, active_layers, alpha)
        if sorted(prompts) != list(owned):
            raise ConfigError(f"{strategy!r} stack owns prompts on layers {owned}, got {sorted(prompts)}")
        shapes = sorted({tuple(t.shape) for t in prompts.values()})
        if len(shapes) > 1 or any(len(s) != 2 or s[0] != length for s in shapes):
            raise DimensionError(f"prompts must share one ({length}, width) shape, got {shapes}")
        self.strategy = strategy
        self.length = length
        self.active_layers = tuple(active_layers)
        self.alpha = alpha
        self.prompts = prompts

    @staticmethod
    def check_rules(strategy, length, active_layers, alpha) -> Tuple[int, ...]:
        """Raise ConfigError unless these describe a valid stack; return its owned layers.

        Unless the strategy is ``none`` (owning nothing), `active_layers` is
        a non-empty contiguous run of 0-based block indices and `length` is
        at least 1. `alpha` lies in [0, 1] for ``progressive`` and is None
        otherwise. ``shallow`` owns its first active layer, ``deep`` and
        ``progressive`` own them all.
        """
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        if strategy == "none":
            if alpha is not None:
                raise ConfigError("alpha has no meaning without prompts")
            return ()

        layers = tuple(int(i) for i in active_layers)
        if not layers:
            raise ConfigError(f"strategy {strategy!r} needs at least one active layer")
        if any(b - a != 1 for a, b in zip(layers, layers[1:])):
            raise ConfigError(f"active layers must be contiguous, got {layers}")
        if layers[0] < 0:
            raise ConfigError(f"active layers must be non-negative, got {layers}")
        if length < 1:
            raise ConfigError(f"prompt length must be positive, got {length}")

        if strategy == "progressive":
            if alpha is None:
                raise ConfigError("progressive strategy requires alpha")
            if not 0.0 <= alpha <= 1.0:
                raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
        elif alpha is not None:
            raise ConfigError(f"alpha is only stored for the progressive strategy, not {strategy!r}")
        return layers[:1] if strategy == "shallow" else layers

    @classmethod
    def none(cls) -> "PromptStack":
        return cls("none", 0, (), None, {})

    def detached(self) -> "PromptStack":
        """This stack over gradient-free copies of its prompts: a forward with it records no graph."""
        prompts = {i: t.detach() for i, t in self.prompts.items()}
        return PromptStack(self.strategy, self.length, self.active_layers, self.alpha, prompts)

    @classmethod
    def create(cls, strategy, length, width, active_layers=(), alpha=None, seed=0):
        """A fresh stack: Xavier-uniform (length, width) arrays drawn from `seed` in
        owned-layer order, made trainable prompts by :meth:`from_state_dict`;
        ``none()``, whatever the width, when the stack owns nothing."""
        owners = cls.check_rules(strategy, length, active_layers, alpha)
        if not owners:
            return cls.none()
        if width < 1:
            raise ConfigError(f"prompt width must be positive, got {width}")
        rng = np.random.default_rng(seed)
        bound = np.sqrt(6.0 / (length + width))
        arrays = {cls._NAME.format(i): rng.uniform(-bound, bound, size=(length, width)) for i in owners}
        return cls.from_state_dict(strategy, length, active_layers, alpha, arrays)

    def insertion_layers(self) -> Tuple[int, ...]:
        """Block indices where this stack modifies the token sequence: its owned layers."""
        return tuple(sorted(self.prompts))

    @property
    def requires_grad(self) -> bool:
        """True when a prompt requires gradients: a forward with this stack records a graph."""
        return any(t.requires_grad for t in self.prompts.values())

    def discards_prompt_outputs(self, layer: int) -> bool:
        """True when nothing reads block `layer`'s prompt-row outputs: a ``deep``
        stack owns both `layer` and the next layer, whose insertion replaces them.
        The rows still serve block `layer` as keys and values."""
        return self.strategy == "deep" and layer in self.prompts and layer + 1 in self.prompts

    def drops_prompt_rows(self, layer: int) -> bool:
        """True when block `layer`'s output lacks its prompt rows altogether.

        That holds where they are discarded (:meth:`discards_prompt_outputs`)
        in a forward that records no graph. A graph pass keeps every
        product's shape, so the rows are there, holding the block's input.
        """
        return self.discards_prompt_outputs(layer) and not self.requires_grad

    def parameters(self):
        """(name, tensor) pairs in a stable order."""
        return [(self._NAME.format(i), self.prompts[i]) for i in sorted(self.prompts)]

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters()}

    @classmethod
    def from_state_dict(cls, strategy, length, active_layers, alpha, arrays) -> "PromptStack":
        """The inverse of :meth:`state_dict`: a stack of this shape over copies of saved values.

        A name the strategy does not own, a missing name or a non-finite value
        raises CheckpointError naming the tensor; the constructor checks shapes.
        """
        owned = {cls._NAME.format(i): i for i in cls.check_rules(strategy, length, active_layers, alpha)}
        unexpected = sorted(set(arrays) - set(owned))
        if unexpected:
            raise CheckpointError(
                f"checkpoint has prompt tensors this {strategy!r} stack does not own: {unexpected}"
            )
        prompts = {}
        for name, layer in owned.items():
            if name not in arrays:
                raise CheckpointError(f"missing prompt tensor {name!r} in checkpoint")
            value = np.array(arrays[name], dtype=np.float64)
            if not np.isfinite(value).all():
                raise CheckpointError(f"prompt tensor {name!r} holds non-finite values")
            prompts[layer] = Tensor(value, requires_grad=True)
        return cls(strategy, int(length), active_layers, alpha, prompts) if prompts else cls.none()


def progressive_combine(fresh: Tensor, prev_output: Tensor, alpha) -> Tensor:
    """(1 - alpha) * fresh + alpha * prev_output, differentiable in both."""
    alpha = float(alpha)
    if fresh.shape[-2:] != prev_output.shape[-2:]:
        raise DimensionError(
            f"prompt blocks disagree: {fresh.shape} vs {prev_output.shape}"
        )
    return dc.add(dc.scale(fresh, 1.0 - alpha), dc.scale(prev_output, alpha))


@dataclass(frozen=True, eq=False)
class Prefix:
    """Token arrays of a batch of images entering block `block`, from :meth:`EncoderState.prefix`.

    `tokens` is shaped (batch, 1 + patch_count, width), or (batch, 2, width)
    at block `depth`, past the last block, which computes only the rows the
    projection needs (a ``none`` stack's prefix); it is never written;
    `weights` is the backbone mapping that computed them. Indexing selects
    images and keeps the block and weights; ``len`` is the image count.
    """

    tokens: np.ndarray
    block: int
    weights: Dict[str, Tensor]

    def __len__(self):
        return len(self.tokens)

    def __getitem__(self, rows) -> "Prefix":
        return Prefix(self.tokens[rows], self.block, self.weights)


class EncoderState:
    """Frozen backbone weights plus one prompt stack, checked once to fit them.

    The constructor refuses a stack with active layers past `depth`
    (ConfigError) or prompts not of `width` (DimensionError). Weights never
    require gradients; training mutates only the stack's prompt tensors.
    `prefix_blocks` counts the blocks before the first insertion layer (all
    of them for a ``none`` stack, whose :class:`Prefix` then holds the last
    block's first two rows). A forward records a graph exactly when a prompt
    of the stack requires gradients; only then does it run every image in
    one pass, with every product's shape kept. A state is safe to share
    read-only across threads.
    """

    def __init__(self, config: EncoderConfig, weights: Dict[str, Tensor], prompt_stack: PromptStack):
        if prompt_stack.active_layers and prompt_stack.active_layers[-1] >= config.depth:
            raise ConfigError(
                f"active layers {prompt_stack.active_layers} exceed encoder depth {config.depth}"
            )
        if any(t.shape[1] != config.width for t in prompt_stack.prompts.values()):
            raise DimensionError(f"prompt width differs from encoder width {config.width}")
        self.config = config
        self.weights = weights
        self.prompt_stack = prompt_stack
        self.prefix_blocks = min(prompt_stack.insertion_layers(), default=config.depth)

    @classmethod
    def create(cls, config: EncoderConfig, prompt_stack: Optional[PromptStack] = None) -> "EncoderState":
        stack = prompt_stack if prompt_stack is not None else PromptStack.none()
        rng = np.random.default_rng(config.seed)
        d, dh = config.width, 4 * config.width

        def frozen(shape, std):
            return Tensor(rng.normal(0.0, std, size=shape))

        w: Dict[str, Tensor] = {}
        w["backbone.patch_embed.weight"] = frozen((config.patch_dim, d), config.patch_dim ** -0.5)
        w["backbone.class_token"] = frozen((d,), 1.0)
        w["backbone.pos_embed"] = frozen((1 + config.patch_count, d), 0.5)
        for i in range(config.depth):
            p = f"backbone.block_{i}"
            for name in ("wq", "wk", "wv", "wo"):
                w[f"{p}.attn.{name}"] = frozen((d, d), d ** -0.5)
            w[f"{p}.mlp.w1"] = frozen((d, dh), d ** -0.5)
            w[f"{p}.mlp.w2"] = frozen((dh, d), dh ** -0.5)
        w["backbone.proj.weight"] = frozen((d, config.output_dim), d ** -0.5)
        return cls(config, w, stack)

    # ------------------------------------------------------------------
    # forward machinery
    # ------------------------------------------------------------------

    def embed_patches(self, images) -> Tensor:
        """[class, patch...] token sequence with positional embeddings added."""
        batch = self._as_batch(images)
        cfg = self.config
        x = Tensor(batch)
        tokens = dc.matmul(x, self.weights["backbone.patch_embed.weight"])
        cls_tok = dc.broadcast_to(self.weights["backbone.class_token"], (batch.shape[0], 1, cfg.width))
        seq = dc.concat([cls_tok, tokens], axis=1)
        return dc.add(seq, self.weights["backbone.pos_embed"])

    def _as_batch(self, images):
        arr = np.asarray(images, dtype=np.float64)
        cfg = self.config
        if arr.ndim != 3 or arr.shape[1:] != (cfg.patch_count, cfg.patch_dim):
            raise DimensionError(
                f"expected images shaped (batch, {cfg.patch_count}, {cfg.patch_dim}), got {arr.shape}"
            )
        return np.ascontiguousarray(arr)

    def _block(self, x: Tensor, index: int, rows: Optional[Rows] = None) -> Tensor:
        """Block `index`, of whose output only the token `rows` are read (all for None).

        Two ops make the block, each one autodiff node: :func:`dc.attention`
        and :func:`dc.mlp`. A pass that records no graph computes only the
        read rows (`taken`). A graph pass keeps every product's shape and runs
        the attention softmax, the MLP's layer norm and GELU on those rows
        alone (`live`); every other output row holds the block's input, and
        its gradient is zero.
        """
        p, w = f"backbone.block_{index}", self.weights
        taken, live = (None, rows) if self.prompt_stack.requires_grad else (rows, None)
        attn = [w[f"{p}.attn.{name}"] for name in ("wq", "wk", "wv", "wo")]
        x = dc.attention(x, *attn, self.config.heads, taken, live)
        return dc.mlp(x, w[f"{p}.mlp.w1"], w[f"{p}.mlp.w2"], live)

    def _kept_rows(self, index: int, seq_len: int) -> Optional[Rows]:
        """The token rows of block `index`'s output that something reads, or None for all.

        The projection reads only row 0 of the last block, which keeps rows
        0.._LAST_ROWS. A block whose prompt rows' outputs the next insertion
        replaces (:meth:`PromptStack.discards_prompt_outputs`) keeps its class
        and patch rows. This is the one rule, in graph passes and graph-free
        ones alike; :meth:`_block` says what each does with it.
        """
        stack = self.prompt_stack
        if index == self.config.depth - 1:
            return ((0, _LAST_ROWS),)
        if stack.discards_prompt_outputs(index):
            return ((0, 1), (1 + stack.length, seq_len))
        return None

    def _blocks(self, x: Tensor, start: int, stop: int) -> Tensor:
        """Blocks start..stop-1, inserting prompts at the stack's owned layers."""
        insertion = set(self.prompt_stack.insertion_layers())
        for i in range(start, stop):
            if i in insertion:
                x = insert_prompts(x, i, self.prompt_stack)
            x = self._block(x, i, self._kept_rows(i, x.shape[1]))
        return x

    def _rows_at(self, block: int) -> int:
        """Token rows per image entering `block` before any prompt is inserted."""
        return _LAST_ROWS if block == self.config.depth else 1 + self.config.patch_count

    def _tokens(self, images, stop: int) -> Tensor:
        """Tokens out of block stop-1 of an image batch or of a checked :class:`Prefix`."""
        if isinstance(images, Prefix):
            return self._blocks(Tensor(images.tokens), images.block, stop)
        return self._blocks(self.embed_patches(images), 0, stop)

    def _tiled(self, images, stop: int) -> np.ndarray:
        """:meth:`_tokens` without a graph, _TILE images at a time, into one array.

        Each image's rows do not depend on the other images of its tile: the
        blocks' matmuls run image by image, so tiling moves no bits.
        """
        out = np.empty((len(images), self._rows_at(stop), self.config.width))
        for start in range(0, len(images), _TILE):
            out[start:start + _TILE] = self._tokens(images[start:start + _TILE], stop).data
        return out

    def prefix(self, images) -> Prefix:
        """The tokens of `images` entering block `prefix_blocks`, computed without a graph.

        Runs the patch embedding and the blocks before the first insertion
        layer, _TILE images at a time, into one token array allocated up
        front; a ``none`` stack's prefix runs every block, the last on rows
        0.._LAST_ROWS. None of it depends on the prompts, so no operation
        records a graph, and each image's rows do not depend on the other
        images, so one prefix serves every forward of these images or of any
        slice of them: training steps, the frozen features, every split of an
        evaluation, by this state or any other over the same weights whose
        stack's first insertion layer is not before it.
        """
        tokens = self._tiled(self._as_batch(images), self.prefix_blocks)
        return Prefix(tokens, self.prefix_blocks, self.weights)

    def _check_prefix(self, prefix: Prefix) -> None:
        cfg = self.config
        if prefix.weights is not self.weights:
            raise ConfigError("prefix was computed by another backbone's weights")
        if prefix.block > self.prefix_blocks:
            raise ConfigError(
                f"prefix at block {prefix.block} lies past this stack's first insertion "
                f"layer {self.prefix_blocks}"
            )
        rows = self._rows_at(prefix.block)
        if prefix.tokens.ndim != 3 or prefix.tokens.shape[1:] != (rows, cfg.width):
            raise DimensionError(
                f"expected prefix tokens at block {prefix.block} shaped (batch, {rows}, {cfg.width}), "
                f"got {prefix.tokens.shape}"
            )

    def forward(self, images) -> Tensor:
        """Run the encoder with the state's prompt stack; returns the unit-norm feature Tensor.

        `images` is a (batch, patch_count, patch_dim) array, or a
        :class:`Prefix` of one from :meth:`prefix`, which the forward resumes
        at its block with the same bits. The features are shaped (batch,
        output_dim). A prefix past the first insertion layer, or from
        another weights mapping, raises ConfigError.

        When no prompt requires gradients (a ``none`` or
        :meth:`PromptStack.detached` stack), no graph is recorded, the blocks
        run _TILE images at a time and compute only the rows something reads
        (see :meth:`_kept_rows`), and the projection runs once over the whole
        batch, so its row groups do not depend on the tile.
        """
        if isinstance(images, Prefix):
            self._check_prefix(images)
        else:
            images = self._as_batch(images)
        if self.prompt_stack.requires_grad:
            x = self._tokens(images, self.config.depth)
        else:
            x = Tensor(self._tiled(images, self.config.depth))
        cls_tok = dc.reshape(dc.layernorm(dc.slice_axis(x, 1, 0, 1)), (x.shape[0], self.config.width))
        return dc.l2_normalize(dc.matmul(cls_tok, self.weights["backbone.proj.weight"]))


def insert_prompts(tokens: Tensor, layer_index: int, stack: PromptStack) -> Tensor:
    """Place the effective prompt block for `layer_index`, one of the stack's owned layers.

    Returns the new token sequence. At the first owned layer the fresh
    parameters are spliced in between the class token and the patches. A
    later owned layer finds the previous layer's prompt outputs at
    positions [1, 1+m); `deep` replaces them with its fresh parameters and
    `progressive` with (1 - alpha) * fresh + alpha * outputs. Where the
    previous block computed no prompt outputs
    (:meth:`PromptStack.drops_prompt_rows`), the fresh parameters are
    spliced in as at the first owned layer.
    """
    if stack.strategy == "none":
        return tokens
    m = stack.length
    batch, seq_len, width = tokens.shape
    splice = layer_index == min(stack.prompts) or stack.drops_prompt_rows(layer_index - 1)
    fresh = stack.prompts[layer_index]
    if stack.strategy == "progressive" and not splice:
        block = progressive_combine(fresh, dc.slice_axis(tokens, 1, 1, 1 + m), stack.alpha)
    else:
        block = dc.broadcast_to(fresh, (batch, m, width))
    tail = dc.slice_axis(tokens, 1, 1 if splice else 1 + m, seq_len)
    head = dc.slice_axis(tokens, 1, 0, 1)
    return dc.concat([head, block, tail], axis=1)


def count_trainable_params(state: EncoderState) -> int:
    """Total element count over tensors that require gradients."""
    total = sum(t.size for _, t in state.prompt_stack.parameters() if t.requires_grad)
    total += sum(t.size for t in state.weights.values() if t.requires_grad)
    return total


def backbone_checksum(state: EncoderState) -> str:
    """SHA-256 over every frozen weight, in key order; training must not move it."""
    digest = hashlib.sha256()
    for key in sorted(state.weights):
        digest.update(key.encode("utf-8"))
        digest.update(state.weights[key].data.tobytes())
    return digest.hexdigest()
