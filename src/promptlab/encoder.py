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
"""

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import CheckpointError, ConfigError, DimensionError

STRATEGIES = ("none", "shallow", "deep", "progressive")

# Images per graph-free pass in EncoderState.prefix; bounds its working memory.
_PREFIX_CHUNK = 256

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

    @classmethod
    def create(cls, strategy, length, width, active_layers=(), alpha=None, seed=0):
        """Build a stack with Xavier-uniform initialized prompts on its owned layers."""
        owners = cls.check_rules(strategy, length, active_layers, alpha)
        if not owners:
            return cls.none()
        if width < 1:
            raise ConfigError(f"prompt width must be positive, got {width}")
        rng = np.random.default_rng(seed)
        bound = np.sqrt(6.0 / (length + width))
        prompts = {
            i: Tensor(rng.uniform(-bound, bound, size=(length, width)), requires_grad=True)
            for i in owners
        }
        return cls(strategy, int(length), active_layers, alpha, prompts)

    def insertion_layers(self) -> Tuple[int, ...]:
        """Block indices where this stack modifies the token sequence: its owned layers."""
        return tuple(sorted(self.prompts))

    def parameters(self):
        """(name, tensor) pairs in a stable order."""
        return [(f"prompts.layer_{i}", self.prompts[i]) for i in sorted(self.prompts)]

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters()}

    def load_state_dict(self, arrays: Dict[str, np.ndarray]) -> None:
        """Copy saved prompt values in; the keys must match this stack's exactly.

        Every tensor is checked before any is copied, so a refused load
        leaves the prompts as they were.
        """
        unexpected = sorted(set(arrays) - {name for name, _ in self.parameters()})
        if unexpected:
            raise CheckpointError(
                f"checkpoint has prompt tensors this {self.strategy!r} stack does not own: "
                f"{unexpected}"
            )
        values = []
        for name, tensor in self.parameters():
            if name not in arrays:
                raise CheckpointError(f"missing prompt tensor {name!r} in checkpoint")
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != tensor.shape:
                raise DimensionError(
                    f"prompt {name!r} has shape {value.shape}, expected {tensor.shape}"
                )
            if not np.isfinite(value).all():
                raise CheckpointError(f"prompt tensor {name!r} holds non-finite values")
            values.append((tensor, value))
        for tensor, value in values:
            tensor.data[...] = value


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

    `tokens` is shaped (batch, 1 + patch_count, width) and is never written;
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
    of them for a ``none`` stack). Safe to share read-only across threads.
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
        cls_tok = dc.broadcast_to(
            dc.reshape(self.weights["backbone.class_token"], (1, 1, cfg.width)),
            (batch.shape[0], 1, cfg.width),
        )
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

    def _attention(self, x: Tensor, prefix: str, rows: Optional[int]) -> Tensor:
        cfg = self.config
        b, h, dh = x.shape[0], cfg.heads, cfg.head_dim

        def proj(src, name):
            out = dc.matmul(src, self.weights[f"{prefix}.attn.{name}"])
            return dc.swapaxes(dc.reshape(out, (b, src.shape[1], h, dh)), 1, 2)

        q = proj(x if rows is None else dc.slice_axis(x, 1, 0, rows), "wq")
        k, v = proj(x, "wk"), proj(x, "wv")
        scores = dc.scale(dc.matmul(q, dc.swapaxes(k, 2, 3)), dh ** -0.5)
        mixed = dc.matmul(dc.softmax(scores), v)
        merged = dc.reshape(dc.swapaxes(mixed, 1, 2), (b, q.shape[2], cfg.width))
        return dc.matmul(merged, self.weights[f"{prefix}.attn.wo"])

    def _block(self, x: Tensor, index: int, rows: Optional[int] = None) -> Tensor:
        p = f"backbone.block_{index}"
        kept = x if rows is None else dc.slice_axis(x, 1, 0, rows)
        x = dc.add(kept, self._attention(dc.layernorm(x), p, rows))
        hidden = dc.gelu(dc.matmul(dc.layernorm(x), self.weights[f"{p}.mlp.w1"]))
        return dc.add(x, dc.matmul(hidden, self.weights[f"{p}.mlp.w2"]))

    def _blocks(self, x: Tensor, start: int, stop: int, last_rows: Optional[int] = None) -> Tensor:
        """Blocks start..stop-1, inserting prompts at the stack's owned layers.

        The encoder's last block computes only its first `last_rows` rows when
        that is given.
        """
        insertion = set(self.prompt_stack.insertion_layers())
        for i in range(start, stop):
            if i in insertion:
                x = insert_prompts(x, i, self.prompt_stack)
            x = self._block(x, i, last_rows if i == self.config.depth - 1 else None)
        return x

    def prefix(self, images) -> Prefix:
        """The tokens of `images` entering block `prefix_blocks`, computed without a graph.

        Runs the patch embedding and the blocks before the first insertion
        layer, in chunks of images under :func:`diffcore.no_grad`, into one
        token array allocated up front. None of it depends on the prompts,
        and each image's rows do not depend on the other images, so one
        prefix serves every forward of these images or of any slice of them:
        training steps, the frozen features, every split of an evaluation,
        by this state or any other over the same weights whose stack's first
        insertion layer is not before it.
        """
        batch = self._as_batch(images)
        cfg = self.config
        tokens = np.empty((len(batch), 1 + cfg.patch_count, cfg.width))
        with dc.no_grad():
            for start in range(0, len(batch), _PREFIX_CHUNK):
                x = self.embed_patches(batch[start:start + _PREFIX_CHUNK])
                tokens[start:start + _PREFIX_CHUNK] = self._blocks(x, 0, self.prefix_blocks).data
        return Prefix(tokens, self.prefix_blocks, self.weights)

    def _resume(self, prefix: Prefix) -> Tensor:
        cfg = self.config
        if prefix.weights is not self.weights:
            raise ConfigError("prefix was computed by another backbone's weights")
        if prefix.block > self.prefix_blocks:
            raise ConfigError(
                f"prefix at block {prefix.block} lies past this stack's first insertion "
                f"layer {self.prefix_blocks}"
            )
        if prefix.tokens.ndim != 3 or prefix.tokens.shape[1:] != (1 + cfg.patch_count, cfg.width):
            raise DimensionError(
                f"expected prefix tokens shaped (batch, {1 + cfg.patch_count}, {cfg.width}), "
                f"got {prefix.tokens.shape}"
            )
        return Tensor(prefix.tokens)

    def forward(self, images) -> Tensor:
        """Run the encoder with the state's prompt stack; returns the unit-norm feature Tensor.

        `images` is a (batch, patch_count, patch_dim) array, or a
        :class:`Prefix` of one from :meth:`prefix`, which the forward resumes
        at its block with the same bits. The features are shaped (batch,
        output_dim). A prefix past the first insertion layer, or from
        another weights mapping, raises ConfigError.
        """
        if isinstance(images, Prefix):
            x, start = self._resume(images), images.block
        else:
            x, start = self.embed_patches(images), 0
        # Without a graph the last block computes the class row it returns, plus
        # one more: a one-row matmul takes other bits than the same row in a larger one.
        x = self._blocks(x, start, self.config.depth, None if dc.grad_enabled() else 2)
        cls_tok = dc.reshape(dc.slice_axis(dc.layernorm(x), 1, 0, 1), (x.shape[0], self.config.width))
        return dc.l2_normalize(dc.matmul(cls_tok, self.weights["backbone.proj.weight"]))


def insert_prompts(tokens: Tensor, layer_index: int, stack: PromptStack) -> Tensor:
    """Place the effective prompt block for `layer_index`, one of the stack's owned layers.

    Returns the new token sequence. At the first owned layer the fresh
    parameters are spliced in between the class token and the patches. A
    later owned layer finds the previous layer's prompt outputs at
    positions [1, 1+m); `deep` replaces them with its fresh parameters and
    `progressive` with (1 - alpha) * fresh + alpha * outputs.
    """
    if stack.strategy == "none":
        return tokens
    m = stack.length
    batch, seq_len, width = tokens.shape
    first = layer_index == min(stack.prompts)
    fresh = stack.prompts[layer_index]
    if stack.strategy == "progressive" and not first:
        block = progressive_combine(fresh, dc.slice_axis(tokens, 1, 1, 1 + m), stack.alpha)
    else:
        block = dc.broadcast_to(dc.reshape(fresh, (1, m, width)), (batch, m, width))
    tail = dc.slice_axis(tokens, 1, 1 if first else 1 + m, seq_len)
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
