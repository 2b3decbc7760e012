"""A small ViT-style encoder with pluggable prompt insertion.

The backbone (patch embedding, class token, positional embeddings, N
pre-norm transformer blocks, final projection) is generated from a seed and
frozen; it stands in for a pretrained visual tower at desk scale. Prompt
tokens are the only trainable tensors. Four insertion strategies:

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

Token layout after insertion is always [class, prompts, patches]. Prompt
tokens receive no positional embedding.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import CheckpointError, ConfigError, DimensionError, InvariantError

STRATEGIES = ("none", "shallow", "deep", "progressive")

__all__ = [
    "STRATEGIES",
    "EncoderConfig",
    "PromptStack",
    "LayerTrace",
    "EncoderState",
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
    """Learnable prompt tokens plus the strategy that wires them in."""

    def __init__(self, strategy, length, active_layers, alpha, prompts):
        self.strategy = strategy
        self.length = length
        self.active_layers = active_layers
        self.alpha = alpha
        self.prompts = prompts

    @classmethod
    def none(cls) -> "PromptStack":
        return cls("none", 0, (), None, {})

    @classmethod
    def create(cls, strategy, length, width, active_layers=(), alpha=None, seed=0):
        """Build a stack with Xavier-uniform initialized prompts.

        `active_layers` is a contiguous run of 0-based block indices. For
        `shallow` only the first of them receives parameters; for `deep`
        and `progressive` every one does. `alpha` is meaningful (and
        required) only for `progressive`.
        """
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        if strategy == "none":
            if alpha is not None:
                raise ConfigError("alpha has no meaning without prompts")
            return cls.none()

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
            alpha = float(alpha)
            if not 0.0 <= alpha <= 1.0:
                raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
        elif alpha is not None:
            raise ConfigError(f"alpha is only stored for the progressive strategy, not {strategy!r}")

        owners = layers[:1] if strategy == "shallow" else layers
        rng = np.random.default_rng(seed)
        bound = np.sqrt(6.0 / (length + width))
        prompts = {
            i: Tensor(rng.uniform(-bound, bound, size=(length, width)), requires_grad=True)
            for i in owners
        }
        return cls(strategy, int(length), layers, alpha, prompts)

    @property
    def first_layer(self) -> Optional[int]:
        return self.active_layers[0] if self.active_layers else None

    def insertion_layers(self) -> Tuple[int, ...]:
        """Block indices where this stack modifies the token sequence."""
        if self.strategy == "none":
            return ()
        if self.strategy == "shallow":
            return self.active_layers[:1]
        return self.active_layers

    def parameters(self):
        """(name, tensor) pairs in a stable order."""
        return [(f"prompts.layer_{i}", self.prompts[i]) for i in sorted(self.prompts)]

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters()}

    def load_state_dict(self, arrays: Dict[str, np.ndarray]) -> None:
        """Copy saved prompt values in; the keys must match this stack's exactly."""
        unexpected = sorted(set(arrays) - {name for name, _ in self.parameters()})
        if unexpected:
            raise CheckpointError(
                f"checkpoint has prompt tensors this {self.strategy!r} stack does not own: "
                f"{unexpected}"
            )
        for name, tensor in self.parameters():
            if name not in arrays:
                raise ConfigError(f"missing prompt tensor {name!r} in checkpoint")
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != tensor.shape:
                raise DimensionError(
                    f"prompt {name!r} has shape {value.shape}, expected {tensor.shape}"
                )
            tensor.data[...] = value


@dataclass
class LayerTrace:
    """Per-forward bookkeeping of prompt blocks.

    `inserted[i]` is the effective prompt block fed into layer i, per
    sample; `prompt_outputs[i]` is what layer i emitted at the prompt
    positions. Both exist exactly for layers where insertion happened.
    `feature` is the final unit-norm class feature.
    """

    inserted: Dict[int, np.ndarray] = field(default_factory=dict)
    prompt_outputs: Dict[int, np.ndarray] = field(default_factory=dict)
    feature: Optional[np.ndarray] = None


def progressive_combine(fresh: Tensor, prev_output: Tensor, alpha) -> Tensor:
    """(1 - alpha) * fresh + alpha * prev_output, differentiable in both."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    if fresh.shape[-2:] != prev_output.shape[-2:]:
        raise DimensionError(
            f"prompt blocks disagree: {fresh.shape} vs {prev_output.shape}"
        )
    return dc.add(dc.scale(fresh, 1.0 - alpha), dc.scale(prev_output, alpha))


class EncoderState:
    """Frozen backbone weights plus one prompt stack.

    Weights never require gradients; training mutates only the stack's
    prompt tensors. Safe to share read-only across threads.
    """

    def __init__(self, config: EncoderConfig, weights: Dict[str, Tensor], prompt_stack: PromptStack):
        self.config = config
        self.weights = weights
        self.prompt_stack = prompt_stack

    @classmethod
    def create(cls, config: EncoderConfig, prompt_stack: Optional[PromptStack] = None) -> "EncoderState":
        stack = prompt_stack if prompt_stack is not None else PromptStack.none()
        if stack.active_layers and stack.active_layers[-1] >= config.depth:
            raise ConfigError(
                f"active layers {stack.active_layers} exceed encoder depth {config.depth}"
            )
        rng = np.random.default_rng(config.seed)
        d, dh = config.width, 4 * config.width

        def frozen(shape, std):
            return Tensor(rng.normal(0.0, std, size=shape))

        w: Dict[str, Tensor] = {}
        w["backbone.patch_embed.weight"] = frozen((config.patch_dim, d), config.patch_dim ** -0.5)
        w["backbone.patch_embed.bias"] = Tensor(np.zeros(d))
        w["backbone.class_token"] = frozen((d,), 1.0)
        w["backbone.pos_embed"] = frozen((1 + config.patch_count, d), 0.5)
        for i in range(config.depth):
            p = f"backbone.block_{i}"
            w[f"{p}.ln1.gamma"] = Tensor(np.ones(d))
            w[f"{p}.ln1.beta"] = Tensor(np.zeros(d))
            for name in ("wq", "wk", "wv", "wo"):
                w[f"{p}.attn.{name}"] = frozen((d, d), d ** -0.5)
                w[f"{p}.attn.{name}_bias"] = Tensor(np.zeros(d))
            w[f"{p}.ln2.gamma"] = Tensor(np.ones(d))
            w[f"{p}.ln2.beta"] = Tensor(np.zeros(d))
            w[f"{p}.mlp.w1"] = frozen((d, dh), d ** -0.5)
            w[f"{p}.mlp.b1"] = Tensor(np.zeros(dh))
            w[f"{p}.mlp.w2"] = frozen((dh, d), dh ** -0.5)
            w[f"{p}.mlp.b2"] = Tensor(np.zeros(d))
        w["backbone.ln_final.gamma"] = Tensor(np.ones(d))
        w["backbone.ln_final.beta"] = Tensor(np.zeros(d))
        w["backbone.proj.weight"] = frozen((d, config.output_dim), d ** -0.5)
        return cls(config, w, stack)

    # ------------------------------------------------------------------
    # forward machinery
    # ------------------------------------------------------------------

    def embed_patches(self, images) -> Tensor:
        """[class, patch...] token sequence with positional embeddings added."""
        batch, single = self._as_batch(images)
        cfg = self.config
        x = Tensor(batch)
        tokens = dc.matmul(x, self.weights["backbone.patch_embed.weight"])
        tokens = dc.add(tokens, self.weights["backbone.patch_embed.bias"])
        cls_tok = dc.broadcast_to(
            dc.reshape(self.weights["backbone.class_token"], (1, 1, cfg.width)),
            (batch.shape[0], 1, cfg.width),
        )
        seq = dc.concat([cls_tok, tokens], axis=1)
        seq = dc.add(seq, self.weights["backbone.pos_embed"])
        if single:
            return dc.reshape(seq, seq.shape[1:])
        return seq

    def _as_batch(self, images):
        arr = np.asarray(images, dtype=np.float64)
        cfg = self.config
        single = arr.ndim == 2
        if single:
            arr = arr[None]
        if arr.ndim != 3 or arr.shape[1:] != (cfg.patch_count, cfg.patch_dim):
            raise DimensionError(
                f"expected images shaped (batch, {cfg.patch_count}, {cfg.patch_dim})"
                f" or ({cfg.patch_count}, {cfg.patch_dim}), got {arr.shape}"
            )
        return np.ascontiguousarray(arr), single

    def _attention(self, x: Tensor, prefix: str) -> Tensor:
        cfg = self.config
        b, t = x.shape[0], x.shape[1]
        h, dh = cfg.heads, cfg.head_dim

        def proj(name):
            out = dc.add(
                dc.matmul(x, self.weights[f"{prefix}.attn.{name}"]),
                self.weights[f"{prefix}.attn.{name}_bias"],
            )
            return dc.swapaxes(dc.reshape(out, (b, t, h, dh)), 1, 2)

        q, k, v = proj("wq"), proj("wk"), proj("wv")
        scores = dc.scale(dc.matmul(q, dc.swapaxes(k, 2, 3)), dh ** -0.5)
        mixed = dc.matmul(dc.softmax(scores, axis=-1), v)
        merged = dc.reshape(dc.swapaxes(mixed, 1, 2), (b, t, cfg.width))
        return dc.add(
            dc.matmul(merged, self.weights[f"{prefix}.attn.wo"]),
            self.weights[f"{prefix}.attn.wo_bias"],
        )

    def _block(self, x: Tensor, index: int) -> Tensor:
        p = f"backbone.block_{index}"
        normed = dc.layernorm(x, self.weights[f"{p}.ln1.gamma"], self.weights[f"{p}.ln1.beta"])
        x = dc.add(x, self._attention(normed, p))
        normed = dc.layernorm(x, self.weights[f"{p}.ln2.gamma"], self.weights[f"{p}.ln2.beta"])
        hidden = dc.gelu(dc.add(dc.matmul(normed, self.weights[f"{p}.mlp.w1"]), self.weights[f"{p}.mlp.b1"]))
        mlp = dc.add(dc.matmul(hidden, self.weights[f"{p}.mlp.w2"]), self.weights[f"{p}.mlp.b2"])
        return dc.add(x, mlp)

    def forward(self, images, stack: Optional[PromptStack] = None):
        """Run the encoder; returns (unit-norm features, LayerTrace).

        `stack` overrides the state's own prompt stack; pass a `none`
        stack (or use :meth:`forward_frozen`) for the frozen path f(x).
        """
        stack = self.prompt_stack if stack is None else stack
        if stack.active_layers and stack.active_layers[-1] >= self.config.depth:
            raise ConfigError(
                f"active layers {stack.active_layers} exceed encoder depth {self.config.depth}"
            )
        batch, single = self._as_batch(images)
        x = self.embed_patches(batch)
        trace = LayerTrace()
        insertion = set(stack.insertion_layers())
        m = stack.length
        for i in range(self.config.depth):
            if i in insertion:
                x, effective = insert_prompts(x, i, stack, trace)
            x = self._block(x, i)
            if i in insertion:
                trace.prompt_outputs[i] = x.data[:, 1:1 + m, :].copy()
        ln = dc.layernorm(
            x, self.weights["backbone.ln_final.gamma"], self.weights["backbone.ln_final.beta"]
        )
        cls_tok = dc.reshape(dc.slice_axis(ln, 1, 0, 1), (x.shape[0], self.config.width))
        feature = dc.l2_normalize(dc.matmul(cls_tok, self.weights["backbone.proj.weight"]), axis=-1)
        if single:
            feature = dc.reshape(feature, (self.config.output_dim,))
        trace.feature = feature.data.copy()
        return feature, trace

    def forward_frozen(self, images):
        """The frozen feature path f(x), independent of any prompt stack."""
        return self.forward(images, stack=PromptStack.none())


def insert_prompts(tokens: Tensor, layer_index: int, stack: PromptStack, trace: LayerTrace):
    """Place the effective prompt block for `layer_index` into `tokens`.

    Returns (new token sequence, effective block values). At the first
    active layer the fresh parameters are spliced between the class token
    and the patches; at later active layers the incoming sequence carries
    the previous layer's prompt outputs at positions [1, 1+m), which are
    consumed here: discarded by `deep`, interpolated by `progressive`.
    """
    if stack.strategy == "none":
        return tokens, None
    m = stack.length
    batch, seq_len, width = tokens.shape
    first = stack.first_layer

    if layer_index == first:
        fresh = stack.prompts[layer_index]
        block = dc.broadcast_to(dc.reshape(fresh, (1, m, width)), (batch, m, width))
        tail = dc.slice_axis(tokens, 1, 1, seq_len)
    else:
        if stack.strategy == "shallow":
            raise InvariantError("shallow stacks insert only at their first active layer")
        if layer_index - 1 not in trace.inserted:
            raise InvariantError(
                f"layer {layer_index} expects prompt outputs from layer {layer_index - 1}, "
                "but no insertion was recorded there"
            )
        fresh = stack.prompts[layer_index]
        if stack.strategy == "deep":
            block = dc.broadcast_to(dc.reshape(fresh, (1, m, width)), (batch, m, width))
        else:
            prev = dc.slice_axis(tokens, 1, 1, 1 + m)
            block = progressive_combine(fresh, prev, stack.alpha)
        tail = dc.slice_axis(tokens, 1, 1 + m, seq_len)

    head = dc.slice_axis(tokens, 1, 0, 1)
    out = dc.concat([head, block, tail], axis=1)
    effective = np.broadcast_to(block.data, (batch, m, width)).copy()
    trace.inserted[layer_index] = effective
    return out, effective


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
