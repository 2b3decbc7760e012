"""Run-time hooks around promptlab calls, installed from outside the program.

:class:`Patcher` swaps a function for a wrapper in every promptlab module
that refers to it (modules import some functions by name) or on a class,
and puts the originals back. :class:`Probe` takes the few timestamps the
end-to-end metrics need and is on in every timed operation. :class:`Tracer`
records a span around each call into a layer, for the per-layer metrics,
and is on only in traced runs.
"""

import hashlib
import sys
from time import perf_counter

from promptlab import data, diffcore, encoder, heads, kernels, trainer
from spec import HEADS, KERNELS, OPS


class Patcher:
    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)`` wherever it is referenced."""
        original = getattr(owner, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            self._swap(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if name == "promptlab" or name.startswith("promptlab."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, wrapper)

    def _swap(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Probe:
    """Step and eval timings, and a digest of every feature matrix computed.

    A training step runs from a forward call made outside
    ``_forward_features`` to the end of the next ``SGD.step``. An eval chunk
    is one forward call inside ``_split_accuracy``; eval time is the time in
    ``_forward_features`` calls made from there.
    """

    def __init__(self):
        self.step_ms = []
        self.chunk_ms = []
        self.train_images = 0
        self.eval_images = 0
        self.eval_s = 0.0
        self.features = hashlib.sha256()
        self._in_eval = 0
        self._in_features = 0
        self._step_start = 0.0
        self._step_images = 0

    def install(self, patcher):
        patcher.wrap(encoder.EncoderState, "forward", self._forward)
        patcher.wrap(trainer.SGD, "step", self._sgd_step)
        patcher.wrap(trainer, "_split_accuracy", self._split_accuracy)
        patcher.wrap(trainer, "_forward_features", self._forward_features)

    def _forward(self, original):
        def forward(state, images, *args, **kwargs):
            start = perf_counter()
            out = original(state, images, *args, **kwargs)
            if not self._in_features:
                self._step_start, self._step_images = start, len(images)
            elif self._in_eval:
                self.chunk_ms.append((perf_counter() - start) * 1e3)
            return out
        return forward

    def _sgd_step(self, original):
        def step(optimizer, *args, **kwargs):
            original(optimizer, *args, **kwargs)
            self.step_ms.append((perf_counter() - self._step_start) * 1e3)
            self.train_images += self._step_images
        return step

    def _split_accuracy(self, original):
        def split_accuracy(*args, **kwargs):
            self._in_eval += 1
            try:
                return original(*args, **kwargs)
            finally:
                self._in_eval -= 1
        return split_accuracy

    def _forward_features(self, original):
        def forward_features(state, images, *args, **kwargs):
            self._in_features += 1
            start = perf_counter()
            try:
                feats = original(state, images, *args, **kwargs)
            finally:
                self._in_features -= 1
            if self._in_eval:
                self.eval_s += perf_counter() - start
                self.eval_images += len(images)
            self.features.update(feats.tobytes())
            return feats
        return forward_features


def _nbytes(value):
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return getattr(value, "nbytes", 0)


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus counted events.

    Events (span index, kind, amount) count work where it happens: grad
    buffers allocated, bytes a kernel touched, grad buffers a backward
    reached, images and prefix blocks in a forward.
    """

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.events = []
        self._open = []

    def span(self, name, original, after=None):
        def traced(*args, **kwargs):
            index = len(self.starts)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(index)
            self.starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self._open.pop()
            if after is not None:
                after(index, args, kwargs, result)
            return result
        return traced

    def install(self, patcher):
        def spans(owner, attr, name, after=None):
            patcher.wrap(owner, attr, lambda original: self.span(name, original, after))

        for k in KERNELS:
            spans(kernels, k, f"kernels.{k}", self._kernel_bytes)
        for op in OPS:
            spans(diffcore, op, f"diffcore.{op}")
        patcher.wrap(diffcore, "_from_op", self._count_grad)
        spans(diffcore.Tensor, "backward", "diffcore.backward", self._reached)
        spans(encoder.EncoderState, "forward", "encoder.forward", self._forward_shape)
        spans(encoder.EncoderState, "embed_patches", "encoder.embed_patches")
        spans(encoder, "insert_prompts", "encoder.insert_prompts")
        for h in HEADS:
            spans(heads, h, f"heads.{h}")
        spans(trainer.SGD, "step", "trainer.sgd_step")
        spans(trainer.SGD, "zero_grad", "trainer.zero_grad")
        spans(trainer, "train", "trainer.train")
        spans(trainer, "evaluate_task", "trainer.evaluate_task")
        spans(trainer, "_split_accuracy", "trainer.split_accuracy")
        spans(trainer, "_forward_features", "trainer.forward_features")
        spans(trainer, "prototype_bank", "trainer.prototype_bank")
        spans(data, "generate_dataset", "data.generate_dataset")
        spans(data, "sample_k_shot", "data.sample_k_shot")

    def _kernel_bytes(self, index, args, kwargs, result):
        moved = sum(_nbytes(a) for a in args) + _nbytes(result)
        self.events.append((index, "bytes", moved))

    def _count_grad(self, original):
        def from_op(*args, **kwargs):
            out = original(*args, **kwargs)
            if out.grad is not None:
                self.events.append((self._open[-1] if self._open else -1, "grad", out.grad.nbytes))
            return out
        return from_op

    def _reached(self, index, args, kwargs, result):
        root = args[0]
        if root.requires_grad:
            reached = sum(
                1 for node in diffcore.toposort(root) if node.op != "leaf" and node.grad is not None
            )
            self.events.append((index, "reached", reached))

    def _forward_shape(self, index, args, kwargs, result):
        state, images = args[0], args[1]
        stack = kwargs.get("stack", args[2] if len(args) > 2 else None)
        stack = state.prompt_stack if stack is None else stack
        batch = 1 if len(getattr(images, "shape", ())) == 2 else len(images)
        self.events.append((index, "images", batch))
        layers = stack.insertion_layers()
        if layers:
            self.events.append((index, "prefix", min(layers)))
            self.events.append((index, "blocks", state.config.depth))

    def self_check(self, lo, hi, tolerance=1e-9):
        """Spans in [lo, hi) whose self time is negative or whose children's
        self times add up to more than their own duration."""
        bad = []
        child_dur = {}
        child_self = {}
        for i in range(lo, hi):
            p = self.parents[i]
            child_dur[p] = child_dur.get(p, 0.0) + self.ends[i] - self.starts[i]
        for i in range(lo, hi):
            own = self.ends[i] - self.starts[i] - child_dur.get(i, 0.0)
            if own < -tolerance:
                bad.append(f"{self.names[i]}#{i}: self time {own:.3e} s")
            p = self.parents[i]
            child_self[p] = child_self.get(p, 0.0) + own
        for p, total in child_self.items():
            if p >= lo and total > self.ends[p] - self.starts[p] + tolerance:
                bad.append(f"{self.names[p]}#{p}: children's self times exceed its duration")
        return bad
