"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor wraps a C-contiguous float64 array. Operations take Tensor
operands only; a numpy array is not coerced into a constant, and every
operation refuses one with the same TypeError. softmax,
layernorm, l2_normalize and logsumexp work on the last axis only.
softmax, layernorm and gelu also take `rows`, (start, stop) ranges along
axis -2: the kernel then runs on a contiguous copy of those rows only, and
the result, of the input's shape, holds zeros in every other row. Those
zeros are constants, so the backward runs on the same rows and gives the
others a zero gradient; where the upstream gradient already vanishes on
them, every byte matches the op without `rows`.
:func:`attention` and :func:`mlp` are the two halves of a pre-norm
transformer block, each one node whose backward is written by hand. Their
weights are frozen: they take weight Tensors that require no gradient,
refuse one that does with ConfigError, and return the gradient of the
tokens alone. Their forward keeps only what their backward reads, and the
backward recomputes nothing.
Operations build an implicit DAG through parent links. Results of
operations require gradients exactly when one of their inputs does, and
operations whose inputs are all gradient-free record no parents at all,
which detaches frozen computations for free. That is the one rule: a
graph-free pass over trainable values runs on their :meth:`Tensor.detach`
copies.

Every tensor's ``grad`` is None until :meth:`Tensor.backward` reaches it;
:meth:`Tensor.zero_grad` sets it back to None. Each pass first forgets its
operation results' gradients, so a leaf sums the passes that reach it and
an operation result holds its last pass's. A backward closure returns one
gradient per parent (None for one that needs none) and stores nothing;
``backward`` keeps a node's first gradient as returned and sums later ones
into a new array. So gradients may share memory (a reshape's is a view),
and none is ever written in place. No operation writes into its operands'
data either, so a result may share memory with its input (:func:`reshape`
returns a view). Only an optimizer step writes leaf data in place, and
never while a graph built from it still awaits its backward pass; a
checkpoint load builds new prompt tensors.

Execution order is the insertion order of operations, so a forward pass is
bit-deterministic for fixed inputs.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import ConfigError, DegenerateInputError, DimensionError, EvaluationError

__all__ = [
    "Tensor",
    "GradCheckReport",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "concat",
    "slice_axis",
    "reshape",
    "swapaxes",
    "broadcast_to",
    "softmax",
    "layernorm",
    "gelu",
    "attention",
    "mlp",
    "l2_normalize",
    "log",
    "clamp_min",
    "tensor_sum",
    "logsumexp",
    "take_diagonal",
    "toposort",
    "finite_difference_check",
]


class Tensor:
    """A float64 array participating in reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.op = "leaf"
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.size != 1:
            raise DimensionError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self):
        """A gradient-free leaf holding a copy of this tensor's values."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Add d(self)/d(leaf) to every reachable leaf's gradient.

        Only scalar roots are supported. Every reachable operation result's
        gradient is first set to None, so no earlier pass is propagated
        again. Then each closure runs once, in reverse topological order.
        """
        if self.size != 1:
            raise DimensionError(f"backward requires a scalar root, got shape {self.shape}")
        if not self.requires_grad:
            return
        order = toposort(self)
        for node in order:
            if node._backward_fn is not None:
                node.grad = None
        self.grad = np.ones_like(self.data) if self.grad is None else self.grad + 1.0
        for node in reversed(order):
            if node._backward_fn is None:
                continue
            for parent, grad in zip(node._parents, node._backward_fn(node.grad)):
                if parent.requires_grad:
                    parent.grad = grad if parent.grad is None else parent.grad + grad

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _from_op(data, parents, backward_fn, op_name):
    """Build an operation result; it records its parents exactly when one needs gradients."""
    out = Tensor(data)
    out.op = op_name
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def toposort(root):
    """Graph nodes in topological order (parents first), visiting each once."""
    order = []
    seen = set()
    stack = [(root, iter(root._parents))]
    seen.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent in parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeezed = tuple(
        i for i, (gdim, sdim) in enumerate(zip(g.shape, shape)) if sdim == 1 and gdim != 1
    )
    if squeezed:
        g = g.sum(axis=squeezed, keepdims=True)
    return g.reshape(shape)


def _check_operands(op, *operands):
    """Raise TypeError unless every operand of `op` is a Tensor; arrays are never coerced."""
    for operand in operands:
        if not isinstance(operand, Tensor):
            raise TypeError(f"{op} takes Tensor operands only, got {type(operand).__name__}")


# ---------------------------------------------------------------------------
# elementwise and structural primitives
# ---------------------------------------------------------------------------

def add(a, b):
    _check_operands("add", a, b)
    data = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), backward, "add")


def sub(a, b):
    _check_operands("sub", a, b)
    data = a.data - b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                -_unbroadcast(g, b.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), backward, "sub")


def mul(a, b):
    _check_operands("mul", a, b)
    data = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), backward, "mul")


def scale(a, factor):
    """Multiply by a Python scalar."""
    _check_operands("scale", a)
    factor = float(factor)

    def backward(g):
        return (g * factor,)

    return _from_op(a.data * factor, (a,), backward, "scale")


def matmul(a, b):
    """Matrix product; supports a 2-d right operand or equal-batch operands."""
    _check_operands("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        data = np.matmul(a.data, b.data)

        def backward(g):
            return (np.matmul(g, b.data.T) if a.requires_grad else None,
                    np.matmul(a.data.reshape(-1, a.shape[-1]).T, g.reshape(-1, b.shape[-1]))
                    if b.requires_grad else None)

    elif a.ndim == b.ndim and a.shape[:-2] == b.shape[:-2]:
        data = np.matmul(a.data, b.data)

        def backward(g):
            return (np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad else None,
                    np.matmul(np.swapaxes(a.data, -1, -2), g) if b.requires_grad else None)

    else:
        raise DimensionError(f"unsupported matmul batching: {a.shape} @ {b.shape}")
    return _from_op(data, (a, b), backward, "matmul")


def concat(tensors, axis):
    _check_operands("concat", *tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.shape[axis] for t in tensors]

    def backward(g):
        index = [slice(None)] * g.ndim
        pieces, offset = [], 0
        for extent in extents:
            index[axis] = slice(offset, offset + extent)
            pieces.append(g[tuple(index)])
            offset += extent
        return pieces

    return _from_op(data, tuple(tensors), backward, "concat")


def slice_axis(x, axis, start, stop):
    """Contiguous slice along one axis; exact inverse of concat on that range."""
    _check_operands("slice_axis", x)
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    data = x.data[index].copy()

    def backward(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _from_op(data, (x,), backward, "slice")


def reshape(x, shape):
    """A view of `x` in a new shape; see the module docstring for why no copy is needed."""
    _check_operands("reshape", x)
    data = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(x.shape),)

    return _from_op(data, (x,), backward, "reshape")


def swapaxes(x, axis1, axis2):
    _check_operands("swapaxes", x)
    data = np.swapaxes(x.data, axis1, axis2).copy()

    def backward(g):
        # a strided gradient would send the next np.matmul down another BLAS path, with other bits
        return (np.ascontiguousarray(np.swapaxes(g, axis1, axis2)),)

    return _from_op(data, (x,), backward, "swapaxes")


def broadcast_to(x, shape):
    _check_operands("broadcast_to", x)
    data = np.broadcast_to(x.data, shape).copy()

    def backward(g):
        return (_unbroadcast(g, x.shape),)

    return _from_op(data, (x,), backward, "broadcast")


# ---------------------------------------------------------------------------
# nonlinear primitives
# ---------------------------------------------------------------------------

# The epsilon of every layer norm: layernorm's and the block ops' must agree.
_LAYERNORM_EPS = 1e-5


def _check_rows(op, shape, rows):
    """Raise DimensionError unless `rows` is None or (start, stop) ranges whose bounds
    strictly ascend within axis -2 of `shape`: non-empty, in order, and apart."""
    if rows is None:
        return
    bounds = [bound for pair in rows for bound in pair]
    if (len(shape) < 2 or not rows or any(len(pair) != 2 for pair in rows) or bounds[0] < 0
            or bounds[-1] > shape[-2] or any(a >= b for a, b in zip(bounds, bounds[1:]))):
        raise DimensionError(f"{op} rows must be ascending ranges within axis -2 of {shape}, got {rows}")


def _gather_rows(a, rows):
    """A contiguous copy of the ranges `rows` of `a` along axis -2, in order; `a` itself for None."""
    if rows is None:
        return a
    return np.concatenate([a[..., start:stop, :] for start, stop in rows], axis=-2)


def _scatter_rows(a, shape, rows):
    """An array of `shape` holding `a` in the ranges `rows` along axis -2 and zeros elsewhere;
    `a` itself for None. The inverse of :func:`_gather_rows` on those rows."""
    if rows is None:
        return a
    out = np.zeros(shape)
    offset = 0
    for start, stop in rows:
        out[..., start:stop, :] = a[..., offset:offset + stop - start, :]
        offset += stop - start
    return out


def softmax(x, rows=None):
    """Numerically stable softmax along the last axis, on `rows` only if given."""
    _check_operands("softmax", x)
    _check_rows("softmax", x.shape, rows)
    live = kernels.softmax_lastaxis(_gather_rows(x.data, rows))

    def backward(g):
        return (_scatter_rows(kernels.softmax_lastaxis_grad(live, _gather_rows(g, rows)), x.shape, rows),)

    return _from_op(_scatter_rows(live, x.shape, rows), (x,), backward, "softmax")


def layernorm(x, rows=None):
    """Layer normalization over the last axis (eps 1e-5), without scale or shift, on `rows` only if given."""
    _check_operands("layernorm", x)
    _check_rows("layernorm", x.shape, rows)
    live, rstd = kernels.layernorm_lastaxis(_gather_rows(x.data, rows), _LAYERNORM_EPS)

    def backward(g):
        return (_scatter_rows(kernels.layernorm_lastaxis_grad(live, rstd, _gather_rows(g, rows)), x.shape, rows),)

    return _from_op(_scatter_rows(live, x.shape, rows), (x,), backward, "layernorm")


def gelu(x, rows=None):
    """Exact erf-based GELU, on `rows` only if given."""
    _check_operands("gelu", x)
    _check_rows("gelu", x.shape, rows)
    live_x = _gather_rows(x.data, rows)
    live, t = kernels.gelu(live_x)

    def backward(g):
        return (_scatter_rows(kernels.gelu_grad(live_x, t, _gather_rows(g, rows)), x.shape, rows),)

    return _from_op(_scatter_rows(live, x.shape, rows), (x,), backward, "gelu")


# ---------------------------------------------------------------------------
# the two halves of a pre-norm transformer block, one node each
# ---------------------------------------------------------------------------

def _check_block_operands(op, x, weights, shapes):
    """Raise unless `x` is a (batch, tokens, width) Tensor and `weights` are frozen
    Tensors of `shapes`, in which None stands for the width."""
    _check_operands(op, x, *weights)
    if x.ndim != 3:
        raise DimensionError(f"{op} takes (batch, tokens, width) tokens, got {x.shape}")
    for w, shape in zip(weights, shapes):
        if w.shape != tuple(x.shape[2] if n is None else n for n in shape):
            raise DimensionError(f"{op} weight shaped {w.shape} does not fit tokens {x.shape}")
        if w.requires_grad:
            raise ConfigError(f"{op} takes frozen weights only, got one that requires a gradient")


def attention(x, wq, wk, wv, wo, heads, taken=None, live=None):
    """The attention half of a pre-norm block: the `taken` rows of `x` (all for None)
    plus multi-head self-attention of layernorm(`x`) for those query rows, one node.

    Every token serves as a key and a value. The softmax runs on the `live`
    rows of the output only, as :func:`softmax` does with `rows`. The weights
    are frozen (d, d) maps; the backward returns the gradient of `x` alone.
    The calls are those of the composed ops, in their order and layouts, and
    the backward sums the three projections' gradients into the layer norm's
    output in the order the tape would (v, k, then q), so each byte matches.
    Kept for the backward: the norm and its rstd, q, k transposed, v and the
    softmax probabilities.
    """
    _check_block_operands("attention", x, (wq, wk, wv, wo), [(None, None)] * 4)
    b, s, d = x.shape
    if heads < 1 or d % heads:
        raise DimensionError(f"attention width {d} does not split into {heads} heads")
    _check_rows("attention", x.shape, taken)
    rows = s if taken is None else sum(stop - start for start, stop in taken)
    _check_rows("attention", (b, rows, d), live)
    dh = d // heads
    factor = dh ** -0.5
    norm, rstd = kernels.layernorm_lastaxis(x.data, _LAYERNORM_EPS)

    def split(a, w):
        """a @ w as (batch, heads, rows, head_dim), contiguous."""
        return np.swapaxes(np.matmul(a, w.data).reshape(b, a.shape[1], heads, dh), 1, 2).copy()

    q = split(_gather_rows(norm, taken), wq)
    k, v = split(norm, wk), split(norm, wv)
    kt = np.swapaxes(k, 2, 3).copy()
    scores = np.matmul(q, kt) * factor
    probs = _scatter_rows(kernels.softmax_lastaxis(_gather_rows(scores, live)), scores.shape, live)
    merged = np.swapaxes(np.matmul(probs, v), 1, 2).copy().reshape(b, rows, d)
    data = _gather_rows(x.data, taken) + np.matmul(merged, wo.data)

    def merge(g, w):
        """The gradient of `a` in split(a, w), given that of the split."""
        return np.matmul(np.ascontiguousarray(np.swapaxes(g, 1, 2)).reshape(b, g.shape[2], d), w.data.T)

    def backward(g):
        g_mixed = np.ascontiguousarray(np.swapaxes(np.matmul(g, wo.data.T).reshape(b, rows, heads, dh), 1, 2))
        g_probs = np.matmul(g_mixed, np.swapaxes(v, -1, -2))
        g_norm = merge(np.matmul(np.swapaxes(probs, -1, -2), g_mixed), wv)
        g_scores = _scatter_rows(
            kernels.softmax_lastaxis_grad(_gather_rows(probs, live), _gather_rows(g_probs, live)),
            probs.shape, live) * factor
        g_norm = g_norm + merge(np.ascontiguousarray(np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), g_scores), 2, 3)), wk)
        g_norm = g_norm + _scatter_rows(merge(np.matmul(g_scores, np.swapaxes(kt, -1, -2)), wq), x.shape, taken)
        return (_scatter_rows(g, x.shape, taken) + kernels.layernorm_lastaxis_grad(norm, rstd, g_norm),)

    return _from_op(data, (x,), backward, "attention")


def mlp(x, w1, w2, live=None):
    """The MLP half of a pre-norm block: `x` + gelu(layernorm(`x`) @ w1) @ w2, one node.

    The layer norm and GELU run on the `live` rows only, as :func:`layernorm`
    and :func:`gelu` do with `rows`; both matmuls keep the full shape. The
    weights are frozen (d, hidden) and (hidden, d) maps; the backward returns
    the gradient of `x` alone. Kept for the backward: the norm's live rows
    and rstd, GELU's live input rows and its `t`.
    """
    _check_operands("mlp", x, w1, w2)
    hidden_width = w1.shape[-1]
    _check_block_operands("mlp", x, (w1, w2), [(None, hidden_width), (hidden_width, None)])
    _check_rows("mlp", x.shape, live)
    norm, rstd = kernels.layernorm_lastaxis(_gather_rows(x.data, live), _LAYERNORM_EPS)
    hidden_shape = x.shape[:2] + (hidden_width,)
    pre = _gather_rows(np.matmul(_scatter_rows(norm, x.shape, live), w1.data), live)
    hidden, t = kernels.gelu(pre)
    data = x.data + np.matmul(_scatter_rows(hidden, hidden_shape, live), w2.data)

    def backward(g):
        g_pre = kernels.gelu_grad(pre, t, _gather_rows(np.matmul(g, w2.data.T), live))
        g_norm = np.matmul(_scatter_rows(g_pre, hidden_shape, live), w1.data.T)
        return (g + _scatter_rows(kernels.layernorm_lastaxis_grad(norm, rstd, _gather_rows(g_norm, live)),
                                  x.shape, live),)

    return _from_op(data, (x,), backward, "mlp")


def l2_normalize(x):
    """Scale vectors along the last axis to unit Euclidean norm."""
    _check_operands("l2_normalize", x)
    norms = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    if np.any(norms == 0.0):
        raise DegenerateInputError("cannot normalize a zero-norm vector")
    data = x.data / norms

    def backward(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        return ((g - data * inner) / norms,)

    return _from_op(data, (x,), backward, "l2_normalize")


def log(x):
    _check_operands("log", x)
    data = np.log(x.data)

    def backward(g):
        return (g / x.data,)

    return _from_op(data, (x,), backward, "log")


def clamp_min(x, floor):
    """Elementwise max(x, floor); gradient passes only where x exceeds the floor."""
    _check_operands("clamp_min", x)
    floor = float(floor)
    data = np.maximum(x.data, floor)
    mask = x.data > floor

    def backward(g):
        return (g * mask,)

    return _from_op(data, (x,), backward, "clamp_min")


def tensor_sum(x, axis=None):
    _check_operands("tensor_sum", x)
    data = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            return (g.reshape(()) * np.ones_like(x.data),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape),)

    return _from_op(data, (x,), backward, "sum")


def logsumexp(x):
    """log of the sum of exponentials along the last axis, computed max-subtracted."""
    _check_operands("logsumexp", x)
    m = x.data.max(axis=-1, keepdims=True)
    shifted = np.exp(x.data - m)
    total = shifted.sum(axis=-1, keepdims=True)
    data = (np.log(total) + m).squeeze(axis=-1)
    soft = shifted / total

    def backward(g):
        return (np.expand_dims(g, -1) * soft,)

    return _from_op(data, (x,), backward, "logsumexp")


def take_diagonal(x):
    """Diagonal of a square matrix as a vector."""
    _check_operands("take_diagonal", x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionError(f"diagonal requires a square matrix, got {x.shape}")
    n = x.shape[0]
    data = np.diagonal(x.data).copy()

    def backward(g):
        full = np.zeros_like(x.data)
        full[np.arange(n), np.arange(n)] = g
        return (full,)

    return _from_op(data, (x,), backward, "diagonal")


# ---------------------------------------------------------------------------
# finite-difference gradient verification
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Outcome of comparing an autodiff gradient against central differences."""

    max_rel_error: float
    passed: bool
    tolerance: float
    step: float
    autodiff_grad: np.ndarray
    numeric_grad: np.ndarray

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"grad-check {status}: max relative error {self.max_rel_error:.3e} (tolerance {self.tolerance:.1e})"


# Relative errors use this absolute floor so near-zero gradients do not blow up.
REL_ERROR_FLOOR = 1e-8


def finite_difference_check(f, x, step=1e-5, tolerance=1e-6):
    """Verify the autodiff gradient of a scalar-valued function at the array `x`.

    `f` must deterministically map a Tensor to a scalar Tensor. The autodiff
    gradient is compared elementwise against central differences of size
    `step`; the check passes when the maximum relative error (floored at
    ``REL_ERROR_FLOOR``) is at most `tolerance`.
    """
    if step <= 0:
        raise EvaluationError(f"finite-difference step must be positive, got {step}")
    base = np.ascontiguousarray(x, dtype=np.float64)

    param = Tensor(base.copy(), requires_grad=True)
    value = f(param)
    if value.size != 1:
        raise DimensionError(f"gradient check requires a scalar function, got shape {value.shape}")
    if not np.isfinite(value.data).all():
        raise EvaluationError("function value is not finite at the check point")
    value.backward()
    autodiff_grad = np.zeros_like(base) if param.grad is None else param.grad.copy()

    def evaluate(values):
        out = f(Tensor(values))
        v = float(out.data.reshape(-1)[0])
        if not np.isfinite(v):
            raise EvaluationError("function value is not finite at a perturbed point")
        return v

    numeric_grad = np.empty_like(base)
    flat = base.reshape(-1)
    numeric_flat = numeric_grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        plus = base.copy().reshape(-1)
        plus[i] = original + step
        minus = base.copy().reshape(-1)
        minus[i] = original - step
        f_plus = evaluate(plus.reshape(base.shape))
        f_minus = evaluate(minus.reshape(base.shape))
        numeric_flat[i] = (f_plus - f_minus) / (2.0 * step)

    denom = np.maximum(REL_ERROR_FLOOR, np.maximum(np.abs(autodiff_grad), np.abs(numeric_grad)))
    max_rel_error = float(np.max(np.abs(autodiff_grad - numeric_grad) / denom))
    return GradCheckReport(
        max_rel_error=max_rel_error,
        passed=max_rel_error <= tolerance,
        tolerance=tolerance,
        step=step,
        autodiff_grad=autodiff_grad,
        numeric_grad=numeric_grad,
    )
