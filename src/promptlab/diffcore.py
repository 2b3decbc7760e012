"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor wraps a C-contiguous float64 array. Operations take Tensor
operands only; a numpy array is not coerced into a constant, and every
operation refuses one with the same TypeError. softmax,
layernorm, l2_normalize and logsumexp work on the last axis only.
Operations build an implicit DAG through parent links. Results of
operations require gradients exactly when one of their inputs does, and
operations whose inputs are all gradient-free record no parents at all,
which detaches frozen computations for free. Inside :func:`no_grad`
operations record no graph whatever their inputs; the mode is per thread.

Every tensor's ``grad`` is None until :meth:`Tensor.backward` reaches it;
:meth:`Tensor.zero_grad` sets it back to None. Each pass first forgets its
operation results' gradients, so a leaf sums the passes that reach it and
an operation result holds its last pass's. A backward closure returns one
gradient per parent (None for one that needs none) and stores nothing;
``backward`` keeps a node's first gradient as returned and sums later ones
into a new array. So gradients may share memory (a reshape's is a view),
and none is ever written in place. No operation writes into its operands'
data either, so a result may share memory with its input (:func:`reshape`
returns a view). Only leaf data is updated in place (an optimizer step on
prompts, a checkpoint load), never while a graph built from it still
awaits its backward pass.

Execution order is the insertion order of operations, so a forward pass is
bit-deterministic for fixed inputs.
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import DegenerateInputError, DimensionError, EvaluationError

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
    "l2_normalize",
    "log",
    "clamp_min",
    "tensor_sum",
    "logsumexp",
    "take_diagonal",
    "no_grad",
    "grad_enabled",
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
        """A gradient-free tensor sharing this tensor's values."""
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


_grad_mode = threading.local()


def grad_enabled() -> bool:
    """False inside :func:`no_grad` on the calling thread."""
    return getattr(_grad_mode, "enabled", True)


@contextmanager
def no_grad():
    """Operations this thread runs inside the block record no graph."""
    previous, _grad_mode.enabled = grad_enabled(), False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _from_op(data, parents, backward_fn, op_name):
    """Build an operation result; no graph inside no_grad or when no parent needs gradients."""
    out = Tensor(data)
    out.op = op_name
    if grad_enabled() and any(p.requires_grad for p in parents):
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

def softmax(x):
    """Numerically stable softmax along the last axis."""
    _check_operands("softmax", x)
    data = kernels.softmax_lastaxis(x.data)

    def backward(g):
        return (kernels.softmax_lastaxis_grad(data, g),)

    return _from_op(data, (x,), backward, "softmax")


def layernorm(x):
    """Layer normalization over the last axis (eps 1e-5), without scale or shift."""
    _check_operands("layernorm", x)
    data, rstd = kernels.layernorm_lastaxis(x.data, 1e-5)

    def backward(g):
        return (kernels.layernorm_lastaxis_grad(data, rstd, g),)

    return _from_op(data, (x,), backward, "layernorm")


def gelu(x):
    """Exact erf-based GELU."""
    _check_operands("gelu", x)
    data, t = kernels.gelu(x.data)

    def backward(g):
        return (kernels.gelu_grad(x.data, t, g),)

    return _from_op(data, (x,), backward, "gelu")


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
