"""Hot numeric kernels, in numpy.

All kernels operate on float64 arrays. Row-wise kernels treat the last
axis as the reduction axis and everything before it as rows.
"""

import numpy as np
from scipy.special import erf as _erf

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


def active_backend():
    """Name of the implementation serving kernel calls; benchmark runs record it."""
    return "numpy"


def softmax_lastaxis(x):
    """Row-stochastic softmax along the last axis, computed max-subtracted.

    The exponential is normalized in place, so the kernel holds at most two
    arrays of x's size: the shifted logits and the output.
    """
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_lastaxis_grad(y, g):
    """Input gradient of the last-axis softmax given its output y."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


def layernorm_lastaxis(x, eps):
    """Layer norm over the last axis, no scale or shift; returns (y, rstd) for backward."""
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + eps)
    return (x - mean) * rstd, rstd[..., 0]


def layernorm_lastaxis_grad(y, rstd, g):
    """Input gradient of the last-axis layer norm, given its output y."""
    g_mean = g.mean(axis=-1, keepdims=True)
    gy_mean = (g * y).mean(axis=-1, keepdims=True)
    return rstd[..., None] * (g - g_mean - y * gy_mean)


def gelu(x):
    """Exact (erf-based) GELU; returns (y, t) with t = 1 + erf(x / sqrt(2)) for backward.

    t and y are each finished in place in their own buffer, so at most two
    arrays of x's size are live at any point of the kernel.
    """
    t = _erf(x * _INV_SQRT2)
    t += 1.0
    y = 0.5 * x
    y *= t
    return y, t


def gelu_grad(x, t, g):
    """Input gradient of the exact GELU, given the `t` that :func:`gelu` returned."""
    cdf = 0.5 * t
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return g * (cdf + x * pdf)
