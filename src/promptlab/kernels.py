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
    """Row-stochastic softmax along the last axis, computed max-subtracted."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_lastaxis_grad(y, g):
    """Input gradient of the last-axis softmax given its output y."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


def layernorm_lastaxis(x, gamma, beta, eps):
    """Layer norm over the last axis; returns (y, mean, rstd) for backward."""
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * rstd
    return xhat * gamma + beta, mean[..., 0], rstd[..., 0]


def layernorm_lastaxis_grad(x, gamma, mean, rstd, g):
    """Gradients (gx, ggamma, gbeta) of the last-axis layer norm."""
    xhat = (x - mean[..., None]) * rstd[..., None]
    h = g * gamma
    h_mean = h.mean(axis=-1, keepdims=True)
    hx_mean = (h * xhat).mean(axis=-1, keepdims=True)
    gx = rstd[..., None] * (h - h_mean - xhat * hx_mean)
    axes = tuple(range(x.ndim - 1))
    ggamma = (g * xhat).sum(axis=axes)
    gbeta = g.sum(axis=axes)
    return gx, ggamma, gbeta


def gelu(x):
    """Exact (erf-based) GELU."""
    return 0.5 * x * (1.0 + _erf(x * _INV_SQRT2))


def gelu_grad(x, g):
    """Input gradient of the exact GELU."""
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return g * (cdf + x * pdf)
