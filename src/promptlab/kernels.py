"""Hot numeric kernels, in numpy.

All kernels operate on float64 arrays. Row-wise kernels treat the last
axis as the reduction axis and everything before it as rows.

GELU's erf is scipy's ufunc, loaded from the compiled extension that holds
it without importing :mod:`scipy.special`. That package's init loads over
300 modules, its array-API shim among them with ``numpy.f2py`` and
``numpy.testing``, and adds about 25 MB of memory on top of numpy's 27 MB.
The extension is registered under its own dotted name, so ``_erf`` is the
very object ``scipy.special.erf`` is, whichever of the two is imported
first, and runs the same C loop.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy

_ERF_MODULE = "scipy.special._special_ufuncs"


def _load_erf(special_dir):
    """scipy's erf ufunc, from the ``_special_ufuncs`` extension in special_dir.

    An already imported extension is reused; a new one is registered in
    ``sys.modules`` as importlib would. Falls back to ``scipy.special.erf``
    when the extension is missing or holds no erf, as in older scipy.
    """
    module = sys.modules.get(_ERF_MODULE)
    if module is None:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(special_dir, "_special_ufuncs" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_ERF_MODULE, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[_ERF_MODULE] = module
                try:
                    spec.loader.exec_module(module)
                except BaseException:
                    del sys.modules[_ERF_MODULE]
                    raise
                break
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


_erf = _load_erf(os.path.join(os.path.dirname(scipy.__file__), "special"))

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
