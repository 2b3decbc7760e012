import ctypes
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import promptlab
from promptlab import kernels


# One implementation is left; the parameter keeps the "[numpy]" test ids
# stable and names the backend that benchmark runs record.
on_backend = pytest.mark.parametrize("backend", [kernels.active_backend()])


def test_numpy_backend_always_available():
    assert kernels.active_backend() == "numpy"


@on_backend
@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 4, 6)])
def test_softmax_rows_are_distributions(backend, shape):
    rng = np.random.default_rng(11)
    x = rng.normal(scale=3.0, size=shape)
    y = kernels.softmax_lastaxis(x)
    assert np.all(y > 0)
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)


@on_backend
def test_softmax_shift_invariance(backend):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 9))
    shifted = kernels.softmax_lastaxis(x + 123.456)
    assert np.allclose(shifted, kernels.softmax_lastaxis(x), atol=1e-12)


@on_backend
def test_softmax_handles_large_logits(backend):
    x = np.array([[1000.0, 1000.0, -1000.0]])
    y = kernels.softmax_lastaxis(x)
    assert np.all(np.isfinite(y))
    assert np.allclose(y, [[0.5, 0.5, 0.0]], atol=1e-12)


@on_backend
def test_softmax_gradient_matches_jacobian(backend):
    rng = np.random.default_rng(13)
    for _ in range(25):
        x = rng.normal(size=(5,))
        g = rng.normal(size=(5,))
        y = kernels.softmax_lastaxis(x)
        jac = np.diag(y) - np.outer(y, y)
        assert np.allclose(kernels.softmax_lastaxis_grad(y, g), jac @ g, atol=1e-12)


@on_backend
def test_layernorm_standardizes(backend):
    rng = np.random.default_rng(14)
    x = rng.normal(loc=5.0, scale=2.0, size=(6, 16))
    y, rstd = kernels.layernorm_lastaxis(x, 0.0)
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-9)
    assert np.allclose(rstd, 1.0 / x.std(axis=-1), rtol=1e-9)


def _numeric_grad(fn, x, step=1e-6):
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    base = x.reshape(-1)
    for i in range(base.size):
        xp, xm = base.copy(), base.copy()
        xp[i] += step
        xm[i] -= step
        flat[i] = (fn(xp.reshape(x.shape)) - fn(xm.reshape(x.shape))) / (2 * step)
    return g


@on_backend
def test_layernorm_gradient_against_differences(backend):
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2, 7))
    up = rng.normal(size=(2, 7))
    y, rstd = kernels.layernorm_lastaxis(x, 1e-5)
    gx = kernels.layernorm_lastaxis_grad(y, rstd, up)

    def loss_x(v):
        return float((kernels.layernorm_lastaxis(v, 1e-5)[0] * up).sum())

    assert np.allclose(gx, _numeric_grad(loss_x, x), atol=1e-7)


@on_backend
def test_layernorm_grad_from_output_equals_recomputed_formula_bitwise(backend):
    rng = np.random.default_rng(19)
    x = rng.normal(loc=2.0, scale=3.0, size=(3, 5, 16))
    g = rng.normal(size=x.shape)
    mean = x.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(((x - mean) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mean) * rstd
    recomputed = rstd * (g - g.mean(axis=-1, keepdims=True) - xhat * (g * xhat).mean(axis=-1, keepdims=True))
    y, r = kernels.layernorm_lastaxis(x, 1e-5)
    assert kernels.layernorm_lastaxis_grad(y, r, g).tobytes() == recomputed.tobytes()


@on_backend
def test_gelu_matches_closed_form(backend):
    x = np.linspace(-6, 6, 101)
    y, t = kernels.gelu(x)
    assert np.allclose(y, 0.5 * x * (1.0 + erf(x / np.sqrt(2.0))), atol=1e-14)
    assert np.array_equal(t, 1.0 + erf(x * 0.7071067811865476))


@on_backend
def test_gelu_gradient_against_differences(backend):
    rng = np.random.default_rng(17)
    x = rng.normal(scale=2.0, size=(40,))
    up = rng.normal(size=(40,))
    grad = kernels.gelu_grad(x, kernels.gelu(x)[1], up)
    numeric = _numeric_grad(lambda v: float((kernels.gelu(v)[0] * up).sum()), x)
    assert np.allclose(grad, numeric, atol=1e-8)


@on_backend
def test_gelu_grad_from_stored_t_equals_two_erf_formula_bitwise(backend):
    rng = np.random.default_rng(18)
    x = rng.normal(scale=3.0, size=(6, 50))
    g = rng.normal(size=(6, 50))
    cdf = 0.5 * (1.0 + erf(x * 0.7071067811865476))
    pdf = 0.3989422804014327 * np.exp(-0.5 * x * x)
    two_erf = g * (cdf + x * pdf)
    y, t = kernels.gelu(x)
    assert kernels.gelu_grad(x, t, g).tobytes() == two_erf.tobytes()
    assert y.tobytes() == (0.5 * x * (1.0 + erf(x * 0.7071067811865476))).tobytes()


@on_backend
def test_noncontiguous_inputs_accepted(backend):
    rng = np.random.default_rng(19)
    wide = rng.normal(size=(4, 20))
    view = wide[:, ::2]
    assert not view.flags["C_CONTIGUOUS"]
    y = kernels.softmax_lastaxis(view)
    assert np.allclose(y.sum(-1), 1.0, atol=1e-12)
    g, t = kernels.gelu(view)
    assert g.shape == t.shape == view.shape


@on_backend
@pytest.mark.parametrize("shape", [(3, 4, 25, 25), (5, 25, 128)])
def test_in_place_kernels_equal_their_out_of_place_formulas_bitwise(backend, shape):
    rng = np.random.default_rng(20)
    x = rng.normal(scale=4.0, size=shape)
    before = x.copy()
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    assert kernels.softmax_lastaxis(x).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
    t = 1.0 + erf(x * 0.7071067811865476)
    y, t_out = kernels.gelu(x)
    assert t_out.tobytes() == t.tobytes()
    assert y.tobytes() == (0.5 * x * t).tobytes()
    assert x.tobytes() == before.tobytes()


def _peak_allocated(fn, x):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(x)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@on_backend
def test_softmax_and_gelu_working_memory(backend):
    """Softmax holds at most the shifted logits and its output, plus per-row
    maxima and sums; GELU at most two arrays of its input's size at once (the
    scaled input and erf, then t and y). The attention and MLP shapes of a
    tile of images make these the peak of a forward, so the bounds keep it."""
    rng = np.random.default_rng(21)
    scores = rng.normal(size=(32, 4, 25, 25))
    probs, peak = _peak_allocated(kernels.softmax_lastaxis, scores)
    assert peak <= 2 * probs.nbytes + 2 * probs.nbytes // scores.shape[-1]
    (y, _), peak = _peak_allocated(kernels.gelu, rng.normal(size=(32, 25, 128)))
    assert peak <= 3 * y.nbytes


def _libc_has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


# Minor page faults of the third of three cycles that allocate and free 16
# arrays of 1 MiB, in a process that imports promptlab.
_HEAP_CYCLES = """
import resource
import numpy as np
import promptlab

for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 17) for _ in range(16)]
    del arrays
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_freed_arrays_keep_their_heap_pages():
    """Arrays freed and allocated again reuse their heap pages: without the
    package's heap setting glibc trims the freed 16 MiB and each cycle faults
    about 4000 pages back in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(promptlab.__file__).parents[1]), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", _HEAP_CYCLES], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(done.stdout) < 64
