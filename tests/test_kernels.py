import numpy as np
import pytest
from scipy.special import erf

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
    ones, zeros = np.ones(16), np.zeros(16)
    y, mean, rstd = kernels.layernorm_lastaxis(x, ones, zeros, 0.0)
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-9)
    assert np.allclose(mean, x.mean(axis=-1), atol=1e-12)
    assert np.allclose(rstd, 1.0 / x.std(axis=-1), rtol=1e-9)


@on_backend
def test_layernorm_affine_applied(backend):
    rng = np.random.default_rng(15)
    x = rng.normal(size=(3, 8))
    gamma = rng.normal(size=8)
    beta = rng.normal(size=8)
    y, mean, rstd = kernels.layernorm_lastaxis(x, gamma, beta, 1e-5)
    xhat = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
    assert np.allclose(y, xhat * gamma + beta, atol=1e-12)


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
    gamma = rng.normal(size=7)
    beta = rng.normal(size=7)
    up = rng.normal(size=(2, 7))
    _, mean, rstd = kernels.layernorm_lastaxis(x, gamma, beta, 1e-5)
    gx, ggamma, gbeta = kernels.layernorm_lastaxis_grad(x, gamma, mean, rstd, up)

    def loss_x(v):
        return float((kernels.layernorm_lastaxis(v, gamma, beta, 1e-5)[0] * up).sum())

    def loss_gamma(v):
        return float((kernels.layernorm_lastaxis(x, v, beta, 1e-5)[0] * up).sum())

    def loss_beta(v):
        return float((kernels.layernorm_lastaxis(x, gamma, v, 1e-5)[0] * up).sum())

    assert np.allclose(gx, _numeric_grad(loss_x, x), atol=1e-7)
    assert np.allclose(ggamma, _numeric_grad(loss_gamma, gamma), atol=1e-7)
    assert np.allclose(gbeta, _numeric_grad(loss_beta, beta), atol=1e-7)


@on_backend
def test_gelu_matches_closed_form(backend):
    x = np.linspace(-6, 6, 101)
    expected = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    assert np.allclose(kernels.gelu(x), expected, atol=1e-14)


@on_backend
def test_gelu_gradient_against_differences(backend):
    rng = np.random.default_rng(17)
    x = rng.normal(scale=2.0, size=(40,))
    up = rng.normal(size=(40,))
    grad = kernels.gelu_grad(x, up)
    numeric = _numeric_grad(lambda v: float((kernels.gelu(v) * up).sum()), x)
    assert np.allclose(grad, numeric, atol=1e-8)


@on_backend
def test_noncontiguous_inputs_accepted(backend):
    rng = np.random.default_rng(19)
    wide = rng.normal(size=(4, 20))
    view = wide[:, ::2]
    assert not view.flags["C_CONTIGUOUS"]
    y = kernels.softmax_lastaxis(view)
    assert np.allclose(y.sum(-1), 1.0, atol=1e-12)
    g = kernels.gelu(view)
    assert g.shape == view.shape
