import ast
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import promptlab.diffcore as dc
from promptlab.diffcore import Tensor, finite_difference_check
from promptlab.encoder import EncoderConfig, EncoderState, PromptStack
from promptlab.errors import ConfigError, DegenerateInputError, DimensionError, EvaluationError
from promptlab.trainer import _forward_features

TRIALS = 100


def test_tensor_basics():
    t = Tensor(np.arange(6).reshape(2, 3))
    assert t.data.dtype == np.float64
    assert t.shape == (2, 3)
    assert t.size == 6
    assert t.grad is None
    assert not t.requires_grad

    p = Tensor(np.zeros((4,)), requires_grad=True)
    assert p.requires_grad
    assert p.grad is None


def test_item_requires_scalar():
    assert Tensor(np.array([3.5])).item() == 3.5
    with pytest.raises(DimensionError):
        Tensor(np.zeros(2)).item()


def test_backward_requires_scalar_root():
    p = Tensor(np.ones(3), requires_grad=True)
    y = dc.scale(p, 2.0)
    with pytest.raises(DimensionError):
        y.backward()


def test_fanout_accumulates_path_adjoints():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    # y = x*x + x, dy/dx = 2x + 1
    y = dc.tensor_sum(dc.add(dc.mul(x, x), x))
    y.backward()
    assert np.allclose(x.grad, [5.0, 7.0])


def test_shared_node_used_twice():
    x = Tensor(np.array([1.5]), requires_grad=True)
    h = dc.scale(x, 3.0)
    y = dc.tensor_sum(dc.add(h, h))
    y.backward()
    assert np.allclose(x.grad, [6.0])


def test_frozen_inputs_detach_graph():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = dc.matmul(a, b)
    assert not out.requires_grad
    assert out._parents == ()
    assert out._backward_fn is None
    assert out.grad is None


def test_forward_is_deterministic():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8)))
        h = dc.gelu(dc.matmul(x, w))
        return dc.softmax(h).data

    assert np.array_equal(run(), run())


def _numpy_operand_calls():
    """One call per op in ``dc.__all__``, each with a numpy array among its operands."""
    arr, t = np.ones((2, 2)), Tensor(np.ones((2, 2)))
    return {
        "add": (dc.add, (arr, t)),
        "sub": (dc.sub, (t, arr)),
        "mul": (dc.mul, (arr, t)),
        "scale": (dc.scale, (arr, 2.0)),
        "matmul": (dc.matmul, (t, arr)),
        "concat": (dc.concat, ([t, arr], 0)),
        "slice_axis": (dc.slice_axis, (arr, 0, 0, 1)),
        "reshape": (dc.reshape, (arr, (4,))),
        "swapaxes": (dc.swapaxes, (arr, 0, 1)),
        "broadcast_to": (dc.broadcast_to, (arr, (3, 2, 2))),
        "softmax": (dc.softmax, (arr,)),
        "layernorm": (dc.layernorm, (arr,)),
        "gelu": (dc.gelu, (arr,)),
        "attention": (dc.attention, (Tensor(np.ones((1, 2, 2))), t, t, arr, t, 1)),
        "mlp": (dc.mlp, (Tensor(np.ones((1, 2, 2))), arr, t)),
        "l2_normalize": (dc.l2_normalize, (arr,)),
        "log": (dc.log, (arr,)),
        "clamp_min": (dc.clamp_min, (arr, 0.0)),
        "tensor_sum": (dc.tensor_sum, (arr,)),
        "logsumexp": (dc.logsumexp, (arr,)),
        "take_diagonal": (dc.take_diagonal, (arr,)),
    }


_NON_OPS = {"Tensor", "GradCheckReport", "toposort", "finite_difference_check"}


def test_numpy_operand_cases_cover_every_op():
    assert set(_numpy_operand_calls()) == set(dc.__all__) - _NON_OPS


@pytest.mark.parametrize("name", sorted(_numpy_operand_calls()))
def test_ops_do_not_coerce_numpy_operands(name):
    op, args = _numpy_operand_calls()[name]
    with pytest.raises(TypeError, match=f"^{name} takes Tensor operands only, got ndarray$"):
        op(*args)


def test_matmul_hand_values():
    eye = Tensor(np.eye(2))
    assert np.array_equal(dc.matmul(eye, eye).data, np.eye(2))
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[1.0], [1.0]]))
    assert np.array_equal(dc.matmul(a, b).data, [[3.0], [7.0]])


def test_off_path_node_keeps_zero_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    dc.tensor_sum(dc.mul(x, x)).backward()
    assert unused.grad is None
    assert np.allclose(x.grad, 2 * np.ones(3))


def test_op_results_get_grad_buffers_from_backward():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    h = dc.mul(x, x)
    y = dc.tensor_sum(dc.scale(h, 3.0))
    assert h.requires_grad and y.requires_grad
    assert h.grad is None and y.grad is None
    y.backward()
    assert np.array_equal(y.grad, [1.0])
    assert np.allclose(h.grad, [3.0, 3.0])
    assert np.allclose(x.grad, [6.0, -12.0])


def test_shared_first_gradient_is_not_written_by_a_later_one():
    # add(h, k) hands h and k views of one array; h's second contribution
    # must make a new array rather than write into the one k holds.
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = dc.scale(x, 1.0)
    k = dc.scale(x, 1.0)
    s = dc.add(h, k)
    dc.tensor_sum(dc.add(s, h)).backward()
    assert np.array_equal(k.grad, [1.0, 1.0])
    assert np.array_equal(s.grad, [1.0, 1.0])
    assert np.array_equal(h.grad, [2.0, 2.0])
    assert np.array_equal(x.grad, [3.0, 3.0])


def test_second_backward_adds_exactly_one_more_gradient():
    x = Tensor(np.array([1.0]), requires_grad=True)
    h = dc.scale(dc.scale(x, 2.0), 3.0)
    y = dc.tensor_sum(h)
    y.backward()
    y.backward()
    assert np.array_equal(x.grad, [12.0])
    assert np.array_equal(h.grad, [1.0])


def test_roots_sharing_a_node_each_add_their_own_gradient():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = dc.scale(a, 2.0)
    dc.tensor_sum(dc.scale(b, 3.0)).backward()
    dc.tensor_sum(dc.scale(b, 5.0)).backward()
    assert np.array_equal(a.grad, [16.0])
    assert np.array_equal(b.grad, [5.0])


def test_leaf_root_sums_its_seed_like_any_leaf():
    x = Tensor(np.array([2.0]), requires_grad=True)
    x.backward()
    x.backward()
    assert np.array_equal(x.grad, [2.0])


def test_zero_grad_forgets_the_gradient():
    x = Tensor(np.array([1.0]), requires_grad=True)
    dc.tensor_sum(dc.scale(x, 2.0)).backward()
    x.zero_grad()
    assert x.grad is None
    dc.tensor_sum(dc.scale(x, 3.0)).backward()
    assert np.array_equal(x.grad, [3.0])


def test_swapaxes_hands_its_parent_a_contiguous_gradient():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    h = dc.scale(x, 1.0)
    w = Tensor(np.arange(6.0).reshape(3, 2))
    dc.tensor_sum(dc.mul(dc.swapaxes(h, 0, 1), w)).backward()
    assert h.grad.flags.c_contiguous
    assert np.array_equal(h.grad, w.data.T)


# ---------------------------------------------------------------------------
# graph-free passes: results record a graph exactly when an operand needs one
# ---------------------------------------------------------------------------

def test_no_grad_results_record_no_graph():
    x = Tensor(np.array([1.0, -2.0]))
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    h = dc.matmul(dc.reshape(x, (1, 2)), w.detach())
    y = dc.tensor_sum(dc.gelu(h))
    for out in (h, y):
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward_fn is None
        assert out.grad is None
    # One operand that requires a gradient is enough to record the graph.
    z = dc.matmul(h, w)
    assert z.requires_grad and z._parents == (h, w)


def test_no_grad_leaves_keep_grad_state():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    buffer = x.grad = np.array([5.0, 5.0])
    frozen = x.detach()
    dc.tensor_sum(dc.mul(frozen, frozen)).backward()
    leaf = Tensor(np.ones(2), requires_grad=True)
    dc.scale(leaf.detach(), 2.0)
    assert x.requires_grad and x.grad is buffer
    assert np.array_equal(x.grad, [5.0, 5.0])
    assert not frozen.requires_grad and frozen.grad is None
    assert not np.shares_memory(frozen.data, x.data)
    assert leaf.requires_grad and leaf.grad is None


def test_backward_through_no_grad_result_leaves_leaf_grads_zero():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    frozen = x.detach()
    y = dc.tensor_sum(dc.mul(frozen, frozen))
    h = dc.scale(frozen, 3.0)
    y.backward()
    assert x.grad is None
    # Next to the leaf, a result of its detached copy is a constant.
    dc.tensor_sum(dc.mul(h, x)).backward()
    assert np.array_equal(x.grad, h.data)


SMALL = EncoderConfig(depth=2, width=8, heads=2, patch_count=3, patch_dim=4, output_dim=4, seed=1)


def _small_state():
    stack = PromptStack.create("progressive", 2, SMALL.width, active_layers=(0, 1), alpha=0.25, seed=3)
    images = np.random.default_rng(5).normal(size=(3, SMALL.patch_count, SMALL.patch_dim))
    return EncoderState.create(SMALL, stack), images


def test_detached_stack_keeps_values_and_forwards_without_parents():
    state, images = _small_state()
    stack = state.prompt_stack
    copy = stack.detached()
    assert (copy.strategy, copy.length, copy.active_layers, copy.alpha) == (
        stack.strategy, stack.length, stack.active_layers, stack.alpha)
    assert [name for name, _ in copy.parameters()] == [name for name, _ in stack.parameters()]
    for (_, original), (_, detached) in zip(stack.parameters(), copy.parameters()):
        assert detached.data.tobytes() == original.data.tobytes()
        assert not detached.requires_grad and original.requires_grad
    out = EncoderState(SMALL, state.weights, copy).forward(images)
    assert not out.requires_grad and out._parents == () and out._backward_fn is None
    assert out.data.tobytes() == state.forward(images).data.tobytes()
    assert PromptStack.none().detached().prompts == {}


def test_forward_features_on_another_thread_keeps_the_training_graph():
    state, images = _small_state()
    prompts = [tensor for _, tensor in state.prompt_stack.parameters()]

    def training_pass(between=lambda: None):
        for tensor in prompts:
            tensor.zero_grad()
        feats = state.forward(images)
        assert feats.requires_grad and feats._parents
        between()
        dc.tensor_sum(feats).backward()
        return feats.data.tobytes(), [tensor.grad.tobytes() for tensor in prompts]

    reference = training_pass()
    passes, stop = [], threading.Event()

    def evaluate():
        while not stop.is_set():
            passes.append(_forward_features(state, images))

    def wait_for_two_more_passes():
        target = len(passes) + 2
        deadline = time.monotonic() + 10
        while len(passes) < target and time.monotonic() < deadline:
            time.sleep(0.001)
        assert len(passes) >= target

    worker = threading.Thread(target=evaluate)
    worker.start()
    try:
        for _ in range(3):
            assert training_pass(wait_for_two_more_passes) == reference
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert all(feats.tobytes() == reference[0] for feats in passes)


def test_matmul_shape_mismatch_reports_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(DimensionError) as err:
        dc.matmul(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_matmul_batch_mismatch_rejected():
    a = Tensor(np.zeros((2, 3, 4)))
    b = Tensor(np.zeros((5, 4, 3)))
    with pytest.raises(DimensionError):
        dc.matmul(a, b)


def test_l2_normalize_zero_vector_rejected():
    x = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateInputError):
        dc.l2_normalize(x)


def test_l2_normalize_unit_norm():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(5, 7)))
    y = dc.l2_normalize(x)
    assert np.allclose(np.linalg.norm(y.data, axis=-1), 1.0, atol=1e-12)


def test_concat_slice_roundtrip():
    rng = np.random.default_rng(4)
    parts = [Tensor(rng.normal(size=(2, k, 3))) for k in (1, 4, 2)]
    joined = dc.concat(parts, axis=1)
    assert joined.shape == (2, 7, 3)
    assert np.array_equal(dc.slice_axis(joined, 1, 1, 5).data, parts[1].data)


def test_reshape_is_a_view_with_exact_gradients():
    # reshape shares its input's memory, so its result and the input must
    # read the same values; the gradients through a chain of views, fanned
    # out with the input itself, still match central differences.
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    y = dc.reshape(dc.reshape(x, (2, 6)), (12,))
    assert np.shares_memory(y.data, x.data) and y.data.flags["C_CONTIGUOUS"]
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=(4, 3)))
    v = Tensor(rng.normal(size=(3, 4)))

    def f(t):
        folded = dc.reshape(dc.reshape(t, (2, 6)), (4, 3))
        return dc.add(dc.tensor_sum(dc.mul(folded, w)), dc.tensor_sum(dc.mul(dc.gelu(t), v)))

    report = finite_difference_check(f, rng.normal(size=(3, 4)), tolerance=1e-6)
    assert report.passed, str(report)


def test_clamp_min_masks_gradient():
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    y = dc.tensor_sum(dc.clamp_min(x, 0.0))
    y.backward()
    assert np.allclose(x.grad, [0.0, 1.0, 1.0])
    assert np.allclose(y.data, 2.5)


def test_logsumexp_matches_reference():
    rng = np.random.default_rng(5)
    x = rng.normal(scale=4.0, size=(6, 9))
    got = dc.logsumexp(Tensor(x)).data
    want = np.log(np.exp(x - x.max(-1, keepdims=True)).sum(-1)) + x.max(-1)
    assert np.allclose(got, want, atol=1e-12)


def test_take_diagonal_requires_square():
    with pytest.raises(DimensionError):
        dc.take_diagonal(Tensor(np.zeros((2, 3))))


@pytest.mark.filterwarnings("ignore:invalid value encountered in log")
def test_grad_check_rejects_nonfinite():
    def f(x):
        return dc.log(x)  # log of a negative leaf is nan

    with pytest.raises(EvaluationError):
        finite_difference_check(f, np.array([-1.0]))


def test_grad_check_rejects_vector_function():
    with pytest.raises(DimensionError):
        finite_difference_check(lambda x: dc.scale(x, 2.0), np.zeros(3))


def test_grad_check_reads_an_unreached_input_as_zero_gradient():
    c = Tensor(np.array([1.0, 2.0]))
    report = finite_difference_check(lambda x: dc.tensor_sum(c), np.array([0.5, -0.5]))
    assert report.passed
    assert np.array_equal(report.autodiff_grad, [0.0, 0.0])


def test_grad_check_flags_wrong_backward():
    def bad_double(x):
        def backward(g):
            return (3.0 * g,)  # deliberately wrong; true factor is 2

        return dc._from_op(x.data * 2.0, (x,), backward, "bad_double")

    report = finite_difference_check(
        lambda x: dc.tensor_sum(bad_double(x)), np.ones(4), tolerance=1e-6
    )
    assert not report.passed
    assert report.max_rel_error > 0.1
    assert "FAIL" in str(report)


def test_grad_check_report_format():
    report = finite_difference_check(
        lambda x: dc.tensor_sum(dc.mul(x, x)), np.arange(1.0, 4.0), tolerance=1e-6
    )
    assert report.passed
    assert "PASS" in str(report)
    assert report.autodiff_grad.shape == (3,)
    assert report.numeric_grad.shape == (3,)


# ---------------------------------------------------------------------------
# finite-difference property checks, one per primitive, many random trials
# ---------------------------------------------------------------------------

def _away_from(x, point, margin=0.2):
    x = x.copy()
    near = np.abs(x - point) < margin
    x[near] += 2 * margin
    return x


def _probe(rng, shape):
    return rng.normal(size=shape)


def _case_add(rng):
    c = Tensor(_probe(rng, (3, 4)))
    w = Tensor(_probe(rng, (3, 4)))
    return lambda x: dc.tensor_sum(dc.mul(dc.add(x, c), w)), _probe(rng, (3, 4))


def _case_add_broadcast(rng):
    c = Tensor(_probe(rng, (4,)))
    w = Tensor(_probe(rng, (3, 4)))
    return lambda x: dc.tensor_sum(dc.mul(dc.add(x, c), w)), _probe(rng, (3, 4))


def _case_sub(rng):
    c = Tensor(_probe(rng, (3, 4)))
    w = Tensor(_probe(rng, (3, 4)))
    return lambda x: dc.tensor_sum(dc.mul(dc.sub(c, x), w)), _probe(rng, (3, 4))


def _case_mul(rng):
    c = Tensor(_probe(rng, (3, 4)))
    return lambda x: dc.tensor_sum(dc.mul(x, dc.mul(x, c))), _probe(rng, (3, 4))


def _case_scale(rng):
    return lambda x: dc.tensor_sum(dc.scale(x, -2.75)), _probe(rng, (6,))


def _case_matmul_weight(rng):
    w = Tensor(_probe(rng, (4, 3)))
    s = Tensor(_probe(rng, (2, 3)))
    return lambda x: dc.tensor_sum(dc.mul(dc.matmul(x, w), s)), _probe(rng, (2, 4))


def _case_matmul_batched(rng):
    b = Tensor(_probe(rng, (2, 3, 2)))
    s = Tensor(_probe(rng, (2, 2, 2)))
    return lambda x: dc.tensor_sum(dc.mul(dc.matmul(x, b), s)), _probe(rng, (2, 2, 3))


def _case_concat(rng):
    other = Tensor(_probe(rng, (2, 3)))
    w = Tensor(_probe(rng, (2, 5)))
    return lambda x: dc.tensor_sum(dc.mul(dc.concat([x, other], axis=1), w)), _probe(rng, (2, 2))


def _case_concat_repeated(rng):
    w = Tensor(_probe(rng, (2, 4)))
    return lambda x: dc.tensor_sum(dc.mul(dc.concat([x, x], axis=1), w)), _probe(rng, (2, 2))


def _case_matmul_shared(rng):
    w = Tensor(_probe(rng, (3, 3)))
    return lambda x: dc.tensor_sum(dc.mul(dc.matmul(x, dc.scale(x, 0.5)), w)), _probe(rng, (3, 3))


def _case_slice(rng):
    w = Tensor(_probe(rng, (2, 2)))
    return lambda x: dc.tensor_sum(dc.mul(dc.slice_axis(x, 1, 1, 3), w)), _probe(rng, (2, 4))


def _case_reshape(rng):
    w = Tensor(_probe(rng, (6,)))
    return lambda x: dc.tensor_sum(dc.mul(dc.reshape(x, (6,)), w)), _probe(rng, (2, 3))


def _case_swapaxes(rng):
    w = Tensor(_probe(rng, (3, 2)))
    return lambda x: dc.tensor_sum(dc.mul(dc.swapaxes(x, 0, 1), w)), _probe(rng, (2, 3))


def _case_broadcast(rng):
    w = Tensor(_probe(rng, (4, 3)))
    return lambda x: dc.tensor_sum(dc.mul(dc.broadcast_to(x, (4, 3)), w)), _probe(rng, (1, 3))


def _case_softmax(rng):
    w = Tensor(_probe(rng, (3, 5)))
    return lambda x: dc.tensor_sum(dc.mul(dc.softmax(x), w)), _probe(rng, (3, 5))


def _case_layernorm(rng):
    w = Tensor(_probe(rng, (2, 6)))
    return lambda x: dc.tensor_sum(dc.mul(dc.layernorm(x), w)), _probe(rng, (2, 6))


def _case_gelu(rng):
    # beyond |x| ~ 4 the gelu tail gradient underflows past what central
    # differences can resolve, so probe the numerically meaningful range
    w = Tensor(_probe(rng, (8,)))
    return lambda x: dc.tensor_sum(dc.mul(dc.gelu(x), w)), np.clip(2.0 * _probe(rng, (8,)), -4, 4)


def _case_l2_normalize(rng):
    w = Tensor(_probe(rng, (3, 4)))
    x = _probe(rng, (3, 4)) + np.array([2.0, 0, 0, 0])
    return lambda x_: dc.tensor_sum(dc.mul(dc.l2_normalize(x_), w)), x


def _case_log(rng):
    w = Tensor(_probe(rng, (5,)))
    return lambda x: dc.tensor_sum(dc.mul(dc.log(x), w)), np.abs(_probe(rng, (5,))) + 0.5


def _case_clamp_min(rng):
    w = Tensor(_probe(rng, (8,)))
    return (
        lambda x: dc.tensor_sum(dc.mul(dc.clamp_min(x, 0.0), w)),
        _away_from(_probe(rng, (8,)), 0.0),
    )


def _case_sum_axis(rng):
    w = Tensor(_probe(rng, (4,)))
    return lambda x: dc.tensor_sum(dc.mul(dc.tensor_sum(x, axis=0), w)), _probe(rng, (3, 4))


def _case_logsumexp(rng):
    w = Tensor(_probe(rng, (3,)))
    return lambda x: dc.tensor_sum(dc.mul(dc.logsumexp(x), w)), _probe(rng, (3, 5))


def _case_take_diagonal(rng):
    w = Tensor(_probe(rng, (4,)))
    return lambda x: dc.tensor_sum(dc.mul(dc.take_diagonal(x), w)), _probe(rng, (4, 4))


PRIMITIVE_CASES = [
    _case_add,
    _case_add_broadcast,
    _case_sub,
    _case_mul,
    _case_scale,
    _case_matmul_weight,
    _case_matmul_batched,
    _case_matmul_shared,
    _case_concat,
    _case_concat_repeated,
    _case_slice,
    _case_reshape,
    _case_swapaxes,
    _case_broadcast,
    _case_softmax,
    _case_layernorm,
    _case_gelu,
    _case_l2_normalize,
    _case_log,
    _case_clamp_min,
    _case_sum_axis,
    _case_logsumexp,
    _case_take_diagonal,
]


@pytest.mark.parametrize("case", PRIMITIVE_CASES, ids=lambda c: c.__name__[6:])
def test_primitive_gradients_match_differences(case):
    # crc32, not hash(): string hashing is salted per process, and these
    # probes must be the same in every run. The tolerance allows for
    # gradient entries that land near zero, where the ~1e-12 absolute
    # noise of central differences dominates the relative error.
    rng = np.random.default_rng(zlib.crc32(case.__name__.encode()))
    worst = 0.0
    for _ in range(TRIALS):
        f, x = case(rng)
        report = finite_difference_check(f, x, tolerance=1e-5)
        worst = max(worst, report.max_rel_error)
        assert report.passed, f"{case.__name__}: {report}"
    assert worst <= 1e-5


def test_composite_network_gradient():
    rng = np.random.default_rng(100)
    w1 = Tensor(rng.normal(size=(5, 8)))
    w2 = Tensor(rng.normal(size=(8, 4)))
    target = Tensor(rng.normal(size=(2, 4)))

    def network(x):
        h = dc.gelu(dc.layernorm(dc.matmul(x, w1)))
        out = dc.softmax(dc.matmul(h, w2))
        diff = dc.sub(out, target)
        return dc.scale(dc.tensor_sum(dc.mul(diff, diff)), 1.0 / diff.size)

    report = finite_difference_check(network, rng.normal(size=(2, 5)), tolerance=1e-6)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# row-wise ops on some rows: the full op's bytes there, zeros elsewhere
# ---------------------------------------------------------------------------

ROW_OPS = {"softmax": dc.softmax, "layernorm": dc.layernorm, "gelu": dc.gelu}
# (start, stop) ranges along axis -2 of a (2, 3, 5, 4) input
ROW_RANGES = pytest.mark.parametrize("rows", [((1, 4),), ((0, 1), (3, 5)), ((2, 3),)],
                                     ids=["one-range", "two-ranges", "one-row"])


def _live(rows, n):
    live = np.zeros(n, dtype=bool)
    for start, stop in rows:
        live[start:stop] = True
    return live


@ROW_RANGES
@pytest.mark.parametrize("name", sorted(ROW_OPS))
def test_row_op_is_the_full_op_on_its_rows(name, rows):
    op = ROW_OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=True)
    live = _live(rows, 5)
    full, part = op(x), op(x, rows)
    assert part.shape == full.shape and part.requires_grad
    assert part.data[..., live, :].tobytes() == full.data[..., live, :].tobytes()
    assert part.data[..., ~live, :].tobytes() == np.zeros_like(part.data[..., ~live, :]).tobytes()

    # An upstream gradient that vanishes on the dead rows, as in an encoder
    # block whose dead rows nothing reads: the live rows' input gradients are
    # the full op's bytes, and the dead rows' are zero in both.
    up = rng.normal(size=x.shape)
    up[..., ~live, :] = 0.0
    grads = []
    for out in (full, part):
        x.zero_grad()
        dc.tensor_sum(dc.mul(out, Tensor(up))).backward()
        grads.append(x.grad)
    assert grads[1][..., live, :].tobytes() == grads[0][..., live, :].tobytes()
    assert not grads[0][..., ~live, :].any() and not grads[1][..., ~live, :].any()


@ROW_RANGES
@pytest.mark.parametrize("name", sorted(ROW_OPS))
def test_row_op_gradients_match_differences(name, rows):
    # the dead rows are constants, so their numeric gradient is zero too
    op = ROW_OPS[name]
    rng = np.random.default_rng(zlib.crc32(f"{name}{rows}".encode()))
    for _ in range(10):
        w = Tensor(_probe(rng, (2, 5, 4)))
        x = np.clip(2.0 * _probe(rng, (2, 5, 4)), -4, 4)
        report = finite_difference_check(lambda t: dc.tensor_sum(dc.mul(op(t, rows), w)), x, tolerance=1e-5)
        assert report.passed, str(report)
        assert not report.autodiff_grad[:, ~_live(rows, 5), :].any()


@pytest.mark.parametrize("rows", [(), ((2, 1),), ((0, 2), (1, 3)), ((0, 1), (1, 2)), ((0, 6),), ((-1, 2),)],
                         ids=["empty", "reversed", "overlapping", "adjacent", "past-the-end", "negative"])
@pytest.mark.parametrize("name", sorted(ROW_OPS))
def test_row_op_refuses_bad_rows(name, rows):
    with pytest.raises(DimensionError):
        ROW_OPS[name](Tensor(np.zeros((2, 5, 4))), rows)


# ---------------------------------------------------------------------------
# the fused block halves
# ---------------------------------------------------------------------------

def _block_weights(rng, width=4, hidden=8):
    """Frozen attention weights (wq, wk, wv, wo) and MLP weights (w1, w2)."""
    attn = [Tensor(_probe(rng, (width, width)) / 2) for _ in range(4)]
    return attn, [Tensor(_probe(rng, (width, hidden)) / 2), Tensor(_probe(rng, (hidden, width)) / 3)]


# (taken, live) of a (2, 5, 4) input: live counts along the taken rows
@pytest.mark.parametrize("taken, live", [
    (None, None), (None, ((0, 1), (3, 5))), (((0, 1), (2, 5)), None), (((1, 4),), ((1, 3),)),
], ids=["all", "live", "taken", "taken-live"])
def test_attention_gradients_match_differences(taken, live):
    rng = np.random.default_rng(zlib.crc32(f"attention{taken}{live}".encode()))
    rows = 5 if taken is None else sum(stop - start for start, stop in taken)
    for _ in range(10):
        attn, _ = _block_weights(rng)
        w = Tensor(_probe(rng, (2, rows, 4)))
        report = finite_difference_check(
            lambda t: dc.tensor_sum(dc.mul(dc.attention(t, *attn, 2, taken, live), w)),
            _probe(rng, (2, 5, 4)), tolerance=1e-5)
        assert report.passed, str(report)


@pytest.mark.parametrize("live", [None, ((1, 4),), ((0, 1), (3, 5))], ids=["all", "one-range", "two-ranges"])
def test_mlp_gradients_match_differences(live):
    rng = np.random.default_rng(zlib.crc32(f"mlp{live}".encode()))
    for _ in range(10):
        _, (w1, w2) = _block_weights(rng)
        w = Tensor(_probe(rng, (2, 5, 4)))
        report = finite_difference_check(
            lambda t: dc.tensor_sum(dc.mul(dc.mlp(t, w1, w2, live), w)),
            _probe(rng, (2, 5, 4)), tolerance=1e-5)
        assert report.passed, str(report)


def test_block_ops_refuse_trainable_weights_and_bad_shapes():
    rng = np.random.default_rng(3)
    (wq, wk, wv, wo), (w1, w2) = _block_weights(rng)
    x = Tensor(_probe(rng, (2, 5, 4)), requires_grad=True)
    trainable = Tensor(wv.data, requires_grad=True)
    with pytest.raises(ConfigError, match="^attention takes frozen weights only"):
        dc.attention(x, wq, wk, trainable, wo, 2)
    with pytest.raises(ConfigError, match="^mlp takes frozen weights only"):
        dc.mlp(x, w1, Tensor(w2.data, requires_grad=True))
    for bad in (lambda: dc.attention(x, wq, wk, wv, wo, 3),
                lambda: dc.attention(x, wq, wk, wv, w1, 2),
                lambda: dc.attention(Tensor(x.data[0]), wq, wk, wv, wo, 2),
                lambda: dc.attention(x, wq, wk, wv, wo, 2, taken=((0, 6),)),
                lambda: dc.attention(x, wq, wk, wv, wo, 2, taken=((0, 2),), live=((1, 3),)),
                lambda: dc.mlp(x, w1, w1),
                lambda: dc.mlp(x, w1, w2, live=((3, 2),))):
        with pytest.raises(DimensionError):
            bad()


# ---------------------------------------------------------------------------
# one writer of tensor values
# ---------------------------------------------------------------------------

def _data_targets(target):
    """The parts of an assignment target that store into some `x.data` or a subscript of it."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _data_targets(element)
    elif isinstance(target, ast.Starred):
        yield from _data_targets(target.value)
    else:
        root = target
        while isinstance(root, ast.Subscript):
            root = root.value
        if isinstance(root, ast.Attribute) and root.attr == "data":
            yield target


class _DataWrites(ast.NodeVisitor):
    """Collects (module.Class.function, kind, line) of every assignment into `.data`.

    `kind` is "bind" for a plain `x.data = ...` and "write" for a subscript
    store or an augmented assignment, which change the values in place.
    """

    def __init__(self, module):
        self.scope = [module]
        self.found = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def _store(self, node, targets):
        for target in targets:
            for hit in _data_targets(target):
                bind = isinstance(node, ast.Assign) and isinstance(hit, ast.Attribute)
                self.found.append((".".join(self.scope), "bind" if bind else "write", node.lineno))
        self.generic_visit(node)

    def visit_Assign(self, node):
        self._store(node, node.targets)

    def visit_AugAssign(self, node):
        self._store(node, [node.target])

    def visit_AnnAssign(self, node):
        self._store(node, [node.target])


def test_only_the_optimizer_step_writes_tensor_values():
    # Tensor.__init__ binds a tensor's array; after that only SGD.step may
    # change the values a graph was built from.
    found = []
    for path in sorted(Path(dc.__file__).parent.glob("*.py")):
        visitor = _DataWrites(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found.extend(visitor.found)
    assert {(where, kind) for where, kind, _ in found} == {
        ("diffcore.Tensor.__init__", "bind"),
        ("trainer.SGD.step", "write"),
    }, found


def test_data_write_scan_sees_every_store_form():
    source = (
        "class T:\n"
        "    def f(self, t, u):\n"
        "        t.data[...] = 0\n"
        "        t.data -= 1\n"
        "        a, u.data[0][1] = 1, 2\n"
        "        t.data = u.data\n"
        "        t.grad = t.data[0]\n"
    )
    visitor = _DataWrites("m")
    visitor.visit(ast.parse(source))
    assert visitor.found == [("m.T.f", "write", 3), ("m.T.f", "write", 4),
                             ("m.T.f", "write", 5), ("m.T.f", "bind", 6)]
