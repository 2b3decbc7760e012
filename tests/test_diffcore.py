import threading
import zlib

import numpy as np
import pytest

import promptlab.diffcore as dc
from promptlab.diffcore import Tensor, finite_difference_check
from promptlab.errors import DegenerateInputError, DimensionError, EvaluationError

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
        "l2_normalize": (dc.l2_normalize, (arr,)),
        "log": (dc.log, (arr,)),
        "clamp_min": (dc.clamp_min, (arr, 0.0)),
        "tensor_sum": (dc.tensor_sum, (arr,)),
        "logsumexp": (dc.logsumexp, (arr,)),
        "take_diagonal": (dc.take_diagonal, (arr,)),
    }


_NON_OPS = {"Tensor", "GradCheckReport", "no_grad", "grad_enabled", "toposort",
            "finite_difference_check"}


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
# no_grad
# ---------------------------------------------------------------------------

def test_no_grad_results_record_no_graph():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with dc.no_grad():
        assert not dc.grad_enabled()
        h = dc.matmul(dc.reshape(x, (1, 2)), w)
        y = dc.tensor_sum(dc.gelu(h))
    for out in (h, y):
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward_fn is None
        assert out.grad is None
    assert dc.grad_enabled()


def test_no_grad_leaves_keep_grad_state():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    buffer = x.grad = np.array([5.0, 5.0])
    with dc.no_grad():
        dc.mul(x, x)
        leaf = Tensor(np.ones(2), requires_grad=True)
    assert x.requires_grad and x.grad is buffer
    assert np.array_equal(x.grad, [5.0, 5.0])
    assert leaf.requires_grad and leaf.grad is None


def test_no_grad_nests_and_restores_after_exception():
    x = Tensor(np.ones(2), requires_grad=True)
    with dc.no_grad():
        with dc.no_grad():
            assert not dc.grad_enabled()
        assert not dc.grad_enabled()
        assert not dc.scale(x, 2.0).requires_grad
    assert dc.grad_enabled()
    with pytest.raises(DimensionError):
        with dc.no_grad():
            Tensor(np.zeros(2)).item()
    assert dc.grad_enabled()
    assert dc.scale(x, 2.0).requires_grad


def test_backward_through_no_grad_result_leaves_leaf_grads_zero():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with dc.no_grad():
        y = dc.tensor_sum(dc.mul(x, x))
        h = dc.scale(x, 3.0)
    y.backward()
    assert x.grad is None
    # Used outside the block, a no_grad result is a constant.
    dc.tensor_sum(dc.mul(h, x)).backward()
    assert np.array_equal(x.grad, h.data)


def test_no_grad_is_per_thread():
    entered, checked = threading.Event(), threading.Event()
    seen = {}

    def evaluate():
        with dc.no_grad():
            entered.set()
            checked.wait(timeout=10)
            seen["thread"] = dc.scale(Tensor(np.ones(2), requires_grad=True), 2.0).requires_grad

    worker = threading.Thread(target=evaluate)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        x = Tensor(np.ones(2), requires_grad=True)
        out = dc.scale(x, 2.0)
        assert dc.grad_enabled()
        assert out.requires_grad and out._parents == (x,)
    finally:
        checked.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == {"thread": False}


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
