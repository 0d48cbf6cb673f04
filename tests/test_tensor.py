"""Tensor ops and reverse-mode gradients checked against finite differences."""

import weakref

import numpy as np
import pytest

from gradcheck import finite_diff_grad, max_rel_err
from pspt import tensor as T
from pspt.errors import ContractError, NumericError, ShapeError
from pspt.optim import Adam, clip_global_norm


class TestMatmul:
    def test_identity(self):
        x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = T.Tensor(np.eye(2, dtype=np.float32))
        np.testing.assert_array_equal(T.matmul(eye, x).data, x.data)

    def test_zero(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        z = T.Tensor([[0.0], [0.0]])
        np.testing.assert_array_equal(T.matmul(a, z).data, np.zeros((2, 1), dtype=np.float32))

    def test_shape_mismatch_names_both_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(a, b)

    def test_gradient_matches_finite_differences(self):
        rng = T.make_rng(7)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))

        def objective(params):
            a = T.Tensor(params[0], requires_grad=True)
            b = T.Tensor(params[1])
            return T.tsum(T.matmul(a, b)).item()

        fd = finite_diff_grad(objective, [a0.copy(), b0.copy()], eps=1e-5)
        a = T.Tensor(a0, requires_grad=True)
        out = T.tsum(T.matmul(a, T.Tensor(b0)))
        T.backward(out)
        assert max_rel_err(a.grad, fd[0]) < 1e-6


class TestLogSoftmax:
    def test_uniform_row(self):
        x = T.Tensor([[3.0, 3.0, 3.0, 3.0]])
        out = T.log_softmax_rows(x)
        np.testing.assert_allclose(out.data, np.log(0.25), atol=1e-6)

    def test_extreme_values_do_not_overflow(self):
        big = 1e4
        out = T.log_softmax_rows(T.Tensor(np.array([[big, -big]], dtype=np.float64)))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data[0], [0.0, -2 * big], atol=1e-6)

    def test_rows_normalize(self):
        rng = T.make_rng(11)
        x = T.Tensor(rng.normal(size=(2, 8)) * 3)
        out = T.log_softmax_rows(x)
        sums = np.exp(out.data.astype(np.float64)).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            T.log_softmax_rows(T.Tensor(np.array([[1.0, np.nan]])))

    def test_gradient_matches_finite_differences(self):
        rng = T.make_rng(13)
        x0 = rng.normal(size=(3, 5))
        w0 = rng.normal(size=(5,))

        def objective(params):
            x = T.Tensor(params[0], requires_grad=True)
            weighted = T.mul(T.log_softmax_rows(x), T.Tensor(w0))
            return T.tsum(weighted).item()

        fd = finite_diff_grad(objective, [x0.copy()], eps=1e-5)
        x = T.Tensor(x0, requires_grad=True)
        T.backward(T.tsum(T.mul(T.log_softmax_rows(x), T.Tensor(w0))))
        assert max_rel_err(x.grad, fd[0]) < 1e-6


class TestLayerNorm:
    def test_constant_input_maps_to_zero(self):
        x = T.Tensor(np.full((1, 6), 2.5))
        out = T.layer_norm(x, T.Tensor(np.ones(6)), T.Tensor(np.zeros(6)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-5)

    def test_already_normalized_passthrough(self):
        x = T.Tensor(np.array([[1.0, -1.0]], dtype=np.float64))
        out = T.layer_norm(x, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_output_moments(self):
        rng = T.make_rng(17)
        x = T.Tensor(rng.normal(size=(4, 32)) * 5 + 1)
        out = T.layer_norm(x, T.Tensor(np.ones(32)), T.Tensor(np.zeros(32))).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_zero_width_rejected(self):
        with pytest.raises(ShapeError):
            T.layer_norm(T.Tensor(np.zeros((2, 0))), T.Tensor(np.ones(0)), T.Tensor(np.zeros(0)))

    def test_gradient_matches_finite_differences(self):
        rng = T.make_rng(19)
        x0 = rng.normal(size=(3, 8))
        g0 = rng.normal(size=(8,))
        b0 = rng.normal(size=(8,))
        w0 = rng.normal(size=(3, 8))

        def objective(params):
            x = T.Tensor(params[0], requires_grad=True)
            gamma = T.Tensor(params[1], requires_grad=True)
            beta = T.Tensor(params[2], requires_grad=True)
            return T.tsum(T.mul(T.layer_norm(x, gamma, beta), T.Tensor(w0))).item()

        fd = finite_diff_grad(objective, [x0.copy(), g0.copy(), b0.copy()], eps=1e-5)
        x = T.Tensor(x0, requires_grad=True)
        gamma = T.Tensor(g0, requires_grad=True)
        beta = T.Tensor(b0, requires_grad=True)
        T.backward(T.tsum(T.mul(T.layer_norm(x, gamma, beta), T.Tensor(w0))))
        assert max_rel_err(x.grad, fd[0]) < 1e-5
        assert max_rel_err(gamma.grad, fd[1]) < 1e-5
        assert max_rel_err(beta.grad, fd[2]) < 1e-5


class TestBackward:
    def test_sum_gives_ones(self):
        x = T.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        T.backward(T.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3), dtype=np.float32))

    def test_detached_leaf_gets_no_gradient(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        y = T.Tensor(np.ones((2, 2)), requires_grad=True)
        T.backward(T.tsum(y))
        assert x.grad is None  # zero contribution: nothing flowed into x

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.add(x, x))

    def test_no_gradient_leakage_into_frozen_tensors(self):
        frozen = T.Tensor(np.ones((3, 3)))
        live = T.Tensor(np.ones((3, 3)), requires_grad=True)
        out = T.tsum(T.matmul(frozen, live))
        T.backward(out)
        assert frozen.grad is None
        assert live.grad is not None

    def test_shared_subgraph_accumulates(self):
        # loss = sum(x@w) + sum(x@w) must double the gradient of a single use
        rng = T.make_rng(23)
        x = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(3, 2)))
        prod = T.matmul(x, w)
        T.backward(T.add(T.tsum(prod), T.tsum(prod)))
        single = T.Tensor(x.data, requires_grad=True)
        T.backward(T.tsum(T.matmul(single, w)))
        np.testing.assert_allclose(x.grad, 2 * single.grad, rtol=1e-6)

    def test_second_pass_on_one_graph_doubles_the_leaf_gradient(self):
        x = T.Tensor(np.array([1.0, -2.0, 0.5], dtype=np.float32), requires_grad=True)
        loss = T.tsum(T.mul(T.mul(x, 2.0), 3.0))
        T.backward(loss)
        once = x.grad
        T.backward(loss)
        np.testing.assert_array_equal(once, np.full(3, 6.0, dtype=np.float32))
        np.testing.assert_array_equal(x.grad, 2 * once)

    def test_only_leaves_keep_a_gradient(self):
        rng = T.make_rng(31)
        x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        frozen = T.Tensor(rng.normal(size=(3, 2)))
        h = T.matmul(x, w)
        a = T.add(h, frozen)
        s = T.log_softmax_rows(T.relu(a))
        loss = T.tsum(T.mul(s, a))
        T.backward(loss)
        assert x.grad is not None and w.grad is not None and frozen.grad is None
        assert all(t.grad is None for t in (h, a, s, loss))

    def test_first_gradient_is_cast_to_the_leaf_dtype(self):
        x = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        T._accumulate(x, np.full(3, 0.1, dtype=np.float64))
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.full(3, 0.1, dtype=np.float32))

    def test_first_gradient_of_the_leaf_dtype_is_kept_uncopied(self):
        x = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        g = np.full(3, 0.5, dtype=np.float32)
        T._accumulate(x, g)
        assert x.grad is g

    def test_leaves_sharing_one_gradient_buffer_are_clipped_and_stepped_once_each(self):
        """add() hands one array to both operands: clipping must scale each
        leaf's gradient once, and neither clipping nor Adam may write into it."""
        a = T.Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        b = T.Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        c = T.add(a, b)
        T.backward(T.tsum(T.mul(c, T.Tensor(np.arange(1.0, 5.0, dtype=np.float32)))))
        assert a.grad is b.grad  # the aliasing under test
        shared = a.grad
        before = shared.copy()
        norm = clip_global_norm([a, b], 1.0)
        assert norm == pytest.approx(np.sqrt(2 * 30.0))
        scale = np.float32(1.0 / (norm + 1e-12))
        np.testing.assert_array_equal(a.grad, before * scale)
        np.testing.assert_array_equal(b.grad, before * scale)
        np.testing.assert_array_equal(shared, before)
        clipped = a.grad.copy(), b.grad.copy()
        Adam([([a, b], 0.1)]).step()
        np.testing.assert_array_equal(a.grad, clipped[0])
        np.testing.assert_array_equal(b.grad, clipped[1])
        np.testing.assert_array_equal(shared, before)
        np.testing.assert_allclose(a.data, b.data)
        assert np.all(a.data < 0)

    # case: (the op whose result is dropped, the rest of the graph), which never reads that result
    NOT_READ = {
        "matmul-result-into-add": (lambda x, w: T.matmul(x, w), lambda mid, w: T.add(mid, 1.0)),
        "frozen-weight-matmul-input": (lambda x, w: T.add(x, 1.0), lambda mid, w: T.matmul(mid, w)),
        "input-of-mul-by-a-constant": (lambda x, w: T.add(x, 1.0), lambda mid, w: T.mul(mid, 3.0)),
    }

    @pytest.mark.parametrize("case", NOT_READ)
    def test_a_buffer_no_backward_reads_is_freed_with_its_tensor(self, case):
        first, rest = self.NOT_READ[case]
        rng = T.make_rng(37)
        x0, w0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))

        def x_grad(drop):
            x = T.Tensor(x0, requires_grad=True)
            w = T.Tensor(w0, requires_grad=case == "matmul-result-into-add")
            mid = first(x, w)
            loss = T.tsum(rest(mid, w))
            buffer = weakref.ref(mid.data)
            if drop:
                del mid
            assert (buffer() is None) == drop
            T.backward(loss)
            return x.grad

        np.testing.assert_array_equal(x_grad(drop=True), x_grad(drop=False))

    def test_composed_graph_matches_finite_differences(self):
        rng = T.make_rng(29)
        x0 = rng.normal(size=(4, 6))
        w0 = rng.normal(size=(6, 5))
        g0 = np.ones(5)
        b0 = np.zeros(5)

        def build(params):
            x = T.Tensor(params[0], requires_grad=True)
            h = T.relu(T.matmul(x, T.Tensor(w0)))
            h = T.layer_norm(h, T.Tensor(g0), T.Tensor(b0))
            return x, T.tsum(T.log_softmax_rows(h))

        fd = finite_diff_grad(lambda p: build(p)[1].item(), [x0.copy()], eps=1e-5)
        x, loss = build([x0])
        T.backward(loss)
        assert max_rel_err(x.grad, fd[0]) < 1e-4


class TestGatherAndConcat:
    def test_gather_rows_scatter_adds_repeated_ids(self):
        table = T.Tensor(np.arange(12, dtype=np.float64).reshape(4, 3), requires_grad=True)
        out = T.gather_rows(table, [1, 1, 3])
        T.backward(T.tsum(out))
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_take_entries_values_and_gradient(self):
        x = T.Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
        picked = T.take_entries(x, [0, 2, 2], [1, 3, 3])
        np.testing.assert_array_equal(picked.data, [1.0, 11.0, 11.0])
        T.backward(T.tsum(picked))
        expected = np.zeros((3, 4))
        expected[0, 1] = 1.0
        expected[2, 3] = 2.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_concat_rows_roundtrip_gradient(self):
        a = T.Tensor(np.ones((2, 3)), requires_grad=True)
        b = T.Tensor(np.ones((1, 3)), requires_grad=True)
        out = T.concat_rows([a, b])
        assert out.shape == (3, 3)
        T.backward(T.tsum(T.mul(out, T.Tensor(np.arange(9.0).reshape(3, 3)))))
        np.testing.assert_array_equal(a.grad, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(b.grad, np.arange(6.0, 9.0).reshape(1, 3))

    def test_slice_concat_cols_inverse(self):
        rng = T.make_rng(31)
        x = T.Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        parts = [T.slice_cols(x, i, i + 2) for i in range(0, 8, 2)]
        out = T.concat_cols(parts)
        np.testing.assert_array_equal(out.data, x.data)
        T.backward(T.tsum(out))
        np.testing.assert_array_equal(x.grad, np.ones((3, 8)))

    def test_concat_cols_of_different_row_counts_is_a_shape_error(self):
        with pytest.raises(ShapeError, match=r"concat_cols.*\(2, 3\).*\(3, 3\)"):
            T.concat_cols([T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 3)))])

    @pytest.mark.parametrize("join", [T.concat_rows, T.concat_cols])
    def test_joining_no_parts_is_a_contract_error(self, join):
        with pytest.raises(ContractError, match=join.__name__):
            join([])

    def test_slice_cols_returns_a_copy(self):
        x = T.Tensor(np.arange(12.0).reshape(3, 4))
        out = T.slice_cols(x, 1, 3)
        assert not np.shares_memory(out.data, x.data)
        out.data[:] = -1.0
        np.testing.assert_array_equal(x.data, np.arange(12.0).reshape(3, 4))


class TestFiniteDiff:
    def test_square_function(self):
        grad = finite_diff_grad(lambda p: float(p[0][0] ** 2), [np.array([3.0])], eps=1e-5)
        np.testing.assert_allclose(grad[0], [6.0], atol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda p: 1.25, [np.zeros(4)], eps=1e-4)
        np.testing.assert_array_equal(grad[0], np.zeros(4))

    # at 0.0909 the kink's second difference, like curvature's, shrinks 100-fold from
    # eps to eps / 10, but the central differences at the two steps disagree
    @pytest.mark.parametrize("offset", [0.3, -0.3, 0.95, -0.95, 0.05, 0.0909, -0.0909])
    def test_relu_kink_within_eps_matches_analytic_gradient(self, offset):
        # relu(x - c) has its kink `offset` steps from x; the central difference
        # at eps straddles it and must be re-checked at a smaller step
        eps = 1e-5
        x = np.array([0.7, -1.2, 2.0])
        c = x + offset * eps * np.array([1.0, 1.0, 1e5])  # the last kink is far away
        w = np.array([1.5, -2.0, 0.5])

        def f(p):
            return float(np.sum(w * np.maximum(p[0] - c, 0.0)))

        grad = finite_diff_grad(f, [x.copy()], eps=eps)
        np.testing.assert_allclose(grad[0], w * (x > c), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("x", [1e-5, 1e-4, 0.3])
    def test_curvature_beside_a_small_gradient_keeps_the_full_step(self, x):
        # 1 + x²/2 has gradient x; at x = 1e-5 its second difference is large
        # beside its first differences, yet it is curvature, not a kink, and
        # steps of 1e-6 or 1e-7 would only add the rounding error of f ~ 1
        grad = finite_diff_grad(lambda p: float(1 + p[0][0] ** 2 / 2), [np.array([x])],
                                eps=1e-5)
        np.testing.assert_allclose(grad[0], [x], rtol=1e-6, atol=0)

    def test_eps_bounds_enforced(self):
        with pytest.raises(ContractError):
            finite_diff_grad(lambda p: 0.0, [np.zeros(1)], eps=1e-2)

    def test_non_finite_objective_rejected(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda p: float("nan"), [np.zeros(1)])


class TestDeterminismAndDtype:
    def test_seeded_rng_reproducible(self):
        a = T.make_rng(42, 7).normal(size=100)
        b = T.make_rng(42, 7).normal(size=100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = T.make_rng(42, 1).normal(size=10)
        b = T.make_rng(42, 2).normal(size=10)
        assert not np.array_equal(a, b)

    def test_python_lists_default_to_float32(self):
        assert T.Tensor([1.0, 2.0]).dtype == np.float32

    def test_float64_arrays_are_preserved(self):
        x = T.Tensor(np.zeros(3, dtype=np.float64))
        assert x.dtype == np.float64
        y = T.add(x, T.Tensor(np.ones(3, dtype=np.float64)))
        assert y.dtype == np.float64

    def test_astype_roundtrip(self):
        x = T.Tensor([1.5, 2.5], requires_grad=True)
        y = x.astype(np.float64)
        assert y.dtype == np.float64 and not y.requires_grad


def check_gradients(build, arrays, tol=1e-6):
    """Backward through build(tensors) -> scalar matches float64 central differences."""
    fd = finite_diff_grad(lambda p: build([T.Tensor(a) for a in p]).item(),
                          [a.copy() for a in arrays], eps=1e-5)
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    T.backward(build(tensors))
    for t, grad in zip(tensors, fd):
        assert t.grad is not None and t.grad.shape == t.shape
        assert max_rel_err(t.grad, grad) < tol


def weighted(out, seed=0):
    """Scalar sum(out * W) for a fixed random W, so every entry matters."""
    w = T.make_rng(seed, 1).normal(size=out.shape)
    return T.tsum(T.mul(out, T.Tensor(w)))


def per_block_attention(q, k, v, sizes, parents, scale=1.0, q_rows=None):
    """Reference for T.block_attention: the same op computed one block at a
    time, each block's queries against the key rows of its own chain."""
    n_keys = k.shape[-2]
    q_rows = np.arange(n_keys) if q_rows is None else np.asarray(q_rows, dtype=np.int64)
    starts = np.cumsum([0, *sizes])
    held = np.searchsorted(q_rows, starts)
    out = np.empty_like(q.data)
    saved = []
    chains = []
    for j, (n, parent) in enumerate(zip(sizes, parents)):
        lo = starts[j]
        keys = (chains[parent] if parent >= 0 else []) + [slice(lo, lo + n)]
        chains.append(keys)
        mine = slice(held[j], held[j + 1])
        if mine.start == mine.stop:
            continue
        kc = np.concatenate([k.data[..., s, :] for s in keys], axis=-2)
        vc = np.concatenate([v.data[..., s, :] for s in keys], axis=-2)
        w = q.data[..., mine, :] @ np.swapaxes(kc, -1, -2)
        w *= scale
        w[..., kc.shape[-2] - n:] += np.where(np.arange(lo, lo + n) > q_rows[mine, None],
                                              q.dtype.type(-1e9), q.dtype.type(0))
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        out[..., mine, :] = w @ vc
        saved.append((mine, keys, kc, vc, w))

    def backward(g):
        dq, dk, dv = (np.zeros_like(t.data) if t.requires_grad else None for t in (q, k, v))
        for mine, keys, kc, vc, w in saved:
            g_mine = g[..., mine, :]
            dw = g_mine @ np.swapaxes(vc, -1, -2)
            ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * scale
            if dq is not None:
                dq[..., mine, :] = ds @ kc
            if dk is not None:
                T._add_rows(dk, keys, np.swapaxes(ds, -1, -2) @ q.data[..., mine, :])
            if dv is not None:
                T._add_rows(dv, keys, np.swapaxes(w, -1, -2) @ g_mine)
        for t, d in ((q, dq), (k, dk), (v, dv)):
            if d is not None:
                T._accumulate(t, d)

    return T._make(out, (q, k, v), backward)


class TestBatchedOpsGradients:
    """Finite-difference checks of the N-D generalizations and the new ops."""

    rng = T.make_rng(41)

    def arrays(self, *shapes):
        return [self.rng.normal(size=s) for s in shapes]

    @pytest.mark.parametrize("sa, sb", [((2, 3, 4), (2, 4, 5)), ((2, 3, 4), (4, 5)),
                                        ((3, 4), (2, 4, 5)), ((2, 1, 3, 4), (3, 4, 2))])
    def test_matmul_batch_axes(self, sa, sb):
        check_gradients(lambda t: weighted(T.matmul(t[0], t[1])), self.arrays(sa, sb))

    def test_matmul_batch_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="batch"):
            T.matmul(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((3, 4, 5))))

    @pytest.mark.parametrize("op", [T.softmax_rows, T.log_softmax_rows])
    def test_softmaxes_over_last_axis(self, op):
        check_gradients(lambda t: weighted(op(t[0])), self.arrays((2, 3, 5)))

    def test_layer_norm_over_last_axis(self):
        check_gradients(lambda t: weighted(T.layer_norm(t[0], t[1], t[2])),
                        self.arrays((2, 3, 6), (6,), (6,)), tol=1e-5)

    def test_reshape_and_permute(self):
        def build(t):
            return weighted(T.permute(T.reshape(t[0], (6, 2, 2)), (1, 0, 2)))

        check_gradients(build, self.arrays((6, 4)))

    def test_transpose_swaps_last_two_axes(self):
        x = T.Tensor(np.arange(24.0).reshape(2, 3, 4))
        np.testing.assert_array_equal(T.transpose(x).data, x.data.transpose(0, 2, 1))
        check_gradients(lambda t: weighted(T.transpose(t[0])), self.arrays((2, 3, 4)))

    def test_tsum_over_one_axis(self):
        check_gradients(lambda t: weighted(T.tsum(t[0], axis=1)), self.arrays((3, 4, 2)))

    def test_take_entries_with_index_grid(self):
        rows, cols = [[0, 1], [2, 2]], [[3, 0], [1, 1]]
        x = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(T.take_entries(T.Tensor(x), rows, cols).data,
                                      [[3.0, 4.0], [9.0, 9.0]])
        check_gradients(lambda t: weighted(T.take_entries(t[0], rows, cols)), [x])

    @pytest.mark.parametrize("sizes, prefix", [([3, 2, 4], 3), ([2, 3], 0), ([5], 0)])
    def test_block_attention(self, sizes, prefix):
        # a prefix of `prefix` rows is block 0, and every later block continues it
        parents = [-1] + [0 if prefix else -1] * (len(sizes) - 1)
        shape = (2, sum(sizes), 3)

        def build(t):
            return weighted(T.block_attention(t[0], t[1], t[2], sizes, parents, scale=0.6))

        check_gradients(build, self.arrays(shape, shape, shape), tol=1e-5)

    def test_block_attention_matches_masked_full_attention(self):
        """Each segment's output equals plain causal attention over prefix + segment."""
        self.check_masked_full_attention([3, 2, 4], [-1, 0, 0])

    # a prefix; a passage that continues it; two questions of unequal length
    # that continue the passage; a segment that continues only the prefix
    TREE = ([3, 4, 2, 3, 2], [-1, 0, 1, 1, 0])

    def test_block_attention_tree(self):
        sizes, parents = self.TREE
        shape = (2, sum(sizes), 3)

        def build(t):
            return weighted(T.block_attention(t[0], t[1], t[2], sizes, parents, scale=0.6))

        check_gradients(build, self.arrays(shape, shape, shape), tol=1e-5)

    def test_block_attention_tree_matches_masked_full_attention(self):
        """Each block's output equals plain causal attention over its
        ancestors' rows, root first, and its own."""
        self.check_masked_full_attention(*self.TREE)

    def check_masked_full_attention(self, sizes, parents):
        q, k, v = self.arrays(*[(2, sum(sizes), 3)] * 3)
        got = T.block_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), sizes, parents, 0.6).data
        starts = np.cumsum([0, *sizes])
        for j, n in enumerate(sizes):
            rows, a = [], j
            while a >= 0:  # the ancestor chain, root first, then block j
                rows = list(range(starts[a], starts[a] + sizes[a])) + rows
                a = parents[a]
            qs, ks, vs = q[:, rows], k[:, rows], v[:, rows]
            scores = qs @ ks.transpose(0, 2, 1) * 0.6
            scores[:, np.triu_indices(len(rows), 1)[0], np.triu_indices(len(rows), 1)[1]] = -np.inf
            w = np.exp(scores - scores.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            lo = starts[j]
            np.testing.assert_allclose(got[:, lo:lo + n], (w @ vs)[:, len(rows) - n:], atol=1e-12)

    @pytest.mark.parametrize("parents", [[-1, 0], [-1, 1, 0], [-1, -2, 0], [0, -1, 0]],
                             ids=["too-few", "self", "below-minus-one", "later-block"])
    def test_block_attention_rejects_parents_that_are_not_earlier_blocks(self, parents):
        t = T.Tensor(np.zeros((1, 6, 2)))
        with pytest.raises(ShapeError, match="tree"):
            T.block_attention(t, t, t, [2, 2, 2], parents)

    # TREE row subsets: one query row or more in every block, and one that
    # leaves blocks 1 (which blocks 2 and 3 continue) and 4 unqueried
    SUBSETS = {"every-block": [0, 4, 6, 7, 11, 12], "blocks-unqueried": [2, 8, 10, 11]}

    @pytest.mark.parametrize("rows", SUBSETS.values(), ids=SUBSETS.keys())
    def test_block_attention_query_row_subset(self, rows):
        sizes, parents = self.TREE
        shape = (2, sum(sizes), 3)

        def build(t):
            return weighted(T.block_attention(t[0], t[1], t[2], sizes, parents, 0.6, rows))

        check_gradients(build, self.arrays((2, len(rows), 3), shape, shape), tol=1e-5)

    @pytest.mark.parametrize("rows", SUBSETS.values(), ids=SUBSETS.keys())
    def test_block_attention_query_rows_equal_all_rows_at_them(self, rows):
        """Outputs and the gradients of q, k and v equal the all-rows
        result's, taken at the query rows (zero weight elsewhere)."""
        sizes, parents = self.TREE
        q, k, v = self.arrays(*[(2, sum(sizes), 3)] * 3)
        w = self.rng.normal(size=q.shape)
        w_full = np.zeros_like(w)
        w_full[:, rows] = w[:, rows]

        def run(q_part, q_rows, weights):
            ts = [T.Tensor(a, requires_grad=True) for a in (q_part, k, v)]
            out = T.block_attention(*ts, sizes, parents, 0.6, q_rows)
            T.backward(T.tsum(T.mul(out, T.Tensor(weights))))
            return out.data, *(t.grad for t in ts)

        out, dq, dk, dv = run(q[:, rows], rows, w[:, rows])
        full, dq_full, dk_full, dv_full = run(q, None, w_full)
        np.testing.assert_allclose(out, full[:, rows], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dq, dq_full[:, rows], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dk, dk_full, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dv, dv_full, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [[3, 1], [1, 1], [-1, 2], [2, 6], [1]],
                             ids=["unsorted", "repeated", "negative", "past-the-end", "too-few"])
    def test_block_attention_rejects_bad_query_rows(self, rows):
        q, kv = T.Tensor(np.zeros((1, 2, 2))), T.Tensor(np.zeros((1, 6, 2)))
        with pytest.raises(ShapeError, match="query rows"):
            T.block_attention(q, kv, kv, [2, 2, 2], [-1, 0, 0], q_rows=rows)

    def test_block_attention_with_no_query_rows_is_empty(self):
        kv = T.Tensor(np.ones((2, 6, 3)))
        out = T.block_attention(T.Tensor(np.zeros((2, 0, 3))), kv, kv, [2, 4], [-1, 0],
                                q_rows=[])
        assert out.shape == (2, 0, 3)


class TestGroupedAttention:
    """block_attention, which attends once per group (a root, or a root's
    child with all its descendants), against the per-block reference loop."""

    rng = T.make_rng(43)
    PROMPT_LEAVES = ([4, 3, 2, 5], [-1, 0, 0, 0])
    EQUAL_ROOTS = ([3, 3, 3], [-1, -1, -1])
    TREE = TestBatchedOpsGradients.TREE  # groups {0}, {1, 2, 3}, {4}
    # block 1 has three continuations, whose rows interleave with group {2, 5}
    FANOUT = ([3, 4, 5, 2, 3, 2, 2], [-1, 0, 0, 1, 1, 2, 1])
    # a chain 1 -> 2 -> {3, 4} below root 0, and a second root 5 with child 6
    DEEP = ([3, 4, 2, 3, 2, 2, 3], [-1, 0, 1, 2, 2, -1, 5])
    # a prompt and two passage -> question chains, and the same rows as merged blocks
    CHAINS = ([4, 3, 2, 5, 3], [-1, 0, 1, 0, 3])
    MERGED = ([4, 5, 8], [-1, 0, 0])

    def run(self, op, tree, dtype, q_rows=None, seed=0):
        """op's output and the gradients of q, k and v under fixed output weights."""
        sizes, parents = tree
        n = sum(sizes) if q_rows is None else len(q_rows)
        rng = T.make_rng(43, seed)
        q, k, v = (rng.normal(size=(2, m, 3)).astype(dtype) for m in (n, sum(sizes), sum(sizes)))
        ts = [T.Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = op(*ts, sizes, parents, dtype(0.6), q_rows)
        T.backward(T.tsum(T.mul(out, T.Tensor(rng.normal(size=out.shape).astype(dtype)))))
        return [out.data] + [t.grad for t in ts]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tree, q_rows", [(PROMPT_LEAVES, None), (PROMPT_LEAVES, [1, 4, 5, 13]),
                                              (EQUAL_ROOTS, None), (EQUAL_ROOTS, [0, 2, 7])],
                             ids=["prompt-leaves", "prompt-leaves-subset", "equal-roots",
                                  "equal-roots-subset"])
    def test_single_block_groups_equal_the_per_block_loop_exactly(self, tree, q_rows, dtype):
        got = self.run(T.block_attention, tree, dtype, q_rows)
        want = self.run(per_block_attention, tree, dtype, q_rows)
        for a, b in zip(got, want):
            assert a.dtype == dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tree_leaf_groups_equal_the_per_block_loop_exactly(self, dtype):
        """Rows of the single-block groups {0} and {4}: their outputs and
        query gradients, and the key and value gradients of block 4, which
        no other group reads."""
        got, want = (self.run(op, self.TREE, dtype) for op in (T.block_attention, per_block_attention))
        leaves = [0, 1, 2, 12, 13]
        for a, b in zip(got[:2], want[:2]):
            assert np.array_equal(a[:, leaves], b[:, leaves])
        for a, b in zip(got[2:], want[2:]):
            assert np.array_equal(a[:, 12:], b[:, 12:])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("q_rows", [None, [1, 5, 6, 9, 12, 15]], ids=["all", "subset"])
    def test_chains_equal_their_blocks_merged_exactly(self, q_rows, dtype):
        """A passage -> question chain attends as the one block of its rows."""
        got = self.run(T.block_attention, self.CHAINS, dtype, q_rows)
        want = self.run(T.block_attention, self.MERGED, dtype, q_rows)
        for a, b in zip(got, want):
            assert a.dtype == dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tree, q_rows", [
        (PROMPT_LEAVES, None), (PROMPT_LEAVES, [1, 4, 5, 13]), (PROMPT_LEAVES, [0, 6, 9]),
        (EQUAL_ROOTS, None), (EQUAL_ROOTS, [0, 2, 7]), (TREE, None), (TREE, [2, 8, 10, 11]),
        (CHAINS, None), (CHAINS, [0, 7, 8, 13, 16])],
        ids=["prompt-leaves", "prompt-leaves-subset", "prompt-leaves-sparse", "equal-roots",
             "equal-roots-subset", "tree", "tree-subset", "chains", "chains-subset"])
    def test_single_block_masks_equal_a_fresh_causal_mask(self, tree, q_rows, dtype):
        """A chain's mask (a single block is a chain too), sliced from one
        triangle per call, equals the mask built for its rows alone: hide
        key row c from query row r iff c > r."""
        sizes, parents = tree
        rows = np.arange(sum(sizes)) if q_rows is None else np.asarray(q_rows)
        singles = 0
        for mine, keys, _, mask in T._attention_groups(sizes, parents, rows, dtype):
            if isinstance(mine, slice):  # a chain: its own rows are the last key span
                lo, hi = keys[-1].start, keys[-1].stop
                want = np.where(np.arange(lo, hi) > rows[mine, None], dtype(-1e9), dtype(0))
                assert mask.dtype == dtype and np.array_equal(mask, want)
                singles += 1
        assert singles > 0

    @pytest.mark.parametrize("tree, q_rows", [
        (TREE, None), (FANOUT, None), (DEEP, None),
        (TREE, [2, 8, 10, 11]),  # group {1, 2, 3}'s head block 1 has no queried row
        (FANOUT, [0, 12, 14, 17, 19, 20]),  # nor has block 1 here, and group {2, 5} only 5
        (DEEP, [1, 9, 11, 13, 16, 18]),  # blocks 1 and 2 of the chain have none, nor has root 5
        (CHAINS, None), (CHAINS, [0, 7, 8, 13, 16])],  # passage block 1 has no queried row
        ids=["tree", "fanout", "deep", "tree-head-unqueried", "fanout-head-unqueried",
             "deep-chain-unqueried", "chains", "chains-passage-unqueried"])
    def test_multi_block_groups_match_the_per_block_loop(self, tree, q_rows):
        got = self.run(T.block_attention, tree, np.float64, q_rows)
        want = self.run(per_block_attention, tree, np.float64, q_rows)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-12

    @pytest.mark.parametrize("tree, q_rows", [(FANOUT, None), (FANOUT, [0, 12, 14, 17, 19, 20]),
                                              (DEEP, None), (DEEP, [1, 9, 11, 13, 16, 18])],
                             ids=["fanout", "fanout-subset", "deep", "deep-subset"])
    def test_gradient_matches_finite_differences(self, tree, q_rows):
        sizes, parents = tree
        shape = (2, sum(sizes), 3)
        q_shape = shape if q_rows is None else (2, len(q_rows), 3)
        arrays = [self.rng.normal(size=s) for s in (q_shape, shape, shape)]
        check_gradients(lambda t: weighted(T.block_attention(t[0], t[1], t[2], sizes, parents,
                                                             0.6, q_rows)), arrays, tol=1e-5)


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_equal_the_out_of_place_formula_bitwise(self, dtype):
        """In-place moments and update give the bits of the textbook formula,
        with two leaves reading one shared gradient array and never writing it."""
        rng = T.make_rng(53)
        a, b, c = (T.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                   for s in ((3, 4), (3, 4), (5,)))
        groups = [([a, b], 0.01), ([c], 0.003)]
        opt = Adam(groups)
        b1, b2, eps = Adam.beta1, Adam.beta2, Adam.eps
        ref = {id(p): (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for p in (a, b, c)}
        for t in range(1, 8):
            a.grad = b.grad = shared = rng.normal(size=(3, 4)).astype(dtype)
            c.grad = rng.normal(size=5).astype(dtype)
            grads = {id(p): p.grad.copy() for p in (a, b, c)}
            old = a.data
            scale = 1.0 - t / 10
            opt.step(scale)
            np.testing.assert_array_equal(shared, grads[id(a)])
            assert a.data is not old  # a new array, so an update norm can compare both
            for tensors, lr in groups:
                for p in tensors:
                    data, m, v = ref[id(p)]
                    g = grads[id(p)]
                    m = b1 * m + (1 - b1) * g
                    v = b2 * v + (1 - b2) * (g * g)
                    update = (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
                    data = data - np.asarray(lr * scale, dtype=dtype) * update.astype(dtype)
                    ref[id(p)] = data, m, v
                    assert p.data.dtype == dtype and p.data.tobytes() == data.tobytes()
