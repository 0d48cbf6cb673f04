"""Tensor ops and reverse-mode gradients checked against finite differences."""

import numpy as np
import pytest

from pspt import tensor as T
from pspt.errors import ContractError, NumericError, ShapeError


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


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

        fd = T.finite_diff_grad(objective, [a0.copy(), b0.copy()], eps=1e-5)
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

        fd = T.finite_diff_grad(objective, [x0.copy()], eps=1e-5)
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

        fd = T.finite_diff_grad(objective, [x0.copy(), g0.copy(), b0.copy()], eps=1e-5)
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

        fd = T.finite_diff_grad(lambda p: build(p)[1].item(), [x0.copy()], eps=1e-5)
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


class TestFiniteDiff:
    def test_square_function(self):
        grad = T.finite_diff_grad(lambda p: float(p[0][0] ** 2), [np.array([3.0])], eps=1e-5)
        np.testing.assert_allclose(grad[0], [6.0], atol=1e-6)

    def test_constant_function(self):
        grad = T.finite_diff_grad(lambda p: 1.25, [np.zeros(4)], eps=1e-4)
        np.testing.assert_array_equal(grad[0], np.zeros(4))

    @pytest.mark.parametrize("offset", [0.3, -0.3, 0.95, -0.95, 0.05])
    def test_relu_kink_within_eps_matches_analytic_gradient(self, offset):
        # relu(x - c) has its kink `offset` steps from x; the central difference
        # at eps straddles it and must be re-checked at a smaller step
        eps = 1e-5
        x = np.array([0.7, -1.2, 2.0])
        c = x + offset * eps * np.array([1.0, 1.0, 1e5])  # the last kink is far away
        w = np.array([1.5, -2.0, 0.5])

        def f(p):
            return float(np.sum(w * np.maximum(p[0] - c, 0.0)))

        grad = T.finite_diff_grad(f, [x.copy()], eps=eps)
        np.testing.assert_allclose(grad[0], w * (x > c), rtol=0, atol=1e-8)

    def test_eps_bounds_enforced(self):
        with pytest.raises(ContractError):
            T.finite_diff_grad(lambda p: 0.0, [np.zeros(1)], eps=1e-2)

    def test_non_finite_objective_rejected(self):
        with pytest.raises(NumericError):
            T.finite_diff_grad(lambda p: float("nan"), [np.zeros(1)])


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
    fd = T.finite_diff_grad(lambda p: build([T.Tensor(a) for a in p]).item(),
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
