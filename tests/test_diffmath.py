import math
import tracemalloc

import numpy as np
import pytest

from treepolicy.ddt import TreeParams
from treepolicy.diffmath import (
    ADAM_DECAYS,
    ADAM_GUARD,
    BLOCK_ROWS,
    AdamState,
    DenseNet,
    _forward_block,
    adam_step,
    dense_forward_batch,
    dense_gradients,
    init_dense,
    sigmoid,
    softmax_neg,
)
from treepolicy.distill import distill_objective, distill_targets, target_logs
from treepolicy.errors import ConfigError, TrainingDivergedError

from conftest import (
    TREE_ARRAYS,
    assert_grads_close,
    finite_difference,
    pre_activation_forward,
    pre_activation_forward_batch,
    pre_activation_gradients,
    random_tree,
    stack_trees,
)


def forward_one(net, x):
    """``dense_forward_batch`` on a single state, as a (1, n_in) row."""
    return dense_forward_batch(net, np.asarray(x, dtype=float)[None, :])[0]


class TestDenseForward:
    def test_zero_net_gives_zero_output(self):
        net = DenseNet([5, 64, 64, 5])
        out = forward_one(net, np.ones(5))
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_identity_layer_then_relu(self):
        net = DenseNet([2, 2, 2])
        net.weights[0][...] = np.eye(2)
        net.weights[1][...] = np.eye(2)
        out = forward_one(net, np.array([1.0, -2.0]))
        # hidden pre-activation is [1, -2]; ReLU clears the negative lane
        np.testing.assert_array_equal(out, np.array([1.0, 0.0]))

    def test_matches_naive_matmul_oracle(self):
        rng = np.random.default_rng(13)
        net = init_dense([5, 7, 6, 5], rng)
        x = rng.normal(size=5)

        h = x
        for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
            nxt = np.zeros(w.shape[1])
            for j in range(w.shape[1]):
                acc = b[j]
                for i in range(w.shape[0]):
                    acc += h[i] * w[i, j]
                nxt[j] = acc
            if layer < len(net.weights) - 1:
                nxt = np.array([v if v > 0 else 0.0 for v in nxt])
            h = nxt

        np.testing.assert_allclose(forward_one(net, x), h, atol=1e-10)

    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                      2 * BLOCK_ROWS + 1])
    def test_blocks_match_one_unblocked_pass(self, rows):
        rng = np.random.default_rng(rows)
        net = init_dense([5, 64, 64, 5], rng)
        xs = rng.normal(size=(rows, 5))
        out = dense_forward_batch(net, xs)
        assert out.shape == (rows, 5) and out.dtype == np.float64
        # a one-row block takes BLAS's single-row path, which may differ from
        # a multi-row block in the last digit
        np.testing.assert_allclose(out, _forward_block(net, xs)[-1], rtol=1e-15, atol=1e-15)

    def test_memory_does_not_grow_with_rows(self):
        net = init_dense([5, 64, 64, 5], np.random.default_rng(4))
        peaks = {}
        for rows in (1_000, 8_000):
            xs = np.random.default_rng(rows).normal(size=(rows, 5))
            tracemalloc.start()
            try:
                out = dense_forward_batch(net, xs)
                peaks[rows] = tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()
        # beyond the output, about one block's activations (0.2 MB); one
        # unblocked pass over 8,000 rows peaks at 16.8 MB
        assert max(peaks.values()) < 1024 * 1024
        assert abs(peaks[8_000] - peaks[1_000]) < 64 * 1024

    def test_batch_agrees_with_vector_forward(self):
        rng = np.random.default_rng(3)
        net = init_dense([5, 8, 5], rng)
        xs = rng.normal(size=(11, 5))
        batch = dense_forward_batch(net, xs)
        for row, x in zip(batch, xs):
            np.testing.assert_allclose(row, forward_one(net, x), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        net = DenseNet([5, 4, 5])
        # checked on entry, so a wrong width is rejected at zero rows too
        for shape in [(4,), (5,), (1, 4), (0, 4), (2, 5, 1)]:
            with pytest.raises(ConfigError, match="does not match"):
                dense_forward_batch(net, np.ones(shape))

    def test_param_count_is_4869_for_default_shape(self):
        assert DenseNet([5, 64, 64, 5]).flat.size == 4869


def dense_backward_one(net, x, g_out):
    """The backward pass ``train_step`` runs, on a one-row batch."""
    g_out = np.asarray(g_out, dtype=float)[None, :]
    return dense_gradients(net, np.asarray(x, dtype=float)[None, :], lambda lo, out: g_out)


class TestDenseBackward:
    def test_zero_output_grad_gives_zero_bundle(self):
        rng = np.random.default_rng(5)
        net = init_dense([5, 6, 5], rng)
        grads = dense_backward_one(net, rng.normal(size=5), np.zeros(5))
        np.testing.assert_array_equal(grads.flat, np.zeros_like(net.flat))

    def test_scalar_linear_net(self):
        net = DenseNet([1, 1])
        net.weights[0][0, 0] = 1.5
        grads = dense_backward_one(net, np.array([2.0]), np.array([1.0]))
        assert isinstance(grads, DenseNet) and grads.layer_sizes == [1, 1]
        assert grads.weights[0][0, 0] == 2.0
        assert grads.biases[0][0] == 1.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            net = init_dense([5, 7, 6, 5], rng)
            x = rng.normal(size=5)
            g_out = rng.normal(size=5)
            grads = dense_backward_one(net, x, g_out)

            def loss():
                return float(forward_one(net, x) @ g_out)

            numeric = finite_difference(loss, [net.flat])
            assert_grads_close([grads.flat], numeric)

    def test_shape_mismatch_rejected(self):
        net = DenseNet([5, 4, 5])
        with pytest.raises(ConfigError):
            dense_backward_one(net, np.ones(5), np.ones(4))

    # one block; several blocks with a one-row tail (BLAS's single-row path); many blocks
    @pytest.mark.parametrize("rows", [1, BLOCK_ROWS + 1, 1001])
    def test_blocks_match_finite_differences(self, rows):
        rng = np.random.default_rng(rows)
        net = init_dense([5, 7, 6, 5], rng)
        xs = rng.normal(size=(rows, 5))
        g_out = rng.normal(size=(rows, 5))
        grads = dense_gradients(net, xs, lambda lo, out: g_out[lo:lo + len(out)])

        def loss():
            return float(np.sum(dense_forward_batch(net, xs) * g_out))

        # a 1e-5 step moves one of the 1,001 rows across a ReLU kink, where a
        # central difference is not the gradient; a 1e-6 step crosses none
        assert_grads_close([grads.flat], finite_difference(loss, [net.flat], h=1e-6))

    @pytest.mark.parametrize("rows", [1, BLOCK_ROWS + 1, 1001])
    def test_blocks_match_one_whole_batch_pass(self, rows):
        rng = np.random.default_rng(rows)
        net = init_dense([5, 64, 64, 5], rng)
        xs = rng.normal(size=(rows, 5))
        g_out = rng.normal(size=(rows, 5))
        seen = []

        def output_grad(lo, out):
            seen.append((lo, out.copy()))
            return g_out[lo:lo + len(out)]

        grads = dense_gradients(net, xs, output_grad)
        # each block hands over its first row index and the outputs inference gives
        assert [lo for lo, _ in seen] == list(range(0, rows, BLOCK_ROWS))
        assert np.concatenate([out for _, out in seen]).tobytes() \
            == dense_forward_batch(net, xs).tobytes()
        want = whole_batch_gradients(net, xs, g_out)
        for got, ref in zip(grads.weights + grads.biases, want.weights + want.biases):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_peak_memory_over_a_thousand_rows(self):
        # the in-place blocks peak at about 441 KB; keeping each block's
        # pre-activations and a fresh array per bias add, ReLU and mask took 704 KB
        net = init_dense([5, 64, 64, 5], np.random.default_rng(4))
        rng = np.random.default_rng(1000)
        xs, g_out = rng.normal(size=(1000, 5)), rng.normal(size=(1000, 5))
        tracemalloc.start()
        try:
            dense_gradients(net, xs, lambda lo, out: g_out[lo:lo + len(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024


def kinked_inputs(rows):
    """The default net, ``rows`` inputs and output gradients, with hidden
    pre-activations that are negative and exactly zero: a zero weight column over
    a zero bias of either sign gives 0 on every row, and an all-zero input row
    gives the biases."""
    rng = np.random.default_rng(rows)
    net = init_dense([5, 64, 64, 5], rng)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        w[:, :8] = 0.0
        b[:4] = 0.0
        b[4:8] = -0.0
    xs = rng.normal(size=(rows, 5))
    xs[::3] = 0.0
    return net, xs, rng.normal(size=(rows, 5))


class TestInPlaceBlocks:
    """The in-place block loop against the out-of-place pre-activation reference."""

    @pytest.mark.parametrize("rows", [1, 2, BLOCK_ROWS, BLOCK_ROWS + 1, 1001])
    def test_bit_equal_to_pre_activation_reference(self, rows):
        net, xs, g_out = kinked_inputs(rows)
        for z in pre_activation_forward(net, xs)[1][:-1]:
            assert (z == 0.0).any() and (z < 0.0).any()
        # read-only, so a write into either raises; the bytes are checked too
        before = xs.tobytes()
        xs.setflags(write=False)
        g_out.setflags(write=False)

        def output_grad(lo, out):
            return g_out[lo:lo + len(out)]

        assert dense_forward_batch(net, xs).tobytes() \
            == pre_activation_forward_batch(net, xs).tobytes()
        assert dense_gradients(net, xs, output_grad).flat.tobytes() \
            == pre_activation_gradients(net, xs, output_grad).flat.tobytes()
        assert xs.tobytes() == before


def whole_batch_gradients(net, xs, g_out):
    """Reference: one unblocked forward and reverse pass over every row, as a
    ``DenseNet`` shaped like ``net``."""
    acts, pre = pre_activation_forward(net, xs)
    weights, biases = [], []
    delta = g_out
    for i in range(len(net.weights) - 1, -1, -1):
        weights.insert(0, acts[i].T @ delta)
        biases.insert(0, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ net.weights[i].T) * (pre[i - 1] > 0.0)
    return DenseNet(net.layer_sizes, weights, biases)


class TestFlatLayout:
    """Each model's arrays are views of its one vector ``flat``."""

    def test_dense_net_arrays_are_views_of_flat(self):
        net = init_dense([5, 64, 64, 5], np.random.default_rng(0))
        sizes = [a.size for layer in zip(net.weights, net.biases) for a in layer]
        assert sum(sizes) == net.flat.size and net.flat.dtype == np.float64
        # layer by layer, weights before biases
        np.testing.assert_array_equal(net.flat[:sizes[0]], net.weights[0].ravel())
        np.testing.assert_array_equal(net.flat[sizes[0]:sum(sizes[:2])], net.biases[0])
        for a in net.weights + net.biases:
            assert np.shares_memory(a, net.flat)
        # in-place writes to the views show up in flat
        net.weights[1][3, 7] = 42.0
        net.biases[-1][...] = -1.0
        assert net.flat[sum(sizes[:2]) + 3 * 64 + 7] == 42.0
        np.testing.assert_array_equal(net.flat[-5:], np.full(5, -1.0))

    def test_dense_net_copies_the_arrays_it_is_given(self):
        online = init_dense([5, 8, 5], np.random.default_rng(1))
        copy = DenseNet(online.layer_sizes, online.weights, online.biases)
        assert copy.flat.tobytes() == online.flat.tobytes()
        assert not np.shares_memory(copy.flat, online.flat)
        online.flat += 1.0
        assert copy.flat.tobytes() != online.flat.tobytes()


class TestSoftmaxNeg:
    def test_uniform_on_equal_scores(self):
        np.testing.assert_allclose(softmax_neg(np.zeros(5)), np.full(5, 0.2), atol=1e-12)

    def test_smaller_score_wins_in_the_limit(self):
        p = softmax_neg(np.array([3.0, 3.0 + 50.0]))
        assert p[0] > 1.0 - 1e-9

    def test_hand_evaluated_two_entry_case(self):
        expected = np.array([math.exp(-1), math.exp(-2)])
        expected /= expected.sum()
        np.testing.assert_allclose(softmax_neg(np.array([1.0, 2.0])), expected, atol=1e-12)
        assert abs(softmax_neg(np.array([1.0, 2.0]))[0] - 0.7311) < 1e-4

    def test_simplex_invariant_over_random_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = softmax_neg(rng.normal(scale=10.0, size=rng.integers(2, 8)))
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p >= 0.0) and np.all(p <= 1.0)


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation_without_nan(self):
        assert sigmoid(1e6) == 1.0
        assert sigmoid(-1e6) == 0.0

    def test_hand_value(self):
        assert abs(sigmoid(1.0) - 0.7310586) < 1e-7

    def test_complement_identity(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(-30, 30, size=2000)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-12)

    def test_bit_identical_to_masked_form(self):
        def masked(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        tiny = np.finfo(float).tiny
        special = np.array([0.0, -0.0, 1e6, -1e6, 5e-324, -5e-324, tiny / 3, -tiny / 3,
                            tiny, -tiny, 708.0, -708.0, 745.0, -745.0, 746.0, -746.0,
                            36.7, -36.7, 37.5, -37.5, 1e-17, -1e-17])
        rng = np.random.default_rng(3)
        z = np.concatenate([special, rng.normal(scale=5.0, size=5000),
                            rng.uniform(-800.0, 800.0, size=5000),
                            np.linspace(-40.0, 40.0, 8001)])
        with np.errstate(all="ignore"):
            want = masked(z)
        with np.errstate(all="raise"):
            got = sigmoid(z)
            scalar = [sigmoid(v) for v in special]
        assert got.tobytes() == want.tobytes()
        assert np.array(scalar).tobytes() == want[:len(special)].tobytes()


def kl_tempered(teacher_q, student_q, temperature):
    """The distillation loss when the tree emits the tempered student softmax.

    Both leaves of a depth-1 tree hold ``student_q / temperature`` and its one
    gate sits at exactly 0.5, so the tree's distribution is that softmax bit
    for bit. Returns KL(tempered teacher || tempered student) and its gradient
    with respect to ``student_q``.
    """
    targets = distill_targets(np.asarray(teacher_q, dtype=float), temperature)[None, :]
    leaf = np.asarray(student_q, dtype=float) / temperature
    tree = TreeParams(1, np.zeros((1, 1)), np.zeros(1), np.stack([leaf, leaf]))
    loss, grads = distill_objective(tree, np.zeros((1, 1)), targets, target_logs(targets), 0.0)
    return float(loss), grads.leaf_weights.sum(axis=0) / temperature


class TestKlTempered:
    """KL to the tempered teacher targets, as ``distill_objective`` computes it."""

    def test_identical_scores_give_zero(self):
        q = np.array([0.3, -1.2, 4.0, 0.0, 2.2])
        assert kl_tempered(q, q, 0.5)[0] == 0.0

    def test_one_hot_against_uniform_is_log5(self):
        teacher = np.array([0.0, 10.0, 10.0, 10.0, 10.0])
        student = np.zeros(5)
        val, _ = kl_tempered(teacher, student, 0.05)
        assert abs(val - math.log(5)) < 1e-3

    def test_hand_evaluated_two_term_case(self):
        p = np.array([math.exp(-1.0), math.exp(-2.0)])
        p /= p.sum()
        s = np.array([math.exp(-2.0), math.exp(-1.0)])
        s /= s.sum()
        expected = p[0] * math.log(p[0] / s[0]) + p[1] * math.log(p[1] / s[1])
        assert abs(kl_tempered([1.0, 2.0], [2.0, 1.0], 1.0)[0] - expected) < 1e-10

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            val, _ = kl_tempered(a, b, 0.7)
            assert val >= 0.0
            if val == 0.0:
                np.testing.assert_allclose(softmax_neg(a / 0.7), softmax_neg(b / 0.7),
                                           atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            teacher = rng.normal(size=5)
            student = rng.normal(size=5)
            tau = rng.uniform(0.2, 2.0)
            _, analytic = kl_tempered(teacher, student, tau)

            def loss():
                return kl_tempered(teacher, student, tau)[0]

            numeric = finite_difference(loss, [student], h=1e-6)
            assert_grads_close([analytic], numeric)


class TestAdam:
    def test_zero_gradient_leaves_params_alone(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState(params, learning_rate=0.001)
        adam_step(params, np.zeros(3), state)
        np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])
        assert state.step_count == 1

    def test_first_step_magnitude_is_learning_rate(self):
        params = np.array([0.0])
        state = AdamState(params, learning_rate=0.001)
        adam_step(params, np.array([0.3]), state)
        # bias correction makes the first update ~ lr * sign(g)
        assert abs(abs(params[0]) - 0.001) < 1e-6
        assert params[0] < 0

    def test_converges_on_quadratic(self):
        w = np.array([0.0])
        state = AdamState(w, learning_rate=0.01)
        for _ in range(1000):
            adam_step(w, 2.0 * (w - 3.0), state)
        assert abs(w[0] - 3.0) < 1e-2

    def test_nan_gradient_aborts(self):
        params = np.zeros(2)
        state = AdamState(params, learning_rate=0.001)
        adam_step(params, np.array([0.3, -0.2]), state)
        before = [a.copy() for a in (params, state.first_moment, state.second_moment)]
        with pytest.raises(TrainingDivergedError):
            adam_step(params, np.array([np.nan, 0.0]), state)
        # no parameter or moment moves, and the step is not counted
        for old, new in zip(before, (params, state.first_moment, state.second_moment)):
            assert old.tobytes() == new.tobytes()
        assert state.step_count == 1

    def test_moments_track_param_shapes(self):
        rng = np.random.default_rng(1)
        net = init_dense([5, 64, 64, 5], rng)
        state = AdamState(net.flat, learning_rate=0.001)
        for m in (state.first_moment, state.second_moment):
            assert m.shape == net.flat.shape and not m.any()

    @pytest.mark.parametrize("model", ["teacher", "stacked depth-3 trees"])
    def test_flat_step_is_bit_equal_to_a_per_array_loop(self, model):
        # Adam is elementwise, so one pass over the flat vector gives the bits
        # of one pass per named array
        rng = np.random.default_rng(31)
        if model == "teacher":
            params, grads = init_dense([5, 64, 64, 5], rng), DenseNet([5, 64, 64, 5])
        else:
            params, grads = (stack_trees([random_tree(3, rng) for _ in range(5)])
                             for _ in range(2))
        reference = [a.copy() for a in named_arrays(params)]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in reference]
        state = AdamState(params.flat, learning_rate=0.01)
        d1, d2 = ADAM_DECAYS
        for step in range(1, 61):
            for g in named_arrays(grads):
                g[...] = rng.normal(size=g.shape)
            adam_step(params.flat, grads.flat, state)
            # the per-array loop adam_step ran before the parameters were one vector
            for p, g, (m, v) in zip(reference, named_arrays(grads), moments):
                m *= d1
                m += (1.0 - d1) * g
                v *= d2
                v += (1.0 - d2) * (g * g)
                p -= 0.01 * (m / (1.0 - d1 ** step)) / (np.sqrt(v / (1.0 - d2 ** step))
                                                        + ADAM_GUARD)
        assert state.step_count == 60
        for got, want in zip(named_arrays(params), reference):
            assert got.tobytes() == want.tobytes()


def named_arrays(model):
    """A ``DenseNet``'s or a ``TreeParams``' named arrays, views of its ``flat``."""
    if isinstance(model, DenseNet):
        return model.weights + model.biases
    return [getattr(model, name) for name in TREE_ARRAYS]

