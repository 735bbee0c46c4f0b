import numpy as np
import pytest

from treepolicy.ddt import (
    CrispTree,
    TreeParams,
    crisp_predict,
    crispify,
    export_rules,
    forward_batch,
    gradients_batch,
    tree_from_json,
    tree_to_json,
)
from treepolicy.diffmath import sigmoid, softmax_neg
from treepolicy.envsim import ACTION_NAMES, FEATURE_NAMES
from treepolicy.errors import ConfigError, DegenerateNodeError

from conftest import (
    TREE_ARRAYS,
    assert_grads_close,
    crisp_walk_one,
    finite_difference,
    random_tree,
    stack_trees,
)


def forward_one(tree, x):
    """``forward_batch`` on a one-row batch: (action distribution, leaf path probabilities)."""
    fwd = forward_batch(tree, np.asarray(x, dtype=float)[None, :])
    return fwd.dists[0], fwd.path_probs[0]


def gradients_of(tree, xs, gs):
    """``gradients_batch`` on the pass ``forward_batch`` makes over ``xs``."""
    return gradients_batch(tree, forward_batch(tree, xs), gs)


def gradients_one(tree, x, g_out):
    """``gradients_of`` on a one-row batch."""
    return gradients_of(tree, np.asarray(x, dtype=float)[None, :],
                        np.asarray(g_out, dtype=float)[None, :])


def one_hot_tree(depth, rng):
    """Random tree whose gates each use exactly one (signed) feature."""
    n_nodes = 2 ** depth - 1
    fw = np.zeros((n_nodes, 5))
    for i in range(n_nodes):
        j = rng.integers(5)
        scale = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        fw[i, j] = scale
    thr = rng.uniform(0.2, 0.8, size=n_nodes) * fw[np.arange(n_nodes), np.abs(fw).argmax(1)]
    lw = rng.uniform(-1, 1, size=(2 ** depth, 5))
    return TreeParams(depth, fw, thr, lw)


class TestStructure:
    @pytest.mark.parametrize("depth,n_train,n_infer", [(2, 38, 10), (3, 82, 22)])
    def test_parameter_counts(self, depth, n_train, n_infer):
        tree = random_tree(depth, np.random.default_rng(0))
        assert tree.feature_weights.shape[0] == 2 ** depth - 1
        assert tree.leaf_weights.shape[0] == 2 ** depth
        assert tree.num_training_params == n_train
        assert tree.num_inference_params == n_infer

    def test_depth_guard(self):
        with pytest.raises(ConfigError):
            TreeParams(0, np.zeros((0, 5)), np.zeros(0), np.zeros((1, 5)))

    def test_shape_guard(self):
        with pytest.raises(ConfigError):
            TreeParams(2, np.zeros((2, 5)), np.zeros(3), np.zeros((4, 5)))

    @pytest.mark.parametrize("n_trees", [None, 5], ids=["one-tree", "stacked"])
    def test_arrays_are_views_of_flat(self, n_trees):
        rng = np.random.default_rng(3)
        if n_trees is None:
            tree = random_tree(3, rng)
        else:
            tree = stack_trees([random_tree(3, rng) for _ in range(n_trees)])
        fw, thr, lw = (getattr(tree, name) for name in TREE_ARRAYS)
        assert tree.flat.size == fw.size + thr.size + lw.size == tree.num_training_params
        # parameter-major: every tree's feature weights, thresholds, leaf weights
        for view, lo in ((fw, 0), (thr, fw.size), (lw, fw.size + thr.size)):
            assert np.shares_memory(view, tree.flat) and view.flags.c_contiguous
            np.testing.assert_array_equal(tree.flat[lo:lo + view.size], view.ravel())
        # in-place writes to the views show up in flat
        expected = [a.copy() for a in (fw, thr, lw)]
        for arrays in ((fw, thr, lw), expected):
            arrays[0][..., 0, 1] = 7.0
            arrays[1][..., -1] = -3.0
            arrays[2][...] += 1.0
        np.testing.assert_array_equal(tree.flat, np.concatenate(expected, axis=None))

    def test_owns_a_copy_of_its_arrays(self):
        fw, thr, lw = np.ones((3, 5)), np.zeros(3), np.ones((4, 5))
        tree = TreeParams(2, fw, thr, lw)
        before = tree.flat.copy()
        for a in (fw, thr, lw):
            a += 2.0
        assert tree.flat.tobytes() == before.tobytes()

    def test_stacked_shape_guard(self):
        stacked = TreeParams(2, np.zeros((3, 3, 5)), np.zeros((3, 3)), np.zeros((3, 4, 5)))
        assert stacked.feature_weights.shape == (3, 3, 5)
        assert stacked.leaf_weights.shape == (3, 4, 5)
        with pytest.raises(ConfigError):
            TreeParams(2, np.zeros((3, 3, 5)), np.zeros((2, 3)), np.zeros((3, 4, 5)))


class TestForward:
    def test_balanced_gates_give_uniform_leaf_probs(self):
        tree = TreeParams(2, np.zeros((3, 5)), np.zeros(3),
                          np.random.default_rng(0).uniform(-1, 1, (4, 5)))
        _, path = forward_one(tree, np.random.default_rng(1).uniform(size=5))
        np.testing.assert_allclose(path, np.full(4, 0.25), atol=1e-12)

    def test_saturated_root_starves_right_subtree(self):
        tree = random_tree(2, np.random.default_rng(2))
        tree.feature_weights[0] = np.array([0.0, 0.0, 1e4, 0.0, 0.0])
        tree.thresholds[0] = 1e4 * 0.1
        _, path = forward_one(tree, np.array([0.5, 0.5, 0.9, 0.5, 0.5]))
        assert path[2] + path[3] < 1e-12

    def test_matches_depth2_matrix_formulation(self):
        # literal transcription of the depth-2 matrix product, used as an oracle
        rng = np.random.default_rng(3)
        for _ in range(50):
            tree = random_tree(2, rng)
            x = rng.uniform(size=5)
            p1, p2, p3 = (sigmoid(tree.feature_weights[i] @ x - tree.thresholds[i])
                          for i in range(3))
            left = np.array([[p1, 0.0], [0.0, 1.0 - p1]])
            right = np.array([[p2, 1.0 - p2], [p3, 1.0 - p3]])
            p = left @ right
            leaves = [softmax_neg(w) for w in tree.leaf_weights]
            expected = (p[0, 0] * leaves[0] + p[0, 1] * leaves[1]
                        + p[1, 0] * leaves[2] + p[1, 1] * leaves[3])
            dist, path = forward_one(tree, x)
            np.testing.assert_allclose(dist, expected, atol=1e-12)
            np.testing.assert_allclose(path, [p[0, 0], p[0, 1], p[1, 0], p[1, 1]], atol=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_distribution_invariants(self, depth):
        rng = np.random.default_rng(depth)
        for _ in range(300):
            tree = random_tree(depth, rng)
            dist, path = forward_one(tree, rng.uniform(size=5))
            assert abs(dist.sum() - 1.0) <= 1e-9
            assert abs(path.sum() - 1.0) <= 1e-9
            assert np.all(dist >= 0)
            assert np.all(path >= 0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        tree = random_tree(3, rng)
        xs = rng.uniform(size=(9, 5))
        fwd = forward_batch(tree, xs)
        dists, paths = fwd.dists, fwd.path_probs
        for i in range(9):
            dist, path = forward_one(tree, xs[i])
            np.testing.assert_allclose(dists[i], dist, atol=1e-12)
            np.testing.assert_allclose(paths[i], path, atol=1e-12)


class TestGradients:
    def test_zero_output_grad(self):
        tree = random_tree(2, np.random.default_rng(0))
        grads = gradients_one(tree, np.random.default_rng(1).uniform(size=5), np.zeros(5))
        assert isinstance(grads, TreeParams) and grads.depth == tree.depth
        np.testing.assert_array_equal(grads.flat, np.zeros_like(tree.flat))

    def test_threshold_gradient_sign_relation(self):
        # z = w.x - thr, so d/d(w_j) = x_j * d/dz and d/d(thr) = -d/dz
        rng = np.random.default_rng(2)
        tree = random_tree(2, rng)
        x = rng.uniform(size=5)
        grads = gradients_one(tree, x, rng.normal(size=5))
        for i in range(3):
            np.testing.assert_allclose(grads.feature_weights[i],
                                       -grads.thresholds[i] * x, atol=1e-12)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_matches_finite_differences(self, depth):
        rng = np.random.default_rng(depth + 10)
        for _ in range(10):
            tree = random_tree(depth, rng)
            x = rng.uniform(size=5)
            g_out = rng.normal(size=5)
            grads = gradients_one(tree, x, g_out)

            def loss():
                return float(forward_one(tree, x)[0] @ g_out)

            numeric = finite_difference(loss, [tree.flat])
            assert_grads_close([grads.flat], numeric)

    def test_batch_gradients_sum_over_rows(self):
        rng = np.random.default_rng(4)
        tree = random_tree(2, rng)
        xs = rng.uniform(size=(6, 5))
        gs = rng.normal(size=(6, 5))
        batch = gradients_of(tree, xs, gs)
        total = np.zeros_like(tree.flat)
        for i in range(6):
            total += gradients_one(tree, xs[i], gs[i]).flat
        np.testing.assert_allclose(batch.flat, total, atol=1e-10)


def loop_reference(params, xs, output_grads):
    """Per-leaf, per-level loop formulation of the soft forward and its gradients."""
    depth, n_leaves = params.depth, 2 ** params.depth
    paths = []
    for leaf in range(n_leaves):
        node, path = 0, []
        for level in range(depth):
            goes_left = ((leaf >> (depth - 1 - level)) & 1) == 0
            path.append((node, goes_left))
            node = 2 * node + (1 if goes_left else 2)
        paths.append(path)
    gates = sigmoid(xs @ params.feature_weights.T - params.thresholds)
    factors = np.empty((xs.shape[0], n_leaves, depth))
    for k, path in enumerate(paths):
        for level, (node, goes_left) in enumerate(path):
            factors[:, k, level] = gates[:, node] if goes_left else 1.0 - gates[:, node]
    path_probs = factors.prod(axis=2)
    leaf_dists = softmax_neg(params.leaf_weights)
    d_leaf_dist = path_probs.T @ output_grads
    inner = (d_leaf_dist * leaf_dists).sum(axis=1, keepdims=True)
    grad_leaf = -leaf_dists * (d_leaf_dist - inner)
    d_path = output_grads @ leaf_dists.T
    ones = np.ones_like(factors[:, :, :1])
    prefix = np.concatenate([ones, np.cumprod(factors, axis=2)[:, :, :-1]], axis=2)
    suffix = np.concatenate(
        [np.cumprod(factors[:, :, ::-1], axis=2)[:, :, ::-1][:, :, 1:], ones], axis=2)
    excl = prefix * suffix
    d_gate = np.zeros_like(gates)
    for k, path in enumerate(paths):
        for level, (node, goes_left) in enumerate(path):
            sign = 1.0 if goes_left else -1.0
            d_gate[:, node] += sign * d_path[:, k] * excl[:, k, level]
    d_z = d_gate * gates * (1.0 - gates)
    return path_probs @ leaf_dists, path_probs, [d_z.T @ xs, -d_z.sum(axis=0), grad_leaf]


def node_loop_reference(params, xs, output_grads):
    """Per-node loop twin of the level recursion: the feature-weight and
    threshold gradients, one node at a time over the breadth-first numbering."""
    n_nodes = 2 ** params.depth - 1
    gates = sigmoid(xs @ params.feature_weights.T - params.thresholds)
    prob = [np.ones(xs.shape[0])] + [None] * (2 * n_nodes)
    for i in range(n_nodes):
        prob[2 * i + 1] = prob[i] * gates[:, i]
        prob[2 * i + 2] = prob[i] * (1.0 - gates[:, i])
    d_path = output_grads @ softmax_neg(params.leaf_weights).T
    m = [None] * n_nodes + [d_path[:, k] for k in range(n_nodes + 1)]
    d_gate = np.empty_like(gates)
    for i in reversed(range(n_nodes)):
        left, right = m[2 * i + 1], m[2 * i + 2]
        d_gate[:, i] = prob[i] * (left - right)
        m[i] = gates[:, i] * left + (1.0 - gates[:, i]) * right
    d_z = d_gate * gates * (1.0 - gates)
    return [d_z.T @ xs, -d_z.sum(axis=0)]


class TestLoopReference:
    """The level recursion against the per-leaf loops and its per-node twin."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_bit_identical(self, depth, batch):
        rng = np.random.default_rng(100 * depth + batch)
        # 1e3 saturates many gates to exactly 0 or 1, 1e6 nearly all of them
        for scale in (1.0, 1e3, 1e6):
            tree = random_tree(depth, rng)
            tree.feature_weights *= scale
            tree.thresholds *= scale
            xs = rng.uniform(size=(batch, 5))
            gs = rng.normal(size=(batch, 5))
            want_dist, want_path, want_grads = loop_reference(tree, xs, gs)
            fwd = forward_batch(tree, xs)
            grads = gradients_batch(tree, fwd, gs)
            grads = [grads.feature_weights, grads.thresholds, grads.leaf_weights]
            assert fwd.dists.tobytes() == want_dist.tobytes()
            assert fwd.path_probs.tobytes() == want_path.tobytes()
            assert grads[2].tobytes() == want_grads[2].tobytes()
            # the per-leaf loop sums a node's terms in another order than the
            # recursion, so the gate gradients agree to rounding only
            for got, want in zip(grads[:2], want_grads[:2]):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            for got, want in zip(grads[:2], node_loop_reference(tree, xs, gs)):
                assert got.tobytes() == want.tobytes()


def stacked_trees(depth, n_trees, rng):
    trees = [random_tree(depth, rng) for _ in range(n_trees)]
    return trees, stack_trees(trees)


class TestTreeAxis:
    """A leading tree axis runs each tree on its own batch, bit for bit as alone."""

    @pytest.mark.parametrize("depth", [2, 3])
    def test_forward_matches_each_tree(self, depth):
        rng = np.random.default_rng(depth)
        trees, stacked = stacked_trees(depth, 3, rng)
        xs = rng.uniform(size=(3, 7, 5))
        batch = forward_batch(stacked, xs)
        for k, tree in enumerate(trees):
            single = forward_batch(tree, xs[k])
            assert batch.dists[k].tobytes() == single.dists.tobytes()
            assert batch.path_probs[k].tobytes() == single.path_probs.tobytes()

    @pytest.mark.parametrize("depth", [2, 3])
    def test_gradients_match_each_tree(self, depth):
        rng = np.random.default_rng(depth + 20)
        trees, stacked = stacked_trees(depth, 3, rng)
        xs = rng.uniform(size=(3, 64, 5))
        gs = rng.normal(size=(3, 64, 5))
        batch = gradients_of(stacked, xs, gs)
        for k, tree in enumerate(trees):
            single = gradients_of(tree, xs[k], gs[k])
            for name in TREE_ARRAYS:
                assert getattr(batch, name)[k].tobytes() == getattr(single, name).tobytes()


class TestCrispify:
    def test_hand_rescaled_threshold(self):
        tree = random_tree(2, np.random.default_rng(0))
        tree.feature_weights[0] = np.array([0.1, 0.9, 0.2, 0.0, 0.0])
        tree.thresholds[0] = 0.45
        crisp = crispify(tree)
        assert crisp.feature_index[0] == 1
        assert crisp.thresholds[0] == pytest.approx(0.5)
        assert not crisp.flipped[0]

    def test_leaf_action_is_argmin_weight(self):
        tree = random_tree(2, np.random.default_rng(0))
        tree.leaf_weights[0] = np.array([5.0, 1.0, 2.0, 3.0, 4.0])
        assert crispify(tree).leaf_actions[0] == 1

    def test_unit_weight_keeps_threshold(self):
        tree = random_tree(2, np.random.default_rng(0))
        tree.feature_weights[1] = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        tree.thresholds[1] = 0.37
        crisp = crispify(tree)
        assert crisp.thresholds[1] == pytest.approx(0.37)

    def test_negative_winner_flips(self):
        tree = random_tree(2, np.random.default_rng(0))
        tree.feature_weights[2] = np.array([0.0, -0.8, 0.0, 0.0, 0.2])
        tree.thresholds[2] = 0.4
        crisp = crispify(tree)
        assert crisp.feature_index[2] == 1
        assert crisp.flipped[2]
        assert crisp.thresholds[2] == pytest.approx(0.4 / -0.8)

    def test_degenerate_node_raises(self):
        tree = random_tree(2, np.random.default_rng(0))
        tree.feature_weights[0] = np.zeros(5)
        with pytest.raises(DegenerateNodeError, match="node 0"):
            crispify(tree)

    def test_first_degenerate_node_is_named(self):
        tree = random_tree(3, np.random.default_rng(0))
        tree.feature_weights[[2, 5]] = 0.0
        with pytest.raises(DegenerateNodeError, match="node 2:"):
            crispify(tree)

    def test_matches_per_node_loop(self):
        def loop_crispify(params):
            feats, thrs, flips = [], [], []
            for i, row in enumerate(params.feature_weights):
                j = int(np.argmax(np.abs(row)))
                feats.append(j)
                thrs.append(float(params.thresholds[i] / row[j]))
                flips.append(bool(row[j] < 0))
            actions = [int(np.argmin(row)) for row in params.leaf_weights]
            return CrispTree(params.depth, tuple(feats), tuple(thrs), tuple(flips),
                             tuple(actions))

        rng = np.random.default_rng(11)
        for depth in (2, 3) * 50:
            tree = random_tree(depth, rng)
            # repr tells a Python float from a numpy one, so the types must match too
            assert repr(crispify(tree)) == repr(loop_crispify(tree))


class TestCrispPredict:
    def test_paper_style_charge_rule(self):
        # root sends high-pv states left; low demand then selects a charging leaf
        tree = CrispTree(2, (4, 3, 2), (0.47, 0.37, 0.5), (False, False, False),
                         (2, 4, 0, 2))
        action = crisp_predict(tree, np.array([[0.5, 0.5, 0.5, 0.2, 0.6]]))[0]
        assert action == 4  # pv 0.6 > 0.47, demand 0.2 < 0.37 -> charge branch

    def test_tie_goes_right(self):
        tree = CrispTree(1, (2,), (0.5,), (False,), (3, 1))
        states = np.array([[0.0, 0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5 + 1e-9, 0.0, 0.0]])
        assert crisp_predict(tree, states).tolist() == [1, 3]

    def test_flipped_comparison(self):
        tree = CrispTree(1, (2,), (0.5,), (True,), (3, 1))
        states = np.array([[0.0, 0.0, 0.2, 0.0, 0.0], [0.0, 0.0, 0.8, 0.0, 0.0]])
        assert crisp_predict(tree, states).tolist() == [3, 1]

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_batched_walk_matches_per_row_walk(self, depth):
        # grid-valued thresholds and states make exact ties common (ties go
        # right), and every other node is flipped
        rng = np.random.default_rng(40 + depth)
        levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        n_nodes = 2 ** depth - 1
        for _ in range(5):
            tree = CrispTree(depth, tuple(int(f) for f in rng.integers(5, size=n_nodes)),
                             tuple(float(t) for t in rng.choice(levels[1:4], size=n_nodes)),
                             tuple(bool((i + depth) % 2) for i in range(n_nodes)),
                             tuple(int(a) for a in rng.integers(5, size=2 ** depth)))
            states = rng.choice(levels, size=(400, 5))
            assert crisp_predict(tree, states).tolist() == [crisp_walk_one(tree, x)
                                                            for x in states]

    @pytest.mark.parametrize("depth", [2, 3])
    def test_matches_hard_step_forward_oracle(self, depth):
        # replace every sigmoid by a step function and take the argmax action
        rng = np.random.default_rng(depth)
        for _ in range(20):
            tree = one_hot_tree(depth, rng)
            crisp = crispify(tree)
            states = rng.uniform(size=(500, 5))
            oracle = []
            for x in states:
                node = 0
                for _level in range(depth):
                    z = tree.feature_weights[node] @ x - tree.thresholds[node]
                    node = 2 * node + (1 if z > 0 else 2)
                leaf = node - (2 ** depth - 1)
                oracle.append(int(np.argmax(softmax_neg(tree.leaf_weights[leaf]))))
            assert crisp_predict(crisp, states).tolist() == oracle

    @pytest.mark.parametrize("depth", [2, 3])
    def test_saturation_limit_agrees_with_soft_argmax(self, depth):
        rng = np.random.default_rng(depth + 7)
        for _ in range(10):
            tree = one_hot_tree(depth, rng)
            crisp = crispify(tree)
            sat = TreeParams(depth, tree.feature_weights * 1e4, tree.thresholds * 1e4,
                             tree.leaf_weights)
            hits = 0
            for _ in range(300):
                x = rng.uniform(size=5)
                clear = all(abs(x[crisp.feature_index[i]] - crisp.thresholds[i]) >= 1e-3
                            for i in range(2 ** depth - 1))
                if not clear:
                    continue
                hits += 1
                soft_action = int(np.argmax(forward_one(sat, x)[0]))
                assert soft_action == crisp_predict(crisp, x[None, :])[0]
            assert hits > 100


class TestExport:
    def crisp(self):
        return CrispTree(2, (2, 1, 3), (0.5, 0.25, 0.75), (False, True, False),
                         (0, 2, 3, 4))

    def test_depth1_text_is_two_lines(self):
        tree = CrispTree(1, (2,), (0.3,), (False,), (4, 0))
        text = export_rules(tree, "text")
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("if price > 0.3")

    def test_depth2_structure_counts(self):
        text = export_rules(self.crisp(), "text")
        assert text.count("if ") == 3
        # leaf renderings end a line with ": <action>"
        assert text.count(": ") == 4

    def test_dot_contains_nodes_and_edges(self):
        dot = export_rules(self.crisp(), "dot")
        assert dot.startswith("digraph")
        assert dot.count("shape=box") == 3
        assert dot.count("shape=oval") == 4
        assert dot.count("->") == 6

    def test_json_round_trip_is_exact(self):
        tree = self.crisp()
        again = tree_from_json(tree_to_json(tree, FEATURE_NAMES, ACTION_NAMES))
        assert again == tree

    def test_round_trip_via_export_rules(self):
        tree = self.crisp()
        dumped = export_rules(tree, "json")
        assert tree_from_json(dumped) == tree

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="unknown export format"):
            export_rules(self.crisp(), "yaml")

    def test_garbage_json_rejected(self):
        with pytest.raises(ConfigError):
            tree_from_json("not json at all")
        with pytest.raises(ConfigError):
            tree_from_json('{"format": "something-else"}')

    def test_serialized_tree_stays_small(self):
        rng = np.random.default_rng(0)
        tree = crispify(one_hot_tree(3, rng))
        dumped = tree_to_json(tree, FEATURE_NAMES, ACTION_NAMES)
        assert len(dumped.encode()) <= 8 * 1024
