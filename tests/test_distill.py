import hashlib
from pathlib import Path

import numpy as np
import pytest

from treepolicy import ddt
from treepolicy.dataio import RunConfig
from treepolicy.ddt import CrispTree, TreeParams, crisp_predict, init_tree
from treepolicy.diffmath import dense_forward_batch
from treepolicy.distill import (
    DistillationDataset,
    _sparsity_penalty,
    agreement_rate,
    build_dataset,
    distill_objective,
    distill_targets,
    load_dataset,
    save_dataset,
    train_students,
)
from treepolicy.errors import ConfigError, TrainingDivergedError
from treepolicy.teacher import ReplayBuffer, TeacherAgent, save_checkpoint

from conftest import assert_grads_close, crisp_walk_one, finite_difference


def planted_fixture(n=5000, seed=99):
    """Synthetic teacher defined by a known depth-2 axis-aligned rule set."""
    planted = CrispTree(2, (2, 3, 4), (0.52, 0.63, 0.41), (False, False, False),
                        (0, 1, 4, 2))
    rng = np.random.default_rng(seed)
    states = rng.uniform(size=(n, 5))
    actions = crisp_predict(planted, states)
    q = np.ones((n, 5))
    q[np.arange(n), actions] = 0.0
    return planted, DistillationDataset(states, q, {"checkpoint": "planted"})


def heldout_grid():
    g = np.linspace(0, 1, 41)
    return np.array([[0.5, 0.5, a, b, pv] for pv in (0.1, 0.5, 0.9) for a in g for b in g])


class TestBuildDataset:
    def make_agent_buffer(self, n):
        rng = np.random.default_rng(8)
        agent = TeacherAgent.create([5, 8, 5], 0.001, 0.99, 0.1, rng)
        buf = ReplayBuffer(capacity=max(n, 4))
        for _ in range(n):
            buf.push(rng.uniform(size=5), int(rng.integers(5)), float(rng.normal()),
                     rng.uniform(size=5), False)
        return agent, buf

    def test_empty_buffer_rejected(self):
        agent, _ = self.make_agent_buffer(1)
        with pytest.raises(ConfigError):
            build_dataset(agent, ReplayBuffer(capacity=4))

    def test_smallest_case(self):
        agent, buf = self.make_agent_buffer(1)
        ds = build_dataset(agent, buf)
        assert len(ds) == 1 and ds.teacher_q.shape == (1, 5)

    def test_size_equals_buffer_size(self):
        agent, buf = self.make_agent_buffer(120)
        ds = build_dataset(agent, buf)
        assert len(ds) == 120
        assert ds.provenance["buffer_size"] == 120

    def test_recomputation_is_bit_exact(self):
        # more rows than one forward block, ending in a one-row block
        agent, buf = self.make_agent_buffer(257)
        ds = build_dataset(agent, buf)
        want = dense_forward_batch(agent.online_net, buf.states[:len(buf)])
        assert ds.teacher_q.tobytes() == want.tobytes()
        assert ds.states.tobytes() == buf.states[:len(buf)].tobytes()


def one_row(tree, state, teacher_q, tau):
    """Bare distillation loss and gradients of a single state."""
    target = distill_targets(teacher_q, tau)
    loss, grads = distill_objective(tree, np.atleast_2d(state), target[None, :], 0.0)
    return float(loss), grads


class TestDistillLoss:
    def test_perfect_mimic_is_zero(self):
        teacher_q = np.array([0.4, 0.1, 0.9, 0.3, 0.6])
        tau = 0.5
        tree = init_tree(2, np.random.default_rng(0))
        tree.leaf_weights[:] = teacher_q / tau  # every leaf emits the target exactly
        loss, grads = one_row(tree, np.random.default_rng(1).uniform(size=5), teacher_q, tau)
        assert abs(loss) < 1e-12

    def test_sharp_temperature_makes_one_hot_targets(self):
        q = np.array([1.0, 0.5, 1.2, 1.9, 0.0])   # gap 0.5 between best two
        target = distill_targets(q, 0.03)
        assert target[4] >= 1.0 - 1e-6

    def test_loss_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tree = init_tree(2, rng)
            loss, _ = one_row(tree, rng.uniform(size=5), rng.normal(size=5), 0.5)
            assert loss >= -1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            tree = init_tree(2, rng)
            state = rng.uniform(size=5)
            teacher_q = rng.normal(size=5)
            tau = rng.uniform(0.3, 1.0)
            _, grads = one_row(tree, state, teacher_q, tau)

            def loss():
                val, _ = one_row(tree, state, teacher_q, tau)
                return val

            numeric = finite_difference(loss, tree.params(), h=1e-6)
            assert_grads_close(grads.params(), numeric)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_stacked_objective_matches_finite_differences(self, depth):
        # three trees, each on its own 6-row minibatch, with the sparsity penalty:
        # the objective training steps on, differentiated w.r.t. every stacked array
        rng = np.random.default_rng(depth + 40)
        trees = [init_tree(depth, rng) for _ in range(3)]
        stacked = TreeParams(depth, *(np.stack(a) for a in zip(*(t.params() for t in trees))))
        states = rng.uniform(size=(3, 6, 5))
        targets = distill_targets(rng.normal(size=(3, 6, 5)), 0.5)
        losses, grads = distill_objective(stacked, states, targets, 0.03)
        assert losses.shape == (3,)

        def total():
            return float(distill_objective(stacked, states, targets, 0.03)[0].sum())

        numeric = finite_difference(total, stacked.params(), h=1e-6)
        assert_grads_close(grads.params(), numeric)

    def test_one_tree_pass_per_step(self, monkeypatch):
        # the gradients reuse the forward pass: the gates are computed once
        calls = []
        sigmoid = ddt.sigmoid

        def counted(*args):
            calls.append(args)
            return sigmoid(*args)

        monkeypatch.setattr(ddt, "sigmoid", counted)
        rng = np.random.default_rng(8)
        trees = [init_tree(3, rng) for _ in range(2)]
        stacked = TreeParams(3, *(np.stack(a) for a in zip(*(t.params() for t in trees))))
        states = rng.uniform(size=(2, 16, 5))
        targets = distill_targets(rng.normal(size=(2, 16, 5)), 0.5)
        distill_objective(trees[0], states[0], targets[0], 0.03)
        assert len(calls) == 1
        distill_objective(stacked, states, targets, 0.03)
        assert len(calls) == 2

    @pytest.mark.parametrize("shape", [(3, 5), (4, 7, 5)], ids=["one-tree", "stacked"])
    def test_sparsity_subgradient_matches_finite_differences(self, shape):
        # away from zeros and from ties for a node's strongest weight the penalty
        # is smooth, so its subgradient is the gradient and central differences apply
        rng = np.random.default_rng(len(shape) + 60)
        weights = rng.uniform(0.1, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        runner_up, strongest = np.moveaxis(np.sort(np.abs(weights), axis=-1)[..., -2:], -1, 0)
        assert (strongest - runner_up).min() > 1e-3

        def total():
            return float(np.sum(_sparsity_penalty(weights, 0.03)[0]))

        numeric = finite_difference(total, [weights])
        assert_grads_close([_sparsity_penalty(weights, 0.03)[1]], numeric)

    def test_bad_temperature_rejected(self):
        with pytest.raises(ConfigError):
            distill_targets(np.zeros(5), 0.0)


def assert_same_student(a, b):
    assert a.seed == b.seed
    for x, y in zip(a.tree.params(), b.tree.params()):
        assert x.tobytes() == y.tobytes()
    assert a.epoch_losses == b.epoch_losses
    assert a.crisp == b.crisp


class TestTrainStudent:
    def test_constant_one_hot_target_is_learned(self):
        rng = np.random.default_rng(3)
        states = rng.uniform(size=(400, 5))
        q = np.ones((400, 5))
        q[:, 3] = 0.0
        ds = DistillationDataset(states, q)
        cfg = RunConfig(student_epochs=60)
        (result,) = train_students(ds, cfg, (0,))
        assert np.all(crisp_predict(result.crisp, states[:100]) == 3)

    def test_seeded_determinism_is_bit_exact(self):
        _, ds = planted_fixture(n=400)
        cfg = RunConfig(student_epochs=25)
        (a,) = train_students(ds, cfg, (5,))
        (b,) = train_students(ds, cfg, (5,))
        assert_same_student(a, b)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_seeds_train_independently(self, depth):
        # 390 rows leave a short last minibatch of 6
        _, ds = planted_fixture(n=390)
        cfg = RunConfig(student_depth=depth, student_epochs=6)
        together = train_students(ds, cfg, (4, 0, 9))
        assert [r.seed for r in together] == [4, 0, 9]
        for result in together:
            (alone,) = train_students(ds, cfg, (result.seed,))
            assert_same_student(result, alone)
            assert all(type(loss) is float for loss in result.epoch_losses)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train_students(DistillationDataset(np.zeros((0, 5)), np.zeros((0, 5))),
                           RunConfig(), (0,))

    def test_no_seeds_rejected(self):
        _, ds = planted_fixture(n=16)
        with pytest.raises(ConfigError):
            train_students(ds, RunConfig(), ())

    def test_divergence_names_first_seed(self):
        _, ds = planted_fixture(n=64)
        cfg = RunConfig(student_learning_rate=1e3, student_epochs=5)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="seed 7,"):
            train_students(ds, cfg, (7, 3))

    def test_loss_curve_length(self):
        _, ds = planted_fixture(n=200)
        cfg = RunConfig(student_epochs=7)
        (result,) = train_students(ds, cfg, (1,))
        assert len(result.epoch_losses) == 7


@pytest.fixture(scope="module")
def planted_run():
    planted, ds = planted_fixture()
    return planted, ds, train_students(ds, RunConfig(), (1,))[0]


def per_row_agreement(crisp, states, teacher_q):
    hits = sum(crisp_walk_one(crisp, s) == g for s, g in zip(states, np.argmin(teacher_q, axis=1)))
    return float(hits / len(states))


class TestPlantedRecovery:
    def test_recovering_seed_matches_rules_on_grid(self, planted_run):
        planted, _, result = planted_run
        grid = heldout_grid()
        agree = np.mean(crisp_predict(result.crisp, grid) == crisp_predict(planted, grid))
        assert agree >= 0.99

    def test_agreement_rate_exceeds_80pct_on_buffer(self, planted_run):
        _, ds, result = planted_run
        assert agreement_rate(result.crisp, ds.states, ds.teacher_q) > 0.80

    def test_loss_curve_never_regresses_past_tolerance(self, planted_run):
        _, _, result = planted_run
        running_min = result.epoch_losses[0]
        for loss in result.epoch_losses[1:]:
            assert loss <= running_min * 1.10
            running_min = min(running_min, loss)


class TestAgreementRate:
    def test_matches_per_row_walk_on_planted_fixture(self, planted_run):
        planted, ds, result = planted_run
        for crisp in (planted, result.crisp):
            assert (agreement_rate(crisp, ds.states, ds.teacher_q)
                    == per_row_agreement(crisp, ds.states, ds.teacher_q))
        assert agreement_rate(planted, ds.states, ds.teacher_q) == 1.0

    @pytest.mark.parametrize("depth", [2, 3])
    def test_matches_per_row_walk_with_flips_and_ties(self, depth):
        # every threshold is a grid value, so many states tie exactly (ties go right)
        n_nodes = 2 ** depth - 1
        rng = np.random.default_rng(depth)
        levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        crisp = CrispTree(depth, tuple(int(f) for f in rng.integers(5, size=n_nodes)),
                          tuple(float(t) for t in rng.choice(levels[1:4], size=n_nodes)),
                          tuple(bool(i % 2) for i in range(n_nodes)),
                          tuple(int(a) for a in rng.integers(5, size=2 ** depth)))
        states = rng.choice(levels, size=(3000, 5))
        teacher_q = rng.normal(size=(3000, 5))
        assert (agreement_rate(crisp, states, teacher_q)
                == per_row_agreement(crisp, states, teacher_q))


class TestDatasetArtifacts:
    def test_save_load_round_trip(self, tmp_path):
        _, ds = planted_fixture(n=64)
        path = str(tmp_path / "dataset.bin")
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.states, ds.states)
        np.testing.assert_array_equal(back.teacher_q, ds.teacher_q)
        assert back.provenance["checkpoint"] == "planted"

    def test_distillation_never_mutates_teacher(self, tmp_path, fixture_stats):
        rng = np.random.default_rng(12)
        agent = TeacherAgent.create([5, 8, 5], 0.001, 0.99, 0.1, rng)
        buf = ReplayBuffer(capacity=64)
        for _ in range(64):
            buf.push(rng.uniform(size=5), int(rng.integers(5)), float(rng.normal()),
                     rng.uniform(size=5), False)
        path = str(tmp_path / "teacher.ckpt")
        save_checkpoint(agent, fixture_stats, path)
        before = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        ds = build_dataset(agent, buf)
        train_students(ds, RunConfig(student_epochs=10), (0,))
        save_checkpoint(agent, fixture_stats, path)
        after = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert before == after

    def test_non_finite_q_rejected(self):
        with pytest.raises(ConfigError):
            DistillationDataset(np.zeros((2, 5)), np.array([[np.nan] * 5] * 2))
