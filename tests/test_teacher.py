import os
import shutil

import numpy as np
import pytest

from treepolicy.dataio import NormalizationStats, RunConfig, build_profiles
from treepolicy.diffmath import BLOCK_ROWS, dense_forward_batch, init_dense
from treepolicy.envsim import HomeEnv
from treepolicy import pipeline, teacher
from treepolicy.errors import ConfigError, TrainingDivergedError
from treepolicy.teacher import (
    ReplayBuffer,
    TeacherAgent,
    epsilon_at,
    greedy_action,
    load_checkpoint,
    load_states,
    save_checkpoint,
    save_states,
    select_action,
    soft_update,
    td_targets,
    train_step,
    train_teacher,
)

from conftest import (
    assert_grads_close,
    bit_patterns,
    edit_container,
    finite_difference,
    pre_activation_forward_batch,
    pre_activation_gradients,
    tiny_config,
)


def constant_q_agent(q_values, gamma=0.99):
    """Agent whose online and target nets both always output q_values."""
    agent = TeacherAgent.create([5, 4, 5], 0.001, gamma, 0.1, np.random.default_rng(0))
    for net in (agent.online_net, agent.target_net):
        net.flat[:] = 0.0
        net.biases[-1][:] = q_values
    return agent


class TestSelectAction:
    def test_pure_exploration_is_uniform(self):
        agent = constant_q_agent([0.0] * 5)
        rng = np.random.default_rng(42)
        counts = np.zeros(5)
        n = 10_000
        for _ in range(n):
            counts[select_action(agent, np.zeros(5), 1.0, rng)] += 1
        sigma = np.sqrt(n * 0.2 * 0.8)
        assert np.all(np.abs(counts - n * 0.2) <= 3 * sigma)

    def test_greedy_is_argmin(self):
        agent = constant_q_agent([3.0, 1.0, 2.0, 5.0, 4.0])
        rng = np.random.default_rng(0)
        assert select_action(agent, np.zeros(5), 0.0, rng) == 1

    def test_tie_break_lowest_index(self):
        agent = constant_q_agent([1.0, 0.0, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(0)
        assert select_action(agent, np.zeros(5), 0.0, rng) == 1

    def test_greedy_is_pure_function_of_state(self):
        agent = TeacherAgent.create([5, 8, 5], 0.001, 0.99, 0.1, np.random.default_rng(3))
        state = np.random.default_rng(4).uniform(size=5)
        first = greedy_action(agent, state)
        assert all(greedy_action(agent, state) == first for _ in range(10))


class TestTdTargets:
    def test_terminal_has_no_bootstrap(self):
        agent = constant_q_agent([9.0] * 5)
        targets = td_targets(agent, np.array([0.4]), np.zeros((1, 5)), np.array([True]))
        np.testing.assert_allclose(targets, [0.4])

    def test_gamma_zero_is_myopic(self):
        agent = constant_q_agent([9.0] * 5, gamma=0.0)
        targets = td_targets(agent, np.array([0.1, 0.7]), np.zeros((2, 5)),
                             np.array([False, False]))
        np.testing.assert_allclose(targets, [0.1, 0.7])

    def test_two_state_chain_matches_bellman_oracle(self):
        # deterministic chain: s0 -> s1 -> terminal, with known per-state costs
        q1 = np.array([0.5, 0.2, 0.9, 0.4, 0.6])
        agent = constant_q_agent(q1, gamma=0.8)
        s1 = np.ones(5)
        targets = td_targets(agent, np.array([1.0, 0.2]), np.stack([s1, s1 * 2]),
                             np.array([False, True]))
        expected = [1.0 + 0.8 * q1.min(), 0.2]
        np.testing.assert_allclose(targets, expected)


class TestReplayBuffer:
    def test_capacity_and_eviction_order(self):
        buf = ReplayBuffer(capacity=5)
        for i in range(7):
            buf.push(np.full(5, i), i % 5, float(i), np.full(5, i + 1), False)
        assert len(buf) == 5
        stored = sorted(buf.costs.tolist())
        assert stored == [2.0, 3.0, 4.0, 5.0, 6.0]

    def test_sampling_without_replacement(self):
        buf = ReplayBuffer(capacity=100)
        for i in range(100):
            buf.push(np.zeros(5), 0, float(i), np.zeros(5), False)
        idx = buf.sample_indices(100, np.random.default_rng(0))
        assert len(set(idx.tolist())) == 100

    def test_uniformity_coverage(self):
        # 10^6 draws as 1000 batches of 1000 over a full 5000-slot buffer;
        # per-index counts are Binomial(1000, 0.2), so ~99.7% of indices must
        # land inside 3 sigma and every index must be hit.
        buf = ReplayBuffer(capacity=5000)
        for i in range(5000):
            buf.push(np.zeros(5), 0, 0.0, np.zeros(5), False)
        rng = np.random.default_rng(7)
        counts = np.zeros(5000)
        for _ in range(1000):
            counts[buf.sample_indices(1000, rng)] += 1
        sigma = np.sqrt(1000 * 0.2 * 0.8)
        inside = np.abs(counts - 200.0) <= 3 * sigma
        assert counts.min() > 0
        assert inside.mean() >= 0.99
        assert counts.mean() == pytest.approx(200.0)

    def test_transitions_round_trip(self):
        buf = ReplayBuffer(capacity=4)
        buf.push(np.arange(5.0), 3, 0.5, np.arange(5.0) + 1, True)
        assert buf.actions[0] == 3 and buf.costs[0] == 0.5 and buf.terminals[0]
        np.testing.assert_array_equal(buf.states[0], np.arange(5.0))
        np.testing.assert_array_equal(buf.next_states[0], np.arange(5.0) + 1)


class TestTrainStep:
    def test_insufficient_buffer_is_noop(self):
        agent = constant_q_agent([0.0] * 5)
        buf = ReplayBuffer(capacity=10)
        assert train_step(agent, buf, 5, np.random.default_rng(0)) is None

    def test_fixed_point_keeps_parameters(self):
        agent = constant_q_agent([0.0] * 5, gamma=0.9)
        buf = ReplayBuffer(capacity=8)
        for _ in range(8):
            buf.push(np.zeros(5), 2, 0.0, np.zeros(5), True)
        before = agent.online_net.flat.copy()
        loss = train_step(agent, buf, 8, np.random.default_rng(0))
        assert loss == 0.0
        np.testing.assert_array_equal(before, agent.online_net.flat)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(5)
        agent = TeacherAgent.create([5, 8, 5], 0.001, 0.9, 0.1, rng)
        buf = ReplayBuffer(capacity=32)
        for _ in range(32):
            buf.push(rng.uniform(size=5), int(rng.integers(5)), float(rng.normal()),
                     rng.uniform(size=5), bool(rng.integers(2)))
        for _ in range(5):
            assert train_step(agent, buf, 16, rng) >= 0.0

    def test_td_gradient_matches_finite_differences(self, monkeypatch):
        # the gradient train_step hands to Adam, against central differences of
        # the TD loss it returns, on one fixed minibatch: the whole buffer, drawn
        # in the same order by a fresh generator on every call; one gradient
        # block, then two with a one-row tail
        fed = []
        monkeypatch.setattr(teacher, "adam_step",
                            lambda params, grads, state: fed.append(grads.copy()))
        for batch in (12, BLOCK_ROWS + 1):
            rng = np.random.default_rng(21)
            agent = TeacherAgent.create([5, 8, 6, 5], 0.001, 0.9, 0.0, rng)  # blend 0: fixed target
            buf = ReplayBuffer(capacity=batch)
            for _ in range(batch):
                buf.push(rng.uniform(size=5), int(rng.integers(5)), float(rng.normal()),
                         rng.uniform(size=5), bool(rng.integers(2)))

            def loss():
                return train_step(agent, buf, batch, np.random.default_rng(0))

            fed.clear()
            loss()
            numeric = finite_difference(loss, [agent.online_net.flat])
            assert_grads_close([fed[0]], numeric)

    def test_nan_weights_abort(self):
        agent = constant_q_agent([0.0] * 5)
        agent.online_net.weights[0][0, 0] = np.nan
        buf = ReplayBuffer(capacity=4)
        for _ in range(4):
            buf.push(np.ones(5), 0, 1.0, np.ones(5), True)
        with pytest.raises(TrainingDivergedError):
            train_step(agent, buf, 4, np.random.default_rng(0))

    def test_overflowing_weights_abort_without_numpy_warnings(self):
        # the forward overflows to inf and the TD error to nan; the suite turns
        # any numpy RuntimeWarning into an error, so only the divergence may surface
        agent = TeacherAgent.create([5, 8, 5], 0.001, 0.99, 0.1, np.random.default_rng(0))
        for net in (agent.online_net, agent.target_net):
            net.weights[-1][:] = 1e300
        buf = ReplayBuffer(capacity=4)
        for _ in range(4):
            buf.push(np.ones(5), 0, 1.0, np.ones(5), False)
        with pytest.raises(TrainingDivergedError, match="non-finite TD loss"):
            train_step(agent, buf, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("batch", [64, 1000])
    def test_steps_bit_equal_to_pre_activation_reference(self, batch, monkeypatch):
        def train():
            rng = np.random.default_rng(batch)
            agent = TeacherAgent.create([5, 64, 64, 5], 0.001, 0.99, 0.01, rng)
            buf = ReplayBuffer(capacity=2000)
            for _ in range(2000):
                buf.push(rng.uniform(size=5), int(rng.integers(5)), float(rng.normal()),
                         rng.uniform(size=5), bool(rng.integers(2)))
            losses = [train_step(agent, buf, batch, rng) for _ in range(50)]
            return agent.online_net.flat.tobytes(), agent.target_net.flat.tobytes(), losses

        got = train()
        monkeypatch.setattr(teacher, "dense_forward_batch", pre_activation_forward_batch)
        monkeypatch.setattr(teacher, "dense_gradients", pre_activation_gradients)
        want = train()
        assert got[:2] == want[:2]
        assert bit_patterns(got[2]) == bit_patterns(want[2])

    def test_toy_mdp_converges_to_dp_values(self):
        # 3-state deterministic MDP: s0 --a--> s1 --a--> terminal
        gamma = 0.9
        rng = np.random.default_rng(11)
        c0 = np.array([0.9, 0.1, 0.3, 0.7, 0.5])
        c1 = np.array([0.2, 0.8, 0.4, 0.6, 1.0])
        s0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        s1 = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        s2 = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        agent = TeacherAgent.create([5, 32, 32, 5], 0.001, gamma, 0.1, rng)
        buf = ReplayBuffer(capacity=10)
        for a in range(5):
            buf.push(s0, a, c0[a], s1, False)
            buf.push(s1, a, c1[a], s2, True)
        for _ in range(2000):
            train_step(agent, buf, 10, rng)
        q_star_s1 = c1
        q_star_s0 = c0 + gamma * c1.min()
        err1 = np.abs(dense_forward_batch(agent.online_net, s1[None, :])[0] - q_star_s1).max()
        err0 = np.abs(dense_forward_batch(agent.online_net, s0[None, :])[0] - q_star_s0).max()
        assert max(err0, err1) < 0.05


class TestSoftUpdate:
    def test_blend_formula_elementwise(self):
        rng = np.random.default_rng(1)
        agent = TeacherAgent.create([5, 6, 5], 0.001, 0.99, 0.1, rng)
        agent.target_net.flat += rng.normal(size=agent.target_net.flat.shape)
        online = agent.online_net.flat.copy()
        target = agent.target_net.flat.copy()
        soft_update(agent)
        new = agent.target_net.flat
        np.testing.assert_allclose(new, 0.1 * online + 0.9 * target, atol=1e-12)
        assert new.shape == online.shape
        # in place: the named arrays still view the blended vector
        assert all(np.shares_memory(w, new) for w in agent.target_net.weights)


class TestEpsilonSchedule:
    def test_linear_decay_then_floor(self):
        cfg = RunConfig()
        total = 1000
        assert epsilon_at(0, total, cfg) == 1.0
        assert epsilon_at(800, total, cfg) == pytest.approx(0.05)
        assert epsilon_at(999, total, cfg) == pytest.approx(0.05)
        assert epsilon_at(400, total, cfg) == pytest.approx(0.525)


class TestTrainTeacher:
    def test_seeded_determinism_is_bit_exact(self):
        cfg = tiny_config().with_overrides(teacher_seed=123)
        profiles = build_profiles(cfg)
        stats = NormalizationStats.from_profiles(profiles)
        runs = []
        for _ in range(2):
            env = HomeEnv(cfg.battery(), cfg.tariff(), stats)
            runs.append(train_teacher(cfg, env, profiles))
        np.testing.assert_array_equal(runs[0].agent.online_net.flat, runs[1].agent.online_net.flat)
        assert runs[0].losses == runs[1].losses

    def test_invariant_counts_and_buffer_fill(self):
        cfg = tiny_config()
        profiles = build_profiles(cfg)
        stats = NormalizationStats.from_profiles(profiles)
        env = HomeEnv(cfg.battery(), cfg.tariff(), stats)
        res = train_teacher(cfg, env, profiles)
        assert res.agent.online_net.flat.size == 4869
        assert len(res.buffer) == min(cfg.episodes * 24, cfg.buffer_size)
        assert len(res.episode_costs) == cfg.episodes
        assert all(np.isfinite(res.losses))


class TestArtifacts:
    def test_checkpoint_round_trip_and_size(self, tmp_path, fixture_stats):
        rng = np.random.default_rng(2)
        net = init_dense([5, 64, 64, 5], rng)
        path = str(tmp_path / "teacher.ckpt")
        save_checkpoint(net, fixture_stats, path)
        size = os.path.getsize(path)
        assert 15 * 1024 <= size <= 30 * 1024
        loaded, stats = load_checkpoint(path)
        assert stats == fixture_stats
        x = rng.uniform(size=(1, 5))
        np.testing.assert_allclose(dense_forward_batch(loaded, x),
                                   dense_forward_batch(net, x), atol=1e-5)
        # what loads saves back to the same bytes
        again = str(tmp_path / "again.ckpt")
        save_checkpoint(*load_checkpoint(path), again)
        with open(path, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()
        # a checkpoint of the older format, which also carried the TD settings,
        # loads to the same net and stats
        older = tmp_path / "older.ckpt"
        shutil.copyfile(path, older)
        edit_container(older, gamma=0.99, target_blend=0.1)
        old_net, old_stats = load_checkpoint(str(older))
        assert old_stats == fixture_stats
        np.testing.assert_array_equal(old_net.flat, loaded.flat)

    def test_states_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        states = rng.normal(size=(12, 5))
        states[0, :3] = (-0.0, 5e-324, np.nextafter(1.0, 2.0))
        path = str(tmp_path / "replay.buf")
        save_states(states, path)
        back = load_states(path)
        assert back.dtype == np.float64 and back.shape == (12, 5)
        assert back.tobytes() == states.tobytes()

    @pytest.mark.parametrize("episodes", [20, 60], ids=["partly-filled", "wrapped"])
    def test_stage_stores_the_buffers_filled_rows_in_buffer_order(self, tmp_path, episodes):
        # 20 episodes leave 480 of the 600 rows filled; 60 wrap the ring to cursor 240
        cfg = tiny_config(episodes=episodes)
        out = str(tmp_path / "run")
        pipeline.stage_gen_data(cfg, out)
        pipeline.stage_train_teacher(cfg, out)
        profiles = build_profiles(cfg)
        env = HomeEnv(cfg.battery(), cfg.tariff(), NormalizationStats.from_profiles(profiles))
        buf = train_teacher(cfg, env, profiles).buffer
        assert (len(buf), buf.cursor) == ((480, 480) if episodes == 20 else (600, 240))
        stored = load_states(os.path.join(out, "checkpoints", "replay.buf"))
        assert stored.tobytes() == buf.states[:len(buf)].tobytes()

    def test_checkpoint_kind_guard(self, tmp_path):
        path = str(tmp_path / "replay.buf")
        save_states(np.zeros((1, 5)), path)
        with pytest.raises(ConfigError):
            load_checkpoint(path)
