"""DQN teacher: replay buffer, epsilon-greedy exploration, TD training loop.

The agent minimizes cost, so action selection is an argmin over predicted
Q-values and the TD bootstrap uses the minimum over the softly-updated
target network. One call to ``train_teacher`` is fully determined by its
seed: the weight gradients sum over fixed row blocks in a fixed order, so
the trained bytes do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binio
from .dataio import NormalizationStats, RunConfig
from .diffmath import (
    AdamState,
    DenseNet,
    adam_step,
    dense_forward_batch,
    dense_gradients,
    init_dense,
)
from .envsim import ACTION_NAMES, FEATURE_NAMES
from .errors import ConfigError, TrainingDivergedError


class ReplayBuffer:
    """Fixed-capacity ring buffer storing transitions column-wise."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.states = np.zeros((capacity, len(FEATURE_NAMES)))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.costs = np.zeros(capacity)
        self.next_states = np.zeros((capacity, len(FEATURE_NAMES)))
        self.terminals = np.zeros(capacity, dtype=bool)
        self.cursor = 0
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def push(self, state, action_index: int, cost: float, next_state, terminal: bool) -> None:
        i = self.cursor
        self.states[i] = state
        self.actions[i] = action_index
        self.costs[i] = cost
        self.next_states[i] = next_state
        self.terminals[i] = terminal
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample_indices(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform sample without replacement from the filled region."""
        return rng.choice(self.size, size=batch_size, replace=False)


@dataclass
class TeacherAgent:
    """Training state only: the online and target nets, Adam moments and TD
    settings. ``save_checkpoint`` keeps the online net alone."""

    online_net: DenseNet
    target_net: DenseNet
    adam: AdamState
    gamma: float
    target_blend: float

    @classmethod
    def create(cls, layer_sizes, learning_rate: float, gamma: float,
               target_blend: float, rng: np.random.Generator) -> "TeacherAgent":
        online = init_dense(list(layer_sizes), rng)
        return cls(online, DenseNet(online.layer_sizes, online.weights, online.biases),
                   AdamState(online.flat, learning_rate), gamma, target_blend)

    @property
    def n_actions(self) -> int:
        return self.online_net.layer_sizes[-1]


def select_action(agent: TeacherAgent, state: np.ndarray, epsilon: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy over the online net; greedy means argmin (costs)."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(agent.n_actions))
    return greedy_action(agent, state)


def greedy_action(agent: TeacherAgent, state: np.ndarray) -> int:
    # np.argmin resolves ties to the lowest index, which is the contract
    return int(np.argmin(dense_forward_batch(agent.online_net, state[None, :])))


def td_targets(agent: TeacherAgent, costs: np.ndarray, next_states: np.ndarray,
               terminals: np.ndarray) -> np.ndarray:
    """cost + gamma * min_a Q_target(next state, a), bootstrap dropped at terminal."""
    q_next = dense_forward_batch(agent.target_net, next_states).min(axis=1)
    return costs + agent.gamma * q_next * ~terminals


def soft_update(agent: TeacherAgent) -> None:
    """target <- blend * online + (1 - blend) * target, elementwise."""
    b = agent.target_blend
    agent.target_net.flat *= 1.0 - b
    agent.target_net.flat += b * agent.online_net.flat


def train_step(agent: TeacherAgent, buffer: ReplayBuffer, batch_size: int,
               rng: np.random.Generator):
    """One DQN update on a sampled minibatch; returns the loss, or None if the
    buffer cannot fill a batch yet."""
    if len(buffer) < batch_size:
        return None
    idx = buffer.sample_indices(batch_size, rng)
    actions = buffer.actions[idx]
    err = np.empty(batch_size)

    def td_error_grad(lo, q):
        # fills this block's TD errors; the squared-error mean's gradient is
        # nonzero only at each row's taken action
        rows = np.arange(len(q))
        block = slice(lo, lo + len(q))
        err[block] = q[rows, actions[block]] - targets[block]
        d_out = np.zeros_like(q)
        d_out[rows, actions[block]] = 2.0 * err[block] / batch_size
        return d_out

    # blown-up weights overflow to inf or nan: the loss check reports it, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        targets = td_targets(agent, buffer.costs[idx], buffer.next_states[idx],
                             buffer.terminals[idx])
        grads = dense_gradients(agent.online_net, buffer.states[idx], td_error_grad)
        loss = float(np.mean(err ** 2))
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite TD loss {loss!r}")
    adam_step(agent.online_net.flat, grads.flat, agent.adam)
    soft_update(agent)
    return loss


def epsilon_at(step: int, total_steps: int, config: RunConfig) -> float:
    """Linear decay from epsilon_start to epsilon_end over the decay fraction."""
    decay_steps = max(1, int(config.epsilon_decay_fraction * total_steps))
    frac = min(1.0, step / decay_steps)
    return config.epsilon_start + frac * (config.epsilon_end - config.epsilon_start)


@dataclass
class TeacherResult:
    agent: TeacherAgent
    buffer: ReplayBuffer
    losses: list[float]
    episode_costs: list[float]


def train_teacher(config: RunConfig, env, profiles) -> TeacherResult:
    """Epsilon-greedy episode loop with one train step per environment step,
    seeded by ``config.teacher_seed``.

    Days are sampled with replacement from ``profiles`` and stepped one at a
    time through ``env`` (a ``HomeEnv``, as a batch of one day); training
    starts once the buffer holds a full batch.
    """
    rng = np.random.default_rng(config.teacher_seed)
    layer_sizes = [len(FEATURE_NAMES), *config.hidden_sizes, len(config.action_levels)]
    agent = TeacherAgent.create(layer_sizes, config.learning_rate, config.gamma,
                                config.target_blend, rng)
    buffer = ReplayBuffer(config.buffer_size)
    levels = np.array(config.action_levels)
    total_steps = config.episodes * len(profiles[0].prices_eur_per_kwh)
    losses: list[float] = []
    episode_costs: list[float] = []
    step = 0
    for episode in range(config.episodes):
        day = profiles[int(rng.integers(len(profiles)))]
        state = env.reset([day], config.initial_soc)[0]
        ep_cost = 0.0
        while not env.done:
            eps = epsilon_at(step, total_steps, config)
            action = select_action(agent, state, eps, rng)
            outcome = env.step(levels[[action]])
            cost, next_state = outcome.cost_eur[0], outcome.next_state[0]
            buffer.push(state, action, cost, next_state, env.done)
            ep_cost += cost
            state = next_state
            try:
                loss = train_step(agent, buffer, config.batch_size, rng)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"{exc} (seed {config.teacher_seed}, episode {episode}, step {step})"
                ) from None
            if loss is not None:
                losses.append(loss)
            step += 1
        episode_costs.append(float(ep_cost))
    return TeacherResult(agent, buffer, losses, episode_costs)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def save_checkpoint(net: DenseNet, stats: NormalizationStats, path: str) -> None:
    """Q-network + normalization stats, float32 blocks for a compact file."""
    meta = {
        "kind": "teacher-checkpoint/v1",
        "layer_sizes": list(net.layer_sizes),
        "normalization": stats.to_dict(),
    }
    blocks = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        blocks.append((f"w{i}", w, "f4"))
        blocks.append((f"b{i}", b, "f4"))
    binio.write_blocks(path, meta, blocks)


def load_checkpoint(path: str) -> tuple[DenseNet, NormalizationStats]:
    """The Q-network and normalization ``save_checkpoint`` wrote. A ``layer_sizes``
    that is not two or more positive widths from the feature count to the action
    count, a weight or bias block of another shape or with a non-finite entry, or
    a bad normalization raises ``ConfigError`` naming the file; other meta keys
    are ignored."""
    meta, arrays = binio.read_blocks(path, "teacher-checkpoint/v1")
    layer_sizes = meta["layer_sizes"]
    if type(layer_sizes) is not list or len(layer_sizes) < 2 \
            or any(type(n) is not int or n <= 0 for n in layer_sizes):
        raise ConfigError(f"{path!r} 'layer_sizes' must be a list of at least 2 positive "
                          f"integers, got {layer_sizes!r}")
    if (layer_sizes[0], layer_sizes[-1]) != (len(FEATURE_NAMES), len(ACTION_NAMES)):
        raise ConfigError(f"{path!r} 'layer_sizes' must be [{len(FEATURE_NAMES)}, ..., "
                          f"{len(ACTION_NAMES)}] (the features to the actions), "
                          f"got {layer_sizes!r}")
    for i, (n_in, n_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
        for name, shape in ((f"w{i}", (n_in, n_out)), (f"b{i}", (n_out,))):
            block = arrays[name]
            if block.shape != shape:
                raise ConfigError(f"{path!r} block {name!r} has shape {block.shape}; "
                                  f"'layer_sizes' {layer_sizes!r} needs {shape}")
            if not np.isfinite(block).all():
                raise ConfigError(f"{path!r} block {name!r} has non-finite entries")
    net = DenseNet(layer_sizes,
                   [arrays[f"w{i}"] for i in range(len(layer_sizes) - 1)],
                   [arrays[f"b{i}"] for i in range(len(layer_sizes) - 1)])
    return net, NormalizationStats.from_dict(meta["normalization"], f"{path!r} normalization")


def save_states(states: np.ndarray, path: str) -> None:
    """The states the teacher visited, one row each, as the float64 block ``states``."""
    binio.write_blocks(path, {"kind": "replay-states/v1"}, [("states", states, "f8")])


def load_states(path: str) -> np.ndarray:
    """The (n, 5) states ``save_states`` wrote. A block of another shape, with no
    rows or with a non-finite entry raises ``ConfigError`` naming the file and the block."""
    states = binio.read_blocks(path, "replay-states/v1")[1]["states"]
    if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] != len(FEATURE_NAMES):
        raise ConfigError(f"{path!r} block 'states' has shape {states.shape}; "
                          f"it needs (n, {len(FEATURE_NAMES)}) with n >= 1")
    if not np.isfinite(states).all():
        raise ConfigError(f"{path!r} block 'states' has non-finite entries")
    return states
