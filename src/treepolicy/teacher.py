"""DQN teacher: replay buffer, epsilon-greedy exploration, TD training loop.

The agent minimizes cost, so action selection is an argmin over predicted
Q-values and the TD bootstrap uses the minimum over the softly-updated
target network. One call to ``train_teacher`` is strictly single-threaded
and fully determined by its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binio
from .dataio import NormalizationStats, RunConfig
from .diffmath import (
    AdamState,
    DenseNet,
    _backward_from_cache,
    _forward_cached,
    adam_step,
    dense_forward_batch,
    init_dense,
)
from .errors import ConfigError, TrainingDivergedError


class ReplayBuffer:
    """Fixed-capacity ring buffer storing transitions column-wise."""

    def __init__(self, capacity: int = 5000, n_features: int = 5):
        if capacity <= 0:
            raise ConfigError("buffer capacity must be positive")
        self.capacity = capacity
        self.states = np.zeros((capacity, n_features))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.costs = np.zeros(capacity)
        self.next_states = np.zeros((capacity, n_features))
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
    online_net: DenseNet
    target_net: DenseNet
    adam: AdamState
    gamma: float = 0.99
    target_blend: float = 0.1

    @classmethod
    def create(cls, layer_sizes, learning_rate: float, gamma: float,
               target_blend: float, rng: np.random.Generator) -> "TeacherAgent":
        online = init_dense(list(layer_sizes), rng)
        return cls(online, online.copy(), AdamState.for_params(online.params(), learning_rate),
                   gamma, target_blend)

    @property
    def n_actions(self) -> int:
        return self.online_net.layer_sizes[-1]


def select_action(agent: TeacherAgent, state: np.ndarray, epsilon: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy over the online net; greedy means argmin (costs)."""
    if not (0.0 <= epsilon <= 1.0):
        raise ConfigError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(agent.n_actions))
    return greedy_action(agent, state)


def greedy_action(agent: TeacherAgent, state: np.ndarray) -> int:
    # np.argmin resolves ties to the lowest index, which is the contract
    return int(np.argmin(dense_forward_batch(agent.online_net, state[None, :])))


def td_targets(agent: TeacherAgent, costs: np.ndarray, next_states: np.ndarray,
               terminals: np.ndarray) -> np.ndarray:
    """cost + gamma * min_a Q_target(next state, a), bootstrap dropped at terminal."""
    if len(costs) == 0:
        raise ConfigError("td_targets needs a non-empty batch")
    q_next = dense_forward_batch(agent.target_net, next_states).min(axis=1)
    return costs + agent.gamma * q_next * ~terminals


def soft_update(agent: TeacherAgent) -> None:
    """target <- blend * online + (1 - blend) * target, elementwise."""
    b = agent.target_blend
    for tp, op in zip(agent.target_net.params(), agent.online_net.params()):
        tp *= 1.0 - b
        tp += b * op


def train_step(agent: TeacherAgent, buffer: ReplayBuffer, batch_size: int,
               rng: np.random.Generator):
    """One DQN update on a sampled minibatch; returns the loss, or None if the
    buffer cannot fill a batch yet."""
    if len(buffer) < batch_size:
        return None
    idx = buffer.sample_indices(batch_size, rng)
    states = buffer.states[idx]
    actions = buffer.actions[idx]
    targets = td_targets(agent, buffer.costs[idx], buffer.next_states[idx],
                         buffer.terminals[idx])

    acts, pre = _forward_cached(agent.online_net, states)
    rows = np.arange(batch_size)
    err = acts[-1][rows, actions] - targets
    loss = float(np.mean(err ** 2))
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite TD loss {loss!r}")
    d_out = np.zeros_like(acts[-1])
    d_out[rows, actions] = 2.0 * err / batch_size
    grads = _backward_from_cache(agent.online_net, acts, pre, d_out)
    adam_step(agent.online_net.params(), grads.params(), agent.adam)
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


def train_teacher(config: RunConfig, env, profiles, seed: int | None = None) -> TeacherResult:
    """Epsilon-greedy episode loop with one train step per environment step.

    Days are sampled with replacement from ``profiles`` and stepped one at a
    time through ``env`` (a ``HomeEnv``, as a batch of one day); training
    starts once the buffer holds a full batch.
    """
    seed = config.teacher_seed if seed is None else seed
    rng = np.random.default_rng(seed)
    layer_sizes = [5, *config.hidden_sizes, len(config.action_levels)]
    agent = TeacherAgent.create(layer_sizes, config.learning_rate, config.gamma,
                                config.target_blend, rng)
    buffer = ReplayBuffer(config.buffer_size, n_features=5)
    levels = np.array(config.action_levels)
    horizon = env.tariff.horizon_steps
    total_steps = config.episodes * horizon
    losses: list[float] = []
    episode_costs: list[float] = []
    step = 0
    for episode in range(config.episodes):
        day = profiles[int(rng.integers(len(profiles)))]
        state = env.reset([day], config.initial_soc)[0]
        ep_cost = 0.0
        for t in range(horizon):
            eps = epsilon_at(step, total_steps, config)
            action = select_action(agent, state, eps, rng)
            outcome = env.step(levels[[action]])
            cost, next_state = outcome.cost_eur[0], outcome.next_state[0]
            buffer.push(state, action, cost, next_state, t == horizon - 1)
            ep_cost += cost
            state = next_state
            try:
                loss = train_step(agent, buffer, config.batch_size, rng)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"{exc} (seed {seed}, episode {episode}, step {step})"
                ) from None
            if loss is not None:
                losses.append(loss)
            step += 1
        episode_costs.append(float(ep_cost))
    return TeacherResult(agent, buffer, losses, episode_costs)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def save_checkpoint(agent: TeacherAgent, stats: NormalizationStats, path: str) -> None:
    """Online network + normalization stats, float32 blocks for a compact file."""
    meta = {
        "kind": "teacher-checkpoint/v1",
        "layer_sizes": list(agent.online_net.layer_sizes),
        "gamma": agent.gamma,
        "target_blend": agent.target_blend,
        "normalization": stats.to_dict(),
    }
    blocks = []
    for i, (w, b) in enumerate(zip(agent.online_net.weights, agent.online_net.biases)):
        blocks.append((f"w{i}", w, "f4"))
        blocks.append((f"b{i}", b, "f4"))
    binio.write_blocks(path, meta, blocks)


def load_checkpoint(path: str) -> tuple[TeacherAgent, NormalizationStats]:
    meta, arrays = binio.read_blocks(path, "teacher-checkpoint/v1")
    layer_sizes = [int(n) for n in meta["layer_sizes"]]
    net = DenseNet(layer_sizes,
                   [arrays[f"w{i}"] for i in range(len(layer_sizes) - 1)],
                   [arrays[f"b{i}"] for i in range(len(layer_sizes) - 1)])
    agent = TeacherAgent(net, net.copy(), AdamState.for_params(net.params()),
                         float(meta["gamma"]), float(meta["target_blend"]))
    return agent, NormalizationStats.from_dict(meta["normalization"],
                                               f"{path!r} normalization")


def save_buffer(buffer: ReplayBuffer, path: str) -> None:
    meta = {"kind": "replay-buffer/v1", "capacity": buffer.capacity, "size": buffer.size,
            "cursor": buffer.cursor}
    n = buffer.size
    binio.write_blocks(path, meta, [
        ("states", buffer.states[:n], "f8"),
        ("actions", buffer.actions[:n], "i8"),
        ("costs", buffer.costs[:n], "f8"),
        ("next_states", buffer.next_states[:n], "f8"),
        ("terminals", buffer.terminals[:n].astype(np.uint8), "u1"),
    ])


def load_buffer(path: str) -> ReplayBuffer:
    """The buffer ``save_buffer`` wrote. Every block must hold ``size`` rows
    (states of one width), with ``size <= capacity`` and ``0 <= cursor < capacity``;
    otherwise ``ConfigError`` names the file."""
    meta, arrays = binio.read_blocks(path, "replay-buffer/v1")
    capacity, n, cursor = int(meta["capacity"]), int(meta["size"]), int(meta["cursor"])
    width = arrays["states"].shape[1:]
    want = {"states": (n, *width), "actions": (n,), "costs": (n,),
            "next_states": (n, *width), "terminals": (n,)}
    got = {name: arrays[name].shape for name in want}
    if got != want or len(width) != 1 or not (0 <= n <= capacity and 0 <= cursor < capacity):
        raise ConfigError(f"{path!r} is inconsistent: size {n}, capacity {capacity}, "
                          f"cursor {cursor}, block shapes {got}")
    buf = ReplayBuffer(capacity, n_features=width[0])
    buf.states[:n] = arrays["states"]
    buf.actions[:n] = arrays["actions"]
    buf.costs[:n] = arrays["costs"]
    buf.next_states[:n] = arrays["next_states"]
    buf.terminals[:n] = arrays["terminals"]
    buf.size = n
    buf.cursor = cursor
    return buf


def dump_loss_curve(losses: list[float], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,loss\n")
        for i, loss in enumerate(losses):
            fh.write(f"{i},{loss!r}\n")
