"""Policy distillation: fit a soft tree to a trained teacher's Q-values.

The teacher's Q-vector for each state it visited is tempered into a target
distribution with the negative-exponent softmax (low cost, high probability)
and the student tree is trained to match it under a KL loss. The tree emits
a distribution directly, so only the teacher side carries the temperature;
a sharp temperature (default 0.03) makes the targets effectively one-hot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import RunConfig
from .ddt import (
    CrispTree,
    TreeParams,
    crisp_predict,
    crispify,
    forward_batch,
    gradients_batch,
    init_tree,
)
from .diffmath import AdamState, DenseNet, adam_step, dense_forward_batch, softmax_neg
from .errors import ConfigError, TrainingDivergedError


@dataclass
class DistillationDataset:
    states: np.ndarray      # (n, n_features)
    teacher_q: np.ndarray   # (n, n_actions)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.teacher_q = np.asarray(self.teacher_q, dtype=float)
        if not np.all(np.isfinite(self.teacher_q)):
            raise ConfigError("teacher_q contains non-finite entries")

    def __len__(self) -> int:
        return self.states.shape[0]


def build_dataset(net: DenseNet, states: np.ndarray) -> DistillationDataset:
    """One record per state (the states the teacher visited):
    the teacher net's Q-vector over all actions. The dataset keeps a copy of
    ``states``, so later pushes to the buffer do not reach it."""
    states = np.array(states, dtype=float)
    # states far outside the training range overflow to inf or nan, which the
    # dataset's finite check reports as an input error, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        return DistillationDataset(states, dense_forward_batch(net, states))


def distill_targets(teacher_q: np.ndarray, temperature: float) -> np.ndarray:
    return softmax_neg(np.asarray(teacher_q, dtype=float) / temperature)


def _sparsity_penalty(feature_weights: np.ndarray, strength: float) -> tuple[np.ndarray, np.ndarray]:
    """L1 pressure on every feature weight except each node's strongest one.

    Drives the per-node selection toward one-hot so that hardening the tree
    (argmax feature reduction) preserves the learned decision boundaries.
    Returns the penalty value of each tree and its subgradient.
    """
    magnitude = np.abs(feature_weights)
    rows = magnitude.reshape(-1, magnitude.shape[-1])          # one row per decision node
    winners = (np.arange(len(rows)), rows.argmax(axis=1))
    kept = rows[winners].reshape(magnitude.shape[:-1])
    total = magnitude.reshape(*magnitude.shape[:-2], -1).sum(axis=-1)
    value = strength * (total - kept.sum(axis=-1))
    grad = strength * np.sign(feature_weights)
    grad.reshape(rows.shape)[winners] = 0.0
    return value, grad


def target_logs(targets: np.ndarray) -> np.ndarray:
    """log of each target, and 0 where the target is 0: there the KL term
    target * log(target / dist) is 0, and log(0) would be -inf."""
    mask = targets > 0.0
    logs = np.zeros_like(targets)
    logs[mask] = np.log(targets[mask])
    return logs


def distill_objective(params: TreeParams, states: np.ndarray, targets: np.ndarray,
                      log_targets: np.ndarray, sparsity: float,
                      out: TreeParams | None = None) -> tuple[np.ndarray, TreeParams]:
    """Mean KL(target || tree distribution) over the minibatch plus the sparsity
    penalty, and the gradients of that objective, written into ``out`` as
    ``gradients_batch`` does. One ``forward_batch`` pass serves both.
    ``log_targets`` is ``target_logs(targets)``.

    Shapes follow ``forward_batch``: with a leading tree axis on ``params``,
    ``states`` and ``targets`` hold one minibatch per tree and the objective
    is one value per tree.
    """
    fwd = forward_batch(params, states)
    n = states.shape[-2]
    mask = targets > 0.0
    # a zero target's term is 0 * (0 - log 1) = 0, whatever the tree gives its action
    log_dists = np.log(np.where(mask, fwd.dists, 1.0))
    loss = (targets * (log_targets - log_dists)).reshape(*targets.shape[:-2], -1).sum(axis=-1) / n
    d_out = np.where(mask, -targets / fwd.dists, 0.0) / n
    grads = gradients_batch(params, fwd, d_out, out)
    if sparsity > 0:
        pen, pen_grad = _sparsity_penalty(params.feature_weights, sparsity)
        loss = loss + pen
        grads.feature_weights += pen_grad
    return loss, grads


@dataclass
class StudentResult:
    tree: TreeParams
    crisp: CrispTree
    epoch_losses: list[float]
    seed: int


def train_students(dataset: DistillationDataset, config: RunConfig,
                   depth: int) -> list[StudentResult]:
    """Minibatch Adam on one depth-``depth`` tree per ``config.seeds`` entry
    against tempered teacher targets.

    All seeds train together: the parameters carry a leading seed axis and
    every step updates each tree on its own minibatch. Each seed has its own
    generator for the init and the per-epoch permutation, and no arithmetic
    mixes seeds, so a seed's result is bit-identical to training it alone.
    The optimized objective is the mean KL plus the feature-sparsity penalty
    (set ``feature_sparsity`` to 0 for the bare distillation loss).
    """
    seeds = config.seeds
    rngs = [np.random.default_rng(seed) for seed in seeds]
    trees = [init_tree(depth, rng, n_features=dataset.states.shape[1],
                       n_actions=dataset.teacher_q.shape[1]) for rng in rngs]
    stacked = TreeParams(depth, np.stack([t.feature_weights for t in trees]),
                         np.stack([t.thresholds for t in trees]),
                         np.stack([t.leaf_weights for t in trees]))
    grads = None        # the first step allocates the gradient vector, later steps write into it
    adam = AdamState(stacked.flat, config.student_learning_rate)
    targets = distill_targets(dataset.teacher_q, config.temperature)
    log_targets = target_logs(targets)
    n = len(dataset)
    batch = min(config.student_batch_size, n)
    history = []                                     # per epoch: mean loss of each seed
    perms = np.empty((len(seeds), n), dtype=np.intp)  # one row per seed, refilled each epoch
    for epoch in range(config.student_epochs):
        for perm, rng in zip(perms, rngs):
            perm[:] = rng.permutation(n)
        totals = np.zeros(len(seeds))
        for lo in range(0, n, batch):
            idx = perms[:, lo:lo + batch]
            loss, grads = distill_objective(stacked, dataset.states[idx], targets[idx],
                                            log_targets[idx], config.feature_sparsity, grads)
            diverged = ~np.isfinite(loss)
            if diverged.any():
                raise TrainingDivergedError(
                    f"non-finite distillation loss (seed {seeds[int(diverged.argmax())]}, "
                    f"epoch {epoch})"
                )
            totals += loss * idx.shape[1]
            adam_step(stacked.flat, grads.flat, adam)
        history.append((totals / n).tolist())
    results = []
    for k, seed in enumerate(seeds):
        tree = TreeParams(depth, stacked.feature_weights[k],
                          stacked.thresholds[k], stacked.leaf_weights[k])
        results.append(StudentResult(tree, crispify(tree), [h[k] for h in history], seed))
    return results


def agreement_rate(crisp: CrispTree, states: np.ndarray, teacher_q: np.ndarray) -> float:
    """Fraction of states where the crisp tree picks the teacher's greedy action."""
    hits = int(np.count_nonzero(crisp_predict(crisp, states) == np.argmin(teacher_q, axis=1)))
    return float(hits / len(states))
