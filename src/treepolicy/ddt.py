"""Differentiable decision trees and their hardened (crisp) form.

A soft tree of depth d has 2^d - 1 decision nodes, each gating left/right
with sigmoid(feature_weights . x - threshold), and 2^d leaves, each holding
a weight vector whose negative-exponent softmax is a distribution over the
discrete actions. The soft output mixes leaf distributions by path
probability, which keeps every parameter trainable by gradient descent.
``gradients_batch`` differentiates the pass ``forward_batch`` returns, without
running the tree again, and returns the gradients as a ``TreeParams``.
Crispification hardens each gate to a single-feature comparison and each
leaf to its most probable action, yielding an ordinary decision tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diffmath import sigmoid, softmax_neg
from .errors import ConfigError, DegenerateNodeError

MIN_CRISP_WEIGHT = 1e-8


@dataclass
class TreeParams:
    """Trainable soft-tree parameters for a fixed depth, and their gradients.

    The arrays may carry leading axes (a seed axis when several trees train
    together); the last one or two axes always hold one tree.
    """

    depth: int
    feature_weights: np.ndarray   # (..., n_nodes, n_features)
    thresholds: np.ndarray        # (..., n_nodes)
    leaf_weights: np.ndarray      # (..., n_leaves, n_actions)

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError(f"tree depth must be >= 1, got {self.depth}")
        n_nodes, n_leaves = 2 ** self.depth - 1, 2 ** self.depth
        self.feature_weights = np.asarray(self.feature_weights, dtype=float)
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        self.leaf_weights = np.asarray(self.leaf_weights, dtype=float)
        fw, thr, lw = self.feature_weights.shape, self.thresholds.shape, self.leaf_weights.shape
        if (fw[-2:-1] != (n_nodes,) or thr[-1:] != (n_nodes,) or lw[-2:-1] != (n_leaves,)
                or not fw[:-2] == thr[:-1] == lw[:-2]):
            raise ConfigError(f"parameter shapes inconsistent with depth {self.depth}")

    @property
    def num_training_params(self) -> int:
        return self.feature_weights.size + self.thresholds.size + self.leaf_weights.size

    @property
    def num_inference_params(self) -> int:
        # one feature id + one threshold per decision node, one action per leaf
        return 2 * self.thresholds.size + self.leaf_weights[..., 0].size

    def params(self) -> list[np.ndarray]:
        return [self.feature_weights, self.thresholds, self.leaf_weights]

    def copy(self) -> "TreeParams":
        return TreeParams(self.depth, self.feature_weights.copy(),
                          self.thresholds.copy(), self.leaf_weights.copy())


def init_tree(depth: int, rng: np.random.Generator, n_features: int = 5,
              n_actions: int = 5) -> TreeParams:
    """Random init: weights in (-1, 1), thresholds in (0, 1) to sit in feature space."""
    n_nodes, n_leaves = 2 ** depth - 1, 2 ** depth
    return TreeParams(
        depth,
        rng.uniform(-1.0, 1.0, size=(n_nodes, n_features)),
        rng.uniform(0.0, 1.0, size=n_nodes),
        rng.uniform(-1.0, 1.0, size=(n_leaves, n_actions)),
    )


@dataclass
class SoftPass:
    """One soft forward over a batch, with what ``gradients_batch`` reuses."""

    xs: np.ndarray            # (..., batch, n_features)
    gates: np.ndarray         # left-branch probability of each node, (..., batch, n_nodes)
    node_probs: list          # per level, the path probability of its nodes, (..., batch, 2^level)
    path_probs: np.ndarray    # (..., batch, n_leaves)
    leaf_dists: np.ndarray    # (..., n_leaves, n_actions)
    dists: np.ndarray         # (..., batch, n_actions)


def _level(gates: np.ndarray, level: int) -> np.ndarray:
    """The gates of one level's nodes, numbered breadth-first from the root."""
    return gates[..., (1 << level) - 1:(2 << level) - 1]


def forward_batch(params: TreeParams, xs: np.ndarray) -> SoftPass:
    """Soft forward over a batch: the action distributions ``dists`` and leaf
    path probabilities ``path_probs``, with the gates, node probabilities and
    leaf softmax kept for ``gradients_batch``.

    Node i's children are 2i + 1 and 2i + 2, so each level splits every
    probability of the level above into ``[p * g, p * (1 - g)]``, interleaved.
    ``xs`` is (batch, n_features), or (n_trees, batch, n_features) for
    parameters with a leading tree axis: one minibatch per tree.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    gates = sigmoid(xs @ np.swapaxes(params.feature_weights, -1, -2)
                    - params.thresholds[..., None, :])
    probs = np.ones(gates.shape[:-1] + (1,))
    node_probs = []
    for level in range(params.depth):
        g = _level(gates, level)
        node_probs.append(probs)
        probs = np.stack([probs * g, probs * (1.0 - g)], axis=-1).reshape(*g.shape[:-1], -1)
    leaf_dists = softmax_neg(params.leaf_weights)
    return SoftPass(xs, gates, node_probs, probs, leaf_dists, probs @ leaf_dists)


def gradients_batch(params: TreeParams, fwd: SoftPass, output_grads: np.ndarray) -> TreeParams:
    """Analytic gradients of sum_b loss_b, given d(loss)/d(action_dist) per row
    of the pass ``fwd = forward_batch(params, xs)``.

    ``output_grads`` has the shape of ``fwd.dists``. The gradients come back
    as a ``TreeParams`` shaped like ``params``; with a leading tree axis each
    tree's gradients are summed over its own minibatch only.
    """
    leaf_dists = fwd.leaf_dists

    # leaf weights: chain through the negative-exponent softmax
    d_leaf_dist = np.swapaxes(fwd.path_probs, -1, -2) @ output_grads   # (..., n_leaves, n_actions)
    inner = (d_leaf_dist * leaf_dists).sum(axis=-1, keepdims=True)
    grad_leaf = -leaf_dists * (d_leaf_dist - inner)

    # gates, from the leaves up: m holds d(loss)/d(path probability) of each
    # node of a level; a node's gate sends p * g left and p * (1 - g) right
    m = output_grads @ np.swapaxes(leaf_dists, -1, -2)                 # (..., batch, n_leaves)
    d_gates = []
    for level in reversed(range(params.depth)):
        g = _level(fwd.gates, level)
        m_left, m_right = m[..., 0::2], m[..., 1::2]
        d_gates.append(fwd.node_probs[level] * (m_left - m_right))
        m = g * m_left + (1.0 - g) * m_right
    d_gate = np.concatenate(d_gates[::-1], axis=-1)                    # (..., batch, n_nodes)

    d_z = d_gate * fwd.gates * (1.0 - fwd.gates)                        # pre-sigmoid grad
    grad_weights = np.swapaxes(d_z, -1, -2) @ fwd.xs
    return TreeParams(params.depth, grad_weights, -d_z.sum(axis=-2), grad_leaf)


# ---------------------------------------------------------------------------
# Crispification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrispTree:
    """Hardened tree: one (feature, threshold) test per node, one action per leaf.

    A node sends the state left when ``x[feature] > threshold`` (strictly;
    ties go right), with the comparison reversed when ``flipped`` is set,
    which happens when the winning soft weight was negative.
    """

    depth: int
    feature_index: tuple[int, ...]
    thresholds: tuple[float, ...]
    flipped: tuple[bool, ...]
    leaf_actions: tuple[int, ...]

    def __post_init__(self):
        n_nodes, n_leaves = 2 ** self.depth - 1, 2 ** self.depth
        if (len(self.feature_index) != n_nodes or len(self.thresholds) != n_nodes
                or len(self.flipped) != n_nodes or len(self.leaf_actions) != n_leaves):
            raise ConfigError(f"crisp tree shapes inconsistent with depth {self.depth}")


def crispify(params: TreeParams) -> CrispTree:
    """Reduce each gate to its strongest feature and each leaf to its best action.

    The strongest feature is the largest weight in magnitude; that weight
    rescales the threshold (phi / beta_winner) so the decision boundary along
    the selected feature is preserved, and a negative winner flips the
    comparison. A near-zero winning weight has no usable boundary and raises
    instead of emitting an arbitrary rule.
    """
    feats, thrs, flips = [], [], []
    for i in range(params.feature_weights.shape[0]):
        row = params.feature_weights[i]
        j = int(np.argmax(np.abs(row)))
        w = row[j]
        if abs(w) < MIN_CRISP_WEIGHT:
            raise DegenerateNodeError(
                f"decision node {i}: winning feature weight {w!r} is too close to zero"
            )
        feats.append(j)
        thrs.append(float(params.thresholds[i] / w))
        flips.append(bool(w < 0))
    actions = [int(np.argmin(row)) for row in params.leaf_weights]
    return CrispTree(params.depth, tuple(feats), tuple(thrs), tuple(flips), tuple(actions))


def crisp_predict(tree: CrispTree, states: np.ndarray) -> np.ndarray:
    """Walk every row of an (n, n_features) state matrix down the hard tree
    at once; returns the (n,) action indices of the leaves reached."""
    states = np.asarray(states, dtype=float)
    feature = np.array(tree.feature_index)
    threshold = np.array(tree.thresholds)
    flipped = np.array(tree.flipped)
    rows = np.arange(len(states))
    node = np.zeros(len(states), dtype=int)
    for _ in range(tree.depth):
        v, t = states[rows, feature[node]], threshold[node]
        goes_left = np.where(flipped[node], v < t, v > t)
        node = 2 * node + np.where(goes_left, 1, 2)
    return np.array(tree.leaf_actions)[node - (2 ** tree.depth - 1)]


# ---------------------------------------------------------------------------
# Rule export
# ---------------------------------------------------------------------------

TREE_FORMAT_TAG = "crisp-tree/v1"
EXPORT_FORMATS = ("text", "dot", "json")


def _condition(tree: CrispTree, node: int, feature_names) -> str:
    op = "<" if tree.flipped[node] else ">"
    return f"{feature_names[tree.feature_index[node]]} {op} {tree.thresholds[node]:.4f}"


def _text_rules(tree: CrispTree, feature_names, action_names) -> str:
    lines: list[str] = []
    first_leaf = 2 ** tree.depth - 1

    def subtree(node: int, indent: int):
        pad = "  " * indent
        left, right = 2 * node + 1, 2 * node + 2
        cond = _condition(tree, node, feature_names)
        if left >= first_leaf:
            lines.append(f"{pad}if {cond}: {action_names[tree.leaf_actions[left - first_leaf]]}")
            lines.append(f"{pad}else: {action_names[tree.leaf_actions[right - first_leaf]]}")
        else:
            lines.append(f"{pad}if {cond}:")
            subtree(left, indent + 1)
            lines.append(f"{pad}else:")
            subtree(right, indent + 1)

    subtree(0, 0)
    return "\n".join(lines) + "\n"


def _dot_rules(tree: CrispTree, feature_names, action_names) -> str:
    lines = ["digraph crisp_tree {", "  node [fontname=\"Helvetica\"];"]
    n_nodes = 2 ** tree.depth - 1
    for i in range(n_nodes):
        lines.append(f"  n{i} [shape=box, label=\"{_condition(tree, i, feature_names)}\"];")
    for k, a in enumerate(tree.leaf_actions):
        lines.append(f"  l{k} [shape=oval, label=\"{action_names[a]}\"];")
    for i in range(n_nodes):
        for child, tag in ((2 * i + 1, "true"), (2 * i + 2, "false")):
            ref = f"n{child}" if child < n_nodes else f"l{child - n_nodes}"
            lines.append(f"  n{i} -> {ref} [label=\"{tag}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_to_json(tree: CrispTree, feature_names, action_names) -> str:
    doc = {
        "format": TREE_FORMAT_TAG,
        "depth": tree.depth,
        "feature_names": list(feature_names),
        "action_names": list(action_names),
        "nodes": [
            {"feature": f, "threshold": t, "flipped": fl}
            for f, t, fl in zip(tree.feature_index, tree.thresholds, tree.flipped)
        ],
        "leaf_actions": list(tree.leaf_actions),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def tree_from_json(text: str) -> CrispTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not a crisp-tree JSON document: {exc}") from None
    if doc.get("format") != TREE_FORMAT_TAG:
        raise ConfigError(f"unsupported tree format tag {doc.get('format')!r}")
    nodes = doc["nodes"]
    return CrispTree(
        int(doc["depth"]),
        tuple(int(n["feature"]) for n in nodes),
        tuple(float(n["threshold"]) for n in nodes),
        tuple(bool(n["flipped"]) for n in nodes),
        tuple(int(a) for a in doc["leaf_actions"]),
    )


def export_rules(tree: CrispTree, feature_names, action_names, format: str = "text") -> str:
    """Render the tree as indented if/else text, graphviz dot, or JSON."""
    n_feat = max(tree.feature_index) + 1
    n_act = max(tree.leaf_actions) + 1
    if len(feature_names) < n_feat or len(action_names) < n_act:
        raise ConfigError("not enough feature or action names for this tree")
    if format == "text":
        return _text_rules(tree, feature_names, action_names)
    if format == "dot":
        return _dot_rules(tree, feature_names, action_names)
    if format == "json":
        return tree_to_json(tree, feature_names, action_names)
    raise ConfigError(f"unknown export format {format!r}; expected one of {EXPORT_FORMATS}")
