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

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _path_tables(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the leaf paths; nodes are numbered breadth-first from the root.

    ``branch`` and ``sign`` are (depth, n_leaves). A leaf's factor at a level
    is row ``branch`` of ``[gates; 1 - gates]``: the gate of the node it passes
    when it goes left there, the complement when it goes right; ``sign`` is
    +1 or -1 to match. ``under`` is (n_leaves, n_nodes): column ``i`` lists the
    rows of the level-major (level, leaf) terms that belong to node ``i``, in
    leaf order, padded with row ``depth * n_leaves`` (kept at zero).
    """
    n_leaves, n_nodes = 2 ** depth, 2 ** depth - 1
    level = np.arange(depth)[:, None]
    leaf = np.arange(n_leaves)[None, :]
    goes_right = (leaf >> (depth - 1 - level)) & 1
    branch = (1 << level) - 1 + (leaf >> (depth - level)) + n_nodes * goes_right
    node_level = np.repeat(np.arange(depth), 1 << np.arange(depth))[None, :]
    width = n_leaves >> node_level
    first_leaf = (np.arange(n_nodes)[None, :] + 1 - (1 << node_level)) * width
    slot = np.arange(n_leaves)[:, None]
    under = np.where(slot < width, node_level * n_leaves + first_leaf + slot, depth * n_leaves)
    tables = branch, 1.0 - 2.0 * goes_right, under
    for table in tables:
        table.setflags(write=False)
    return tables


def _gates_and_factors(params: TreeParams, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``[gates; 1 - gates]``, (2 * n_nodes, ..., batch), and the branch factors
    of every leaf path, (depth, n_leaves, ..., batch).

    The batch is the last axis so that every elementwise step runs over
    whole rows of it.
    """
    gates = _last_to_front(sigmoid(xs @ np.swapaxes(params.feature_weights, -1, -2)
                                   - params.thresholds[..., None, :]))
    both = np.concatenate([gates, 1.0 - gates])
    return both, both[_path_tables(params.depth)[0]]


def _last_to_front(a: np.ndarray) -> np.ndarray:
    """(..., batch, k) -> (k, ..., batch), as a view."""
    return a.transpose(-1, *range(a.ndim - 1))


def _batch_last(a: np.ndarray) -> np.ndarray:
    """(k, ..., batch) -> (..., batch, k) in C order: the layout the matmuls expect."""
    return np.ascontiguousarray(a.transpose(*range(1, a.ndim), 0))


@dataclass
class SoftPass:
    """One soft forward over a batch, with what ``gradients_batch`` reuses."""

    xs: np.ndarray            # (..., batch, n_features)
    gates: np.ndarray         # [gates; 1 - gates], (2 * n_nodes, ..., batch)
    factors: np.ndarray       # branch factors, (depth, n_leaves, ..., batch)
    prefix: list              # per level, the factor product above it (1.0 at the root)
    path_probs: np.ndarray    # (..., batch, n_leaves)
    leaf_dists: np.ndarray    # (..., n_leaves, n_actions)
    dists: np.ndarray         # (..., batch, n_actions)


def forward_batch(params: TreeParams, xs: np.ndarray) -> SoftPass:
    """Soft forward over a batch: the action distributions ``dists`` and leaf
    path probabilities ``path_probs``, with the gates, running path products
    and leaf softmax kept for ``gradients_batch``.

    ``xs`` is (batch, n_features), or (n_trees, batch, n_features) for
    parameters with a leading tree axis: one minibatch per tree.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    gates, factors = _gates_and_factors(params, xs)
    # running products from the root: 1, f0, f0*f1, ..., and the full path product
    *prefix, path_probs = itertools.accumulate(factors, np.multiply, initial=1.0)
    path_probs = _batch_last(path_probs)
    leaf_dists = softmax_neg(params.leaf_weights)
    return SoftPass(xs, gates, factors, prefix, path_probs, leaf_dists, path_probs @ leaf_dists)


def gradients_batch(params: TreeParams, fwd: SoftPass, output_grads: np.ndarray) -> TreeParams:
    """Analytic gradients of sum_b loss_b, given d(loss)/d(action_dist) per row
    of the pass ``fwd = forward_batch(params, xs)``.

    ``output_grads`` has the shape of ``fwd.dists``. The gradients come back
    as a ``TreeParams`` shaped like ``params``; with a leading tree axis each
    tree's gradients are summed over its own minibatch only.
    """
    _, sign, under = _path_tables(params.depth)
    leaf_dists, factors = fwd.leaf_dists, fwd.factors

    # leaf weights: chain through the negative-exponent softmax
    d_leaf_dist = np.swapaxes(fwd.path_probs, -1, -2) @ output_grads   # (..., n_leaves, n_actions)
    inner = (d_leaf_dist * leaf_dists).sum(axis=-1, keepdims=True)
    grad_leaf = -leaf_dists * (d_leaf_dist - inner)

    # gate probabilities: product rule with the level-l factor excluded
    d_path = np.ascontiguousarray(
        _last_to_front(output_grads @ np.swapaxes(leaf_dists, -1, -2)))   # (n_leaves, ..., batch)
    suffix = [*itertools.accumulate(factors[:0:-1], np.multiply, initial=1.0)][::-1]
    excl = np.stack([p * q for p, q in zip(fwd.prefix, suffix)])
    lift = (...,) + (None,) * (d_path.ndim - 1)
    terms = sign[lift] * d_path * excl                             # (depth, n_leaves, ..., batch)

    # each node adds its leaves' terms one at a time in leaf order, starting
    # from zero, as a per-leaf loop does (a matmul or a pairwise sum over
    # the leaves rounds differently at depth 3)
    terms = terms.reshape(-1, *terms.shape[2:])
    padded = np.concatenate([terms, np.zeros_like(terms[:1])])
    d_gate = sum(padded[slot] for slot in under)                    # (n_nodes, ..., batch)

    n_nodes = under.shape[1]
    d_z = _batch_last(d_gate * fwd.gates[:n_nodes] * fwd.gates[n_nodes:])   # pre-sigmoid grad
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
