"""Differentiable decision trees and their hardened (crisp) form.

A soft tree of depth d has 2^d - 1 decision nodes, each gating left/right
with sigmoid(feature_weights . x - threshold), and 2^d leaves, each holding
a weight vector whose negative-exponent softmax is a distribution over the
discrete actions. The soft output mixes leaf distributions by path
probability, which keeps every parameter trainable by gradient descent: a
leaf's path probability is its gate factors gathered by a fixed index table
and multiplied root to leaf. ``gradients_batch`` differentiates the pass
``forward_batch`` returns, without running the tree again, and writes the
gradients into a ``TreeParams``, whose arrays are views of one flat vector
that Adam steps on in one pass; a training run allocates it once.
Crispification hardens each gate to a single-feature comparison and each
leaf to its most probable action, yielding an ordinary decision tree.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .diffmath import carve, sigmoid, softmax_neg
from .envsim import ACTION_NAMES, FEATURE_NAMES
from .errors import ConfigError, DegenerateNodeError

MIN_CRISP_WEIGHT = 1e-8


@dataclass
class TreeParams:
    """Trainable soft-tree parameters for a fixed depth, and their gradients.

    The arrays may carry leading axes (a seed axis when several trees train
    together); the last one or two axes always hold one tree. The fields are
    views of a copy in one float64 vector ``flat``: every tree's feature
    weights, then every tree's thresholds, then every tree's leaf weights.
    """

    depth: int
    feature_weights: np.ndarray   # (..., n_nodes, n_features)
    thresholds: np.ndarray        # (..., n_nodes)
    leaf_weights: np.ndarray      # (..., n_leaves, n_actions)

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError(f"tree depth must be >= 1, got {self.depth}")
        n_nodes, n_leaves = 2 ** self.depth - 1, 2 ** self.depth
        arrays = [np.asarray(a, dtype=float)
                  for a in (self.feature_weights, self.thresholds, self.leaf_weights)]
        fw, thr, lw = (a.shape for a in arrays)
        if (fw[-2:-1] != (n_nodes,) or thr[-1:] != (n_nodes,) or lw[-2:-1] != (n_leaves,)
                or not fw[:-2] == thr[:-1] == lw[:-2]):
            raise ConfigError(f"parameter shapes inconsistent with depth {self.depth}")
        self.flat = np.concatenate(arrays, axis=None)
        self.feature_weights, self.thresholds, self.leaf_weights = carve(self.flat, (fw, thr, lw))

    @property
    def num_training_params(self) -> int:
        return self.flat.size

    @property
    def num_inference_params(self) -> int:
        # one feature id + one threshold per decision node, one action per leaf
        return 2 * self.thresholds.size + self.leaf_weights[..., 0].size


def init_tree(depth: int, rng: np.random.Generator, n_features: int, n_actions: int) -> TreeParams:
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
    prefix: np.ndarray        # each leaf's path factors multiplied through each level,
                              # (..., batch, depth, n_leaves)
    path_probs: np.ndarray    # its last level, (..., batch, n_leaves)
    leaf_dists: np.ndarray    # (..., n_leaves, n_actions)
    dists: np.ndarray         # (..., batch, n_actions)


def _level(gates: np.ndarray, level: int) -> np.ndarray:
    """The gates of one level's nodes, numbered breadth-first from the root."""
    return gates[..., (1 << level) - 1:(2 << level) - 1]


@functools.lru_cache(maxsize=None)
def _path_factors(depth: int) -> np.ndarray:
    """(depth, n_leaves) index into ``[gates, 1 - gates]`` of leaf k's factor at
    each level: its ancestor's gate if the path turns left there, one minus it
    if right. Bit depth - 1 - level of k is the turn, and the ancestor is the
    (k >> (depth - level))-th node of the level."""
    level = np.arange(depth)[:, None]
    leaf = np.arange(2 ** depth)
    node = (1 << level) - 1 + (leaf >> (depth - level))
    index = node + (2 ** depth - 1) * ((leaf >> (depth - 1 - level)) & 1)
    index.setflags(write=False)                # every caller shares the cached table
    return index


def forward_batch(params: TreeParams, xs: np.ndarray) -> SoftPass:
    """Soft forward over a batch: the action distributions ``dists`` and leaf
    path probabilities ``path_probs``, with the gates, the running path
    products and the leaf softmax kept for ``gradients_batch``.

    Node i's children are 2i + 1 and 2i + 2, and a node sends probability
    p * g left and p * (1 - g) right. So a leaf's path probability is its
    factors (g or 1 - g), one per level, multiplied root to leaf: one gather
    by a fixed index table and one running product over the levels.
    ``xs`` is (batch, n_features), or (n_trees, batch, n_features) for
    parameters with a leading tree axis: one minibatch per tree.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    gates = sigmoid(xs @ np.swapaxes(params.feature_weights, -1, -2)
                    - params.thresholds[..., None, :])
    prefix = np.concatenate([gates, 1.0 - gates], axis=-1)[..., _path_factors(params.depth)]
    for level in range(1, params.depth):     # in place, each level times the product above
        prefix[..., level, :] *= prefix[..., level - 1, :]
    path_probs, leaf_dists = prefix[..., -1, :], softmax_neg(params.leaf_weights)
    return SoftPass(xs, gates, prefix, path_probs, leaf_dists, path_probs @ leaf_dists)


def gradients_batch(params: TreeParams, fwd: SoftPass, output_grads: np.ndarray,
                    out: TreeParams | None = None) -> TreeParams:
    """Analytic gradients of sum_b loss_b, given d(loss)/d(action_dist) per row
    of the pass ``fwd = forward_batch(params, xs)``.

    ``output_grads`` has the shape of ``fwd.dists``. The gradients are written
    into the arrays of ``out``, a ``TreeParams`` shaped like ``params`` (a new
    one if not given), which is returned; with a leading tree axis each tree's
    gradients are summed over its own minibatch only.
    """
    if out is None:
        out = TreeParams(params.depth, *map(np.empty_like, (
            params.feature_weights, params.thresholds, params.leaf_weights)))
    leaf_dists = fwd.leaf_dists

    # leaf weights: chain through the negative-exponent softmax
    d_leaf_dist = np.swapaxes(fwd.path_probs, -1, -2) @ output_grads   # (..., n_leaves, n_actions)
    inner = (d_leaf_dist * leaf_dists).sum(axis=-1, keepdims=True)
    np.multiply(-leaf_dists, d_leaf_dist - inner, out=out.leaf_weights)

    # gates, from the leaves up: m holds d(loss)/d(path probability) of each
    # node of a level; a node's gate sends p * g left and p * (1 - g) right.
    # Below the root, a node's p is the prefix through the level above of any
    # leaf under it: a view of every 2^(depth - level)-th leaf.
    m = output_grads @ np.swapaxes(leaf_dists, -1, -2)                 # (..., batch, n_leaves)
    d_gate = np.empty_like(fwd.gates)
    for level in reversed(range(params.depth)):
        g = _level(fwd.gates, level)
        m_left, m_right = m[..., 0::2], m[..., 1::2]
        if level:
            node_probs = fwd.prefix[..., level - 1, ::fwd.prefix.shape[-1] >> level]
            np.multiply(node_probs, m_left - m_right, out=_level(d_gate, level))
        else:                                      # the root's p is 1
            np.subtract(m_left, m_right, out=_level(d_gate, level))
        m = g * m_left + (1.0 - g) * m_right

    d_z = d_gate * fwd.gates * (1.0 - fwd.gates)                        # pre-sigmoid grad
    np.matmul(np.swapaxes(d_z, -1, -2), fwd.xs, out=out.feature_weights)
    np.negative(d_z.sum(axis=-2, out=out.thresholds), out=out.thresholds)
    return out


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


def crispify(params: TreeParams) -> CrispTree:
    """Reduce each gate to its strongest feature and each leaf to its best action.

    The strongest feature is the largest weight in magnitude; that weight
    rescales the threshold (phi / beta_winner) so the decision boundary along
    the selected feature is preserved, and a negative winner flips the
    comparison. A near-zero winning weight has no usable boundary and raises
    instead of emitting an arbitrary rule.
    """
    fw = params.feature_weights
    feats = np.abs(fw).argmax(axis=1)
    w = fw[np.arange(len(fw)), feats]
    degenerate = np.abs(w) < MIN_CRISP_WEIGHT
    if degenerate.any():
        i = int(degenerate.argmax())
        raise DegenerateNodeError(
            f"decision node {i}: winning feature weight {w[i]!r} is too close to zero"
        )
    return CrispTree(params.depth, tuple(feats.tolist()), tuple((params.thresholds / w).tolist()),
                     tuple((w < 0).tolist()), tuple(params.leaf_weights.argmin(axis=1).tolist()))


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


def _condition(tree: CrispTree, node: int) -> str:
    op = "<" if tree.flipped[node] else ">"
    return f"{FEATURE_NAMES[tree.feature_index[node]]} {op} {tree.thresholds[node]:.4f}"


def _text_rules(tree: CrispTree) -> str:
    lines: list[str] = []
    first_leaf = 2 ** tree.depth - 1

    def subtree(node: int, indent: int):
        pad = "  " * indent
        left, right = 2 * node + 1, 2 * node + 2
        cond = _condition(tree, node)
        if left >= first_leaf:
            lines.append(f"{pad}if {cond}: {ACTION_NAMES[tree.leaf_actions[left - first_leaf]]}")
            lines.append(f"{pad}else: {ACTION_NAMES[tree.leaf_actions[right - first_leaf]]}")
        else:
            lines.append(f"{pad}if {cond}:")
            subtree(left, indent + 1)
            lines.append(f"{pad}else:")
            subtree(right, indent + 1)

    subtree(0, 0)
    return "\n".join(lines) + "\n"


def _dot_rules(tree: CrispTree) -> str:
    lines = ["digraph crisp_tree {", "  node [fontname=\"Helvetica\"];"]
    n_nodes = 2 ** tree.depth - 1
    for i in range(n_nodes):
        lines.append(f"  n{i} [shape=box, label=\"{_condition(tree, i)}\"];")
    for k, a in enumerate(tree.leaf_actions):
        lines.append(f"  l{k} [shape=oval, label=\"{ACTION_NAMES[a]}\"];")
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


_MISSING = object()
_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", list: "a list",
          dict: "an object"}
# (key, type, exclusive upper bound) of each node's fields
_NODE_FIELDS = (("feature", int, len(FEATURE_NAMES)), ("threshold", float, None),
                ("flipped", bool, None))


def _checked(value, where: str, kind: type, limit: int | None = None):
    """``value`` if it is a ``kind`` (a bool is no number), finite for ``float`` and
    in [0, ``limit``) if a limit is given; otherwise ``ConfigError`` naming ``where``."""
    if value is _MISSING:
        raise ConfigError(f"crisp tree lacks {where!r}")
    ok = (type(value) in (int, float) and math.isfinite(value)) if kind is float \
        else type(value) is kind
    if ok and limit is not None:
        ok = 0 <= value < limit
    if not ok:
        span = "" if limit is None else f" in [0, {limit})"
        raise ConfigError(f"crisp tree field {where!r} must be {_KINDS[kind]}{span}, "
                          f"got {value!r}")
    return value


def tree_from_json(text: str) -> CrispTree:
    """The tree ``tree_to_json`` wrote. A document that is not one, whose feature
    or action names are not envsim's, in envsim's order, or whose depth, node
    count, feature, threshold, flip or leaf action is out of place, raises
    ``ConfigError`` naming the field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not a crisp-tree JSON document: {exc}") from None
    if _checked(doc, "document", dict).get("format") != TREE_FORMAT_TAG:
        raise ConfigError(f"unsupported tree format tag {doc.get('format')!r}")
    # features and actions are stored by index, so the names fix what each index means
    for key, names in (("feature_names", FEATURE_NAMES), ("action_names", ACTION_NAMES)):
        if _checked(doc.get(key, _MISSING), key, list) != list(names):
            raise ConfigError(f"crisp tree field {key!r} must be {list(names)}, "
                              f"got {doc[key]!r}")
    depth, nodes, leaves = (_checked(doc.get(key, _MISSING), key, kind) for key, kind in
                            (("depth", int), ("nodes", list), ("leaf_actions", list)))
    # 2 ** depth - 1 >= depth, so a depth beyond the node count never reaches the power
    if not (1 <= depth <= len(nodes) and len(nodes) + 1 == len(leaves) == 2 ** depth):
        raise ConfigError(f"crisp tree field 'depth' is {depth}, with {len(nodes)} 'nodes' and "
                          f"{len(leaves)} 'leaf_actions': depth d >= 1 needs 2^d - 1 and 2^d")
    rows = []
    for i, node in enumerate(nodes):
        node = _checked(node, f"nodes[{i}]", dict)
        rows.append([_checked(node.get(key, _MISSING), f"nodes[{i}].{key}", kind, limit)
                     for key, kind, limit in _NODE_FIELDS])
    features, thresholds, flipped = zip(*rows)
    actions = [_checked(a, f"leaf_actions[{k}]", int, len(ACTION_NAMES))
               for k, a in enumerate(leaves)]
    return CrispTree(depth, features, tuple(map(float, thresholds)), flipped, tuple(actions))


def load_tree(path: str) -> CrispTree:
    """``tree_from_json`` of the file at ``path``; every error names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return tree_from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read tree file {path!r}: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path!r}: {exc}") from None


def export_rules(tree: CrispTree, format: str = "text") -> str:
    """Render the tree under envsim's feature and action names as indented
    if/else text, graphviz dot, or JSON."""
    if format == "text":
        return _text_rules(tree)
    if format == "dot":
        return _dot_rules(tree)
    if format == "json":
        return tree_to_json(tree, FEATURE_NAMES, ACTION_NAMES)
    raise ConfigError(f"unknown export format {format!r}; expected one of {EXPORT_FORMATS}")
