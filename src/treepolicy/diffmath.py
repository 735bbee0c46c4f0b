"""Minimal differentiable-computation core.

Dense ReLU networks with one layer loop over fixed row blocks, for inference
and the hand-rolled reverse-mode gradients alike (bias and ReLU in place, the
backward masked by the post-activations); the negative-exponent softmax (smaller
scores get larger probability, matching cost minimization), the logistic gate,
and the Adam update rule, one elementwise pass over a model's parameters: one
vector whose named arrays are views of it. Everything is plain numpy, float64,
and deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingDivergedError


# ---------------------------------------------------------------------------
# Dense network
# ---------------------------------------------------------------------------

def carve(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the 1-D ``flat``, one of each shape, in order."""
    views, lo = [], 0
    for shape in shapes:
        views.append(flat[lo:lo + math.prod(shape)].reshape(shape))
        lo += math.prod(shape)
    return views


@dataclass
class DenseNet:
    """Fully connected net: ReLU on hidden layers, identity on the output.

    ``weights`` and ``biases`` are views of one float64 vector ``flat``, layer by
    layer, weights first: a copy of the arrays given, or zeros without them.
    Also the type of its gradients, which ``dense_gradients`` returns.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray] = ()
    biases: list[np.ndarray] = ()

    def __post_init__(self):
        pairs = list(zip(self.layer_sizes, self.layer_sizes[1:]))
        self.flat = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in pairs))
        views = carve(self.flat, [s for n_in, n_out in pairs for s in ((n_in, n_out), (n_out,))])
        for view, array in zip(views[0::2] + views[1::2], [*self.weights, *self.biases]):
            view[...] = array
        self.weights, self.biases = views[0::2], views[1::2]


def init_dense(layer_sizes: list[int], rng: np.random.Generator) -> DenseNet:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    net = DenseNet(list(layer_sizes))
    for i, (fan_in, fan_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
        bound = 1.0 / np.sqrt(fan_in)
        net.weights[i][...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        net.biases[i][...] = rng.uniform(-bound, bound, size=fan_out)
    return net


# Rows per block of ``dense_forward_batch`` and ``dense_gradients``: at 128 rows
# each activation of the default 64-wide net is 64 KB, however many rows a caller
# passes, and each weight-gradient product sums the same rows in the same order
# at any BLAS thread count.
BLOCK_ROWS = 128


def dense_forward_batch(net: DenseNet, xs: np.ndarray) -> np.ndarray:
    """Outputs for a (rows, n_in) matrix, the only inference forward: ``_forward_block``
    over the ``BLOCK_ROWS``-row blocks ``dense_gradients`` also runs, into one preallocated
    output, so memory beyond it does not grow with the rows. Blocks of two or more rows
    give the bits of one unblocked pass; a one-row block (BLAS's 1-row path) may not."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty((len(xs), net.layer_sizes[-1]))
    # at least one block runs, so a zero-row input has its shape checked too
    for lo in range(0, max(len(xs), 1), BLOCK_ROWS):
        out[lo:lo + BLOCK_ROWS] = _forward_block(net, xs[lo:lo + BLOCK_ROWS])[-1]
    return out


def _forward_block(net: DenseNet, xs: np.ndarray) -> list[np.ndarray]:
    """Post-activations ``[xs, h1, ..., out]`` of a (batch, n_in) matrix: each layer's
    bias add and hidden ReLU run in place on its own fresh product, never on ``xs``."""
    if xs.ndim != 2 or xs.shape[1] != net.layer_sizes[0]:
        raise ConfigError(f"input shape {xs.shape} does not match (batch, {net.layer_sizes[0]})")
    acts = [xs]
    for w, b in zip(net.weights, net.biases):
        h = acts[-1] @ w
        h += b
        if len(acts) < len(net.weights):
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def dense_gradients(net: DenseNet, xs: np.ndarray, output_grad) -> DenseNet:
    """Parameter gradients of a loss summed over the rows of a (rows, n_in) matrix,
    returned as a ``DenseNet`` shaped like ``net``.

    Runs ``_forward_block`` and reverse accumulation over ``BLOCK_ROWS``-row
    blocks. ``output_grad(lo, outputs)`` gets a block's first row index and its
    (block rows, n_out) outputs and returns the loss's gradient with respect to
    them; each block's weight and bias gradients are added to the sums in block
    order, so the result does not depend on the BLAS thread count. A hidden delta is
    masked by its post-activations: ``max(z, 0) > 0`` exactly where ``z > 0``."""
    grads = DenseNet(list(net.layer_sizes))
    for lo in range(0, max(len(xs), 1), BLOCK_ROWS):
        acts = _forward_block(net, xs[lo:lo + BLOCK_ROWS])
        delta = output_grad(lo, acts[-1])
        if delta.shape != acts[-1].shape:
            raise ConfigError(f"output gradient shape {delta.shape} does not match "
                              f"output {acts[-1].shape}")
        for i in range(len(net.weights) - 1, -1, -1):
            grads.weights[i] += acts[i].T @ delta
            grads.biases[i] += delta.sum(axis=0)
            if i > 0:
                delta = delta @ net.weights[i].T
                delta *= acts[i] > 0.0
    return grads


# ---------------------------------------------------------------------------
# Probability pieces
# ---------------------------------------------------------------------------

def softmax_neg(w: np.ndarray) -> np.ndarray:
    """Negative-exponent softmax: p_i = exp(-w_i) / sum_k exp(-w_k).

    The smallest entry receives the largest probability. Shifted by the
    exponent maximum before exponentiating, so any finite input is safe.
    """
    w = np.asarray(w, dtype=float)
    z = -w
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(z):
    """Numerically stable logistic function, elementwise; a scalar gives a 0-d array.

    1 / (1 + e) for z >= 0 and e / (1 + e) below, with e = exp(-|z|) <= 1, so
    exp never overflows; its underflow to 0 at large |z| is the exact limit.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Adam's decay rates of the first and second moments, and the denominator's guard
ADAM_DECAYS = (0.9, 0.999)
ADAM_GUARD = 1e-8


class AdamState:
    """Bias-corrected Adam moments of one flat parameter vector, zeros like it at first."""

    def __init__(self, params: np.ndarray, learning_rate: float):
        self.first_moment = np.zeros_like(params)
        self.second_moment = np.zeros_like(params)
        self.learning_rate = learning_rate
        self.step_count = 0


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One Adam update, in place on the flat vector ``params``, one elementwise
    pass. Raises on a non-finite gradient before any parameter or moment moves."""
    if not np.isfinite(grads).all():
        raise TrainingDivergedError(f"non-finite gradient at adam step {state.step_count + 1}")
    state.step_count += 1
    d1, d2 = ADAM_DECAYS
    bc1 = 1.0 - d1 ** state.step_count
    bc2 = 1.0 - d2 ** state.step_count
    m, v = state.first_moment, state.second_moment
    m *= d1
    m += (1.0 - d1) * grads
    v *= d2
    v += (1.0 - d2) * (grads * grads)
    params -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_GUARD)
