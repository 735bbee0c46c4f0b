import numpy as np
import pytest

from treepolicy.dataio import NormalizationStats, RunConfig, build_profiles


@pytest.fixture(scope="session")
def fixture_profiles():
    """Default synthetic day set shared by read-only tests."""
    return build_profiles(RunConfig())


@pytest.fixture(scope="session")
def fixture_stats(fixture_profiles):
    return NormalizationStats.from_profiles(fixture_profiles)


def tiny_config(**overrides) -> RunConfig:
    """Desk-speed config: the teacher actually trains (small batch/buffer)."""
    base = dict(episodes=60, batch_size=200, buffer_size=600, days=4,
                student_epochs=40, seeds=(0, 1))
    base.update(overrides)
    return RunConfig(**base)


def crisp_walk_one(tree, x) -> int:
    """Reference walk of one state down a crisp tree, node by node."""
    node = 0
    for _ in range(tree.depth):
        v, t = x[tree.feature_index[node]], tree.thresholds[node]
        goes_left = (v < t) if tree.flipped[node] else (v > t)
        node = 2 * node + (1 if goes_left else 2)
    return tree.leaf_actions[node - (2 ** tree.depth - 1)]


def finite_difference(fn, arrays, h=1e-5):
    """Central-difference gradients of scalar fn() w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn()
            flat[i] = orig - h
            fm = fn()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4, floor=1e-8):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), floor)
        err = np.abs(a - n) / denom
        ok = (err <= rel) | (np.abs(a - n) <= floor)
        assert np.all(ok), f"gradient mismatch: max rel err {err.max()}"
