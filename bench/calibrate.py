"""Host-speed calibration for the benchmark's untraced runs.

On a shared host the speed of the same code swings by tens of percent over
tens of seconds, for pure Python and numpy alike, so a raw wall time mostly
measures the neighbours. The child runs one calibration round between the
stage calls of the timed section: fixed kernels that do not import
treepolicy. A stage call's wall time divided by the mean of the rounds around
it is its cost in host-speed units; times ``REFERENCE_S`` it is the wall time
on a host where one round takes ``REFERENCE_S`` seconds. A change to
treepolicy moves the stage calls and not the kernels, so it moves the
normalised time by the same share as the raw one.

A round tracks the host only as far as its kernels do the same kind of work
on the same threads as the workload, so each workload names its own parts
(``Workload.calibration``): the single-threaded workloads use interpreter
loops, small numpy ops and vector ops at the oracle's grid size; the teacher,
whose training runs BLAS on numpy's thread pool, uses interpreter loops, BLAS
matmuls at its batch and width, and passes over an array larger than a core's
own caches. A BLAS part would let the load on the second core move the rounds
of a workload that runs on one core only.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one round takes at the reference host speed. On a 2-core shared x86
# VM with numpy's bundled OpenBLAS a round takes 0.07 to 0.1 s, so wall_s reads
# within about 1.4x of the raw wall time; it compares runs of one workload.
REFERENCE_S = 0.1

_rng = np.random.default_rng(20240318)
_SMALL = _rng.standard_normal((64, 8))
_SMALL_W = _rng.standard_normal((8, 7))
_BATCH = _rng.standard_normal((1000, 64))
_BATCH_W = _rng.standard_normal((64, 64)) * 0.1
_GRID = _rng.standard_normal(1601)
# 8 MB; adds that much to the child's peak RSS
_STREAM = _rng.standard_normal(1_000_000)


def _interpreter(n: int = 300_000) -> int:
    acc = 0
    for i in range(n):
        acc += (i * i) % 7
    return acc


def _small_numpy(n: int = 3_000) -> float:
    acc = 0.0
    for _ in range(n):
        p = 1.0 / (1.0 + np.exp(-(_SMALL @ _SMALL_W)))
        acc += float(p.sum())
    return acc


def _vector(n: int = 3_600) -> float:
    acc = 0.0
    for _ in range(n):
        acc += float(np.minimum(_GRID * 0.5 + 1.0, 2.0).max())
    return acc


def _blas(n: int = 60) -> float:
    acc = 0.0
    for _ in range(n):
        acc += float(np.maximum(_BATCH @ _BATCH_W, 0.0)[0, 0])
    return acc


def _stream(n: int = 64) -> None:
    for _ in range(n):
        np.negative(_STREAM, out=_STREAM)


PARTS = {
    "interpreter": _interpreter,
    "small_numpy": _small_numpy,
    "vector": _vector,
    "blas": _blas,
    "stream": _stream,
}


def calibration_round(parts: tuple[str, ...]) -> float:
    """Wall seconds of one fixed calibration round made of ``parts``."""
    t0 = time.perf_counter()
    for part in parts:
        PARTS[part]()
    return time.perf_counter() - t0


def warm_up(parts: tuple[str, ...], rounds: int = 3) -> None:
    """Start the BLAS thread pool and fill caches before the first timed round."""
    for _ in range(rounds):
        calibration_round(parts)
