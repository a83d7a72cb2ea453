"""Host-speed calibration for the end-to-end times.

The host shares its cores with other machines, and its speed drifts by
10-30% over tens of seconds.  `calibration_loop` times a fixed mix of the
kinds of work hypercell does, with no hypercell code in it: an
interpreted float loop, a pure-Python monotone-chain hull over tuples,
many numpy calls on tiny arrays, and vectorised passes over a 50k array.
run.py times it before every round and every set-up probe and scales the
measured seconds by `REF_S` over the run's `middle_mean` of the passes.
A change to hypercell moves the scaled times in full; a change in the
host's speed moves them much less.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one pass takes on this 2-core host in a typical state; the
# scaled times are seconds at that speed.
REF_S = 0.03

_SMALL = np.random.default_rng(20240601).random((8, 8)) + 8.0 * np.eye(8)
_SORT = np.random.default_rng(20240602).random(20000)
_POINTS = [tuple(p) for p in np.random.default_rng(20240603).random((300, 2)).tolist()]
_VECS = np.random.default_rng(20240604).random((64, 3))
_MARKS = np.random.default_rng(20240605).random(40)
_LARGE = np.random.default_rng(20240606).random(50000)


def _hull_size(points) -> int:
    """Vertex count of the planar hull (Andrew's monotone chain)."""
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = sorted(points)
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return len(set(lower + upper))


def calibration_loop() -> float:
    """Seconds of one pass of the fixed calibration mix."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    for _ in range(400):
        np.linalg.solve(_SMALL, _SMALL[0])
        np.sort(_SMALL[0])
        _SMALL @ _SMALL
    for _ in range(5):
        np.sort(_SORT * 1.5)
    for _ in range(12):
        _hull_size(_POINTS)
    for i in range(1000):
        np.dot(_VECS[i % 64], _VECS[(i + 1) % 64])
        np.maximum(_MARKS, 0.5).max()
        np.argmax(_MARKS)
        np.concatenate([_MARKS[:5], _MARKS[5:10]])
    for _ in range(4):
        x = _LARGE * 2.0 + 1.0
        np.sort(x)
        np.cumsum(x)
        x[x > 2.5].mean()
    return time.perf_counter() - t0


def middle_mean(values, cut: float = 0.2) -> float:
    """Mean of `values` without the lowest and highest `cut` of them.

    The host's speed is a mix of states, which a median would pick one
    of; a short spike should not count either.
    """
    v = sorted(values)
    k = int(len(v) * cut)
    return statistics.fmean(v[k:len(v) - k])
