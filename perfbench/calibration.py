"""A fixed unit of work, written apart from lvfsr, timed beside the workloads.

Neighbouring load on a shared machine can slow every core for minutes, so
that even the fastest samples of a 30 s run read slow. The calibration unit
slows in the same spells: its floor over a run tells how fast the machine was
while the run measured, and the time metrics are scaled by
`REFERENCE_S / floor` to the speed at which the unit takes `REFERENCE_S`.
The unit mixes what the workloads spend their time on: interpreter loops,
small matrix products with elementwise numpy calls, and image-sized filtering.
No change to lvfsr changes its time.
"""

from time import perf_counter

import numpy as np

import reference as ref

# the unit's floor on the machine described in README.md, in a quiet spell;
# scaled times read in seconds at that machine's quiet speed
REFERENCE_S = 5.0e-3

_rng = np.random.default_rng(0)
_WEIGHTS = _rng.standard_normal((32, 288))
_FEATURES = _rng.standard_normal((32, 10, 10))
_IMAGES = _rng.random((2, 3, 128, 128))


def unit() -> float:
    """Run the calibration unit once; return its wall time in seconds."""
    t0 = perf_counter()
    x = 0
    for j in range(20000):
        x += j * j
    for _ in range(20):
        cols = np.lib.stride_tricks.sliding_window_view(_FEATURES, (3, 3), axis=(1, 2))
        y = _WEIGHTS @ cols.transpose(0, 3, 4, 1, 2).reshape(288, 64)
        y = np.maximum(y, 0.0) * 0.5 + y.mean()
        (_WEIGHTS.T @ y).sum()
    ref.ssim(_IMAGES[0], _IMAGES[1])
    return perf_counter() - t0
