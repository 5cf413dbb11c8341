"""A fixed reference computation, timed beside every op to track host speed.

Shared hosts change speed by tens of per cent over seconds to minutes, and
by a factor of two over hours. The gated timings are therefore scaled by
this computation's time, measured next to each op in the same process: an
op that took ``t`` seconds while the reference took ``r`` is reported as
``t * REFERENCE_S / r``, its time on a machine where the reference takes
``REFERENCE_S``. The reference mixes the three kinds of work mpekit does
(interpreted Python loops, many small numpy calls, and 100 x 100 BLAS
products), and it does not touch mpekit, so no change to the package can
move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Nominal seconds of one reference computation; it sets the scale of every
#: gated time.
REFERENCE_S = 0.005

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random((3, 3))
_MATRIX = _RNG.random((100, 100))
_VECTOR = _RNG.random(100)


def _compute() -> float:
    total = 0.0
    for i in range(30000):
        total += i * 0.5
    for _ in range(300):
        np.linalg.solve(_SMALL, _SMALL[0])
    x = _VECTOR
    for _ in range(300):
        x = _MATRIX @ x
        x /= x.sum()
    return total + float(x[0])


def reference_seconds(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of the reference computation."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        _compute()
        best = min(best, perf_counter() - start)
    return best
