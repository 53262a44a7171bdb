"""Machine-speed reference for the benchmark's timings.

The shared 2-core machine the benchmark was written on switches, for
seconds to minutes at a time, between a fast and a slow state: the same
RK4 tile takes up to twice as long in the slow state, with no process of
the benchmark's own running.  A raw wall time then depends on when it was
taken more than on the program.

So the benchmark brackets each timed stage by two samples of a fixed
reference kernel, taken in the process that runs the stage.  The kernel is
defined here, independent of the program: RK4 on a 2-D linear field,
written the way the program evaluates its fields (closures over column
arrays).  It runs in three shapes, one for each way the program uses its
own RK4 kernel:

  row    one row, as in the closed loop
  tile   256 rows, as in the integrated route's input scan
  chunk  262,144 rows, memory-bound, as in the baseline abstraction

A stage's calibrated time is its wall time times REFERENCE_S / (mean of
the two samples): its wall time at the machine speed at which the kernel
takes REFERENCE_S.  A change to the program moves the stage time and not
the kernel; a change of machine state moves both.
"""

from __future__ import annotations

import time

import numpy as np

SUBSTEPS = 50
# shape: (rows, RK4 substeps, repetitions)
SHAPES = {"row": (1, SUBSTEPS, 12), "tile": (256, SUBSTEPS, 12),
          "chunk": (262144, 1, 2)}
# each shape's sample in the fast state of the reference machine (the
# tenth percentile of its samples on a 2-core Xeon VM, numpy 2.4); only
# the scale of the reported times depends on these
REFERENCE_S = {"row": 0.024, "tile": 0.032, "chunk": 0.058}
# the shape whose work each synthesis route's RK4 use resembles
ROUTE_SHAPE = {"integrated": "tile", "baseline": "chunk"}

_FIELD = (lambda X, U: -1.0 * X[0] + -0.5 * X[1] + 1.0 * U[0],
          lambda X, U: 0.5 * X[0] + -1.0 * X[1] + 1.0 * U[0])


def _rk4(xcols, ucols, h: float, substeps: int):
    for _ in range(substeps):
        k1 = [f(xcols, ucols) for f in _FIELD]
        xt = [xcols[i] + (h / 2.0) * k1[i] for i in range(2)]
        k2 = [f(xt, ucols) for f in _FIELD]
        xt = [xcols[i] + (h / 2.0) * k2[i] for i in range(2)]
        k3 = [f(xt, ucols) for f in _FIELD]
        xt = [xcols[i] + h * k3[i] for i in range(2)]
        k4 = [f(xt, ucols) for f in _FIELD]
        xcols = [xcols[i] + (h / 6.0) * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
                 for i in range(2)]
    return xcols


def sample(shape: str) -> float:
    """Seconds the reference kernel takes now in one shape.  Inputs are
    made per call, so no reference array outlives the sample."""
    rows, substeps, reps = SHAPES[shape]
    grid = np.linspace(0.0, 1.0, rows)
    xcols = [0.5 - grid, np.sin(7.0 * grid) / 2.0]
    ucols = [4.0 * grid - 2.0]
    _rk4(xcols, ucols, 0.5 / SUBSTEPS, 1)  # warm: first touch of the arrays
    t0 = time.perf_counter()
    for _ in range(reps):
        _rk4(xcols, ucols, 0.5 / SUBSTEPS, substeps)
    return time.perf_counter() - t0


def calibrate(wall: float, before: float, after: float, shape: str) -> float:
    """A stage's wall time at the reference speed, from the samples of its
    shape taken just before and just after it."""
    return wall * REFERENCE_S[shape] / ((before + after) / 2.0)
