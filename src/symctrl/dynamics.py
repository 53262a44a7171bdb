"""Continuous-time control systems, sampled flows, and stability certificates.

A plant is a box-bounded ODE ``dx/dt = f(x, u)`` with the input held constant
over each sampling period (zero-order hold).  Flows are computed with a fixed
step classical RK4 scheme so that transition relations built from them are
reproducible bit-for-bit on a given platform.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import compile_expression

DEFAULT_SUBSTEPS = 50

# rows per batched flow call: a 32K-row tile keeps the RK4 column
# temporaries in cache, and splitting the abstraction into such tiles lets
# map_tiles run it on every core; on 2 cores the baseline route of linear
# example #1 took 8.8 s with these tiles and 19.7 s with 2M-row ones, with
# bit-identical transitions and half the peak RSS
TILE_ROWS = 1 << 15


class DivergenceError(ArithmeticError):
    """A flow produced a non-finite value (overflow or NaN)."""

    def __init__(self, x, u):
        super().__init__(f"flow diverged from x={[float(v) for v in x]}, "
                         f"u={[float(v) for v in u]}")
        self.x = x
        self.u = u


def thread_count(requested: Optional[int] = None) -> int:
    """Worker count for batched flow evaluation; SYMCTRL_THREADS caps it."""
    limit = os.environ.get("SYMCTRL_THREADS")
    try:
        cap = int(limit) if limit else (os.cpu_count() or 1)
    except ValueError:
        raise ValueError(f"SYMCTRL_THREADS must be an integer, got "
                         f"{limit!r}") from None
    if requested is None:
        requested = os.cpu_count() or 1
    return max(1, min(requested, cap))


def map_tiles(fn: Callable[[int, int], object], n_rows: int,
              threads: Optional[int] = None) -> list:
    """[fn(a, b)] for each TILE_ROWS-row tile [a, b) of range(n_rows), in
    tile order.  Several tiles run on a pool of thread_count(threads)
    workers, so fn must be safe to call from several threads at once."""
    nworkers = thread_count(threads)
    tiles = [(a, min(a + TILE_ROWS, n_rows))
             for a in range(0, n_rows, TILE_ROWS)]
    if nworkers <= 1 or len(tiles) <= 1:
        return [fn(a, b) for a, b in tiles]
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        return list(pool.map(lambda tile: fn(*tile), tiles))


@dataclass(frozen=True)
class StabilityCertificate:
    """Comparison-function pair certifying incremental input-to-state
    stability: overshoot ``beta(r, s) = beta_c * r * exp(-beta_lambda * s)``
    and input gain ``gamma(r) = gamma_a * r ** gamma_p``.

    Certificates are declared by the user and trusted; no Lyapunov analysis
    is performed here.
    """

    beta_c: float
    beta_lambda: float
    gamma_a: float = 0.0
    gamma_p: float = 1.0

    def __post_init__(self):
        if self.beta_c <= 0 or self.beta_lambda <= 0:
            raise ValueError("beta_c and beta_lambda must be positive")
        if self.gamma_a < 0:
            raise ValueError("gamma_a must be nonnegative")
        if self.gamma_p <= 0:
            raise ValueError("gamma_p must be positive")

    def beta(self, r: float, s: float) -> float:
        """Overshoot bound for initial distance r after elapsed time s."""
        return self.beta_c * r * math.exp(-self.beta_lambda * s)

    def gamma(self, r: float) -> float:
        """Gain bound for input distance r."""
        if r == 0.0:
            return 0.0
        return self.gamma_a * r ** self.gamma_p


def _as_box(box, what: str) -> np.ndarray:
    arr = np.asarray(box, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} must be a sequence of [lo, hi] pairs")
    if np.any(arr[:, 0] > arr[:, 1]):
        raise ValueError(f"{what} has an interval with lo > hi")
    return arr


@dataclass
class ControlSystem:
    """Box-bounded ODE system.

    n, m            state / input dimensions (m = 0 for autonomous systems)
    state_box       (n, 2) closed intervals
    init_box        (n, 2) closed intervals, contained in state_box
    input_box       (m, 2) closed intervals
    field           n expression ASTs, the components of f(x, u)
    certificate     optional stability certificate
    """

    n: int
    m: int
    state_box: np.ndarray
    init_box: np.ndarray
    input_box: np.ndarray
    field: tuple
    certificate: Optional[StabilityCertificate] = None
    _compiled: Optional[list] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.state_box = _as_box(self.state_box, "state_box")
        self.init_box = _as_box(self.init_box, "init_box")
        self.input_box = _as_box(self.input_box, "input_box")
        if self.state_box.shape[0] != self.n or self.init_box.shape[0] != self.n:
            raise ValueError("state_box/init_box must have n intervals")
        if self.input_box.shape[0] != self.m:
            raise ValueError("input_box must have m intervals")
        if len(self.field) != self.n:
            raise ValueError("field must have one expression per state dimension")
        if np.any(self.init_box[:, 0] < self.state_box[:, 0]) or np.any(
                self.init_box[:, 1] > self.state_box[:, 1]):
            raise ValueError("init_box must be contained in state_box")
        self.field = tuple(self.field)

    @property
    def compiled_field(self):
        if self._compiled is None:
            self._compiled = [compile_expression(e) for e in self.field]
        return self._compiled


def _rk4_columns(sys: ControlSystem, xcols, ucols, tau: float, substeps: int):
    """Advance the columns (arrays, or floats for one row) in place by tau
    using `substeps` RK4 steps."""
    funcs = sys.compiled_field
    h = tau / substeps
    n = sys.n
    with np.errstate(all="ignore"):
        for _ in range(substeps):
            k1 = [f(xcols, ucols) for f in funcs]
            xt = [xcols[i] + (h / 2.0) * k1[i] for i in range(n)]
            k2 = [f(xt, ucols) for f in funcs]
            for i in range(n):
                xt[i] = xcols[i] + (h / 2.0) * k2[i]
            k3 = [f(xt, ucols) for f in funcs]
            for i in range(n):
                xt[i] = xcols[i] + h * k3[i]
            k4 = [f(xt, ucols) for f in funcs]
            for i in range(n):
                acc = k2[i] + k3[i]
                acc *= 2.0
                acc += k1[i]
                acc += k4[i]
                acc *= h / 6.0
                xcols[i] = xcols[i] + acc
    return xcols


def _flow_tile(sys: ControlSystem, X: np.ndarray, U: np.ndarray,
               tau: float, substeps: int) -> np.ndarray:
    if X.shape[0] == 1:
        # a lone row (the closed loop) flows as Python floats: the same field
        # and RK4 code, bit for bit, without the cost of 1-element arrays
        xcols = [float(v) for v in X[0]]
        ucols = [float(v) for v in U[0]]
    else:
        xcols = [np.ascontiguousarray(X[:, i], dtype=float)
                 for i in range(sys.n)]
        ucols = [np.ascontiguousarray(U[:, i], dtype=float)
                 for i in range(sys.m)]
    xcols = _rk4_columns(sys, xcols, ucols, tau, substeps)
    out = np.empty((X.shape[0], sys.n), dtype=float)
    for i in range(sys.n):
        out[:, i] = xcols[i]
    return out


def flow_many(sys: ControlSystem, X, U, tau: float,
              substeps: int = DEFAULT_SUBSTEPS, threads: Optional[int] = None,
              check_finite: bool = True) -> np.ndarray:
    """Endpoints of the sampled flow for a batch of (state, input) rows.

    X is (N, n), U is (N, m); u is held constant over [0, tau].  Returns the
    raw endpoints without projecting onto the state box.
    """
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    if X.ndim != 2 or X.shape[1] != sys.n:
        raise ValueError("X must be (N, n)")
    if U.ndim != 2 or U.shape[1] != sys.m:
        raise ValueError("U must be (N, m)")
    if X.shape[0] != U.shape[0]:
        raise ValueError("X and U must have the same number of rows")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if substeps < 1:
        raise ValueError("substeps must be a positive integer")
    parts = map_tiles(
        lambda a, b: _flow_tile(sys, X[a:b], U[a:b], tau, substeps),
        X.shape[0], threads)
    out = np.vstack(parts) if parts else np.empty((0, sys.n))
    if check_finite and not np.all(np.isfinite(out)):
        bad = int(np.flatnonzero(~np.all(np.isfinite(out), axis=1))[0])
        raise DivergenceError(X[bad], U[bad])
    return out


def flow(sys: ControlSystem, x: Sequence[float], u: Sequence[float],
         tau: float, substeps: int = DEFAULT_SUBSTEPS) -> np.ndarray:
    """Endpoint of the flow from x under constant input u over [0, tau].

    x must lie in the state box and u in the input box; the endpoint is NOT
    projected back onto the state box (leaving it is meaningful and kills the
    corresponding abstraction transition).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if x.shape[0] != sys.n:
        raise ValueError(f"x must have dimension {sys.n}")
    if u.shape[0] != sys.m:
        raise ValueError(f"u must have dimension {sys.m}")
    if np.any(x < sys.state_box[:, 0]) or np.any(x > sys.state_box[:, 1]):
        raise ValueError("x outside the state box")
    if sys.m and (np.any(u < sys.input_box[:, 0]) or np.any(u > sys.input_box[:, 1])):
        raise ValueError("u outside the input box")
    return flow_many(sys, x.reshape(1, -1), u.reshape(1, -1), tau,
                     substeps)[0]
