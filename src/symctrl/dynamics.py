"""Continuous-time control systems, sampled flows, and stability certificates.

A plant is a box-bounded ODE ``dx/dt = f(x, u)`` with the input held constant
over each sampling period (zero-order hold).  Flows are computed with a fixed
step classical RK4 scheme so that transition relations built from them are
reproducible bit-for-bit on a given platform.  Each system lowers its field
once (expr.FieldCode) and generates two RK4 kernels from it, one over the
arrays of a tile of rows and one over the floats of a single row; they run
the same operations, so a row's endpoint does not depend on the batch it is
flowed in.  A tile of at most ROW_TILE rows flows through the row kernel,
one row at a time; a longer one through the tile kernel, which holds its
state and slopes as (n, rows) blocks.  A row on which the field leaves its
domain ends at NaN.  Asked for it, the tile kernel also records the hull
of every point at which it evaluates the field; both
synthesis routes flow the coarse rows of a plant that is not affine that
way, for the curvature bound that pads their chord (abstraction.RowEngine).
An affine plant's chord is exact, and its corners flow without hulls.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import FieldCode, compile_expression, compile_source, render

DEFAULT_SUBSTEPS = 50

# rows per batched flow call on several threads.  Every ufunc call of the
# RK4 kernel releases the GIL and takes it back, so on several threads a
# tile must be long enough for its ufunc calls to outlast that hand-over.
# Flowing 262,144 rows of the nonlinear plant on 2 cores (best of 6),
# rows/s by tile length, before the stacked tile kernel:
#
#     tile rows        4K     8K     16K    32K
#     1 thread         480K   584K   532K   410K
#     2 threads        272K   -      656K   646K
#
# and 32K-row tiles on linear example #1's plant (1,127K; 838K on 1).  One
# thread is fastest on tiles whose buffers stay in L2: with the stacked
# kernel, 28,779 nonlinear rows took 52 ms as one tile and 39 ms as three
# (one thread of a 2-core Xeon with 2 MiB of L2 a core, best of 7).  So a
# call that runs on the calling thread alone, of at least TILE_ROWS // 2
# rows, flows tiles of TILE_ROWS // 4 rows or a few more (map_tiles).
# Endpoints do not depend on the tile size
TILE_ROWS = 1 << 15

# tiles of at most this many rows flow one row at a time over Python floats.
# A call of the tile kernel costs 1.0 ms (linear #1) to 1.6 ms (nonlinear)
# at any small size, nearly all of it ufunc-call overhead.  Time of the row
# kernel, row by row, over that of the tile kernel, on one thread of a
# 2-core x86-64 machine (Python 3.11, numpy 2.4, best of 100):
#
#     rows                         8          16         24         32
#     nonlinear plant              0.44-0.45  0.89       1.28-1.45  1.73-1.78
#     nonlinear spec               0.46       0.89-0.90  1.34-1.35  1.74-1.78
#     linear #1 plant and spec     0.21-0.26  0.41-0.51  0.68-0.79  0.81-1.00
#
# so the nonlinear problem breaks even near 18 rows and linear #1 near 32.
# The closed loop flows a relational cell's 2-16 options as one tile and
# never flows the specification more than one row at a time; both synthesis
# routes flow their specification in waves of hundreds of rows
ROW_TILE = 16


class DivergenceError(ArithmeticError):
    """A flow produced a non-finite value: it overflowed, or the field left
    its domain (see expr) on the way."""

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
    """[fn(a, b)] for each tile [a, b) of range(n_rows), in tile order.

    The tiles are of equal length (to a row).  A call of fewer than
    TILE_ROWS // 2 rows is one tile, run on the calling thread before
    thread_count, which reads the environment, is asked.  A call that runs
    on the calling thread alone, of at most TILE_ROWS rows or on one
    worker, is n_rows // (TILE_ROWS // 4) tiles, of at least TILE_ROWS // 4
    rows each, which stay in L2 (see TILE_ROWS).  Any other call is tiles
    of at most TILE_ROWS rows, as many as a multiple of the workers, so
    that no worker idles through a short last tile.  They run on
    thread_count(threads) workers, the calling thread among them, so fn
    must be safe to call from several threads at once."""
    if n_rows < TILE_ROWS // 2:  # one tile or none, on this thread
        return [fn(0, n_rows)] if n_rows else []
    nworkers = 1 if n_rows <= TILE_ROWS else thread_count(threads)
    if nworkers <= 1:
        count = n_rows // max(1, TILE_ROWS // 4)
    else:
        count = -(-n_rows // TILE_ROWS)
        count = -(-count // nworkers) * nworkers
    tiles = [(n_rows * i // count, n_rows * (i + 1) // count)
             for i in range(count)]
    if nworkers <= 1:
        return [fn(a, b) for a, b in tiles]

    def work(w):  # tiles w, w + nworkers, ...
        return [fn(a, b) for a, b in tiles[w::nworkers]]
    # worker 0 is this thread: one thread heap fewer holds freed tile buffers
    with ThreadPoolExecutor(max_workers=nworkers - 1) as pool:
        others = pool.map(work, range(1, nworkers))
        parts = [work(0), *others]
    return [parts[i % nworkers][i // nworkers] for i in range(count)]


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
        """Gain bound for input distance r: 0 when r or gamma_a is 0, and
        inf where r ** gamma_p passes the float range."""
        if r == 0.0 or self.gamma_a == 0.0:
            return 0.0
        try:
            return self.gamma_a * r ** self.gamma_p
        except OverflowError:
            return math.inf


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

    # cached on the instance, not fields, so that dataclasses.replace
    # compiles anew
    @cached_property
    def compiled_field(self) -> list:
        """One f(xcols, ucols) per component (expr.compile_expression),
        compiled on first use; no flow runs them.  Reading it compiles the
        RK4 kernels too, so that no later flow compiles anything."""
        self._kernels
        return [compile_expression(e) for e in self.field]

    @cached_property
    def _kernels(self) -> tuple:
        # the tile and row RK4 kernels of _flow_tile, from one lowering;
        # flow workers that race here compile the same kernels twice
        code = FieldCode(self.field)
        return (compile_source(_rk4_source(code, self.n, self.m, "array"),
                               "tile"),
                compile_source(_rk4_source(code, self.n, self.m, "float"),
                               "row"))


def _rk4_source(code: FieldCode, n: int, m: int, form: str) -> list:
    """Source of an RK4 kernel: "tile" over the arrays of a tile of rows,
    writing through ``out=`` into buffers allocated once per tile, or "row"
    over the Python floats of one row.  Both run the same operations in the
    same order, those of the classical step
    x + (2 * (k2 + k3) + k1 + k4) * (h / 6), so their endpoints agree.

    The row kernel is row(x, u, h, substeps), over one row's state and input
    as sequences of floats; it returns the endpoint as a tuple.  The tile
    kernel is tile(X, U, h, substeps, hull); with `hull` it returns
    (endpoints, lo, hi), where lo and hi bound, per row and component, every
    point at which it evaluated the field; the endpoints do not depend on
    `hull`.  It holds the state, the stage point, the slopes and the hull as
    (n, rows) blocks, whose rows are the components the field's code reads
    and writes (x0 is the first row of xs), so that each step of RK4 and of
    the hull is one ufunc call over a block, not one per component."""
    x = [f"x{i}" for i in range(n)]
    # the block of each component prefix
    block = {p: p.rstrip("_") + "s" for p in ("x", "xt", "k1_", "k2_", "k3_")}
    # a row that leaves the field's domain ends at NaN (over arrays, the
    # rows marked in `bad`)
    fail = "return (" + "nan, " * n + ")"
    if form == "array":
        lines = ["def tile(X, U, h, substeps, hull):",
                 "    rows = X.shape[0]",
                 '    xs = np.array(X.T, dtype=float, order="C")']
        lines += [f"    {b} = np.empty(({n}, rows))"
                  for p, b in block.items() if p != "x"]
        lines += [f"    {''.join(f'{p}{i}, ' for i in range(n))}= {b}"
                  for p, b in block.items()]
        if m:
            lines += ["    us = np.ascontiguousarray(U.T, dtype=float)",
                      f"    {''.join(f'u{j}, ' for j in range(m))}= us"]
        lines += [f"    t{r} = np.empty(rows)" for r in range(code.n_registers)]
        if code.checks:
            lines.append("    bad = np.zeros(rows, dtype=bool)")
        lines += ["    if hull:", "        lo, hi = xs.copy(), xs.copy()"]
    else:
        lines = ["def row(x, u, h, substeps):"]
        if n:
            lines.append(f"    {''.join(v + ', ' for v in x)}= x")
        if m:
            lines.append(f"    {''.join(f'u{j}, ' for j in range(m))}= u")
    lines += ["    hh = h / 2.0", "    h6 = h / 6.0"]
    lines += ["    " + ln for ln in code.prologue_lines(form, fail)]
    lines.append("    for _ in range(substeps):")

    def step(*ops):
        # operations (fn, dest, *args) on component prefixes or scalars:
        # over floats each component in turn, over arrays each operation
        # once over its blocks
        if form == "float":
            for i in range(n):
                for fn, dest, *args in ops:
                    lines.append("        " + render(
                        form, fn, [a + str(i) if a in block else a
                                   for a in args], dest + str(i)))
        else:
            lines.extend("        " + render(form, fn,
                                             [block.get(a, a) for a in args],
                                             block[dest])
                         for fn, dest, *args in ops)

    def stage(xs, ks):
        if form == "array":
            # the stage point, before the field is evaluated there
            lines.extend(["        if hull:",
                          f"            np.minimum(lo, {block[xs]}, out=lo)",
                          f"            np.maximum(hi, {block[xs]}, out=hi)"])
        lines.extend("        " + ln
                     for ln in code.body_lines(form, fail, xs, ks))

    stage("x", "k1_")
    step(("mul", "xt", "hh", "k1_"), ("add", "xt", "x", "xt"))
    stage("xt", "k2_")
    step(("mul", "xt", "hh", "k2_"), ("add", "xt", "x", "xt"))
    stage("xt", "k3_")
    # k2 + k3, as soon as k3 exists
    step(("add", "k2_", "k2_", "k3_"), ("mul", "xt", "h", "k3_"),
         ("add", "xt", "x", "xt"))
    stage("xt", "k3_")  # k4, into the buffers of k3
    step(("mul", "k2_", "k2_", "2.0"), ("add", "k2_", "k2_", "k1_"),
         ("add", "k2_", "k2_", "k3_"), ("mul", "k2_", "k2_", "h6"),
         ("add", "x", "x", "k2_"))
    if form == "float":
        return lines + ["    return (" + "".join(v + ", " for v in x) + ")"]
    if code.checks:
        lines += ["    if bad.any():", "        xs[:, bad] = nan"]
    return lines + ["    if hull:",
                    "        return xs.T.copy(), lo.T.copy(), hi.T.copy()",
                    "    return xs.T.copy()"]


def check_substeps(substeps) -> None:
    """Refuse a `substeps` that is not an int or numpy integer of 1 or more."""
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise ValueError("substeps must be a positive integer")


def _flow_tile(sys: ControlSystem, X: np.ndarray, U: np.ndarray,
               tau: float, substeps: int, hull: bool = False):
    """Endpoints of one tile of rows; with `hull`, (endpoints, lo, hi) where
    lo and hi bound each row's RK4 stage points (see _rk4_source)."""
    tile, row = sys._kernels
    h = float(tau / substeps)  # the row kernel's arithmetic stays on floats
    with np.errstate(all="ignore"):
        # a tile of a few rows (the closed loop's) flows row by row as
        # Python floats: the same operations, bit for bit, without the
        # thousands of ufunc calls the tile kernel makes at any size
        if X.shape[0] <= ROW_TILE and not hull:
            rows = [row(x, u, h, substeps) for x, u in
                    zip(X.astype(float, copy=False).tolist(),
                        U.astype(float, copy=False).tolist())]
            return np.array(rows, dtype=float).reshape(X.shape[0], sys.n)
        return tile(X, U, h, substeps, hull)


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
    check_substeps(substeps)
    parts = map_tiles(
        lambda a, b: _flow_tile(sys, X[a:b], U[a:b], tau, substeps),
        X.shape[0], threads)
    out = (parts[0] if len(parts) == 1 else np.vstack(parts) if parts
           else np.empty((0, sys.n)))
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
