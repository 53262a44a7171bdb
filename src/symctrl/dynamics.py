"""Continuous-time control systems, sampled flows, and stability certificates.

A plant is a box-bounded ODE ``dx/dt = f(x, u)`` with the input held constant
over each sampling period (zero-order hold).  Flows are computed with a fixed
step classical RK4 scheme so that transition relations built from them are
reproducible bit-for-bit on a given platform.  Each system lowers its field
once (expr.FieldCode) and generates two RK4 kernels from it, one over the
arrays of a tile of rows and one over the floats of a single row; they run
the same operations, so a row's endpoint does not depend on the batch it is
flowed in.  A tile of at most ROW_TILE rows flows through the row kernel,
one row at a time; a longer one through the tile kernel.  A row on which
the field leaves its domain ends at NaN.  Asked for it, the tile kernel also
records the hull of every point at which it evaluates the field; both
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

# rows per batched flow call.  Every ufunc call of the RK4 kernel releases
# the GIL and takes it back, so on several threads a tile must be long
# enough for its ufunc calls to outlast that hand-over.  Flowing 262,144
# rows of the nonlinear plant on 2 cores: 4K-row tiles ran at 379K rows/s
# on 1 thread but 230K on 2; one thread was fastest on 8K-row tiles (511K),
# whose buffers stay in L2; 32K-row tiles were fastest on 2 threads (660K,
# 402K on 1), as they were for linear example #1's plant (944K, 646K on 1).
# Endpoints do not depend on the tile size
TILE_ROWS = 1 << 15

# tiles of at most this many rows flow one row at a time over Python floats.
# A call of the tile kernel costs 1.2 ms (linear #1) to 2 ms (nonlinear) at
# any small size, nearly all of it ufunc-call overhead.  Time of the row
# kernel, row by row, over that of the tile kernel, on one thread of a
# 2-core x86-64 machine (Python 3.11, numpy 2.4):
#
#     rows                         8          16         24         32
#     nonlinear plant              0.32-0.33  0.61-0.62  0.92       1.22-1.23
#     nonlinear spec               0.31       0.63       0.92       1.23
#     linear #1 plant and spec     0.18-0.19  0.35-0.40  0.51-0.55  0.69-0.76
#
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

    The tiles are of equal length (to a row), at most TILE_ROWS, and when
    there are several, their count is a multiple of the workers, so that
    no worker idles through a short last tile.  Several tiles run on
    thread_count(threads) workers, the calling thread among them, so fn
    must be safe to call from several threads at once."""
    if n_rows <= TILE_ROWS:  # one tile or none, on this thread
        return [fn(0, n_rows)] if n_rows else []
    nworkers = thread_count(threads)
    count = -(-n_rows // TILE_ROWS)
    if count > 1:
        count = -(-count // nworkers) * nworkers
    tiles = [(n_rows * i // count, n_rows * (i + 1) // count)
             for i in range(count)]
    if nworkers <= 1 or len(tiles) <= 1:
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
    `hull`."""
    x, xt = [f"x{i}" for i in range(n)], [f"xt{i}" for i in range(n)]
    k1, k2, k3 = [[f"k{s}_{i}" for i in range(n)] for s in (1, 2, 3)]
    # a row that leaves the field's domain ends at NaN (over arrays, the
    # rows marked in `bad`)
    fail = "return (" + "nan, " * n + ")"
    if form == "array":
        lines = ["def tile(X, U, h, substeps, hull):",
                 "    rows = X.shape[0]"]
        lines += [f"    x{i} = np.array(X[:, {i}], dtype=float)"
                  for i in range(n)]
        lines += [f"    u{j} = np.ascontiguousarray(U[:, {j}], dtype=float)"
                  for j in range(m)]
        lines += [f"    {b} = np.empty(rows)" for b in xt + k1 + k2 + k3]
        lines += [f"    t{r} = np.empty(rows)" for r in range(code.n_registers)]
        if code.checks:
            lines.append("    bad = np.zeros(rows, dtype=bool)")
        lines.append("    if hull:")
        lines += [f"        {b}{i} = np.array(x{i})"
                  for b in ("lo", "hi") for i in range(n)]
    else:
        lines = ["def row(x, u, h, substeps):"]
        if n:
            lines.append(f"    {''.join(v + ', ' for v in x)}= x")
        if m:
            lines.append(f"    {''.join(f'u{j}, ' for j in range(m))}= u")
    lines += ["    hh = h / 2.0", "    h6 = h / 6.0"]
    lines += ["    " + ln for ln in code.prologue_lines(form, fail)]
    lines.append("    for _ in range(substeps):")

    def op(fn, dest, *args):
        lines.append("        " + render(form, fn, args, dest))

    def stage(xs, ks):
        if form == "array":
            # the stage point, before the field is evaluated there
            lines.append("        if hull:")
            lines.extend(f"            np.{fn}({b}{i}, {xs}{i}, out={b}{i})"
                         for fn, b in (("minimum", "lo"), ("maximum", "hi"))
                         for i in range(n))
        lines.extend("        " + ln
                     for ln in code.body_lines(form, fail, xs, ks))

    stage("x", "k1_")
    for i in range(n):
        op("mul", xt[i], "hh", k1[i])
        op("add", xt[i], x[i], xt[i])
    stage("xt", "k2_")
    for i in range(n):
        op("mul", xt[i], "hh", k2[i])
        op("add", xt[i], x[i], xt[i])
    stage("xt", "k3_")
    for i in range(n):
        op("add", k2[i], k2[i], k3[i])  # k2 + k3, as soon as k3 exists
        op("mul", xt[i], "h", k3[i])
        op("add", xt[i], x[i], xt[i])
    stage("xt", "k3_")  # k4, into the buffers of k3
    for i in range(n):
        op("mul", k2[i], k2[i], "2.0")
        op("add", k2[i], k2[i], k1[i])
        op("add", k2[i], k2[i], k3[i])
        op("mul", k2[i], k2[i], "h6")
        op("add", x[i], x[i], k2[i])
    if form == "float":
        return lines + ["    return (" + "".join(v + ", " for v in x) + ")"]
    if code.checks:
        lines += ["    if bad.any():"] + [f"        {v}[bad] = nan" for v in x]
    lines.append(f"    out = np.empty((rows, {n}))")
    lines += [f"    out[:, {i}] = x{i}" for i in range(n)]
    lo, hi = (", ".join(f"{b}{i}" for i in range(n)) for b in ("lo", "hi"))
    return lines + ["    if hull:",
                    f"        return out, np.column_stack([{lo}]), "
                    f"np.column_stack([{hi}])", "    return out"]


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
