"""Quantized symbolic models of sampled control systems, and the row engine
both synthesis routes flow their plant rows through.

The abstraction of a system places one symbolic state on every point of the
state lattice (spacing 2*eta) and one symbolic input on every point of the
input lattice (spacing 2*mu).  A transition (x, u, y) exists exactly when the
sampled flow from x under constant u lands in the half-open cell of a lattice
point y; endpoints outside the cells' cover of the state box produce no
transition.  Because the cells are disjoint, the result is deterministic:
each (state, input) has at most one successor.

RowEngine does not flow the rows a growth bound proves to miss a box: it
flows a coarse input sub-lattice first (_InputSplit), takes the hulls of the
RK4 stage points of the states it may prove something for, bounds how far
an endpoint moves with its input (_GrowthBound), and flows only the fine
inputs that no coarse neighbour proves to land outside the box
(_fine_to_flow).  The box is the cells' cover for the abstraction, and each
state's target cell for the integrated route of `synthesis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .dynamics import (DEFAULT_SUBSTEPS, TILE_ROWS, ControlSystem, _flow_tile,
                       map_tiles)
from .expr import Var, derivative, enclose
from .quantize import Lattice
from .tsys import FiniteSystem

DEFAULT_TRANSITION_CAP = 100_000_000

# (state, input) rows per chunk of the abstraction's sweep.  A chunk holds an
# int32 successor per row and a keep-mask over its fine inputs, 5 bytes a
# row; the benchmark problems' lattices fit in one chunk
_SWEEP_ROWS = 1 << 20
# (state, fine input) entries per slice of the miss test's temporaries
_PROOF_ROWS = TILE_ROWS // 4
# rounding margin of the growth-bound tests, relative to 1 + |value|.  The
# bound is that of the RK4 map in exact arithmetic, while the kernel rounds
# each of its few hundred operations per row to nearest and the interval
# enclosures are not rounded outward.  Those errors, near 1e-14 relative,
# stay far below this margin while the flow amplifies them less than about
# 1e4-fold over tau
_MARGIN = 1e-9
# tries at a region that holds the stage points of every pruned row
_REGION_ROUNDS = 4


class ResourceLimitError(RuntimeError):
    """The projected or actual transition count exceeds the configured cap."""


@dataclass(frozen=True)
class AbstractionSpec:
    """Sampling time tau, state quantization eta, input quantization mu
    (None for autonomous systems, whose single input is the constant zero),
    and integrator substeps per sampling period."""

    tau: float
    eta: float
    mu: Optional[float] = None
    substeps: int = DEFAULT_SUBSTEPS

    def __post_init__(self):
        if self.tau <= 0 or self.eta <= 0:
            raise ValueError("tau and eta must be positive")
        if self.mu is not None and self.mu <= 0:
            raise ValueError("mu must be positive when present")
        if self.substeps < 1:
            raise ValueError("substeps must be a positive integer")


class _InputSplit:
    """The inputs flowed first and, for each other input, the first ones it
    is compared with.

    Per input axis of c points, every isqrt(c)-th point and the last one are
    coarse; an input coarse on every axis is coarse.  Each other (fine)
    input has 2^m corners: per axis, the nearest coarse index at or below
    its own and the nearest at or above.  corner[f, q] is the position in
    `coarse` of corner q of fine input f, du[f, q] the per-axis distance
    between the two inputs, and reach the largest such distance per axis.
    With few points per axis every input is coarse; an autonomous plant has
    the one zero input.
    """

    def __init__(self, in_lat: Optional[Lattice], u_pts: np.ndarray):
        n_u = u_pts.shape[0]
        if in_lat is None:
            grids, k = [], np.zeros((n_u, 0), dtype=np.int64)
        else:
            grids = [np.unique(np.r_[np.arange(0, c, max(1, math.isqrt(c))),
                                     c - 1]) for c in in_lat.counts]
            k = (np.arange(n_u)[:, None] // in_lat.strides) % in_lat.counts
        coarse = np.ones(n_u, dtype=bool)
        for ax, grid in enumerate(grids):
            coarse &= np.isin(k[:, ax], grid)
        self.coarse = np.flatnonzero(coarse)
        self.fine = np.flatnonzero(~coarse)
        # positions in self.coarse, mixed-radix over the grids
        radix = np.ones(len(grids), dtype=np.int64)
        for ax in range(len(grids) - 2, -1, -1):
            radix[ax] = radix[ax + 1] * grids[ax + 1].size
        kf = k[self.fine]
        corners = []
        for q in range(1 << len(grids)):
            pos = np.zeros(self.fine.size, dtype=np.int64)
            for ax, grid in enumerate(grids):
                if (q >> ax) & 1:  # the nearest coarse index above
                    pos += np.searchsorted(grid, kf[:, ax], "left") * radix[ax]
                else:  # below
                    pos += (np.searchsorted(grid, kf[:, ax], "right")
                            - 1) * radix[ax]
            corners.append(pos)
        self.corner = np.stack(corners, axis=1)
        self.du = np.abs(u_pts[self.fine][:, None, :]
                         - u_pts[self.coarse][self.corner])
        self.reach = (self.du.max(axis=(0, 1)) if self.fine.size
                      else np.zeros(u_pts.shape[1]))


class _GrowthBound:
    """A bound on how far the plant's RK4 endpoint moves with its input.

    For two rows from the same state with inputs du apart, it bounds the
    endpoint distance componentwise by G |du|.  G bounds the map the
    kernel runs, substep by substep, not the exact flow.  Let h = tau /
    substeps, and over a box D of states times the input hull take J, the
    interval Jacobian df/dx, with L its Metzler bound (sup J_ii on the
    diagonal, sup |J_ij| off it), M = sup |J| and W = sup |df/du|.  While
    both rows' stage points lie in D, the mean value theorem (row by row,
    on segments inside the box D) writes each stage difference as
    dk_s = J_s dy_s + W_s du, with dy_1 = dx, dy_2 = dx + h/2 dk_1,
    dy_3 = dx + h/2 dk_2, dy_4 = dx + h dk_3.  Expanding
    dx+ = dx + h/6 (dk_1 + 2 dk_2 + 2 dk_3 + dk_4):

    - order h: (I + h Jbar) dx with Jbar = (J_1 + 2 J_2 + 2 J_3 + J_4) / 6,
      a convex mix of Jacobians in J.  So |I + h Jbar| <= I + h L entrywise
      when 1 + h inf J_ii >= 0, and the contraction is kept;
    - order h^2: h/6 * h (J_2 J_1 + J_3 J_2 + J_4 J_3) dx, at most
      (hM)^2 / 2 |dx|;
    - order h^3: h/6 * h^2 (J_3 J_2 J_1 / 2 + J_4 J_3 J_2 / 2) dx, at most
      (hM)^3 / 6 |dx|;
    - order h^4: h/6 * h^3 J_4 J_3 J_2 J_1 / 4 dx, at most (hM)^4 / 24 |dx|;
    - the input terms, likewise: h/6 (W_1 + 2 W_2 + 2 W_3 + W_4) du, then
      h/6 * h (J_2 W_1 + J_3 W_2 + J_4 W_3) du, h/6 * h^2 (J_3 J_2 W_1 / 2
      + J_4 J_3 W_2 / 2) du and h/6 * h^3 J_4 J_3 J_2 W_1 / 4 du, at most
      h (W + hM W / 2 + (hM)^2 W / 6 + (hM)^3 W / 24) |du|.

    So |dx+| <= A |dx| + B |du| with A = I + hL + (hM)^2/2 + (hM)^3/6 +
    (hM)^4/24 and B = h (W + hM W/2 + (hM)^2 W/6 + (hM)^3 W/24), and from
    dx = 0, G is B iterated `substeps` times through A.

    D is the hull of the stage points the coarse rows of a state visited,
    grown by g.  The bound holds if the stage points of every row compared
    with them stay within g: from |dx| <= R |du| (R the largest G before a
    substep), |dy_2| <= R + h/2 (M R + W), |dy_3| <= R + h/2 (M dy_2 + W),
    |dy_4| <= R + h (M dy_3 + W), each times the reach.  Induction over the
    stages shows that then no stage point leaves D, so g is accepted when
    this growth is at most g.  Both D and the miss test get a rounding
    margin of _MARGIN (1 + |value|).  A box is refused (every input kept)
    when an enclosure is unbounded or undefined, when 1 + h inf J_ii < 0,
    or when no g is accepted within _REGION_ROUNDS tries.
    """

    def __init__(self, plant: ControlSystem, u_pts: np.ndarray, tau: float,
                 substeps: int, reach: np.ndarray):
        n, m = plant.n, plant.m
        wrt = [Var("x", i) for i in range(n)] + [Var("u", j) for j in range(m)]
        # the field itself too: the mean value theorem needs it defined on D
        self.exprs = list(plant.field) + [derivative(f, v) for f in plant.field
                                          for v in wrt]
        self.u = list(zip(u_pts.min(axis=0), u_pts.max(axis=0)))
        self.n, self.m = n, m
        self.h, self.substeps, self.reach = tau / substeps, substeps, reach

    def _at(self, lo: np.ndarray, hi: np.ndarray):
        """(G, growth, ok) over the boxes [lo, hi] (rows); G and growth may
        be one value for all boxes when the Jacobian is constant."""
        n, m, h = self.n, self.m, self.h
        ivs, ok = enclose(self.exprs, list(zip(lo.T, hi.T)), self.u)
        jac = ivs[n:]
        shape = np.broadcast_shapes(*(np.shape(b) for iv in jac for b in iv))
        Jlo, Jhi = (np.stack([np.broadcast_to(iv[e], shape) for iv in jac],
                             axis=-1).reshape(*shape, n, n + m) for e in (0, 1))
        with np.errstate(all="ignore"):
            mag = np.maximum(np.abs(Jlo), np.abs(Jhi))
            M, W = mag[..., :n], mag[..., n:]
            d = np.arange(n)
            L = M.copy()
            L[..., d, d] = Jhi[..., d, d]
            ok = ok & np.all(1.0 + h * Jlo[..., d, d] >= 0.0, axis=-1)
            hM = h * M
            P2 = hM @ hM
            P3 = P2 @ hM
            A = np.eye(n) + h * L + P2 / 2 + P3 / 6 + P3 @ hM / 24
            B = h * (W + hM @ W / 2 + P2 @ W / 6 + P3 @ W / 24)
            G, R = np.zeros_like(B), np.zeros_like(B)
            for _ in range(self.substeps):
                np.maximum(R, G, out=R)
                G = np.einsum("...ij,...jk->...ik", A, G) + B
            Y2 = R + h / 2 * (M @ R + W)
            Y3 = R + h / 2 * (M @ Y2 + W)
            Y4 = R + h * (M @ Y3 + W)
            growth = np.maximum(np.maximum(R, Y2), np.maximum(Y3, Y4)) @ self.reach
        return G, growth, ok & np.all(np.isfinite(growth), axis=-1)

    def gains(self, lo: np.ndarray, hi: np.ndarray):
        """(G, sure) per stage-point hull [lo[s], hi[s]]: G[s] bounds the
        endpoint distance per unit of input where sure[s] holds."""
        S = lo.shape[0]
        G = np.zeros((S, self.n, self.m))
        sure = np.zeros(S, dtype=bool)
        open_ = np.ones(S, dtype=bool)
        g = np.zeros((S, self.n))
        pad0 = _MARGIN * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        for _ in range(_REGION_ROUNDS):
            Gk, growth, ok = self._at(lo - g - pad0, hi + g + pad0)
            growth = np.broadcast_to(growth, g.shape)
            fits = open_ & ok & np.all(growth <= g, axis=1)
            G[fits] = np.broadcast_to(Gk, G.shape)[fits]
            sure |= fits
            # a refused box stays refused on any larger one
            open_ &= ok & ~fits
            if not open_.any():
                break
            # grow past the need, which grows with the region
            g = np.where(open_[:, None], 1.5 * growth, g)
        return G, sure


def _fine_to_flow(split: _InputSplit, bound: _GrowthBound, Z: np.ndarray,
                  hulls: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
                  P: np.ndarray, half: np.ndarray) -> np.ndarray:
    """keep[s, f]: whether fine input split.fine[f] of state s may still land
    in the box of centre P[s] and per-axis half-widths `half` (a target
    cell, or the cover of a lattice's cells), given the coarse rows'
    endpoints Z, (state, coarse input, axis).  hulls(states) gives the
    stage-point hulls lo, hi of those states' coarse rows, shaped like
    Z[states]; it is called only for the states that may be proved
    something.

    Corner c proves that f misses when, on some axis, Z[s, c] is farther
    from the box than G |du| plus the margin.  A corner whose row is not
    finite proves nothing, and neither does a state without a sure bound.
    A state none of whose finite corners lies that far outside the box at
    G = 0 cannot be proved anything: it needs no hull and no bound.
    """
    # allocated before the temporaries, so that freeing them leaves no hole
    # under it in the heap
    keep = np.ones((P.shape[0], split.fine.size), dtype=bool)
    fin = np.isfinite(Z).all(axis=2)
    with np.errstate(invalid="ignore"):
        gap = np.abs(Z - P[:, None, :]) - half - _MARGIN * (1.0 + np.abs(Z))
    gap[~fin] = -np.inf
    states = np.flatnonzero((gap > 0.0).any(axis=(1, 2)))
    if not states.size:
        return keep
    lo, hi = hulls(states)
    fin = (fin[states] & np.isfinite(lo).all(axis=2)
           & np.isfinite(hi).all(axis=2))
    G = np.zeros((states.size, P.shape[1], split.du.shape[2]))
    sure = np.zeros(states.size, dtype=bool)
    has = fin.any(axis=1)
    if has.any():
        G[has], sure[has] = bound.gains(
            np.where(fin[..., None], lo, np.inf).min(axis=1)[has],
            np.where(fin[..., None], hi, -np.inf).max(axis=1)[has])
    gap = gap[states]
    gap[~(fin & sure[:, None])] = -np.inf
    # a few states at a time, so that the temporaries stay small
    step = max(1, _PROOF_ROWS // max(1, split.fine.size))
    for a in range(0, states.size, step):
        part = np.ones((min(step, states.size - a), split.fine.size),
                       dtype=bool)
        for q in range(split.corner.shape[1]):
            for i in range(P.shape[1]):
                part &= (G[a:a + step, i, :] @ split.du[:, q, :].T
                         >= gap[a:a + step, split.corner[:, q], i])
        keep[states[a:a + step]] = part
    return keep


class RowEngine:
    """The (state, input) rows of one system, flowed where they may land in
    a box, and their cells of a state lattice.  Built once per system, state
    lattice, input lattice (None for an autonomous system, whose one input
    is the constant zero), tau and substeps, it holds the inputs, their
    split and, when there are fine inputs, the growth bound."""

    def __init__(self, sys: ControlSystem, st_lat: Lattice,
                 in_lat: Optional[Lattice], tau: float, substeps: int):
        self.sys, self.st_lat, self.tau, self.substeps = (sys, st_lat, tau,
                                                          substeps)
        self.inputs = np.zeros((1, 0)) if in_lat is None else in_lat.points()
        self.split = _InputSplit(in_lat, self.inputs)
        self.bound = (_GrowthBound(sys, self.inputs, tau, substeps,
                                   self.split.reach)
                      if self.split.fine.size else None)

    def _flow(self, X, src, cols, hull=False):
        return _flow_tile(self.sys, X[src], self.inputs[cols], self.tau,
                          self.substeps, hull=hull)

    def run(self, X: np.ndarray, P: np.ndarray, half: np.ndarray,
            visit: Callable[..., None], hull_first: bool) -> int:
        """Flows the rows of the states X that may land in the box of centre
        P[s] and per-axis half-widths `half`; returns how many it flowed.
        Each flowed tile goes to visit(src, cols, Z, cells): its rows'
        positions in X, input indices, endpoints and cells (-1 off the
        lattice).  Tiles are disjoint and run on the flow workers, so visit
        must be safe to call from several threads at once.

        1. Every coarse input; without fine inputs, every row.
        2. The coarse rows' stage-point hulls: with `hull_first`, the first
           pass flows through the hull kernel, for every state; otherwise
           only the states with a coarse endpoint outside the box (the
           others cannot be proved anything) flow their coarse rows again,
           which count twice.  The one costs the hull where no state needs
           it, the other a second flow where every state does.
        3. The miss test (_fine_to_flow).
        4. Only the kept fine rows, each tile finding its rows in the
           keep-mask: a pruned row would not have landed in the box.
        """
        S, n = X.shape
        coarse, fine = self.split.coarse, self.split.fine
        n_c = coarse.size
        hull = hull_first and self.bound is not None
        # the coarse rows' endpoints for the proof, in one array so that no
        # worker's output outlives its tile; with `hull` the tiles hand them
        # back with their hulls, so that no buffer adds to the kernel's peak
        Z = (np.empty((S * n_c, n)) if self.bound is not None and not hull
             else None)

        def first(a, b):
            src, cols = np.divmod(np.arange(a, b), n_c)
            cols = coarse[cols]
            out = self._flow(X, src, cols, hull)
            end = out[0] if hull else out
            if Z is not None:
                Z[a:b] = end
            visit(src, cols, end, self.st_lat.quantize_many(end))
            return out if hull else None

        parts = map_tiles(first, S * n_c)
        if self.bound is None:
            return S * n_c
        if hull:
            Z, *kept = (np.concatenate(k) for k in zip(*parts))
        del parts
        hulled = 0  # coarse rows flowed again through the hull kernel

        def hulls(states):
            if hull:
                return tuple(b.reshape(S, n_c, n)[states] for b in kept)
            nonlocal hulled
            hulled = states.size * n_c
            lo_s, hi_s = (np.empty((hulled, n)) for _ in range(2))

            def tile(a, b):
                row = np.arange(a, b)
                _, lo_s[a:b], hi_s[a:b] = self._flow(
                    X, states[row // n_c], coarse[row % n_c], True)

            map_tiles(tile, hulled)
            return lo_s.reshape(-1, n_c, n), hi_s.reshape(-1, n_c, n)

        keep = _fine_to_flow(self.split, self.bound, Z.reshape(S, n_c, n),
                             hulls, P, half)
        del Z
        # rows of the fine pass before each state's, and in all
        offset = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])

        def last(a, b):
            # the kept (state, fine input) rows a..b, from the mask
            s0 = np.searchsorted(offset, a, "right") - 1
            s1 = np.searchsorted(offset, b, "left")
            src, f = np.nonzero(keep[s0:s1])
            skip = a - offset[s0]
            src = src[skip:skip + b - a] + s0
            cols = fine[f[skip:skip + b - a]]
            out = self._flow(X, src, cols)
            visit(src, cols, out, self.st_lat.quantize_many(out))

        map_tiles(last, int(offset[-1]))
        return S * n_c + hulled + int(offset[-1])


def _transitions(succ: np.ndarray, first: int) -> np.ndarray:
    """(source, input, target) int32 rows of the successors succ of states
    first, first + 1, ..., in lexicographic order."""
    hit = succ >= 0
    t = np.empty((np.count_nonzero(hit), 3), dtype=np.int32)
    t[:, 0] = np.repeat(np.arange(first, first + succ.shape[0],
                                  dtype=np.int32), hit.sum(axis=1))
    t[:, 1] = np.broadcast_to(np.arange(succ.shape[1], dtype=np.int32),
                              succ.shape)[hit]
    t[:, 2] = succ[hit]
    return t


def _join(parts: list) -> np.ndarray:
    """The (source, input, target) rows of `parts`, in order.  Each part is
    released once it is copied, so that the parts and their copy are never
    both held in full; a single part is returned as it is."""
    if len(parts) == 1:
        return parts.pop()
    out = np.empty((sum(p.shape[0] for p in parts), 3), dtype=np.int32)
    at = 0
    while parts:
        part = parts.pop(0)
        out[at:at + part.shape[0]] = part
        at += part.shape[0]
    return out


def build_abstraction(sys: ControlSystem, spec: AbstractionSpec,
                      transition_cap: Optional[int] = DEFAULT_TRANSITION_CAP
                      ) -> FiniteSystem:
    """Build the symbolic model of `sys` for the given quantization.

    States are embedded at their own lattice coordinates; initial states come
    from the outward-rounded lattice range of the initial box.  Flows leaving
    the cells covering the state box produce no transition, and the rows a
    growth bound proves to leave them are not flowed (RowEngine, hulling
    again only the states that may be proved something); the system's
    `rows_flowed` counts the rows that were.  Transitions come out in
    lexicographic order, so they are reproducible regardless of chunk, tile
    and worker count.
    """
    if sys.m and spec.mu is None:
        raise ValueError("mu is required for systems with inputs")
    st_lat = Lattice(sys.state_box, 2.0 * spec.eta)
    in_lat = Lattice(sys.input_box, 2.0 * spec.mu) if sys.m else None
    n_u = in_lat.n_points if in_lat is not None else 1
    n_pairs = st_lat.n_points * n_u
    if transition_cap is not None and n_pairs > transition_cap:
        raise ResourceLimitError(
            f"{n_pairs} candidate transitions exceed the cap {transition_cap}")
    engine = RowEngine(sys, st_lat, in_lat, spec.tau, spec.substeps)
    pts, s = st_lat.points(), st_lat.spacing
    # the box the cells cover
    centre = (st_lat.kmin + st_lat.kmax) * (s / 2.0)
    half = st_lat.counts * (s / 2.0)
    step = max(1, _SWEEP_ROWS // n_u)
    # one successor array for every chunk: a new one per chunk fragments
    # the heap between the chunks' transitions
    succ = np.empty((min(step, st_lat.n_points), n_u), dtype=np.int32)
    parts, rows = [], 0
    for a in range(0, st_lat.n_points, step):
        X = pts[a:a + step]
        out = succ[:X.shape[0]]
        # -1 where a row leaves the cover or is proved to
        out.fill(-1)

        def write(src, cols, Z, cells):
            out[src, cols] = cells

        rows += engine.run(X, np.broadcast_to(centre, X.shape), half, write,
                           hull_first=False)
        parts.append(_transitions(out, a))
    del succ, out
    fs = FiniteSystem(pts, st_lat.outer_range_indices(sys.init_box),
                      engine.inputs, _join(parts))
    fs.rows_flowed = rows
    return fs
