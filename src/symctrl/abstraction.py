"""Quantized symbolic models of sampled control systems, and the row engine
both synthesis routes flow their plant rows through.

The abstraction of a system places one symbolic state on every point of the
state lattice (spacing 2*eta) and one symbolic input on every point of the
input lattice (spacing 2*mu).  A transition (x, u, y) exists exactly when the
sampled flow from x under constant u lands in the half-open cell of a lattice
point y; endpoints outside the cells' cover of the state box produce no
transition.  Because the cells are disjoint, the result is deterministic:
each (state, input) has at most one successor.

RowEngine flows only the rows that no proof decides.  It flows a coarse
input sub-lattice first, recording the hulls of the RK4 stage points
(dynamics._flow_tile), and bounds from those hulls how far an endpoint moves
with its input (_GrowthBound).  Then, over nested input levels of finer and
finer strides (_InputSplit), it decides each level's rows from the endpoints
the earlier levels flowed: a row misses the box when a known neighbour's
endpoint is too far outside it (_radii), and lands in a cell when the boxes
the bound draws around its known neighbours' endpoints intersect in that
cell (_decide).  On a plant affine in (x, u) the bound is the same for
every state, so no hull is recorded, and the chord of a row's coarse
neighbours' endpoints is one more box, nearly a point, which decides nearly
every row.  It flows what is left, and the next level may use those
endpoints in turn.  The box is the cells' cover for the abstraction, which
takes a row proved to land as its cell, and each state's target cell for
the integrated route of `synthesis`, which flows such rows for their
endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .dynamics import (DEFAULT_SUBSTEPS, TILE_ROWS, ControlSystem, _flow_tile,
                       map_tiles)
from .expr import Var, derivative, enclose, is_affine
from .quantize import Lattice
from .tsys import FiniteSystem

DEFAULT_TRANSITION_CAP = 100_000_000

# (state, input) rows per chunk of the abstraction's sweep.  A chunk holds,
# a level at a time, a keep-mask and an int32 landing cell per row of the
# level; the benchmark problems' lattices fit in one chunk
_SWEEP_ROWS = 1 << 20
# rows per slice of the proofs' temporaries
_PROOF_ROWS = TILE_ROWS // 8
# rows a level must keep to be flowed in a pass of its own; fewer are
# flowed with the next level's, to whose proofs they then prove nothing.
# A pass costs the RK4 kernel's fixed cost, some 40 ufunc calls for each of
# 50 substeps: on the benchmark problems, about 3.5 ms, or a few thousand
# rows
_PASS_ROWS = TILE_ROWS // 4
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
    and integrator substeps per sampling period, checked by RowEngine."""

    tau: float
    eta: float
    mu: Optional[float] = None
    substeps: int = DEFAULT_SUBSTEPS

    def __post_init__(self):
        if self.tau <= 0 or self.eta <= 0:
            raise ValueError("tau and eta must be positive")
        if self.mu is not None and self.mu <= 0:
            raise ValueError("mu must be positive when present")


@dataclass(frozen=True)
class _Level:
    """The inputs of one level past the first.  corner[j][f, q] is the
    position among the known endpoints (see _InputSplit) of corner q of
    input inputs[f] on earlier level j, and dist[j][f, q] the largest
    distance between the two inputs on an input axis.  weight[f, q], for
    a plant whose field is affine (expr.is_affine), is corner q's
    multilinear interpolation weight on level 0: the sum of the coarse
    corners' inputs so weighted is inputs[f]; None otherwise."""

    inputs: np.ndarray
    corner: list
    dist: list
    weight: Optional[np.ndarray]


class _InputSplit:
    """The inputs flowed at each level, and the ones each input past the
    first level is compared with.

    Per input axis of c points, the strides are s_0 = isqrt(c), then
    s_(k+1) = isqrt(s_k) down to 1 (101 points: 10, 3, 1), and grid k holds
    the multiples of s_0, ..., s_k and the last point; an axis with fewer
    strides than another holds every point past its last one.  An input
    belongs to the first level whose grid holds it on every axis: level 0
    is the coarse inputs.  An input of level k has, on every earlier level
    j, 2^m corners: per axis, the nearest index of grid j at or below its
    own and the nearest at or above.  pos[u] is the position of input u
    among the known endpoints, those of every level but the last, in level
    order (-1 on the last level).  reach is the largest distance, per axis,
    between an input and one of its coarse corners.  With `chord`, each
    level also holds its inputs' interpolation weights on level 0 (_Level).
    With few points per axis every input is coarse; an autonomous plant has
    the one zero input.
    """

    def __init__(self, in_lat: Optional[Lattice], u_pts: np.ndarray,
                 chord: bool):
        n_u, m = u_pts.shape
        counts = [] if in_lat is None else in_lat.counts
        strides = []
        for c in counts:
            s = [max(1, math.isqrt(c))]
            while s[-1] > 1:
                s.append(math.isqrt(s[-1]))
            strides.append(s)
        n_levels = max(map(len, strides), default=1)
        # grids[lv][ax]: the indices on axis ax of grid lv
        grids = [[np.unique(np.concatenate([np.arange(0, c, t)
                                            for t in s[:lv + 1]] + [[c - 1]]))
                  for s, c in zip(strides, counts)]
                 for lv in range(n_levels)]
        k = (np.arange(n_u)[:, None] // in_lat.strides % counts if m
             else np.zeros((n_u, 0), dtype=np.int64))
        level = np.zeros(n_u, dtype=np.int64)
        for lv in range(n_levels - 1, -1, -1):
            inside = np.ones(n_u, dtype=bool)
            for ax, grid in enumerate(grids[lv]):
                inside &= np.isin(k[:, ax], grid)
            level[inside] = lv

        def nearest(kf, grid):
            # input indices of the 2^m nearest points of `grid` around kf,
            # and their multilinear weights: per axis, t on the point above
            # and 1 - t on the one below, t kf's fraction of the way up
            out = np.zeros((kf.shape[0], 1 << m), dtype=np.int64)
            weight = np.ones((kf.shape[0], 1 << m))
            for ax, g in enumerate(grid):
                below = g[np.searchsorted(g, kf[:, ax], "right") - 1]
                above = g[np.searchsorted(g, kf[:, ax], "left")]
                t = (kf[:, ax] - below) / np.maximum(above - below, 1)
                for q in range(1 << m):
                    up = (q >> ax) & 1
                    out[:, q] += (above if up else below) * in_lat.strides[ax]
                    weight[:, q] *= t if up else 1.0 - t
            return out, weight

        self.coarse = np.flatnonzero(level == 0)
        known = np.flatnonzero(level < n_levels - 1)
        known = known[np.argsort(level[known], kind="stable")]
        self.pos = np.full(n_u, -1, dtype=np.int64)
        self.pos[known] = np.arange(known.size)
        self.n_known = known.size
        self.levels = []
        self.reach = np.zeros(m)
        for lv in range(1, n_levels):
            inputs = np.flatnonzero(level == lv)
            corner, weight = zip(*(nearest(k[inputs], grids[j])
                                   for j in range(lv)))
            du = [np.abs(u_pts[inputs][:, None, :] - u_pts[c]) for c in corner]
            self.reach = np.maximum(self.reach, du[0].max(axis=(0, 1)))
            self.levels.append(_Level(inputs, [self.pos[c] for c in corner],
                                      [d.max(axis=2) for d in du],
                                      weight[0] if chord else None))


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

    D is the hull of the stage points the finite coarse rows of a state
    visited (RowEngine._gains), grown by g.  The bound holds if the stage
    points of every row compared with them stay within g: from |dx| <= R
    |du| (R the largest G before a substep), |dy_2| <= R + h/2 (M R + W),
    |dy_3| <= R + h/2 (M dy_2 + W), |dy_4| <= R + h (M dy_3 + W), each
    times the reach.  Induction over
    the stages shows that then no stage point leaves D, so g is accepted
    when this growth is at most g.  Both D and the proofs get a rounding
    margin of _MARGIN (1 + |value|).  A box is refused (every input kept)
    when an enclosure is unbounded or undefined, when 1 + h inf J_ii < 0,
    or when no g is accepted within _REGION_ROUNDS tries.

    G holds between rows of any two levels of _InputSplit, not only between
    a row and its coarse corners.  Every input lies within the reach of each
    of its coarse corners, so the stage points of a row with a finite coarse
    corner lie in D, at every level.  D is a box, so the segments between
    the stage points of two such rows lie in it too, which is all the mean
    value theorem above needs.
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
        """(G, growth, ok) over the boxes [lo, hi] (rows), one row per box,
        a constant Jacobian included."""
        n, m, h = self.n, self.m, self.h
        ivs, ok = enclose(self.exprs, list(zip(lo.T, hi.T)), self.u)
        k = lo.shape[0]
        Jlo, Jhi = (np.stack([np.broadcast_to(iv[e], k) for iv in ivs[n:]],
                             axis=-1).reshape(k, n, n + m) for e in (0, 1))
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
        endpoint distance per unit of input where sure[s] holds.  Each box
        is decided on its own, so a subset of the boxes gets the same rows
        of G and sure."""
        S = lo.shape[0]
        G = np.zeros((S, self.n, self.m))
        sure = np.zeros(S, dtype=bool)
        g = np.zeros((S, self.n))
        pad0 = _MARGIN * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        open_ = np.arange(S)  # the boxes not yet decided
        for _ in range(_REGION_ROUNDS):
            Gk, growth, ok = self._at(lo[open_] - g[open_] - pad0[open_],
                                      hi[open_] + g[open_] + pad0[open_])
            fits = ok & np.all(growth <= g[open_], axis=1)
            G[open_[fits]] = Gk[fits]
            sure[open_[fits]] = True
            # a refused box stays refused on any larger one; grow past the
            # need, which grows with the region
            left = ok & ~fits
            g[open_[left]] = 1.5 * growth[left]
            open_ = open_[left]
            if not open_.size:
                break
        return G, sure


def _radii(Z: np.ndarray, P: np.ndarray, half: np.ndarray,
           g: np.ndarray) -> np.ndarray:
    """What the endpoint Z[r] of a flowed row proves of the rows from the
    same state, with P[r] the centre of the state's box and g[r] the row
    sums of its growth bound.  A row whose input differs by at most d on
    every axis ends within G |du| <= g d of Z (g d is G |du| for one input
    axis), up to rounding, which the margin _MARGIN (1 + |Z|) covers.  So
    it misses the box when d < miss[r]: on some axis, Z is farther than g d
    plus the margin from the box.  NaN proves nothing.
    """
    miss = np.empty(Z.shape[0])
    # a slice of rows at a time, so that the temporaries stay small, and
    # over the axes first, so that each axis is one contiguous run
    for a in range(0, Z.shape[0], _PROOF_ROWS):
        rows = slice(a, a + _PROOF_ROWS)
        z, gr = (np.ascontiguousarray(v[rows].T) for v in (Z, g))
        with np.errstate(divide="ignore", invalid="ignore"):
            pad = np.abs(z)
            pad += 1.0
            pad *= _MARGIN
            # g = 0 gives +-inf, or NaN for 0 / 0
            gap = z - P[rows].T
            np.abs(gap, out=gap)
            gap -= half[:, None]
            gap -= pad
            gap /= gr
            np.fmax.reduce(gap, axis=0, out=miss[rows])
        miss[rows][~np.isfinite(z).all(axis=0)] = np.nan
    return miss


# a box's ends far past the lattice may overflow to inf, as far outside it
@np.errstate(over="ignore")
def _decide(level: _Level, groups: list, MISS: np.ndarray,
            E: Optional[list], tops: list, g: np.ndarray, lat: Lattice,
            inside: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(keep, cell) over the rows (state s, level.inputs[f]): keep whether
    the row may still land in its state's box, and cell the lattice cell it
    is proved to land in (-1 if none).  A row proved to land is not kept.
    MISS[p, s] are the radii (_radii) of the known endpoints and E[ax][p, s]
    their coordinates, NaN where a corner proves nothing; E is None when no
    landing is proved, and the largest of tops bounds |E[ax]| per axis.
    g[ax, s] is the row sum of state s's growth bound, and inside[s, f]
    whether the row's stage points lie in its region.  The corners compared
    with are those on the earlier levels in `groups`.

    A row misses when a corner's radius exceeds its input distance d.  It
    lands when the box the corners bound it to, [max (Z - g d), min (Z + g
    d)] per axis, padded twice by _MARGIN (1 + that bound, or the cells' on
    |z| if larger), for the row and for the box's rounding, has both ends in
    one cell at the lattice's monotone floor((z + s/2) / s).  Per axis the
    box's ends are some corner's, so it proves no miss one corner does not.

    Where the plant is affine (level.weight), its RK4 endpoint is affine in
    the input at a fixed state, in exact arithmetic, so a row's endpoint is
    the chord of its coarse corners' endpoints, sum_q weight[f, q] Z_q, up
    to the kernel's rounding, which the two pads cover as they cover the
    corners'.  The chord is one more term of the intersection, and a box
    that lies off the cells' cover on some axis proves a miss: the box
    `run` is handed is a union of cells.
    """
    S, n_k = inside.shape
    keep = np.ones((S, n_k), dtype=bool)
    cell = np.full((S, n_k), -1, dtype=np.int32)
    corners = [(p, d[:, None]) for j in groups
               for p, d in zip(level.corner[j].T, level.dist[j].T)]
    if E is not None:
        sp = lat.spacing
        reach = (np.maximum(-lat.kmin, lat.kmax) + 0.5) * sp  # of the cells
        pad = _MARGIN * (1.0 + np.maximum(np.max(tops, axis=0), reach))
        # the corners' few distances, and each corner's place among them
        dist, at_d = np.unique([d for j in groups for d in level.dist[j].T],
                               return_inverse=True)
        at_d = at_d.reshape(len(corners), n_k)
        chord, coarse = level.weight, level.corner[0]

    # a few states at a time, so that the temporaries stay small; the
    # arrays run over the states last, so that a corner's row is contiguous
    step = max(1, TILE_ROWS // n_k)
    for a in range(0, S, step):
        s = slice(a, min(S, a + step))
        done = np.zeros((n_k, s.stop - a), dtype=bool)
        if (MISS[:, s] > 0.0).any():
            for p, d in corners:
                done |= MISS[p, s] > d
        ok = inside[s].T
        if E is not None:
            # the inputs with a row that may still land, their rows and cells
            rows = np.flatnonzero((ok & ~done).any(axis=1))
            live = ok[rows] & ~done[rows]
            at = np.zeros(live.shape)
            for ax, (e, ga, pd) in enumerate(zip(E, g[:, s], pad)):
                w, t, lo, hi = (np.empty(live.shape) for _ in range(4))
                # g d from a table of the few distances: row copies cost
                # less than an outer product over short rows
                gd = dist[:, None] * ga
                for i, (p, _) in enumerate(corners):
                    z = e[p[rows], s]
                    np.take(gd, at_d[i][rows], axis=0, out=w, mode="clip")
                    if i:
                        np.fmin(hi, np.add(z, w, out=t), out=hi)
                        np.fmax(lo, np.subtract(z, w, out=z), out=lo)
                    else:
                        np.add(z, w, out=hi)
                        np.subtract(z, w, out=lo)
                if chord is not None:
                    # NaN, which fmin and fmax pass over, when a coarse
                    # corner proves nothing
                    np.multiply(e[coarse[rows, 0], s], chord[rows, :1], out=w)
                    for q in range(1, chord.shape[1]):
                        w += np.multiply(e[coarse[rows, q], s],
                                         chord[rows, q:q + 1], out=t)
                    np.fmax(lo, w, out=lo)
                    np.fmin(hi, w, out=hi)
                for end, side in ((lo, -1.0), (hi, 1.0)):
                    end += sp / 2.0 + side * 2.0 * pd
                    end /= sp
                    np.floor(end, out=end)
                if chord is not None:
                    # off the cover: a miss
                    off = live & ((lo > lat.kmax[ax]) | (hi < lat.kmin[ax]))
                    done[rows] |= off
                    live &= ~off
                # both ends in one cell, and that cell in range: an end
                # past the range clips to a half index, which no floor is
                live &= lo == np.clip(hi, lat.kmin[ax] - 0.5,
                                      lat.kmax[ax] + 0.5, out=hi)
                lo *= lat.strides[ax]
                at += lo
                # the next axis takes the inputs with a row still landing
                sel = live.any(axis=1)
                rows, live, at = rows[sel], live[sel], at[sel]
            done[rows] |= live
            cell[s, rows] = np.where(live, at - lat.kmin @ lat.strides, -1).T
        keep[s] = ~(ok & done).T
    return keep, cell


class RowEngine:
    """The (state, input) rows of one system, flowed where they may land in
    a box, and their cells of a state lattice.  Built once per system, state
    lattice, input lattice (None for an autonomous system, whose one input
    is the constant zero), tau and substeps, it holds the inputs, their
    split and, when there are inputs past the coarse ones, the growth
    bound.  Whether the field is affine (expr.is_affine), and so whether
    the landing proofs take the chord of the coarse corners (_decide) and
    one growth bound serves every state (_gains), is decided here once."""

    def __init__(self, sys: ControlSystem, st_lat: Lattice,
                 in_lat: Optional[Lattice], tau: float, substeps: int):
        if not isinstance(substeps, (int, np.integer)) or substeps < 1:
            raise ValueError("substeps must be a positive integer")
        self.sys, self.st_lat, self.tau, self.substeps = (sys, st_lat, tau,
                                                          substeps)
        self.inputs = np.zeros((1, 0)) if in_lat is None else in_lat.points()
        self.affine = all(map(is_affine, sys.field))
        self.split = _InputSplit(in_lat, self.inputs, chord=self.affine)
        self.bound = (_GrowthBound(sys, self.inputs, tau, substeps,
                                   self.split.reach)
                      if self.split.levels else None)

    def _flow_kept(self, X, keep, inputs, on_tile, hull=False) -> list:
        """[on_tile(src, f, Z, cells)] per tile of the rows (s, inputs[f])
        where keep[s, f], each tile finding its rows in the mask; with
        `hull`, on_tile also gets the stage-point hulls lo and hi."""
        # rows before each state's, and in all
        offset = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])

        def tile(a, b):
            s0 = np.searchsorted(offset, a, "right") - 1
            s1 = np.searchsorted(offset, b, "left")
            src, f = np.nonzero(keep[s0:s1])
            skip = a - offset[s0]
            src, f = src[skip:skip + b - a] + s0, f[skip:skip + b - a]
            out = _flow_tile(self.sys, X[src], self.inputs[inputs[f]],
                             self.tau, self.substeps, hull=hull)
            Z, hulls = (out[0], out[1:]) if hull else (out, ())
            return on_tile(src, f, Z, self.st_lat.quantize_many(Z), *hulls)

        return map_tiles(tile, int(offset[-1]))

    def _gains(self, fin: np.ndarray, lo: Optional[np.ndarray] = None,
               hi: Optional[np.ndarray] = None):
        """(G, sure) per state, from _GrowthBound.gains, for the states with
        a finite coarse row (fin[s, c] whether coarse row c of state s is
        finite), zero and false for the others.  Each such state's region is
        the hull of its finite coarse rows' stage points, lo and hi per row.
        An affine plant needs no hulls: its Jacobian is constant and its
        field finite wherever its flows are, so one call, over the origin,
        bounds the rows of every state."""
        S, n_c = fin.shape
        states = np.flatnonzero(fin.any(axis=1))
        G = np.zeros((S, self.bound.n, self.bound.m))
        sure = np.zeros(S, dtype=bool)
        if lo is None:
            origin = np.zeros((1, self.bound.n))
            G[states], sure[states] = self.bound.gains(origin, origin)
            return G, sure
        f = fin[states][..., None]
        lo, hi = lo.reshape(S, n_c, -1), hi.reshape(S, n_c, -1)
        G[states], sure[states] = self.bound.gains(
            np.where(f, lo[states], np.inf).min(axis=1),
            np.where(f, hi[states], -np.inf).max(axis=1))
        return G, sure

    def run(self, X: np.ndarray, P: np.ndarray, half: np.ndarray,
            visit: Callable[..., None], cells_suffice: bool
            ) -> Tuple[int, int]:
        """Decides every row of the states X that may land in the box of
        centre P[s] and per-axis half-widths `half`, flowing the rows no
        proof decides; returns how many rows it flowed and how many it
        proved to land without flowing them.  Each flowed tile goes to
        visit(src, cols, Z, cells): its rows' positions in X, input indices,
        endpoints and cells (-1 off the lattice).  With `cells_suffice`,
        visit also gets the rows proved to land, with Z None; without, those
        rows are flowed and only misses are proved.  Tiles are disjoint and
        run on the flow workers, so visit must be safe to call from several
        threads at once.

        1. Every coarse input, flowed under a mask that keeps every row,
           with the hulls of its stage points unless the plant is affine;
           without other inputs, every row, flowed without them, and
           nothing more.
        2. The growth bound of each state with a finite coarse row (_gains),
           a row being finite when its endpoint and hull are.  On an affine
           plant the endpoint alone decides: RK4 adds every stage's field
           value into the endpoint, and an affine field is non-finite only
           at a non-finite point, so a non-finite stage point makes the
           endpoint non-finite.
        3. The radii (_radii) of the coarse endpoints of the states with a
           sure bound and, with `cells_suffice`, their coordinates.
        4. Level by level (_InputSplit), the proofs (_decide) against the
           known endpoints of the earlier levels (and, with
           `cells_suffice` on an affine plant, the chord of the coarse
           ones), then a flow of the rows
           they leave undecided, each tile finding its rows in the
           keep-mask and keeping the radii and coordinates of its own.
           Only a flowed row's endpoint is known to the later levels: a
           decided row proves nothing.  A level that keeps fewer than
           _PASS_ROWS rows is flowed with the next one instead, and proves
           nothing to it.
        A row proved to miss would not have landed in the box, and one
        proved to land lands in the cell it is handed over with.  With
        `cells_suffice`, the box must be a union of the lattice's cells.
        """
        S, n = X.shape
        coarse, n_c = self.split.coarse, self.split.coarse.size
        bounded = self.bound is not None

        def first(src, f, Z, cells, *hulls):
            visit(src, coarse[f], Z, cells)
            # handed back, so that no buffer adds to the kernel's peak
            return (Z,) + hulls if bounded else None

        parts = self._flow_kept(X, np.ones((S, n_c), dtype=bool), coarse,
                                first, bounded and not self.affine)
        if not bounded:
            return S * n_c, 0
        Z, *hulls = (np.concatenate(k) for k in zip(*parts))
        del parts
        fin = np.isfinite(Z).all(axis=1)
        for h in hulls:
            fin &= np.isfinite(h).all(axis=1)
        fin = fin.reshape(S, n_c)
        G, sure = self._gains(fin, *hulls)
        del hulls
        g = G.sum(axis=2)
        # the known endpoints' radii and, with `cells_suffice`, coordinates
        # (an array per axis: one block lifts glibc's mmap threshold past the
        # row parts), over the states last; the workers fill in their rows
        MISS = np.full((self.split.n_known, S), np.nan)
        E = ([np.full((self.split.n_known, S), np.nan) for _ in range(n)]
             if cells_suffice else None)
        # per flowed tile, the largest |Z| per axis of the endpoints kept,
        # after a 0 that keeps the list from being empty
        tops = [np.zeros(n)] if E else []

        def record(at, src, Z, w):
            # what the flowed rows Z[w] prove to the later levels, at their
            # inputs' positions `at` and states `src`: the radii and, where
            # the endpoints are finite, the coordinates
            if not w.any():
                return
            MISS[at[w], src[w]] = _radii(Z[w], P[src[w]], half, g[src[w]])
            if E:
                w = w & np.isfinite(Z).all(axis=1)
                for e, z in zip(E, Z[w].T):
                    e[at[w], src[w]] = z
                tops.append(np.abs(Z[w]).max(axis=0, initial=0.0))

        # a coarse row proves something when its state's bound is sure and
        # the row and its hull are finite
        row = np.arange(S * n_c)
        record(row % n_c, row // n_c, Z, (sure[:, None] & fin).ravel())
        del Z, row
        flowed, landed = S * n_c, 0
        pos = self.split.pos
        known = [0]  # the levels whose rows were flowed
        # a level too small to pay a pass of its own, flowed with the next
        carried = []
        for k, level in enumerate(self.split.levels, 1):
            inside = sure[:, None] & fin[:, level.corner[0]].any(axis=2)
            keep, cell = _decide(level, known, MISS, E, tops, g.T.copy(),
                                 self.st_lat, inside)
            src, f = np.nonzero(cell >= 0)
            if src.size:
                visit(src, level.inputs[f], None, cell[src, f])
                landed += src.size
            del cell, src, f
            carried.append((k, level.inputs, keep, inside))
            # the last level is always flowed
            if (k < len(self.split.levels)
                    and sum(int(c[2].sum()) for c in carried) < _PASS_ROWS):
                continue
            levels, inputs, keep, inside = (
                [c[j] for c in carried] for j in range(4))
            inputs, keep, inside = (np.concatenate(inputs),
                                    np.hstack(keep), np.hstack(inside))
            carried = []

            def on_tile(src, f, Z, cells, inputs=inputs, inside=inside):
                visit(src, inputs[f], Z, cells)
                # a row proves something to the later levels only at a
                # known position and with its stage points in the region
                at = pos[inputs[f]]
                record(at, src, Z, (at >= 0) & inside[src, f])

            self._flow_kept(X, keep, inputs, on_tile)
            flowed += int(keep.sum())
            known += levels
        return flowed, landed


def build_abstraction(sys: ControlSystem, spec: AbstractionSpec,
                      transition_cap: Optional[int] = DEFAULT_TRANSITION_CAP
                      ) -> FiniteSystem:
    """Build the symbolic model of `sys` for the given quantization.

    States are embedded at their own lattice coordinates; initial states come
    from the outward-rounded lattice range of the initial box.  Flows leaving
    the cells covering the state box produce no transition.  The rows a
    growth bound proves to leave them, or to land in a cell, are not flowed
    (RowEngine); the system's `rows_flowed` counts the rows that were, and
    `rows_landed` those proved to land.  The model is held as its successor
    matrix, filled a chunk of states at a time, so it is reproducible
    regardless of chunk, tile and worker count.
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
    # -1 where a row leaves the cover or is proved to
    succ = np.full((st_lat.n_points, n_u), -1, dtype=np.int32)
    rows = rows_landed = 0
    for a in range(0, st_lat.n_points, step):
        X = pts[a:a + step]
        out = succ[a:a + step]

        def write(src, cols, Z, cells):
            out[src, cols] = cells

        flowed, landed = engine.run(X, np.broadcast_to(centre, X.shape),
                                    half, write, cells_suffice=True)
        rows += flowed
        rows_landed += landed
    fs = FiniteSystem(pts, st_lat.outer_range_indices(sys.init_box),
                      engine.inputs, successors=succ)
    fs.rows_flowed, fs.rows_landed = rows, rows_landed
    return fs
