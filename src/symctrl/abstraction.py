"""Quantized symbolic models of sampled control systems, and the row engine
both synthesis routes flow their plant rows through.

The abstraction of a system places one symbolic state on every point of the
state lattice (spacing 2*eta) and one symbolic input on every point of the
input lattice (spacing 2*mu).  A transition (x, u, y) exists exactly when the
sampled flow from x under constant u lands in the half-open cell of a lattice
point y; endpoints outside the cells' cover of the state box produce no
transition.  Because the cells are disjoint, the result is deterministic:
each (state, input) has at most one successor.

RowEngine flows only the rows that no proof decides.  It flows coarse
inputs first, then decides the other rows from the endpoints flowed so far
(_decide), by one of two proofs, picked once from the plant's kind.  On a
plant affine in (x, u) the coarse inputs are the 2^m corners of the input
box and every other input is one level after them (_InputSplit): the chord
of a row's corners' endpoints, nearly a point, decides the row, and the
rows it leaves are flowed.  On any other plant the inputs come in nested
levels of finer and finer strides, and the coarse rows also record the
hulls of their RK4 stage points (dynamics._flow_tile), which bound how far
an endpoint moves with its input (_GrowthBound): a row misses the box when
a known neighbour's endpoint is too far outside it (_radii), and lands in a
cell when the boxes the bound draws around its known neighbours' endpoints
intersect in that cell.  It flows what is left, and the next level may use
those endpoints in turn.  The box is the cells'
cover for the abstraction, which takes a row proved to land as its cell,
and each state's target cell for the integrated route of `synthesis`,
which flows such rows for their endpoints.  Every proof allows a rounding
margin that grows with the endpoint and with the field's largest
intermediate value (_unit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .dynamics import (DEFAULT_SUBSTEPS, TILE_ROWS, ControlSystem, _flow_tile,
                       check_substeps, map_tiles)
from .expr import Var, derivative, enclose, is_affine, subexpressions
from .quantize import Lattice
from .tsys import FiniteSystem

DEFAULT_TRANSITION_CAP = 100_000_000

# (state, input) rows per chunk of the abstraction's sweep.  A chunk holds,
# a level at a time, a keep-mask per row of the level; the benchmark
# problems' lattices fit in one chunk
_SWEEP_ROWS = 1 << 20
# rows per slice of the proofs' temporaries
_PROOF_ROWS = TILE_ROWS // 8
# rows a level must keep to be flowed in a pass of its own; fewer are
# flowed with the next level's, to whose proofs they then prove nothing.
# A pass costs the RK4 kernel's fixed cost, some 40 ufunc calls for each of
# 50 substeps: on the benchmark problems, about 3.5 ms, or a few thousand
# rows
_PASS_ROWS = TILE_ROWS // 4
# rounding margin of the proofs, relative to unit + |value| (_unit).  The
# bound and the chord are those of the RK4 map in exact arithmetic, while
# the kernel rounds each of its few hundred operations per row to nearest
# and the interval enclosures are not rounded outward.  Those errors, near
# 1e-14 of the largest intermediate value, stay far below this margin while
# the flow amplifies them less than about 1e4-fold over tau
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
    """The inputs of one level past the first.  On a plant whose field is
    affine (expr.is_affine), the one such level: weight[c, f] is the
    multilinear interpolation weight of coarse input c, a corner of the
    input box, for input inputs[f], so that the sum of the corners' inputs
    so weighted is inputs[f].  On any other plant, corner[j][f, q] is the
    position among the known endpoints (see _InputSplit) of corner q of
    input inputs[f] on earlier level j, and dist[j][f, q] the largest
    distance between the two inputs on an input axis."""

    inputs: np.ndarray
    weight: Optional[np.ndarray] = None
    corner: Optional[list] = None
    dist: Optional[list] = None


class _InputSplit:
    """The inputs flowed at each level, and the ones each input past the
    first level is compared with.

    With `chord` (a plant affine in (x, u)) there are two levels: the 2^m
    corners of the input box, the inputs at an end of every axis, then every
    other input.  The chord of a row's corners fixes its endpoint up to
    rounding, so the corners are all a state flows before the proof.  On an
    axis of c points, input index k lies t = k / (c - 1) of the way up the
    box, and an input's weight on a corner is the product over the axes of
    t where the corner is at the upper end and 1 - t where it is at the
    lower one: the box's ends, not the nearest corners, so that an input
    on a face weighs 0 on the corners of the opposite face, and an axis of
    one point, whose two ends coincide, adds its weights up on it.

    Otherwise, per input axis of c points, the strides are s_0 = isqrt(c),
    then s_(k+1) = isqrt(s_k) down to 1 (101 points: 10, 3, 1), and grid k
    holds the multiples of s_0, ..., s_k and the last point; an axis with
    fewer strides than another holds every point past its last one.  An
    input belongs to the first grid that holds it on every axis, and the
    levels are the grids that add inputs: level 0 is the coarse inputs.  An
    input of level k has, on every earlier level j, 2^m corners: per axis,
    the nearest index of grid j at or below its own and the nearest at or
    above.  reach is the largest distance, per axis, between an input and
    one of its coarse corners.

    pos[u] is the position of input u among the known endpoints, those of
    every level but the last, in level order (-1 on the last level).  With
    few points per axis every input is coarse; an autonomous plant has the
    one zero input.
    """

    def __init__(self, in_lat: Optional[Lattice], u_pts: np.ndarray,
                 chord: bool):
        n_u, m = u_pts.shape
        counts = (np.zeros(0, dtype=np.int64) if in_lat is None
                  else in_lat.counts)
        k = (np.arange(n_u)[:, None] // in_lat.strides % counts if m
             else np.zeros((n_u, 0), dtype=np.int64))
        self.levels = []
        if chord:
            end = np.all((k == 0) | (k == counts - 1), axis=1)
            self.coarse, inputs = np.flatnonzero(end), np.flatnonzero(~end)
            self.pos = np.full(n_u, -1, dtype=np.int64)
            self.pos[self.coarse] = np.arange(self.coarse.size)
            self.n_known = self.coarse.size
            if inputs.size:
                t = k[inputs] / np.maximum(counts - 1, 1)
                weight = np.zeros((self.coarse.size, inputs.size))
                for q in range(1 << m):
                    up = np.array([(q >> ax) & 1 for ax in range(m)])
                    weight[self.pos[up * (counts - 1) @ in_lat.strides]] += \
                        np.prod(np.where(up, t, 1.0 - t), axis=1)
                self.levels.append(_Level(inputs, weight))
            return
        strides = []
        for c in counts:
            s = [max(1, math.isqrt(c))]
            while s[-1] > 1:
                s.append(math.isqrt(s[-1]))
            strides.append(s)
        # grids[lv][ax]: the indices on axis ax of grid lv
        grids = [[np.unique(np.concatenate([np.arange(0, c, t)
                                            for t in s[:lv + 1]] + [[c - 1]]))
                  for s, c in zip(strides, counts)]
                 for lv in range(max(map(len, strides), default=1))]
        level = np.zeros(n_u, dtype=np.int64)
        for lv in range(len(grids) - 1, -1, -1):
            inside = np.ones(n_u, dtype=bool)
            for ax, grid in enumerate(grids[lv]):
                inside &= np.isin(k[:, ax], grid)
            level[inside] = lv
        # a grid that adds no input (on an axis of 2 points, every grid
        # after the first) is no level
        used = np.flatnonzero(np.bincount(level))
        level = np.searchsorted(used, level)
        grids = [grids[lv] for lv in used]
        n_levels = used.size

        def nearest(kf, grid):
            # input indices of the 2^m nearest points of `grid` around kf
            out = np.zeros((kf.shape[0], 1 << m), dtype=np.int64)
            for ax, g in enumerate(grid):
                below = g[np.searchsorted(g, kf[:, ax], "right") - 1]
                above = g[np.searchsorted(g, kf[:, ax], "left")]
                for q in range(1 << m):
                    up = (q >> ax) & 1
                    out[:, q] += (above if up else below) * in_lat.strides[ax]
            return out

        self.coarse = np.flatnonzero(level == 0)
        known = np.flatnonzero(level < n_levels - 1)
        known = known[np.argsort(level[known], kind="stable")]
        self.pos = np.full(n_u, -1, dtype=np.int64)
        self.pos[known] = np.arange(known.size)
        self.n_known = known.size
        self.reach = np.zeros(m)
        for lv in range(1, n_levels):
            inputs = np.flatnonzero(level == lv)
            corner = [nearest(k[inputs], grids[j]) for j in range(lv)]
            du = [np.abs(u_pts[inputs][:, None, :] - u_pts[c]) for c in corner]
            self.reach = np.maximum(self.reach, du[0].max(axis=(0, 1)))
            self.levels.append(_Level(inputs,
                                      corner=[self.pos[c] for c in corner],
                                      dist=[d.max(axis=2) for d in du]))


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
    margin of _MARGIN (unit + |value|), with `unit` that of RowEngine.
    A box is refused (every input kept) when an enclosure is unbounded or
    undefined, when 1 + h inf J_ii < 0, or when no g is accepted within
    _REGION_ROUNDS tries.  RowEngine builds it for plants that are not
    affine only: the chord decides an affine plant's rows.

    G holds between rows of any two levels of _InputSplit, not only between
    a row and its coarse corners.  Every input lies within the reach of each
    of its coarse corners, so the stage points of a row with a finite coarse
    corner lie in D, at every level.  D is a box, so the segments between
    the stage points of two such rows lie in it too, which is all the mean
    value theorem above needs.
    """

    def __init__(self, plant: ControlSystem, u_pts: np.ndarray, tau: float,
                 substeps: int, reach: np.ndarray, unit: float):
        n, m = plant.n, plant.m
        wrt = [Var("x", i) for i in range(n)] + [Var("u", j) for j in range(m)]
        # the field itself too: the mean value theorem needs it defined on D
        self.exprs = list(plant.field) + [derivative(f, v) for f in plant.field
                                          for v in wrt]
        self.u = list(zip(u_pts.min(axis=0), u_pts.max(axis=0)))
        self.n, self.m = n, m
        self.h, self.substeps, self.reach = tau / substeps, substeps, reach
        self.unit = unit

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
        pad0 = _MARGIN * (self.unit + np.maximum(np.abs(lo), np.abs(hi)))
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


def _unit(sys: ControlSystem, st_lat: Lattice, u_pts: np.ndarray,
          tau: float) -> float:
    """The unit of the rounding margin _MARGIN (unit + |value|): 1 + tau
    times the largest magnitude any subexpression of the field takes over
    the cells' cover and the input hull (expr.enclose).  Each of the
    kernel's operations rounds relative to its own result, so a field that
    cancels, such as (3e15 + u1) - 3e15, rounds in units of its largest
    intermediate, not of its value, and its endpoints drift by about tau
    such units.  A subexpression undefined somewhere over the box counts
    where it is defined; one that overflows gives an infinite unit, which
    proves nothing."""
    s = st_lat.spacing
    nodes = [e for f in sys.field for e in subexpressions(f)]
    ivs, _ = enclose(nodes, list(zip(st_lat.kmin * s - s / 2,
                                     st_lat.kmax * s + s / 2)),
                     list(zip(u_pts.min(axis=0), u_pts.max(axis=0))))
    peak = np.fmax.reduce(np.abs(np.asarray(ivs, dtype=float)).ravel(),
                          initial=0.0)
    return 1.0 + tau * float(peak)


def _radii(Z: np.ndarray, P: np.ndarray, half: np.ndarray, g: np.ndarray,
           unit: float) -> np.ndarray:
    """What the endpoint Z[r] of a flowed row proves of the rows from the
    same state, with P[r] the centre of the state's box and g[r] the row
    sums of its growth bound.  A row whose input differs by at most d on
    every axis ends within G |du| <= g d of Z (g d is G |du| for one input
    axis), up to rounding, which the margin _MARGIN (unit + |Z|) covers.
    So it misses the box when d < miss[r]: on some axis, Z is farther than
    g d plus the margin from the box.  NaN proves nothing.
    """
    miss = np.empty(Z.shape[0])
    # a slice of rows at a time, so that the temporaries stay small, and
    # over the axes first, so that each axis is one contiguous run
    for a in range(0, Z.shape[0], _PROOF_ROWS):
        rows = slice(a, a + _PROOF_ROWS)
        z, gr = (np.ascontiguousarray(v[rows].T) for v in (Z, g))
        with np.errstate(divide="ignore", invalid="ignore"):
            pad = np.abs(z)
            pad += unit
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
@np.errstate(over="ignore", invalid="ignore")
def _decide(level: _Level, groups: list, E: Optional[list],
            pad: np.ndarray, lat: Lattice, box: tuple,
            lands: Optional[Callable[..., None]],
            MISS: Optional[np.ndarray] = None, g: Optional[np.ndarray] = None,
            inside: Optional[np.ndarray] = None) -> np.ndarray:
    """keep over the rows (state s, level.inputs[f]): whether the row may
    still land in its state's box.  Landings are proved only with `lands`,
    which gets each slice of states' rows proved to land as they are found,
    as lands(s, f, cells) with cells their lattice cells; such a row is not
    kept.  E[ax][p, s] are the coordinates of the known endpoints, NaN
    where a corner proves nothing; E is None when neither the chord nor a
    landing is asked for.  pad[ax, s] is the rounding margin of any
    endpoint of state s that lands or that a chord or box is drawn from (it
    bounds |z| by the state's largest known endpoint and the cells' reach),
    and box[0][ax, s] and box[1][ax, s] the lower and upper face on axis ax
    of state s's box, a union of cells.  The growth boxes compare a row
    with its corners on the earlier levels in `groups`, and also take
    MISS[p, s], the radii (_radii) of the known endpoints, g[ax, s], the
    row sum of state s's growth bound, and inside[s, f], whether the row's
    stage points lie in its region; the chord takes none of these.

    Where the plant is affine (level.weight), its RK4 endpoint is affine in
    the input at a fixed state, in exact arithmetic, so a row's endpoint is
    the chord of the input box's corners' endpoints, sum_c weight[c, f]
    Z_c, up to the kernel's rounding: one matrix product per axis, laid out
    (states, inputs).  The chord is padded twice, for the row and for the
    corners: a convex mix of the corners, it is no larger than the largest
    of them.  The row misses when the padded chord lies off the box on some
    axis, and lands in the chord's cell, at the lattice's floor((z + s/2) /
    s), when the padded chord lies inside that cell on every axis.  A state
    with a corner that is not finite has NaN chords, which decide nothing:
    its rows are kept.

    The rows of a plant that is not affine are decided by their corners'
    growth boxes.  A row misses when a corner's radius exceeds its input
    distance d.  It
    lands when the box the corners bound it to, [max (Z - g d), min (Z + g
    d)] per axis, padded twice, has both ends in one cell of the lattice.
    Per axis the box's ends are some corner's, so it proves no miss one
    corner does not.
    """
    S, n_k = box[0].shape[1], level.inputs.size
    keep = np.ones((S, n_k), dtype=bool)
    chord = level.weight is not None
    sp = lat.spacing
    if not chord:
        corners = [(p, d[:, None]) for j in groups
                   for p, d in zip(level.corner[j].T, level.dist[j].T)]
        if lands:
            # the corners' few distances, and each corner's place among them
            dist, at_d = np.unique([d for j in groups
                                    for d in level.dist[j].T],
                                   return_inverse=True)
            at_d = at_d.reshape(len(corners), n_k)

    # a few states at a time, so that the temporaries stay small; the
    # growth boxes' arrays run over the states last, so that a corner's row
    # is contiguous.  The chord holds float arrays over every row of a
    # slice; for its misses alone, the integrated scan's proofs, they set
    # that route's peak, so those slices are narrower.  With landings, wide
    # slices save Python passes
    step = max(1, (_PROOF_ROWS if chord and not lands else TILE_ROWS) // n_k)
    for a in range(0, S, step):
        s = slice(a, min(S, a + step))
        if chord:
            miss = np.zeros((s.stop - a, n_k), dtype=bool)
            if lands:
                land, at = ~miss, np.zeros(miss.shape)
            for ax, (e, lo, hi, pd) in enumerate(zip(E, box[0][:, s, None],
                                                     box[1][:, s, None],
                                                     pad[:, s, None])):
                c = e[:, s].T @ level.weight
                # more than twice the margin off the box
                miss |= c < lo - 2.0 * pd
                miss |= c > hi + 2.0 * pd
                if lands:
                    # the lattice's cell of the chord, more than twice the
                    # margin from its faces: a cell of the box
                    k = c + sp / 2.0
                    k /= sp
                    np.floor(k, out=k)
                    c -= k * sp
                    np.abs(c, out=c)
                    land &= c <= sp / 2.0 - 2.0 * pd
                    k -= lat.kmin[ax]
                    k *= lat.strides[ax]
                    at += k
            if lands:
                land &= ~miss
                src, f = np.nonzero(land)
                if src.size:
                    lands(src + a, f, at[src, f].astype(np.int32))
                miss |= land
            keep[s] = ~miss
            continue
        ok = inside[s].T
        done = np.zeros(ok.shape, dtype=bool)
        if ok.any() and (MISS[:, s] > 0.0).any():
            for p, d in corners:
                done |= MISS[p, s] > d
        # the inputs with a row that may still land, their rows and cells
        rows = (np.flatnonzero((ok & ~done).any(axis=1)) if lands
                else ())
        if len(rows):
            live = ok[rows] & ~done[rows]
            at = np.zeros(live.shape)
            for ax, (e, ga, pd) in enumerate(zip(E, g[:, s], pad[:, s])):
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
                for end, side in ((lo, -1.0), (hi, 1.0)):
                    end += sp / 2.0 + side * 2.0 * pd
                    end /= sp
                    np.floor(end, out=end)
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
            src, i = np.nonzero(live.T)
            if src.size:
                lands(src + a, rows[i],
                      (at[i, src] - lat.kmin @ lat.strides).astype(np.int32))
        keep[s] = ~(ok & done).T
    return keep


class RowEngine:
    """The (state, input) rows of one system, flowed where they may land in
    a box, and their cells of a state lattice.  Built once per system, state
    lattice, input lattice (None for an autonomous system, whose one input
    is the constant zero), tau and substeps, it holds the inputs, their
    split and, when there are inputs past the coarse ones, the unit of the
    rounding margin (_unit) and, for a plant that is not affine, the growth
    bound.  Whether the field is affine (expr.is_affine), and so whether the
    coarse inputs are the input box's corners and the chord decides the
    rows (_InputSplit, _decide) or the growth boxes do, is decided here
    once."""

    def __init__(self, sys: ControlSystem, st_lat: Lattice,
                 in_lat: Optional[Lattice], tau: float, substeps: int):
        check_substeps(substeps)
        self.sys, self.st_lat, self.tau, self.substeps = (sys, st_lat, tau,
                                                          substeps)
        self.inputs = np.zeros((1, 0)) if in_lat is None else in_lat.points()
        self.affine = all(map(is_affine, sys.field))
        self.split = _InputSplit(in_lat, self.inputs, chord=self.affine)
        self.bound = None
        if self.split.levels:
            self.unit = _unit(sys, st_lat, self.inputs, tau)
            if not self.affine:
                self.bound = _GrowthBound(sys, self.inputs, tau, substeps,
                                          self.split.reach, self.unit)

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

    def _gains(self, fin: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """(G, sure) per state, from _GrowthBound.gains, for the states with
        a finite coarse row (fin[s, c] whether coarse row c of state s is
        finite), zero and false for the others.  Each such state's region is
        the hull of its finite coarse rows' stage points, lo and hi per
        row."""
        S, n_c = fin.shape
        states = np.flatnonzero(fin.any(axis=1))
        G = np.zeros((S, self.bound.n, self.bound.m))
        sure = np.zeros(S, dtype=bool)
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
        centre P[s] and per-axis half-widths `half`, a union of the
        lattice's cells, flowing the rows no proof decides; returns how many
        rows it flowed and how many it proved to land without flowing them.
        Each flowed tile goes to visit(src, cols, Z, cells): its rows'
        positions in X, input indices, endpoints and cells (-1 off the
        lattice).  With `cells_suffice`, visit also gets the rows proved to
        land, with Z None; without, those rows are flowed and only misses
        are proved.  Tiles are disjoint and run on the flow workers, so
        visit must be safe to call from several threads at once.

        1. Every coarse input, flowed under a mask that keeps every row;
           without other inputs, every row, and nothing more.  The coarse
           inputs of an affine plant are the 2^m corners of the input box;
           those of any other plant are flowed with the hulls of their
           stage points.
        2. On a plant that is not affine, the growth bound of each state
           with a finite coarse row (_gains), a row being finite when its
           endpoint and hull are, and the radii (_radii) of the coarse
           endpoints of the states with a sure bound.
        3. On an affine plant or with `cells_suffice`, the coordinates of
           the finite coarse endpoints.
        4. Level by level (_InputSplit), the proofs (_decide) against the
           known endpoints of the earlier levels, which hand the rows they
           prove to land to visit a slice of states at a time: on an affine
           plant the chord of the input box's corners, over its one level,
           on any other the growth boxes; then a flow of the rows they
           leave undecided, each tile finding its rows in the keep-mask and
           keeping the radii and coordinates of its own.  Only a flowed
           row's endpoint is known to the later levels: a decided row
           proves nothing.  A level that keeps fewer than _PASS_ROWS rows
           is flowed with the next one instead, and proves nothing to it.
           The last pass records nothing.
        A row proved to miss would not have landed in the box, and one
        proved to land lands in the cell it is handed over with.
        """
        S, n = X.shape
        coarse, n_c = self.split.coarse, self.split.coarse.size
        boxes = self.bound is not None

        def first(src, f, Z, cells, *hulls):
            visit(src, coarse[f], Z, cells)
            # handed back, so that no buffer adds to the kernel's peak
            return (Z,) + hulls if self.split.levels else None

        parts = self._flow_kept(X, np.ones((S, n_c), dtype=bool), coarse,
                                first, boxes)
        if not self.split.levels:
            return S * n_c, 0
        Z, *hulls = (np.concatenate(k) for k in zip(*parts))
        del parts
        fin = np.isfinite(Z).all(axis=1)
        for h in hulls:
            fin &= np.isfinite(h).all(axis=1)
        fin = fin.reshape(S, n_c)
        # for the growth boxes, the known endpoints' radii, and for the
        # chord or the landings, their coordinates (an array per axis: one
        # block lifts glibc's mmap threshold past the row parts), over the
        # states last.  A level's rows are set to NaN when it is flowed in a
        # pass that a later level reads (learn), and the workers fill in
        # their rows; the others are never read, and their pages never
        # touched
        if boxes:
            G, sure = self._gains(fin, *hulls)
            g = G.sum(axis=2)
            MISS = np.empty((self.split.n_known, S))
        del hulls
        E = ([np.empty((self.split.n_known, S)) for _ in range(n)]
             if cells_suffice or self.affine else None)
        lat = self.st_lat
        # per axis and state, the largest |E| and the box's faces
        top = np.zeros((n, S))
        box = ((P - half).T, (P + half).T)
        reach = (np.maximum(-lat.kmin, lat.kmax) + 0.5) * lat.spacing

        def record(at, src, Z, w):
            # what the flowed rows Z[w] prove to the later levels, at their
            # inputs' positions `at` and states `src`: the radii and, where
            # the endpoints are finite, the coordinates
            if not w.any():
                return
            if boxes:
                MISS[at[w], src[w]] = _radii(Z[w], P[src[w]], half,
                                             g[src[w]], self.unit)
            if E:
                w = w & np.isfinite(Z).all(axis=1)
                for e, z in zip(E, Z[w].T):
                    e[at[w], src[w]] = z

        def learn(inputs, flow):
            # flow() records the rows of `inputs` at their known positions,
            # the block after those filled so far; then the rounding margins
            # per axis and state (_decide) take them in
            nonlocal filled, pad
            at = pos[inputs]
            block = slice(filled, at.max() + 1)
            for a in ([MISS] if boxes else []) + (E or []):
                a[block] = np.nan
            flow()
            filled = block.stop
            for t, e in zip(top, E or []):
                np.fmax(t, np.fmax.reduce(e[block], axis=0), out=t)
                np.fmax(t, -np.fmin.reduce(e[block], axis=0), out=t)
            pad = _MARGIN * (self.unit + np.fmax(top, reach[:, None]))

        # a coarse row proves something when it is finite and, for the
        # growth boxes, its state's bound is sure and its hull finite
        pos, filled, pad = self.split.pos, 0, None
        row = np.arange(S * n_c)
        w = sure[:, None] & fin if boxes else fin
        learn(coarse, lambda: record(row % n_c, row // n_c, Z, w.ravel()))
        del Z, row, w
        flowed, landed = S * n_c, 0
        known = [0]  # the levels whose rows were flowed
        # a level too small to pay a pass of its own, flowed with the next
        carried = []
        inside, growth = None, ()

        def hand_over(src, f, cells):
            # the rows of `level` that _decide proved to land
            nonlocal landed
            visit(src, level.inputs[f], None, cells)
            landed += src.size

        for k, level in enumerate(self.split.levels, 1):
            if boxes:
                inside = sure[:, None] & fin[:, level.corner[0]].any(axis=2)
                growth = (MISS[:filled], g.T.copy(), inside)
            keep = _decide(level, known, E and [e[:filled] for e in E], pad,
                           lat, box, hand_over if cells_suffice else None,
                           *growth)
            carried.append((k, level.inputs, keep, inside))
            # the last level is always flowed
            if (k < len(self.split.levels)
                    and sum(int(c[2].sum()) for c in carried) < _PASS_ROWS):
                continue
            levels, inputs, keep, inside = (
                [c[j] for c in carried] for j in range(4))
            inputs, keep = np.concatenate(inputs), np.hstack(keep)
            inside = np.hstack(inside) if boxes else None
            carried = []

            def on_tile(src, f, Z, cells, inputs=inputs, inside=inside):
                visit(src, inputs[f], Z, cells)
                # a row proves something to the later levels only at a
                # known position and, for the growth boxes, with its stage
                # points in the region
                at = pos[inputs[f]]
                w = at >= 0
                if boxes:
                    w &= inside[src, f]
                record(at, src, Z, w)

            flowed += int(keep.sum())
            if k == len(self.split.levels):
                # no level reads the last pass's rows: recording them would
                # touch the known rows of every level it carries
                self._flow_kept(X, keep, inputs, lambda src, f, Z, cells:
                                visit(src, inputs[f], Z, cells))
                break
            learn(inputs, lambda: self._flow_kept(X, keep, inputs, on_tile))
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
