"""Quantized symbolic models of sampled control systems, and the row engine
both synthesis routes flow their plant rows through.

The abstraction of a system places one symbolic state on every point of the
state lattice (spacing 2*eta) and one symbolic input on every point of the
input lattice (spacing 2*mu).  A transition (x, u, y) exists exactly when the
sampled flow from x under constant u lands in the half-open cell of a lattice
point y; endpoints outside the cells' cover of the state box produce no
transition.  Because the cells are disjoint, the result is deterministic:
each (state, input) has at most one successor.

RowEngine flows only the rows that no proof decides.  It flows the coarse
inputs first, then decides every other row by one proof (_decide): the
chord of its coarse cell's corners' endpoints (_InputSplit), padded for
the curvature of the RK4 map in the input (_GrowthBound) and for rounding.
The coarse inputs are the input box's 2^m corners on a plant affine in
(x, u), whose chord is exact and needs no curvature pad, and a grid of
isqrt strides on any other plant, whose coarse rows also record the hulls
of their RK4 stage points (dynamics._flow_tile) for the curvature bound.
The rows the chord leaves undecided are flowed in one more pass, so the
rows flowed depend on the problem alone, not on how many states a call
holds.  The box is the cells' cover for the abstraction, which takes a row
proved to land as its cell, and each state's target cell for the
integrated route of `synthesis`, which flows such rows for their endpoints;
there the same chords also bound each row's distance to the cell's centre,
and the proof drops the rows that land farther from it than a row proved
to land.  The proof allows a rounding margin that grows with the endpoint
and with the field's largest intermediate value (_unit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .dynamics import (DEFAULT_SUBSTEPS, TILE_ROWS, ControlSystem, _flow_tile,
                       check_substeps, map_tiles)
from .expr import Num, Var, derivative, enclose, is_affine, subexpressions
from .quantize import Lattice
from .tsys import FiniteSystem

DEFAULT_TRANSITION_CAP = 100_000_000

# (state, input) rows per chunk of the abstraction's sweep.  A chunk holds a
# keep-mask per row; the benchmark problems' lattices fit in one chunk
_SWEEP_ROWS = 1 << 20
# rounding margin of the proof, relative to unit + |value| (_unit).  The
# chord and its curvature bound are those of the RK4 map in exact
# arithmetic, while the kernel rounds each of its few hundred operations per
# row to nearest and the interval enclosures are not rounded outward.  Those
# errors, near 1e-14 of the largest intermediate value, stay far below this
# margin while the flow amplifies them less than about 1e4-fold over tau
_MARGIN = 1e-9
# tries at a region that holds the stage points of every row decided
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


class _InputSplit:
    """The coarse inputs, flowed first, and every other input, decided by
    the chord of the corners of its coarse cell.

    On an input axis of c points the coarse grid is the box's two ends on a
    plant affine in (x, u) (`affine`), and the multiples of isqrt(c) and
    c - 1 on any other (101 points: 0, 10, ..., 100).  The coarse inputs
    are those on the grid on every axis, in index order; `inputs` holds the
    others.  On each axis, an input of index k lies between the nearest
    grid points at or below it and at or above it, lo and hi, t = (k - lo)
    / (hi - lo) of the way up (t = 0 where lo = hi).  Its weight on a
    corner of that cell is the product over the axes of t where the corner
    is at hi and 1 - t where it is at lo: weight[c, f] over the coarse
    inputs c, 0 off the corners of input inputs[f], so that the coarse
    inputs so weighted sum to it.  On an affine plant lo and hi are the
    box's ends, so that an input on a face weighs 0 on the corners of the
    opposite face; where lo = hi, the two corners coincide and add their
    weights up on it.

    curv[a, f] = t (1 - t) du^2 / 2 on axis a, with du = u(hi) - u(lo):
    the chord's curvature pad per unit of the second derivative (_decide),
    and reach[a] half the widest coarse cell on axis a, so that every point
    of a coarse cell lies within it of one of the cell's corners: both None
    on an affine plant.  With few points per axis every input is coarse; an
    autonomous plant has the one zero input.
    """

    def __init__(self, in_lat: Optional[Lattice], u_pts: np.ndarray,
                 affine: bool):
        n_u, m = u_pts.shape
        counts = (np.zeros(0, dtype=np.int64) if in_lat is None
                  else in_lat.counts)
        k = (np.arange(n_u)[:, None] // in_lat.strides % counts if m
             else np.zeros((n_u, 0), dtype=np.int64))
        # per axis, the stride of the coarse grid, whose points are its
        # multiples and the last point
        step = np.array([max(1, c - 1 if affine else math.isqrt(c))
                         for c in counts], dtype=np.int64)
        on = np.all((k % step == 0) | (k == counts - 1), axis=1)
        self.coarse, self.inputs = np.flatnonzero(on), np.flatnonzero(~on)
        self.weight = self.curv = self.reach = None
        if not self.inputs.size:
            return
        kf = k[self.inputs]
        lo = np.where(kf == counts - 1, kf, kf // step * step)
        hi = np.where(kf % step == 0, kf, np.minimum(lo + step, counts - 1))
        t = (kf - lo) / np.maximum(hi - lo, 1)
        pos = np.full(n_u, -1, dtype=np.int64)
        pos[self.coarse] = np.arange(self.coarse.size)
        cols = np.arange(self.inputs.size)
        self.weight = np.zeros((self.coarse.size, self.inputs.size))
        for q in range(1 << m):
            # the corner at hi on axis a where bit a of q is set
            up = np.array([(q >> ax) & 1 for ax in range(m)], dtype=bool)
            corner = pos[np.where(up, hi, lo) @ in_lat.strides]
            self.weight[corner, cols] += np.prod(np.where(up, t, 1.0 - t),
                                                 axis=1)
        if not affine:
            du = u_pts[hi @ in_lat.strides] - u_pts[lo @ in_lat.strides]
            self.curv = (t * (1.0 - t) * du ** 2 / 2.0).T
            self.reach = du.max(axis=0) / 2.0


class _Bounds(NamedTuple):
    """_GrowthBound._at over some boxes, one row per box: the substep's
    gain A on the state and B on the input, R and G the sums of B through
    A over all substeps but the last and over all, the region's growth,
    whether the box is ok and whether it fits the region; and only over
    the boxes that fit, the curvature's term C per substep and K, its sum
    through A."""

    A: np.ndarray
    B: np.ndarray
    R: np.ndarray
    G: np.ndarray
    growth: np.ndarray
    ok: np.ndarray
    fits: np.ndarray
    C: np.ndarray
    K: np.ndarray


class _GrowthBound:
    """Bounds on how the plant's RK4 endpoint varies with its input at a
    fixed state: G on its first derivative, which sizes the region, and K
    on its second, which pads the chord (_decide).

    For two rows from the same state with inputs du apart, G bounds the
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
    dx = 0, G is B iterated `substeps` times through A.  With R the largest
    G before a substep, the stage points move by at most |dy_1| <= R,
    |dy_2| <= Y2 = R + h/2 (M R + W), |dy_3| <= Y3 = R + h/2 (M Y2 + W) and
    |dy_4| <= Y4 = R + h (M Y3 + W) per unit of |du|.

    K bounds |d^2 z / du_a^2|, per endpoint axis and input axis a, along
    the same recursion one order up (second-order sensitivities, as in
    verified ODE integration).  Differentiating k_s = f(y_s, u) twice along
    u_a gives k_s'' = J_s y_s'' + f''[q_s, q_s], where q_s = d(y_s, u)/du_a
    is bounded by Q = [max(R, Y2, Y3, Y4); I_m], column a.  With H the
    enclosures of the field's second derivatives f_i,vw over (x, u) (those
    that fold to 0 skipped), |f''[q_s, q_s]_i| <= s_ia = sum_vw |H_ivw|
    Q_va Q_wa.  That is the recursion above with y'' for dx and s for W:
    |y+''| <= A |y''| + C with C = h (s + hM s/2 + (hM)^2 s/6 + (hM)^3
    s/24), and from y'' = 0 at the state, K = sum_(k < substeps) A^k C.
    An affine field's K is 0, and RowEngine builds no bound for it.

    Both sums run by binary powering (_sums), in about 2 log2(substeps)
    stacked matrix products instead of one per substep.  Wherever a box is
    ok, A >= 0 entrywise: off the diagonal it sums products of M >= 0, and
    on it 1 + h sup J_ii + ... >= 1 + h inf J_ii >= 0; B and C are >= 0 as
    well.  So the partial sums grow with every substep, and R, the largest
    before a substep, is the sum over substeps - 1 of them; G = A R + B.
    Powering adds the same terms in another order, so G, R and K differ
    from the sums taken term by term only in rounding, each product's
    within a few ulp: some 1e-14 relative, as far below the 1e-9 of
    _MARGIN, which pads both the region and the proof, as the term-by-term
    recursion's own rounding.

    D is the hull of the stage points of a state's coarse rows
    (RowEngine.run), grown by g.  The bounds hold if the stage points of
    every row whose input lies in a coarse cell stay within g of it: by
    the bounds above, they move from those of the cell's nearest corner by
    at most max(R, Y2, Y3, Y4) times the reach, and induction over the
    stages shows that then no stage point leaves D, so g is accepted when
    this growth is at most g, and K is computed for the accepted boxes
    alone.  Every point of a coarse cell lies within half the cell's width
    of one of its corners on each axis, that half-width is at most the
    reach, and every corner's stage points lie in the hull: so D holds
    the stage points of every row K is asked about, those on the segments
    of the chord's interpolation, and the segments between them, which is
    all the mean value theorem needs.
    Both D and the proof get a rounding margin of _MARGIN (unit +
    |value|), with `unit` that of RowEngine.  A box is refused when an
    enclosure is unbounded or undefined, when 1 + h inf J_ii < 0, when
    no g is accepted within _REGION_ROUNDS tries, or when its K is not
    finite (K only grows with D, so no larger g would help).
    """

    def __init__(self, plant: ControlSystem, u_pts: np.ndarray, tau: float,
                 substeps: int, reach: np.ndarray, unit: float):
        n, m = plant.n, plant.m
        wrt = [Var("x", i) for i in range(n)] + [Var("u", j) for j in range(m)]
        first = [derivative(f, v) for f in plant.field for v in wrt]
        second = [((i, v, w), derivative(first[i * (n + m) + v], wrt[w]))
                  for i in range(n) for v in range(n + m)
                  for w in range(n + m)]
        second = [(ivw, e) for ivw, e in second
                  if not (isinstance(e, Num) and e.value == 0.0)]
        # (i, v, w) of each second derivative f_i,vw that is not 0
        self.second = [ivw for ivw, _ in second]
        # the field itself too: the mean value theorem needs it defined on D
        self.exprs = list(plant.field) + first + [e for _, e in second]
        self.u = list(zip(u_pts.min(axis=0), u_pts.max(axis=0)))
        self.n, self.m = n, m
        self.h, self.substeps, self.reach = tau / substeps, substeps, reach
        self.unit = unit

    def _at(self, lo: np.ndarray, hi: np.ndarray, g: np.ndarray) -> _Bounds:
        """The bounds over the boxes [lo, hi] (rows), one row per box, a
        constant Jacobian included, for a region grown by g[box]: K only
        over the boxes that fit it."""
        n, m, h = self.n, self.m, self.h
        ivs, ok = enclose(self.exprs, list(zip(lo.T, hi.T)), self.u)
        k, d = lo.shape[0], np.arange(n)
        J = ivs[n:n + n * (n + m)]
        Jlo, Jhi = (np.stack([np.broadcast_to(iv[e], k) for iv in J],
                             axis=-1).reshape(k, n, n + m) for e in (0, 1))
        with np.errstate(all="ignore"):
            mag = np.maximum(np.abs(Jlo), np.abs(Jhi))
            M, W = mag[..., :n], mag[..., n:]
            L = M.copy()
            L[..., d, d] = Jhi[..., d, d]
            ok = ok & np.all(1.0 + h * Jlo[..., d, d] >= 0.0, axis=-1)
            hM = h * M
            P2 = hM @ hM
            P3 = P2 @ hM
            A = np.eye(n) + h * L + P2 / 2 + P3 / 6 + P3 @ hM / 24

            def term(V, rows):
                # h (V + hM V/2 + (hM)^2 V/6 + (hM)^3 V/24) over the boxes
                # `rows`: B for V = W, C for V = sigma
                return h * (V + hM[rows] @ V / 2 + P2[rows] @ V / 6
                            + P3[rows] @ V / 24)

            B = term(W, slice(None))
            R = _sums(A, B, self.substeps - 1)
            G = A @ R + B
            Y2 = R + h / 2 * (M @ R + W)
            Y3 = R + h / 2 * (M @ Y2 + W)
            Y4 = R + h * (M @ Y3 + W)
            Y = np.maximum(np.maximum(R, Y2), np.maximum(Y3, Y4))
            growth = Y @ self.reach
            ok = ok & np.all(np.isfinite(growth), axis=-1)
            fits = ok & np.all(growth <= g, axis=1)
            f = int(fits.sum())
            Q = np.concatenate(
                [Y[fits], np.broadcast_to(np.eye(m), (f, m, m))], axis=1)
            sigma = np.zeros((f, n, m))
            for (i, v, w), (a, b) in zip(self.second, ivs[n + n * (n + m):]):
                H = np.broadcast_to(np.maximum(np.abs(a), np.abs(b)), k)
                sigma[:, i] += H[fits, None] * Q[:, v] * Q[:, w]
            C = term(sigma, fits)
            K = _sums(A[fits], C, self.substeps)
        return _Bounds(A, B, R, G, growth, ok, fits, C, K)

    def gains(self, lo: np.ndarray, hi: np.ndarray):
        """(K, sure) per stage-point hull [lo[s], hi[s]]: K[s] bounds the
        endpoint's second derivative in each input axis where sure[s]
        holds, and is 0 where it does not.  Each box is decided on its own,
        so a subset of the boxes gets the same rows of K and sure."""
        S = lo.shape[0]
        K = np.zeros((S, self.n, self.m))
        sure = np.zeros(S, dtype=bool)
        g = np.zeros((S, self.n))
        pad0 = _MARGIN * (self.unit + np.maximum(np.abs(lo), np.abs(hi)))
        open_ = np.arange(S)  # the boxes not yet decided
        for _ in range(_REGION_ROUNDS):
            b = self._at(lo[open_] - g[open_] - pad0[open_],
                         hi[open_] + g[open_] + pad0[open_], g[open_])
            fin = np.all(np.isfinite(b.K), axis=(1, 2))
            done = open_[b.fits][fin]
            K[done] = b.K[fin]
            sure[done] = True
            # a refused box stays refused on any larger one; grow past the
            # need, which grows with the region
            left = b.ok & ~b.fits
            g[open_[left]] = 1.5 * b.growth[left]
            open_ = open_[left]
            if not open_.size:
                break
        return K, sure


def _sums(A: np.ndarray, C: np.ndarray, count: int) -> np.ndarray:
    """sum_(k < count) A^k C over stacks of matrices, by binary powering
    over the bits of count, from S_1 = C and P_1 = A: S_2k = S_k + P_k S_k
    with P_2k = P_k P_k, and S_(k+1) = A S_k + C with P_(k+1) = A P_k.
    About 2 log2(count) stacked products, against count for the sum term
    by term."""
    if not count:
        return np.zeros_like(C)
    # einsum is the faster on a stack of small products by C's shape,
    # matmul on a stack of square ones
    S, P = C, A
    bits = bin(count)[3:]
    for j, bit in enumerate(bits):
        S = S + np.einsum("...ij,...jk->...ik", P, S)
        if bit == "1":
            S = np.einsum("...ij,...jk->...ik", A, S) + C
        if j + 1 < len(bits):  # P_k for the next doubling
            P = P @ P if bit == "0" else A @ (P @ P)
    return S


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


# a box's ends far past the lattice may overflow to inf, as far outside it
@np.errstate(over="ignore", invalid="ignore")
def _decide(split: _InputSplit, E: list, pad: np.ndarray, lat: Lattice,
            P: np.ndarray, half: np.ndarray,
            lands: Optional[Callable[..., None]],
            K: Optional[np.ndarray]) -> np.ndarray:
    """keep over the rows (state s, split.inputs[f]): whether the row may
    still land in its state's box, of centre P[s] and per-axis half-widths
    `half`, a union of cells.  With `lands`, landings are proved, and each
    slice of states' rows goes to lands(s, slice(None), cells) as it is
    decided when some of them land: s the slice, the rows over all of
    split.inputs, and cells an int32 block over them, each row's lattice
    cell where it is proved to land and -1 elsewhere; such a row is not
    kept.  Without, the box is one cell, and a row is not kept either when
    it cannot land nearest the centre.  E[ax][c, s] are the coordinates of
    the coarse endpoints, NaN for every coarse input of a state whose chords
    prove nothing.  pad[ax, s] is the rounding margin of any endpoint of
    state s that lands or that a chord is drawn from (it bounds |z| by the
    state's largest coarse endpoint and the cells' reach), and K[s] the
    curvature bound of state s (_GrowthBound.gains), None on an affine
    plant.

    A row's chord is sum_c weight[c, f] Z_c, one matrix product per axis,
    laid out (states, inputs).  Multilinear interpolation is one 1-D
    interpolation per input axis, each step a convex mix of two values,
    and a 1-D chord misses its function by t (1 - t) du^2 |z''| / 2 at
    most.  So in exact arithmetic the row's endpoint lies within sum_a
    K[s, ax, a] curv[a, f] of its chord (split.curv): only the pure second
    derivatives enter, not the mixed ones.  An affine plant's RK4 endpoint
    is affine in the input at a fixed state, so its chord is exact.  The
    chord is also padded twice for rounding, for the row and for the
    corners: a convex mix of the corners, it is no larger than the largest
    of them.  With m2 that margin, the row misses when its chord c lies
    more than m2 off the box on some axis, and lands in the chord's cell,
    at the lattice's floor((c + s/2) / s), when c lies more than m2 inside
    that cell on every axis.  With the weights dense, a state with a
    coarse endpoint that is NaN has NaN chords, which decide nothing: its
    rows are kept.

    Without `lands`, each kept row's distance to the centre, in the
    infinity norm, is at least max_ax(|c - P| - m2) and at most max_ax(|c
    - P| + m2), from the same chords, and the row lands in the cell where
    |c - P| <= half - m2 on every axis.  A row is dropped when its lower
    bound strictly exceeds the least upper bound of its state's rows so
    proved to land.  That row lands nearer than any row dropped, and is
    itself kept, as is every row at least as near, ties included: so the
    nearest landing and the lowest input among its ties are still kept.  A
    slice holds whole states, so each state's least bound is complete in
    it.  The subtraction and the absolute value round by half an ulp of the
    coordinates at most, some 1e-16 of them, far inside the 1e-9 of
    _MARGIN that pad already gives to every endpoint and chord.  A row
    whose chord is NaN has NaN bounds: it is proved to land nowhere, and
    is kept.
    """
    S, n_k = P.shape[0], split.inputs.size
    keep = np.ones((S, n_k), dtype=bool)
    sp = lat.spacing
    # a few states at a time, so that the temporaries stay small: the chords
    # hold float arrays over every row of a slice
    step = max(1, TILE_ROWS // n_k)
    for a in range(0, S, step):
        s = slice(a, min(S, a + step))
        miss = np.zeros((s.stop - a, n_k), dtype=bool)
        if lands:
            land, at = ~miss, np.zeros(miss.shape)
        chords = []
        for ax, e in enumerate(E):
            c = e[:, s].T @ split.weight
            # more than the margins off the box
            m2 = 2.0 * pad[ax, s, None]
            if K is not None:
                m2 = m2 + K[s, ax] @ split.curv
            p = P[s, ax, None]
            miss |= c < p - half[ax] - m2
            miss |= c > p + half[ax] + m2
            if not lands:
                chords.append(c)
                continue
            # the lattice's cell of the chord, more than the margins from
            # its faces: a cell of the box
            k = c + sp / 2.0
            k /= sp
            np.floor(k, out=k)
            c -= k * sp
            np.abs(c, out=c)
            land &= c <= sp / 2.0 - m2
            k -= lat.kmin[ax]
            k *= lat.strides[ax]
            at += k
        if lands:
            land &= ~miss
            if land.any():
                lands(s, slice(None), np.where(land, at, -1).astype(np.int32))
            miss |= land
        else:
            # every gather is a 1-D take: fancy indexing over two axes goes
            # element by element, several times slower.  The margins are
            # gathered for the kept rows alone
            kept = np.flatnonzero(~miss)
            row, f = np.divmod(kept, n_k)
            src = row + a
            low, high = np.zeros(kept.size), np.zeros(kept.size)
            inside = np.ones(kept.size, dtype=bool)
            for ax, c in enumerate(chords):
                d = c.ravel().take(kept)
                d -= P[:, ax].take(src)
                np.abs(d, out=d)
                m2 = pad[ax].take(src)
                m2 *= 2.0
                if K is not None:
                    for k, cv in zip(K[:, ax].T, split.curv):
                        m2 += k.take(src) * cv.take(f)
                inside &= d <= half[ax] - m2
                # np.maximum, not np.fmax: a NaN bound stays NaN
                np.maximum(high, d + m2, out=high)
                d -= m2
                np.maximum(low, d, out=low)
            best = np.full(s.stop - a, np.inf)
            np.minimum.at(best, row[inside], high[inside])
            miss.ravel()[kept[low > best.take(row)]] = True
        keep[s] = ~miss
    return keep


class RowEngine:
    """The (state, input) rows of one system, flowed where they may land in
    a box, and their cells of a state lattice.  Built once per system, state
    lattice, input lattice (None for an autonomous system, whose one input
    is the constant zero), tau and substeps, it holds the inputs, their
    split and, when there are inputs past the coarse ones, the unit of the
    rounding margin (_unit) and, for a plant that is not affine, the
    curvature bound.  Whether the field is affine (expr.is_affine), and so
    whether the coarse inputs are the input box's corners and the chord
    needs no curvature pad, is decided here once."""

    def __init__(self, sys: ControlSystem, st_lat: Lattice,
                 in_lat: Optional[Lattice], tau: float, substeps: int):
        check_substeps(substeps)
        self.sys, self.st_lat, self.tau, self.substeps = (sys, st_lat, tau,
                                                          substeps)
        self.inputs = np.zeros((1, 0)) if in_lat is None else in_lat.points()
        affine = all(map(is_affine, sys.field))
        self.split = _InputSplit(in_lat, self.inputs, affine)
        self.bound = None
        if self.split.inputs.size:
            self.unit = _unit(sys, st_lat, self.inputs, tau)
            if not affine:
                self.bound = _GrowthBound(sys, self.inputs, tau, substeps,
                                          self.split.reach, self.unit)

    def _flow_rows(self, X, src, f, inputs, on_tile, hull=False) -> list:
        """[on_tile(src, f, Z, cells)] per tile of the rows (src[r],
        inputs[f[r]]); with `hull`, on_tile also gets the stage-point hulls
        lo and hi."""
        def tile(a, b):
            s, k = src[a:b], f[a:b]
            out = _flow_tile(self.sys, X.take(s, axis=0),
                             self.inputs.take(inputs.take(k), axis=0),
                             self.tau, self.substeps, hull=hull)
            Z, hulls = (out[0], out[1:]) if hull else (out, ())
            return on_tile(s, k, Z, self.st_lat.quantize_many(Z), *hulls)

        return map_tiles(tile, src.size)

    def run(self, X: np.ndarray, P: np.ndarray, half: np.ndarray,
            visit: Callable[..., None], nearest: bool) -> Tuple[int, int]:
        """Decides every row of the states X that may land in the box of
        centre P[s] and per-axis half-widths `half`, a union of the
        lattice's cells, flowing the rows the chord does not decide;
        returns how many rows it flowed and how many it proved to land
        without flowing them.  Each flowed tile goes to visit(src, cols, Z,
        cells): its rows' positions in X, input indices, endpoints and
        cells (-1 off the lattice).  `nearest` picks what the proof does
        with the rows it proves to land.  Without it (the abstraction's
        sweep), visit gets them with Z None, a slice of states at a time:
        src the slice, cols every input past the coarse ones, and cells a
        block over those rows, -1 where a row is not proved to land.  With
        it (the integrated scan), the box is one cell, and of the rows
        that may land only those that may land nearest its centre are
        flowed, proved to land or not: the one nearest and all its ties
        among them, so that the choice of the nearest landing, then the
        lowest input, is that over every row.  Tiles are disjoint and run
        on the flow workers, so visit must be safe to call from several
        threads at once.

        1. Every coarse input (_InputSplit), flowed for every state;
           without other inputs, every row, and nothing more.  On a plant
           that is not affine they are flowed with the hulls of their
           stage points.
        2. A state's chords need all its coarse endpoints finite and, on a
           plant that is not affine, its hulls finite and its curvature
           bound sure (_GrowthBound.gains, over the hull of its coarse
           stage points).  The coarse endpoints of the other states are
           NaN to the proof.
        3. The proof (_decide), which without `nearest` hands the rows it
           proves to land to visit a slice of states at a time, then one
           pass over the rows it keeps.
        A row proved to miss would not have landed in the box, one proved
        to land lands in the cell it is handed over with, and one dropped
        as not nearest lands farther from the centre than a row flowed, or
        not at all.
        """
        S, n = X.shape
        split, lat = self.split, self.st_lat
        coarse, n_c = split.coarse, split.coarse.size

        def first(src, f, Z, cells, *hulls):
            visit(src, coarse[f], Z, cells)
            # handed back, so that no buffer adds to the kernel's peak
            return (Z,) + hulls if split.inputs.size else None

        parts = self._flow_rows(X, *np.divmod(np.arange(S * n_c), n_c),
                                coarse, first, self.bound is not None)
        if not split.inputs.size:
            return S * n_c, 0
        Z, *hulls = (np.concatenate(k) for k in zip(*parts))
        del parts
        fin = np.isfinite(Z).all(axis=1)
        for h in hulls:
            fin &= np.isfinite(h).all(axis=1)
        fin = fin.reshape(S, n_c).all(axis=1)
        K = None
        if self.bound is not None:
            K = np.zeros((S, n, self.sys.m))
            lo, hi = (h.reshape(S, n_c, n)[fin] for h in hulls)
            K[fin], sure = self.bound.gains(lo.min(axis=1), hi.max(axis=1))
            fin[fin] = sure
        del hulls
        # the coarse endpoints' coordinates, an array per axis over the
        # states last (one block lifts glibc's mmap threshold past the row
        # parts), and per axis and state the rounding margin of the proof
        E = [np.full((n_c, S), np.nan) for _ in range(n)]
        for e, z in zip(E, Z.T):
            e[:, fin] = z.reshape(S, n_c)[fin].T
        del Z
        top = np.array([np.fmax.reduce(np.abs(e), axis=0, initial=0.0)
                        for e in E])
        reach = (np.maximum(-lat.kmin, lat.kmax) + 0.5) * lat.spacing
        pad = _MARGIN * (self.unit + np.fmax(top, reach[:, None]))
        landed = 0

        def hand_over(src, f, cells):
            # the rows _decide proved to land
            nonlocal landed
            visit(src, split.inputs[f], None, cells)
            landed += int(np.count_nonzero(cells >= 0))

        def on_tile(src, f, Z, cells):
            # the rows _decide left undecided, flowed
            visit(src, split.inputs[f], Z, cells)

        src, f = np.nonzero(_decide(split, E, pad, lat, P, half,
                                    None if nearest else hand_over, K))
        self._flow_rows(X, src, f, split.inputs, on_tile)
        return S * n_c + src.size, landed


def build_abstraction(sys: ControlSystem, spec: AbstractionSpec,
                      transition_cap: Optional[int] = DEFAULT_TRANSITION_CAP
                      ) -> FiniteSystem:
    """Build the symbolic model of `sys` for the given quantization.

    States are embedded at their own lattice coordinates; initial states come
    from the outward-rounded lattice range of the initial box.  Flows leaving
    the cells covering the state box produce no transition.  The rows whose
    chord, padded for curvature on a plant that is not affine, proves them
    to leave them, or to land in a cell, are not flowed (RowEngine); the
    system's `rows_flowed` counts the rows that were, and `rows_landed`
    those proved to land.  The model is held as its successor matrix,
    filled a chunk of states at a time, so it and both counters are
    reproducible regardless of chunk, tile and worker count.
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
                                    half, write, nearest=False)
        rows += flowed
        rows_landed += landed
    fs = FiniteSystem(pts, st_lat.outer_range_indices(sys.init_box),
                      engine.inputs, successors=succ)
    fs.rows_flowed, fs.rows_landed = rows, rows_landed
    return fs
