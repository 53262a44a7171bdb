"""Controller synthesis: the abstract-compose-prune baseline and the
integrated on-the-fly algorithm, plus the space/time accounting used to
compare them.

Both routes produce a controller over the same state/input lattices and are
exactly bisimilar by construction; the integrated route explores only the
states reachable from the quantized initial set and keeps a single transition
per state, which is where its space advantage comes from.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .abstraction import (DEFAULT_TRANSITION_CAP, AbstractionSpec,
                          ResourceLimitError, build_abstraction,
                          initial_indices, input_points)
from .dynamics import (DEFAULT_SUBSTEPS, TILE_ROWS, ControlSystem, _flow_tile,
                       map_tiles)
from .expr import Var, derivative, enclose
from .quantize import (EmptyLatticeError, Lattice, SynthesisParams,
                       ValidationReport, validate_parameters)
from .tsys import FiniteSystem, compose, nonblocking_part, subsystem

# plant rows flowed per group of the integrated input scan, counted over
# both of its passes (the coarse inputs, then the fine inputs the growth bound
# keeps).  Groups are sized from the rows the groups before them flowed per
# state.  On the benchmark problems, before pruning, 8K ran as fast as 16K
# and 32K, which added 4-7 MiB of peak RSS
_SCAN_ROWS = TILE_ROWS // 4
# rounding margin of the growth-bound tests, relative to 1 + |value|.  The
# bound is that of the RK4 map in exact arithmetic, while the kernel rounds
# each of its few hundred operations per row to nearest and the interval
# enclosures are not rounded outward.  Those errors, near 1e-14 relative,
# stay far below this margin while the flow amplifies them less than about
# 1e4-fold over tau
_MARGIN = 1e-9
# tries at a region that holds the stage points of every pruned row
_REGION_ROUNDS = 4

# per-state status of the integrated route
UNSEEN, QUEUED, CONTROLLED, BAD = 0, 1, 2, 3
# input scan results: no admissible input, and not scanned yet
NO_INPUT, UNSCANNED = -1, -2


class ParameterValidationError(ValueError):
    """Synthesis refused because the quantization inequalities fail and no
    override was given."""

    def __init__(self, report: ValidationReport):
        super().__init__("quantization parameters violate the abstraction "
                         "inequalities:\n" + report.describe())
        self.report = report


class Controller(FiniteSystem):
    """Symbolic controller: a finite transition system whose states are the
    flat indices of a state lattice, output at their lattice points, and
    whose inputs are the points of an input lattice (the single empty input
    for autonomous plants), plus the states discarded as blocking during
    synthesis.

    Baseline controllers may keep several inputs per source; integrated ones
    keep exactly one.
    """

    def __init__(self, transitions, initials, bad, state_lattice: Lattice,
                 input_lattice: Optional[Lattice]):
        inputs = (np.zeros((1, 0)) if input_lattice is None
                  else input_lattice.points())
        super().__init__(state_lattice.points(), initials, inputs, transitions)
        self.bad = np.unique(np.asarray(bad, dtype=np.int64))
        if self.bad.size and (self.bad[0] < 0 or self.bad[-1] >= self.n_states):
            raise ValueError("bad state index out of range")
        self.state_lattice = state_lattice
        self.input_lattice = input_lattice

    def sources(self) -> np.ndarray:
        return np.unique(self.transitions[:, 0])

    def input_values(self) -> np.ndarray:
        return self.inputs

    def options(self, state: int) -> np.ndarray:
        """(input index, target) rows of a state's transitions, by input
        order."""
        return self.successors(state)[:, 1:]


@dataclass
class Metrics:
    """Size and effort counters for one synthesis run.

    memory_units weighs each stored transition as three data and each state
    as one datum: the baseline route counts the transitions of both symbolic
    models plus the composition; the integrated route counts its controller
    transitions plus the blocking states it had to record.  steps counts
    basic algorithm steps (flow evaluations, composition candidate checks,
    pruning operations) as the paper does: n_u per input scan of the
    integrated route.  rows_flowed counts the (state, input) rows of the
    plant and the specification a route actually flowed, which is the work
    it did: the integrated route prunes inputs it can prove miss.
    wall_time_ms is informational only.
    """

    states: int
    transitions: int
    memory_units: int
    steps: int
    wall_time_ms: float = 0.0
    rows_flowed: int = 0

    def as_dict(self) -> dict:
        return {"states": self.states, "transitions": self.transitions,
                "memory_units": self.memory_units, "steps": self.steps,
                "rows_flowed": self.rows_flowed,
                "wall_time_ms": round(self.wall_time_ms, 3)}


def baseline_memory_units(plant_transitions: int, spec_transitions: int,
                          composed_transitions: int) -> int:
    """Peak data count of the baseline route, three per stored transition."""
    return 3 * (plant_transitions + spec_transitions + composed_transitions)


def integrated_memory_units(controller_transitions: int, bad_states: int) -> int:
    """Peak data count of the integrated route: three per kept transition
    plus one per recorded blocking state."""
    return 3 * controller_transitions + bad_states


def _require_valid(plant: ControlSystem, specification: ControlSystem,
                   params: SynthesisParams, force: bool) -> None:
    if plant.certificate is None or specification.certificate is None:
        if force:
            return
        raise ParameterValidationError(ValidationReport([]))
    report = validate_parameters(plant.certificate, specification.certificate,
                                 params)
    if not report.passed and not force:
        raise ParameterValidationError(report)


def shared_lattices(plant: ControlSystem, specification: ControlSystem,
                    params: SynthesisParams
                    ) -> Tuple[Lattice, Optional[Lattice], Optional[np.ndarray]]:
    """The state lattice, the input lattice and the initial box both routes
    synthesize over.

    The state lattice covers the intersection of the two state boxes and the
    initial box is the intersection of the two initial boxes.  When the state
    intersection holds no lattice point, the state lattice falls back to the
    plant's state box; then, as when the initial boxes are disjoint, the
    initial box is None and the controller is empty.
    """
    def intersection(a, b):
        return np.column_stack([np.maximum(a[:, 0], b[:, 0]),
                                np.minimum(a[:, 1], b[:, 1])])

    in_lat = Lattice(plant.input_box, 2.0 * params.mu) if plant.m else None
    try:
        st_lat = Lattice(intersection(plant.state_box, specification.state_box),
                         2.0 * params.eta)
    except EmptyLatticeError:
        return Lattice(plant.state_box, 2.0 * params.eta), in_lat, None
    init_box = intersection(plant.init_box, specification.init_box)
    if np.any(init_box[:, 0] > init_box[:, 1]):
        return st_lat, in_lat, None
    return st_lat, in_lat, init_box


def controller_to_system(ctrl: Controller) -> FiniteSystem:
    """The controller restricted to its sources, targets and initial states,
    embedded at their lattice coordinates (used for the bisimulation
    cross-checks)."""
    t = ctrl.transitions
    return subsystem(ctrl, np.concatenate([t[:, 0], t[:, 2], ctrl.initials]))


def synthesize_baseline(plant: ControlSystem, specification: ControlSystem,
                        params: SynthesisParams,
                        substeps: int = DEFAULT_SUBSTEPS, *,
                        force: bool = False,
                        transition_cap: Optional[int] = DEFAULT_TRANSITION_CAP
                        ) -> Tuple[Controller, Metrics]:
    """Abstract both systems, compose them exactly, prune to the non-blocking
    part, and project the surviving diagonal pairs onto the state lattice."""
    ctrl, metrics, _ = baseline_artifacts(
        plant, specification, params, substeps, force=force,
        transition_cap=transition_cap)
    return ctrl, metrics


def baseline_artifacts(plant: ControlSystem, specification: ControlSystem,
                       params: SynthesisParams,
                       substeps: int = DEFAULT_SUBSTEPS, *,
                       force: bool = False,
                       transition_cap: Optional[int] = DEFAULT_TRANSITION_CAP):
    """Baseline synthesis returning (controller, metrics, systems) where
    systems = (plant model, spec model, composition, non-blocking part)."""
    _require_valid(plant, specification, params, force)
    t0 = time.perf_counter()
    sp = build_abstraction(
        plant, AbstractionSpec(params.tau, params.eta,
                               params.mu if plant.m else None, substeps),
        transition_cap=transition_cap)
    sq = build_abstraction(
        specification, AbstractionSpec(params.tau, params.eta,
                                       params.mu if specification.m else None,
                                       substeps),
        transition_cap=transition_cap)
    cstar = compose(sp, sq, 0.0)
    if transition_cap is not None and cstar.n_transitions > transition_cap:
        raise ResourceLimitError(
            f"composition has {cstar.n_transitions} transitions, cap "
            f"{transition_cap}")
    nb = nonblocking_part(cstar)

    st_lat, in_lat, _ = shared_lattices(plant, specification, params)
    if sq.n_inputs != 1:
        raise ValueError("specification must expose a single (zero) input")
    flat = st_lat.quantize_many(nb.outputs)
    t = nb.transitions
    rows = np.column_stack([flat[t[:, 0]],
                            t[:, 1],  # v = u_plant * 1 + 0
                            flat[t[:, 2]]])
    ctrl = Controller(rows, flat[nb.initials], [], st_lat, in_lat)

    def cell_degrees(sys: FiniteSystem) -> np.ndarray:
        # summed out-degree of the states in each shared-lattice cell;
        # states outside the shared lattice (-1) fall in no cell
        cell = st_lat.quantize_many(sys.outputs)
        inside = cell >= 0
        return np.bincount(cell[inside], weights=sys.out_degree()[inside],
                           minlength=st_lat.n_points).astype(np.int64)

    pair_candidates = int(cell_degrees(sp) @ cell_degrees(sq))
    steps = (sp.n_states * sp.n_inputs + sq.n_states + pair_candidates
             + (cstar.n_transitions - nb.n_transitions)
             + (cstar.n_states - nb.n_states))
    metrics = Metrics(
        states=nb.n_states,
        transitions=nb.n_transitions,
        memory_units=baseline_memory_units(sp.n_transitions, sq.n_transitions,
                                           cstar.n_transitions),
        steps=steps,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        rows_flowed=sp.n_states * sp.n_inputs + sq.n_states * sq.n_inputs)
    return ctrl, metrics, (sp, sq, cstar, nb)


def backprop_blocking(status: np.ndarray, trans: Dict[int, Tuple[int, int]],
                      preds: Dict[int, List[int]], x: int) -> int:
    """Mark the blocking state x BAD and back-propagate it; returns the
    number of steps taken.

    trans maps each controlled source to its single (input, target) and
    preds maps a target to the sources recorded into it.  Starting from the
    worklist {x}, repeatedly take a state y, mark it BAD, delete every
    transition still entering it and enqueue its source, which the deletion
    leaves blocking.  Each newly bad state and each deleted transition is
    one step.  status, trans and preds are updated in place.
    """
    steps = 0
    work = deque([x])
    while work:
        y = work.popleft()
        if status[y] == BAD:
            continue
        status[y] = BAD
        steps += 1
        for z in preds.pop(y, ()):
            rec = trans.get(z)
            if rec is not None and rec[1] == y:
                del trans[z]
                steps += 1
                work.append(z)
    return steps


class _InputSplit:
    """The inputs the scan flows first and, for each other input, the first
    ones it is compared with.

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


def _fine_to_flow(split: _InputSplit, bound: _GrowthBound, Z, lo, hi,
                  P: np.ndarray, half: float) -> np.ndarray:
    """keep[s, f]: whether fine input split.fine[f] of state s may still land
    in the cell of P[s] (half-width `half`), given the coarse rows' endpoints
    Z and stage-point hulls lo, hi, each (state, coarse input, axis).

    Corner c proves that f misses when, on some axis, Z[s, c] is farther
    from the cell than G |du| plus the margin.  A corner whose row is not
    finite proves nothing, and neither does a state without a sure bound.
    """
    fin = (np.isfinite(Z).all(axis=2) & np.isfinite(lo).all(axis=2)
           & np.isfinite(hi).all(axis=2))
    S, n = P.shape
    G = np.zeros((S, n, split.du.shape[2]))
    sure = np.zeros(S, dtype=bool)
    has = fin.any(axis=1)
    if has.any():
        G[has], sure[has] = bound.gains(
            np.where(fin[..., None], lo, np.inf).min(axis=1)[has],
            np.where(fin[..., None], hi, -np.inf).max(axis=1)[has])
    with np.errstate(invalid="ignore"):
        gap = np.abs(Z - P[:, None, :]) - half - _MARGIN * (1.0 + np.abs(Z))
    gap[~(fin & sure[:, None])] = -np.inf
    keep = np.ones((S, split.fine.size), dtype=bool)
    # a few states at a time, so that the temporaries stay small
    step = max(1, _SCAN_ROWS // max(1, split.fine.size))
    for a in range(0, S, step):
        part = keep[a:a + step]
        for q in range(split.corner.shape[1]):
            for i in range(n):
                part &= (G[a:a + step, i, :] @ split.du[:, q, :].T
                         >= gap[a:a + step, split.corner[:, q], i])
    return keep


def _scan_inputs(plant: ControlSystem, st_lat: Lattice, u_pts: np.ndarray,
                 split: _InputSplit, bound: Optional[_GrowthBound],
                 xs: np.ndarray, ys: np.ndarray, tau: float,
                 substeps: int) -> Tuple[np.ndarray, int]:
    """For each state xs[i], the index of the input whose plant flow lands in
    the cell of ys[i] closest to its center (the lowest such index on ties),
    or NO_INPUT when no input lands there; and the number of rows flowed.
    Any landing input yields the same controller sets, but the centered
    landing maximizes the closed loop's quantization margin.

    The scan flows the coarse inputs of every state, then only the fine
    inputs that `bound` cannot prove to miss ys[i]'s cell.  A pruned input
    would not have landed, so the choice is that of a scan of every input.
    """
    S, n_c = xs.size, split.coarse.size
    st_pts = st_lat.points()
    X, P = st_pts[xs], st_pts[ys]
    hits = []  # (state, input, distance to the center) of the landing rows

    def flow(src, cols, hull=False):
        return map_tiles(lambda a, b: _flow_tile(
            plant, X[src[a:b]], u_pts[cols[a:b]], tau, substeps, hull=hull),
            src.size)

    def land(src, cols, Z):
        hit = st_lat.quantize_many(Z) == ys[src]
        hits.append((src[hit], cols[hit],
                     np.max(np.abs(Z[hit] - P[src[hit]]), axis=1)))

    src, cols = np.repeat(np.arange(S), n_c), np.tile(split.coarse, S)
    flowed = src.size
    if bound is None:
        land(src, cols, np.vstack(flow(src, cols)))
    else:
        Z, lo, hi = (np.vstack(part) for part in zip(*flow(src, cols, True)))
        land(src, cols, Z)
        keep = _fine_to_flow(split, bound,
                             *(a.reshape(S, n_c, -1) for a in (Z, lo, hi)),
                             P, st_lat.spacing / 2.0)
        src, fine = np.nonzero(keep)
        if src.size:
            land(src, split.fine[fine],
                 np.vstack(flow(src, split.fine[fine])))
        flowed += src.size
    # per state, the landing row nearest the center, then the lowest input
    src, cols, d = (np.concatenate(a) for a in zip(*hits))
    order = np.lexsort((cols, d, src))
    src, cols = src[order], cols[order]
    first = np.diff(src, prepend=-1) != 0
    choice = np.full(S, NO_INPUT, dtype=np.int64)
    choice[src[first]] = cols[first]
    return choice, flowed


def synthesize_integrated(plant: ControlSystem, specification: ControlSystem,
                          params: SynthesisParams,
                          substeps: int = DEFAULT_SUBSTEPS, *,
                          force: bool = False,
                          transition_cap: Optional[int] = DEFAULT_TRANSITION_CAP
                          ) -> Tuple[Controller, Metrics]:
    """On-the-fly synthesis over the shared state lattice.

    Breadth-first over the quantized initial set: for each frontier state x,
    quantize the specification successor y; unless y is known blocking, scan
    the input lattice for inputs whose plant flow lands in y's cell, keeping
    the most centered landing.  Matches append (x, u, y) and enqueue y;
    failures back-propagate x through the transitions built so far.  Every
    lattice state is processed at most once.  The input scans of a wave's
    states are flowed in groups; which input each state keeps does not
    depend on the grouping, nor on the inputs the scan prunes (see
    _scan_inputs).
    """
    _require_valid(plant, specification, params, force)
    t0 = time.perf_counter()
    st_lat, in_lat, init_box = shared_lattices(plant, specification, params)
    if init_box is None:
        ctrl = Controller([], [], [], st_lat, in_lat)
        return ctrl, Metrics(0, 0, 0, 0, (time.perf_counter() - t0) * 1e3)
    u_pts = input_points(plant, params.mu if plant.m else None)
    n_u = u_pts.shape[0]
    if transition_cap is not None and st_lat.n_points * n_u > transition_cap:
        raise ResourceLimitError(
            f"{st_lat.n_points * n_u} candidate transitions exceed the cap "
            f"{transition_cap}")
    st_pts = st_lat.points()
    split = _InputSplit(in_lat, u_pts)
    bound = (_GrowthBound(plant, u_pts, params.tau, substeps, split.reach)
             if split.fine.size else None)

    # rows flowed: specification, plant, and the plant's per scanned state
    spec_rows = plant_rows = scanned = 0
    status = np.full(st_lat.n_points, UNSEEN, dtype=np.int8)
    trans: Dict[int, Tuple[int, int]] = {}
    preds: Dict[int, List[int]] = {}
    steps = 0

    x0_indices = initial_indices(st_lat, init_box)
    wave = x0_indices
    status[x0_indices] = QUEUED
    while wave.size:
        spec_rows += wave.size
        spec_z = np.vstack(map_tiles(
            lambda a, b: _flow_tile(specification, st_pts[wave[a:b]],
                                    np.zeros((b - a, specification.m)),
                                    params.tau, substeps), wave.size))
        targets = st_lat.quantize_many(spec_z)
        # chosen input per wave position: UNSCANNED until its group is scanned
        choice = np.full(wave.size, UNSCANNED, dtype=np.int64)
        next_wave: List[int] = []
        for pos, x in enumerate(wave.tolist()):
            if status[x] != QUEUED:
                continue
            steps += 1  # specification successor of x
            y = int(targets[pos])
            if y < 0 or status[y] == BAD:
                steps += backprop_blocking(status, trans, preds, x)
                continue
            if choice[pos] == UNSCANNED:
                # scan x together with the next states of the wave that may
                # still need an input; none of them was scanned yet, since
                # groups are taken in wave order.  A state's input depends
                # only on (x, y), so grouping leaves this pass unchanged
                rest = slice(pos, None)
                pending = ((status[wave[rest]] == QUEUED)
                           & (targets[rest] >= 0))
                pending &= status[np.maximum(targets[rest], 0)] != BAD
                per_state = -(-plant_rows // scanned) if scanned else n_u
                group = pos + np.flatnonzero(pending)[
                    :max(1, _SCAN_ROWS // per_state)]
                choice[group], flowed = _scan_inputs(
                    plant, st_lat, u_pts, split, bound, wave[group],
                    targets[group], params.tau, substeps)
                plant_rows += flowed
                scanned += group.size
            steps += n_u
            found = int(choice[pos])
            if found == NO_INPUT:
                steps += backprop_blocking(status, trans, preds, x)
                continue
            trans[x] = (found, y)
            preds.setdefault(y, []).append(x)
            status[x] = CONTROLLED
            if status[y] == UNSEEN:
                status[y] = QUEUED
                next_wave.append(y)
        wave = np.asarray(next_wave, dtype=np.int64)

    rows = np.asarray([(x, u, y) for x, (u, y) in trans.items()],
                      dtype=np.int64).reshape(-1, 3)
    initials = x0_indices[status[x0_indices] == CONTROLLED]
    bad_states = np.flatnonzero(status == BAD)
    ctrl = Controller(rows, initials, bad_states, st_lat, in_lat)
    metrics = Metrics(
        states=len(trans), transitions=len(trans),
        memory_units=integrated_memory_units(len(trans), bad_states.size),
        steps=steps, wall_time_ms=(time.perf_counter() - t0) * 1e3,
        rows_flowed=spec_rows + plant_rows)
    return ctrl, metrics
