"""Controller synthesis: the abstract-compose-prune baseline and the
integrated on-the-fly algorithm, plus the space/time accounting used to
compare them.

Both routes produce a controller over the same state/input lattices and are
exactly bisimilar by construction; the integrated route explores only the
states reachable from the shared initial cells and keeps a single transition
per state, which is where its space advantage comes from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .abstraction import (DEFAULT_TRANSITION_CAP, AbstractionSpec,
                          ResourceLimitError, RowEngine, build_abstraction)
from .dynamics import DEFAULT_SUBSTEPS, ControlSystem, _flow_tile, map_tiles
from .quantize import (EmptyLatticeError, Lattice, LatticeError,
                       SynthesisParams, ValidationReport, validate_parameters)
from .tsys import (FiniteSystem, _rows, compose, nonblocking_part,
                   subsystem)

# (state, input) rows a chunk of the integrated input scan decides: a chunk
# holds _SCAN_ROWS // (inputs) states.  What a chunk holds grows with its
# rows, a keep-mask per row, not with the coarse rows it flows first and
# whose endpoints it keeps, which are 2 per state on an affine plant with
# one input; the proof holds its chords and distance bounds a slice of
# states at a time (abstraction._decide).  The rows a chunk flows do not
# depend on its size: each state's rows are decided from its own coarse
# rows alone (abstraction.RowEngine.run)
_SCAN_ROWS = 1 << 18

# input scan result of a state where no input lands
NO_INPUT = -1
# the fail time of a state never marked bad (_fail_times)
NEVER = np.iinfo(np.int64).max


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

    def input_values(self) -> np.ndarray:
        return self.inputs


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
    it did: both routes prune the inputs they can prove miss, a target cell
    (integrated) or every cell (baseline).  rows_landed counts the rows the
    baseline proved to land in a cell and did not flow.
    wall_time_ms is informational only.
    """

    states: int
    transitions: int
    memory_units: int
    steps: int
    wall_time_ms: float = 0.0
    rows_flowed: int = 0
    rows_landed: int = 0

    def as_dict(self) -> dict:
        return {"states": self.states, "transitions": self.transitions,
                "memory_units": self.memory_units, "steps": self.steps,
                "rows_flowed": self.rows_flowed,
                "rows_landed": self.rows_landed,
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
                    ) -> Tuple[Lattice, Optional[Lattice],
                               Tuple[List[int], List[int]]]:
    """The state lattice, the input lattice and the index range of the
    initial cells both routes synthesize over, or a refusal of what neither
    route can synthesize.

    The state lattice covers the intersection of the two state boxes.  The
    initial cells are the states the composition starts from: the lattice
    points in both systems' outward-rounded initial ranges.  They are given
    as the per-axis first and last index (from kmin; first > last on an axis
    the range misses), which only the integrated route enumerates
    (Lattice._range_indices).  When the state intersection holds no lattice
    point, the state lattice falls back to the plant's state box and the
    range is empty, so the controller is.  A plant state or input box or a
    specification state box whose lattice cannot be built raises
    LatticeError (EmptyLatticeError without lattice points), and a
    specification with inputs ValueError.
    """
    def lattice(box, spacing, what):
        try:
            return Lattice(box, spacing)
        except LatticeError as exc:
            raise type(exc)(f"the {what}: {exc}") from None

    if specification.m:
        raise ValueError("specification must expose a single (zero) input")
    # each system's own lattices, as the baseline abstracts them
    plant_lat = lattice(plant.state_box, 2.0 * params.eta, "plant's state box")
    lattice(specification.state_box, 2.0 * params.eta,
            "specification's state box")
    in_lat = (lattice(plant.input_box, 2.0 * params.mu, "plant's input box")
              if plant.m else None)
    box = np.column_stack([
        np.maximum(plant.state_box[:, 0], specification.state_box[:, 0]),
        np.minimum(plant.state_box[:, 1], specification.state_box[:, 1])])
    try:
        st_lat = Lattice(box, 2.0 * params.eta)
    except EmptyLatticeError:
        return plant_lat, in_lat, ([0] * plant.n, [-1] * plant.n)
    # the index ranges, not the boxes, are intersected: disjoint initial
    # boxes within one cell of each other still share cells
    (p_first, p_last), (s_first, s_last) = (
        st_lat._outer_range(sys.init_box) for sys in (plant, specification))
    return st_lat, in_lat, (list(map(max, p_first, s_first)),
                            list(map(min, p_last, s_last)))


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
    st_lat, in_lat, _ = shared_lattices(plant, specification, params)
    # build_abstraction ignores mu for the specification, which has no input
    quant = AbstractionSpec(params.tau, params.eta, params.mu, substeps)
    sp = build_abstraction(plant, quant, transition_cap=transition_cap)
    sq = build_abstraction(specification, quant,
                           transition_cap=transition_cap)
    cstar = compose(sp, sq, 0.0)
    if transition_cap is not None and cstar.n_transitions > transition_cap:
        raise ResourceLimitError(
            f"composition has {cstar.n_transitions} transitions, cap "
            f"{transition_cap}")
    nb = nonblocking_part(cstar)
    flat = st_lat.quantize_many(nb.outputs).astype(np.int32)
    t = nb.transitions
    rows = _rows(flat[t[:, 0]], t[:, 1], flat[t[:, 2]])  # v = u_plant * 1 + 0
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
        rows_flowed=sp.rows_flowed + sq.rows_flowed,
        rows_landed=sp.rows_landed + sq.rows_landed)
    return ctrl, metrics, (sp, sq, cstar, nb)


def _fail_times(turn: np.ndarray, target: np.ndarray,
                blocked: np.ndarray) -> np.ndarray:
    """Fail times on a functional graph, where state i leads to target[i]:
    the greatest fixpoint of fail = where(blocked, turn, max(turn,
    fail[target])).  A state fails at its own turn when it is `blocked`,
    else when its target fails, but not before its own turn; a state whose
    path reaches no blocked state, or a state without a turn (turn NEVER),
    reads NEVER.  A blocked state's target may be -1."""
    fail = np.full(turn.size, NEVER)
    while True:
        nxt = np.where(blocked, turn, np.maximum(turn, fail[target]))
        if np.array_equal(nxt, fail):
            return fail
        fail = nxt


def _scan_inputs(engine: RowEngine, st_pts: np.ndarray, xs: np.ndarray,
                 ys: np.ndarray) -> Tuple[np.ndarray, int]:
    """For each state xs[i], the index of the input whose plant flow lands in
    the cell of ys[i] closest to its center (the lowest such index on ties),
    or NO_INPUT when no input lands there; and the number of rows flowed.
    Any landing input yields the same controller sets, but the centered
    landing maximizes the closed loop's quantization margin.

    The engine flows only the inputs it cannot prove to miss ys[i]'s cell:
    the coarse inputs and the rows whose padded chord may land there (on
    an affine plant the input box's corners and the rows whose chord may).
    Of those it flows only the ones that may land nearest the centre
    (RowEngine.run with `nearest`): the proof drops a row whose chord puts
    it, padded, strictly farther from the centre than another row proved
    to land (abstraction._decide), and the rows it proves to land are
    flowed too, since the choice needs their endpoints.  The inequality is
    strict, so every row as near as the nearest landing, ties included, is
    flowed; and the pads that cover the kernel's rounding cover that of
    the distance bounds too.  A pruned input would not have landed, or not
    nearest, so the choice is that of a scan of every input.
    """
    P = st_pts[ys]
    hits = []  # (state, input, distance to the center) of the landing rows

    def land(src, cols, Z, cells):
        # 1-D takes: fancy indexing copies narrow rows element by element
        hit = np.flatnonzero(cells == ys.take(src))
        src = src.take(hit)
        hits.append((src, cols.take(hit),
                     np.max(np.abs(Z.take(hit, axis=0) - P.take(src, axis=0)),
                            axis=1)))

    half = np.full(st_pts.shape[1], engine.st_lat.spacing / 2.0)
    flowed, _ = engine.run(st_pts[xs], P, half, land, nearest=True)
    # per state, the landing row nearest the center, then the lowest input,
    # in whatever order the workers handed the tiles over
    src, cols, d = (np.concatenate(a) for a in zip(*hits))
    order = np.lexsort((cols, d, src))
    src, cols = src[order], cols[order]
    first = np.diff(src, prepend=-1) != 0
    choice = np.full(xs.size, NO_INPUT, dtype=np.int64)
    choice[src[first]] = cols[first]
    return choice, flowed


def synthesize_integrated(plant: ControlSystem, specification: ControlSystem,
                          params: SynthesisParams,
                          substeps: int = DEFAULT_SUBSTEPS, *,
                          force: bool = False,
                          transition_cap: Optional[int] = DEFAULT_TRANSITION_CAP
                          ) -> Tuple[Controller, Metrics]:
    """On-the-fly synthesis over the shared state lattice.

    The sequential algorithm goes breadth-first from the initial cells of
    shared_lattices, the states the composition starts from (with none, it
    flows nothing and the controller is empty): for each state x of a wave,
    quantize the specification successor y; unless y is off the lattice or
    bad, scan the input lattice for inputs whose plant flow lands in y's
    cell, keeping the most centered landing.  A match records (x, u, y) and
    queues y if it was never queued; a failure marks x bad and
    back-propagates through the recorded transitions.

    This runs it a wave at a time, on fail times (_fail_times: a
    state's turn is its place in the processing order, NEVER until it has
    one, and it is blocked when its target is off the lattice or no input
    lands there), the turns at which the sequential loop marks the states
    bad: x is scanned exactly when y does not fail before x's turn.
    Counting the wave's own scans as landing only delays fail times, so the
    states that may be scanned are known before the scan, which flows them
    in fixed chunks; the fail times are then recomputed from its results.
    The input a state keeps depends neither on the chunks nor on the
    pruning (_scan_inputs).
    """
    _require_valid(plant, specification, params, force)
    t0 = time.perf_counter()
    st_lat, in_lat, init_range = shared_lattices(plant, specification,
                                                 params)
    n_u = in_lat.n_points if in_lat is not None else 1
    if transition_cap is not None and st_lat.n_points * n_u > transition_cap:
        raise ResourceLimitError(
            f"{st_lat.n_points * n_u} candidate transitions exceed the cap "
            f"{transition_cap}")
    x0_indices = st_lat._range_indices(*init_range)
    st_pts = st_lat.points()
    engine = RowEngine(plant, st_lat, in_lat, params.tau, substeps)
    chunk = max(1, _SCAN_ROWS // n_u)

    n = st_lat.n_points
    turn = np.full(n, NEVER)  # position in the processing order
    target = np.full(n, -1)  # specification successor, -1 off the lattice
    blocked = np.zeros(n, dtype=bool)
    choice = np.full(n, NO_INPUT)
    fail = np.full(n, NEVER)
    spec_rows = plant_rows = 0  # rows flowed

    def scanned(xs):
        # fail[-1] is read for the targets off the lattice, then masked
        return (target[xs] >= 0) & (fail[target[xs]] >= turn[xs])

    wave = x0_indices
    while wave.size:
        turn[wave] = spec_rows + np.arange(wave.size)
        spec_rows += wave.size
        spec_z = np.vstack(map_tiles(
            lambda a, b: _flow_tile(specification, st_pts[wave[a:b]],
                                    np.zeros((b - a, specification.m)),
                                    params.tau, substeps), wave.size))
        target[wave] = st_lat.quantize_many(spec_z)
        blocked[wave] = target[wave] < 0  # the wave's scans count as landing
        fail = _fail_times(turn, target, blocked)
        may = wave[scanned(wave)]
        for a in range(0, may.size, chunk):
            part = may[a:a + chunk]
            choice[part], flowed = _scan_inputs(engine, st_pts, part,
                                                target[part])
            plant_rows += flowed
        blocked[may] = choice[may] == NO_INPUT
        fail = _fail_times(turn, target, blocked)
        # the next wave: the targets the wave recorded that were never
        # queued, in recording order
        ys, first = np.unique(target[wave[scanned(wave) & ~blocked[wave]]],
                              return_index=True)
        unseen = turn[ys] == NEVER
        wave = ys[unseen][np.argsort(first[unseen])]

    processed = turn < NEVER
    scan = scanned(np.arange(n))  # false where not processed
    bad = processed & (fail < NEVER)
    recorded = scan & ~blocked
    alive = recorded & ~bad
    kept = np.flatnonzero(alive)
    bad_states = np.flatnonzero(bad)
    ctrl = Controller(_rows(kept, choice[kept], target[kept]),
                      x0_indices[alive[x0_indices]], bad_states, st_lat,
                      in_lat)
    steps = int(processed.sum() + n_u * scan.sum() + bad.sum()
                + (recorded & bad).sum())
    metrics = Metrics(
        states=kept.size, transitions=kept.size,
        memory_units=integrated_memory_units(kept.size, bad_states.size),
        steps=steps, wall_time_ms=(time.perf_counter() - t0) * 1e3,
        rows_flowed=spec_rows + plant_rows)
    return ctrl, metrics
