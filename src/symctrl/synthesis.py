"""Controller synthesis: the abstract-compose-prune baseline and the
integrated on-the-fly algorithm, plus the space/time accounting used to
compare them.

Both routes produce a controller over the same state/input lattices and are
exactly bisimilar by construction; the integrated route explores only the
states reachable from the quantized initial set and keeps a single transition
per state, which is where its space advantage comes from.
"""

from __future__ import annotations

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
from .quantize import (EmptyLatticeError, Lattice, SynthesisParams,
                       ValidationReport, validate_parameters)
from .tsys import FiniteSystem, compose, nonblocking_part, subsystem

# (state, input) rows per group of the integrated input scan: on the benchmark
# problems 8K ran as fast as 16K and 32K, which added 4-7 MiB of peak RSS
_SCAN_ROWS = TILE_ROWS // 4

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
    pruning operations); wall_time_ms is informational only.
    """

    states: int
    transitions: int
    memory_units: int
    steps: int
    wall_time_ms: float = 0.0

    def as_dict(self) -> dict:
        return {"states": self.states, "transitions": self.transitions,
                "memory_units": self.memory_units, "steps": self.steps,
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
        wall_time_ms=(time.perf_counter() - t0) * 1e3)
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


def _scan_inputs(plant: ControlSystem, st_lat: Lattice, u_pts: np.ndarray,
                 xs: np.ndarray, ys: np.ndarray, tau: float,
                 substeps: int) -> np.ndarray:
    """For each state xs[i], the index of the input whose plant flow lands in
    the cell of ys[i] closest to its center (the lowest such index on ties),
    or NO_INPUT when no input lands there.  Any landing input yields the
    same controller sets, but the centered landing maximizes the closed
    loop's quantization margin.
    """
    n_u = u_pts.shape[0]
    st_pts = st_lat.points()

    def tile(a, b):
        pair = np.arange(a, b)
        src = pair // n_u
        Z = _flow_tile(plant, st_pts[xs[src]], u_pts[pair % n_u], tau,
                       substeps)
        d = np.max(np.abs(Z - st_pts[ys[src]]), axis=1)
        d[st_lat.quantize_many(Z) != ys[src]] = np.inf
        return d

    dist = np.concatenate(map_tiles(tile, xs.size * n_u)).reshape(xs.size, n_u)
    pick = np.argmin(dist, axis=1)
    missed = np.isinf(dist[np.arange(xs.size), pick])
    return np.where(missed, NO_INPUT, pick)


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
    depend on the grouping.
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

    per_scan = max(1, _SCAN_ROWS // n_u)  # states per _scan_inputs call
    status = np.full(st_lat.n_points, UNSEEN, dtype=np.int8)
    trans: Dict[int, Tuple[int, int]] = {}
    preds: Dict[int, List[int]] = {}
    steps = 0

    x0_indices = initial_indices(st_lat, init_box)
    wave = x0_indices
    status[x0_indices] = QUEUED
    while wave.size:
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
                group = pos + np.flatnonzero(pending)[:per_scan]
                choice[group] = _scan_inputs(plant, st_lat, u_pts,
                                             wave[group], targets[group],
                                             params.tau, substeps)
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
        steps=steps, wall_time_ms=(time.perf_counter() - t0) * 1e3)
    return ctrl, metrics
