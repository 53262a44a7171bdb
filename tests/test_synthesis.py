import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import symctrl
from symctrl import (ControlSystem, Controller, FiniteSystem, Lattice,
                     ParameterValidationError, ResourceLimitError,
                     StabilityCertificate, SynthesisParams, abstraction,
                     accessible_part, baseline_artifacts,
                     baseline_memory_units, check_bisimulation, compose,
                     controller_to_system, dynamics, integrated_memory_units,
                     is_deterministic, nonblocking_part, parse_expression,
                     synthesis, synthesize_baseline, synthesize_integrated)
from symctrl.quantize import LatticeError
from symctrl.synthesis import shared_lattices

from _systems import linear_pair, nonlinear_pair, problems, toy_pair
from test_pruning import BAD, CONTROLLED, UNSEEN, backprop_blocking


# ---- arguments --------------------------------------------------------------

def flow_many(plant, spec, params, substeps):
    """symctrl.flow_many from the plant's lowest initial corner, called as
    the routes are."""
    symctrl.flow_many(plant, plant.init_box[:, :1].T, np.zeros((1, plant.m)),
                      params.tau, substeps)


def simulate_closed_loop(plant, spec, params, substeps, steps=1):
    """`steps` steps of symctrl.simulate_closed_loop from an initial cell of
    the toy controller, called as the routes are."""
    ctrl, _ = synthesize_integrated(plant, spec, params)
    symctrl.simulate_closed_loop(plant, spec, ctrl,
                                 ctrl.state_lattice.point(ctrl.initials[0]),
                                 steps, params, substeps)


def zero_step_loop(plant, spec, params, substeps):
    """simulate_closed_loop with no step, which flows nothing."""
    simulate_closed_loop(plant, spec, params, substeps, steps=0)


@pytest.mark.parametrize("route", [synthesize_integrated, synthesize_baseline,
                                   flow_many, simulate_closed_loop,
                                   zero_step_loop])
@pytest.mark.parametrize("substeps", [0, -3, 2.5])
def test_substeps_must_be_a_positive_integer(route, substeps):
    plant, spec, params = toy_pair()
    with pytest.raises(ValueError, match="substeps"):
        route(plant, spec, params, substeps)


@pytest.mark.parametrize("route", [synthesize_integrated, synthesize_baseline])
def test_substeps_may_be_a_numpy_integer(route):
    plant, spec, params = toy_pair()
    ctrl, _ = route(plant, spec, params, np.int64(2))
    assert ctrl.same_as(route(plant, spec, params, 2)[0])


# ---- back-propagation of blocking states ------------------------------------

def run_backprop(t, x, bad, n=10):
    """Run backprop_blocking on the single-input-per-source transition set t
    with the states in `bad` already blocking; returns the surviving
    transitions, the blocking states and the step count."""
    status = np.full(n, UNSEEN, dtype=np.int8)
    trans, preds = {}, {}
    for z, u, y in sorted(t):
        trans[z] = (u, y)
        preds.setdefault(y, []).append(z)
        status[z] = CONTROLLED
    status[sorted(bad)] = BAD
    steps = backprop_blocking(status, trans, preds, x)
    return ({(z, u, y) for z, (u, y) in trans.items()},
            set(np.flatnonzero(status == BAD).tolist()), steps)


def test_backprop_cascades_along_chain():
    t = {(0, 0, 1), (1, 0, 2), (2, 0, 3)}
    t2, bad, steps = run_backprop(t, 3, set())
    assert t2 == set()
    assert bad == {0, 1, 2, 3}
    assert steps == 4 + 3


def test_backprop_no_predecessors():
    t = {(0, 0, 1), (1, 0, 0)}
    t2, bad, steps = run_backprop(t, 5, set())
    assert t2 == t
    assert bad == {5}
    assert steps == 1


def test_backprop_fan_in():
    t = {(1, 0, 3), (2, 1, 3)}
    t2, bad, steps = run_backprop(t, 3, set())
    assert t2 == set()
    assert bad == {1, 2, 3}
    assert steps == 3 + 2


def test_backprop_self_loop():
    t = {(3, 0, 3), (1, 0, 3)}
    t2, bad, steps = run_backprop(t, 3, set())
    assert t2 == set()
    assert bad == {1, 3}
    assert steps == 2 + 2


def test_backprop_preserves_unrelated():
    t = {(0, 0, 1), (1, 0, 0), (4, 0, 5)}
    t2, bad, steps = run_backprop(t, 5, {9})
    assert t2 == {(0, 0, 1), (1, 0, 0)}
    assert bad == {4, 5, 9}
    assert steps == 2 + 1


def test_fail_times_follow_targets_to_the_first_failure():
    # 0 -> 1 -> 2, blocked at time 5; 3 <-> 4 and 7 -> 7 reach no blocked
    # state; 5 -> 6, not processed; 8 reaches 2 after 2 failed
    never = synthesis.NEVER
    time = np.array([0, 1, 5, 2, 3, 4, never, 6, 7])
    target = np.array([1, 2, -1, 4, 3, 6, 0, 7, 2])
    blocked = np.arange(9) == 2
    fail = synthesis._fail_times(time, target, blocked)
    assert fail.tolist() == [5, 5, 5, never, never, never, never, never, 7]


# ---- memory-unit arithmetic --------------------------------------------------

def test_baseline_memory_nonlinear_benchmark():
    assert baseline_memory_units(29820791, 29791, 1265217) == 93347397


def test_baseline_memory_linear_benchmark():
    assert baseline_memory_units(2675069, 2601, 8013) == 8057049


def test_integrated_memory_linear_benchmark():
    assert integrated_memory_units(239, 490) == 1207


def test_memory_of_empty_controller():
    assert baseline_memory_units(0, 0, 0) == 0
    assert integrated_memory_units(0, 0) == 0


# ---- the two synthesis routes ------------------------------------------------

def test_self_tracking_keeps_every_spec_state():
    # the toy plant equals the spec when u = 0, so every non-blocking spec
    # state survives composition
    plant, spec, params = toy_pair()
    ctrl, metrics, (sp, sq, cstar, nb) = baseline_artifacts(plant, spec, params)
    nb_q = nonblocking_part(sq)
    assert nb.n_states == nb_q.n_states
    # each spec transition is matched by at least one composed transition
    assert set(map(tuple, nb.transitions[:, [0, 2]])) >= \
        set(map(tuple, nb_q.transitions[:, [0, 2]]))


def test_routes_agree_and_integrated_is_minimal():
    plant, spec, params = toy_pair()
    ctrl_i, m_i = synthesize_integrated(plant, spec, params)
    ctrl_b, m_b, (sp, sq, cstar, nb) = baseline_artifacts(plant, spec, params)
    rel = check_bisimulation(controller_to_system(ctrl_i),
                             controller_to_system(ctrl_b), 0.0)
    assert rel is not None
    assert m_i.states <= m_b.states
    assert m_i.states <= accessible_part(nb).n_states
    assert m_i.transitions == m_i.states


def test_integrated_controller_single_transition_per_state():
    plant, spec, params = toy_pair()
    ctrl, _ = synthesize_integrated(plant, spec, params)
    src = ctrl.transitions[:, 0]
    assert np.unique(src).size == src.size
    # targets are themselves controlled and bad states are disjoint
    assert set(ctrl.transitions[:, 2]) <= set(src)
    assert not set(ctrl.bad) & set(src)
    assert set(ctrl.initials) <= set(src)


def test_baseline_controller_deterministic_per_input():
    plant, spec, params = toy_pair()
    ctrl, _ = synthesize_baseline(plant, spec, params)
    assert is_deterministic(controller_to_system(ctrl))


def test_integrated_steps_within_complexity_bound():
    plant, spec, params = toy_pair()
    ctrl, metrics = synthesize_integrated(plant, spec, params)
    n_states = ctrl.state_lattice.n_points
    n_inputs = ctrl.input_lattice.n_points
    assert metrics.steps <= n_states * n_inputs + n_states ** 2
    assert (np.unique(ctrl.transitions[:, 0]).size + ctrl.bad.size
            <= n_states)


def test_integrated_memory_not_above_baseline():
    plant, spec, params = toy_pair()
    _, m_i = synthesize_integrated(plant, spec, params)
    _, m_b = synthesize_baseline(plant, spec, params)
    assert m_i.memory_units <= m_b.memory_units


def test_metrics_formulas_match_artifacts():
    plant, spec, params = toy_pair()
    ctrl_i, m_i = synthesize_integrated(plant, spec, params)
    assert m_i.memory_units == integrated_memory_units(m_i.transitions,
                                                       len(ctrl_i.bad))
    _, m_b, (sp, sq, cstar, _) = baseline_artifacts(plant, spec, params)
    assert m_b.memory_units == baseline_memory_units(
        sp.n_transitions, sq.n_transitions, cstar.n_transitions)


def test_validation_gate_requires_force():
    plant, spec, _ = toy_pair()
    # eta far too coarse for the declared certificates
    bad = SynthesisParams(epsilon=0.2, theta_p=0.1, theta_q=0.1, tau=0.5,
                          eta=0.09, mu=0.025)
    with pytest.raises(ParameterValidationError):
        synthesize_integrated(plant, spec, bad)
    ctrl, _ = synthesize_integrated(plant, spec, bad, force=True)
    assert ctrl.n_states == ctrl.state_lattice.n_points


def test_transition_cap_aborts_cleanly():
    plant, spec, params = toy_pair()
    with pytest.raises(ResourceLimitError):
        synthesize_baseline(plant, spec, params, transition_cap=10)
    with pytest.raises(ResourceLimitError):
        synthesize_integrated(plant, spec, params, transition_cap=10)


def test_disjoint_initial_boxes_give_empty_controller():
    params = SynthesisParams(epsilon=0.2, theta_p=0.1, theta_q=0.1, tau=0.5,
                             eta=0.025, mu=0.025)
    # (plant state, plant initial, spec state, spec initial) boxes: equal
    # state boxes with disjoint initial boxes, then state boxes whose
    # intersection [0.005, 0.01] holds no lattice point, where both routes
    # fall back to the plant's box
    for plant_box, plant_init, spec_box, spec_init in (
            ([-1, 1], [-1, -0.6], [-1, 1], [0.6, 1.0]),
            ([-1, 0.01], [-0.5, 0.01], [0.005, 1], [0.005, 0.5])):
        plant = ControlSystem(n=1, m=1, state_box=[plant_box],
                              init_box=[plant_init], input_box=[[-0.25, 0.25]],
                              field=(parse_expression("-x1 + u1", 1, 1),),
                              certificate=StabilityCertificate(1, 1, 0.2, 1))
        spec = ControlSystem(n=1, m=0, state_box=[spec_box],
                             init_box=[spec_init], input_box=[],
                             field=(parse_expression("-x1", 1, 0),),
                             certificate=StabilityCertificate(1, 1))
        ctrl, metrics = synthesize_integrated(plant, spec, params)
        assert metrics.states == 0
        assert ctrl.n_transitions == 0
        ctrl_b, _ = synthesize_baseline(plant, spec, params)
        assert ctrl_b.initials.size == 0
        assert accessible_part(controller_to_system(ctrl_b)).n_states == 0
        assert ctrl_b.state_lattice == ctrl.state_lattice
        if plant_box != spec_box:
            assert ctrl_b.n_transitions == 0
            assert ctrl.state_lattice == Lattice([plant_box], 2 * params.eta)


def test_rows_flowed_counts_the_flowed_rows(monkeypatch):
    # both routes count every plant and specification row they flow; the
    # integrated route prunes, so it flows fewer than its steps
    plant, spec, params = linear_pair(1)
    params = SynthesisParams(epsilon=params.epsilon, theta_p=params.theta_p,
                             theta_q=params.theta_q, tau=params.tau,
                             eta=0.05, mu=0.02)
    rows = {}
    for module in (synthesis, abstraction):
        def counting(sys, X, *args, _inner=module._flow_tile, **kwargs):
            rows[0] += X.shape[0]
            return _inner(sys, X, *args, **kwargs)
        monkeypatch.setattr(module, "_flow_tile", counting)
    for route in (synthesize_integrated, synthesize_baseline):
        rows[0] = 0
        _, m = route(plant, spec, params, 20, force=True)
        assert m.rows_flowed == rows[0] > 0
    # the baseline's plant rows proved to leave the state box are not
    # flowed either
    assert m.rows_flowed < 11 * 11 * 101 + 11 * 11
    _, m = synthesize_integrated(plant, spec, params, 20, force=True)
    assert m.rows_flowed < m.steps


@pytest.mark.parametrize("pair, eta, integrated, baseline, landed", [
    (lambda: linear_pair(1), None, 2_460, 7_803, 267_503),
    (nonlinear_pair, 1 / 15, 8_006, 94_360, 249_890)],
    ids=["linear-pair", "nonlinear-pair"])
def test_rows_flowed_on_the_benchmark_problems(pair, eta, integrated,
                                               baseline, landed):
    # the benchmark's timed problems: mu = 0.01, and 15 points per axis on
    # the nonlinear one; only the baseline takes rows proved to land as
    # cells.  The linear-pair plant is affine: both routes flow the 2 corners
    # of its input box per state, and the chord decides the other rows but
    # those the integrated route's cells may take and whose chord may put
    # them nearest the centre (1,731 plant rows in all; 1,889 without the
    # distance bound); the specification flows 2,601 (baseline) and 729
    # (integrated) rows.  The nonlinear plant flows its 11 coarse inputs
    # per state (37,125 rows) and, in the baseline, the 53,860 of its other
    # 303,750 rows whose chord, padded for its curvature, may cross a cell
    # face
    plant, spec, params = pair()
    params = SynthesisParams(epsilon=params.epsilon, theta_p=params.theta_p,
                             theta_q=params.theta_q, tau=params.tau,
                             eta=eta or params.eta, mu=0.01)
    for route, rows, cells in ((synthesize_integrated, integrated, 0),
                               (synthesize_baseline, baseline, landed)):
        _, m = route(plant, spec, params, 50, force=True)
        assert (m.rows_flowed, m.rows_landed) == (rows, cells)


def test_synthesis_reproducible():
    plant, spec, params = toy_pair()
    c1, m1 = synthesize_integrated(plant, spec, params)
    c2, m2 = synthesize_integrated(plant, spec, params)
    assert np.array_equal(c1.transitions, c2.transitions)
    assert np.array_equal(c1.bad, c2.bad)
    assert m1.steps == m2.steps


def scan_budgets_agree(monkeypatch, plant, spec, params, budgets, tile_rows):
    """Integrated controllers and counters, the rows flowed included, under
    each input-scan row budget, and under the last budget with tile_rows-row
    flow tiles (so that spec waves and scan groups span several tiles),
    equal those under the default budget; returns that controller and its
    counters."""
    ref, m_ref = synthesize_integrated(plant, spec, params, force=True)

    def counters(m):
        return (m.states, m.transitions, m.memory_units, m.steps,
                m.rows_flowed, m.rows_landed)

    def agrees():
        ctrl, m = synthesize_integrated(plant, spec, params, force=True)
        assert ctrl.same_as(ref) and np.array_equal(ctrl.bad, ref.bad)
        assert counters(m) == counters(m_ref)

    for rows in budgets:
        monkeypatch.setattr(synthesis, "_SCAN_ROWS", rows)
        agrees()
    monkeypatch.setattr(dynamics, "TILE_ROWS", tile_rows)
    agrees()
    monkeypatch.undo()
    return ref, m_ref


def test_scan_grouping_changes_nothing(monkeypatch):
    # budgets: fewer rows than inputs, one state per call, every lattice
    # state (so a whole wave) per call; tiles smaller than one state's rows
    plant, spec, params = toy_pair()
    n_u = 11
    ctrl, _ = scan_budgets_agree(monkeypatch, plant, spec, params,
                                 [1, n_u, 41 * n_u], 7)
    assert ctrl.input_lattice.n_points == n_u
    assert ctrl.state_lattice.n_points == 41
    # linear #1 with a coarser input lattice, so that it blocks cells too;
    # 61-row tiles split the input rows of most states (7-row ones took 17 s)
    plant, spec, params = linear_pair(1)
    params = SynthesisParams(epsilon=params.epsilon, theta_p=params.theta_p,
                             theta_q=params.theta_q, tau=params.tau,
                             eta=params.eta, mu=0.05)
    n_u = 41
    ctrl, _ = scan_budgets_agree(monkeypatch, plant, spec, params,
                                 [30, n_u, 2601 * n_u], 61)
    assert ctrl.input_lattice.n_points == n_u and ctrl.bad.size > 0
    assert ctrl.state_lattice.n_points == 2601


def test_scan_chunks_leave_the_rows_of_a_nonlinear_plant(monkeypatch):
    # the published nonlinear problem: its plant is not affine, so each
    # state's chords take a curvature bound over the hull of its own coarse
    # rows' stage points.  Chunks of 2^16 rows (65 states of 1,001 inputs)
    # and tiles twice the default flow the default's rows
    plant, spec, params = nonlinear_pair()
    _, m = scan_budgets_agree(monkeypatch, plant, spec, params, [1 << 16],
                              1 << 16)
    assert m.rows_flowed == 155_746


def test_scan_ties_keep_the_lowest_input(monkeypatch):
    # the field ignores u: every input lands on the same point
    plant, spec, params = toy_pair()
    plant = ControlSystem(
        n=1, m=1, state_box=[[-1, 1]], init_box=[[-0.5, 0.0]],
        input_box=[[-0.25, 0.25]],
        field=(parse_expression("-x1 + 0*u1", 1, 1),),
        certificate=plant.certificate)
    ctrl, _ = scan_budgets_agree(monkeypatch, plant, spec, params,
                                 [1, 11, 451], 7)
    assert ctrl.n_transitions > 0
    assert np.all(ctrl.transitions[:, 1] == 0)


def test_random_small_pairs_routes_stay_bisimilar():
    rng = np.random.default_rng(13)
    params = SynthesisParams(epsilon=0.3, theta_p=0.15, theta_q=0.15,
                             tau=0.8, eta=0.05, mu=0.1)
    for _ in range(10):
        a_p = rng.uniform(-3.0, -0.5)
        a_q = rng.uniform(-3.0, -0.5)
        shift = rng.uniform(-0.2, 0.2)
        plant = ControlSystem(
            n=1, m=1, state_box=[[-1, 1]], init_box=[[-0.5, 0.5]],
            input_box=[[-0.5, 0.5]],
            field=(parse_expression(f"{a_p}*x1 + u1", 1, 1),),
            certificate=StabilityCertificate(1, 1, 1, 1))
        spec = ControlSystem(
            n=1, m=0, state_box=[[-1, 1]], init_box=[[-0.5, 0.5]],
            input_box=[],
            field=(parse_expression(f"{a_q}*x1 + {shift}", 1, 0),),
            certificate=StabilityCertificate(1, 1))
        ctrl_i, m_i = synthesize_integrated(plant, spec, params, 20, force=True)
        ctrl_b, m_b, (_, _, _, nb) = baseline_artifacts(plant, spec, params,
                                                        20, force=True)
        assert m_i.states <= m_b.states
        if m_i.states or m_b.states:
            rel = check_bisimulation(controller_to_system(ctrl_i),
                                     controller_to_system(ctrl_b), 0.0)
            assert rel is not None
        assert m_i.memory_units <= m_b.memory_units



def route_outcome(route, problem):
    """The controller of one route, or the type of the exception it
    raised."""
    plant, spec, params, substeps = problem
    try:
        return route(plant, spec, params, substeps, force=True)[0]
    except Exception as exc:  # compared across the routes below
        return type(exc)


def disjoint_sharing_cells(plant, spec, params):
    """Whether the two initial boxes are disjoint while their outward-rounded
    ranges share a lattice point."""
    lo = np.maximum(plant.init_box[:, 0], spec.init_box[:, 0])
    hi = np.minimum(plant.init_box[:, 1], spec.init_box[:, 1])
    first, last = shared_lattices(plant, spec, params)[2]
    return bool(np.any(lo > hi)) and all(a <= b for a, b in zip(first, last))


@pytest.mark.parametrize("drifting, shifted",
                         [(False, False), (True, False), (False, True)],
                         ids=["False", "True", "shifted"])
def test_routes_agree_on_random_problems(drifting, shifted):
    # both routes synthesize over the same lattices and initial cells: their
    # controllers must be exactly bisimilar, or both must fail alike
    seen = {"examples": 0, "controlled": 0, "disjoint": 0}

    @settings(derandomize=True, max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(problems(drifting=drifting, shifted=shifted))
    def check(problem):
        ctrl_i = route_outcome(synthesize_integrated, problem)
        ctrl_b = route_outcome(synthesize_baseline, problem)
        seen["examples"] += 1
        seen["disjoint"] += disjoint_sharing_cells(*problem[:3])
        if isinstance(ctrl_i, type) or isinstance(ctrl_b, type):
            assert ctrl_i is ctrl_b
            return
        assert check_bisimulation(controller_to_system(ctrl_i),
                                  controller_to_system(ctrl_b),
                                  0.0) is not None
        seen["controlled"] += ctrl_i.n_transitions > 0

    check()
    assert seen["controlled"] >= seen["examples"] // 3
    # 24 of the 50 shifted draws have disjoint boxes that share cells
    assert seen["disjoint"] >= (seen["examples"] // 5 if shifted else 0)


def test_routes_agree_on_random_initial_boxes():
    # linear #1 with initial boxes at most one cell wide, the
    # specification's the plant's shifted by up to one cell per axis
    plant, spec, params = linear_pair(1)
    params = SynthesisParams(epsilon=params.epsilon, theta_p=params.theta_p,
                             theta_q=params.theta_q, tau=params.tau,
                             eta=0.05, mu=0.05)
    rng = np.random.default_rng(15)
    disjoint = 0
    for _ in range(40):
        lo = rng.uniform(-0.4, 0.3, 2)
        box = np.column_stack([lo, lo + rng.uniform(0.0, 0.1, 2)])
        plant = dataclasses.replace(plant, init_box=box)
        spec = dataclasses.replace(
            spec, init_box=box + rng.uniform(-0.1, 0.1, (2, 1)))
        disjoint += disjoint_sharing_cells(plant, spec, params)
        ctrl_i, _ = synthesize_integrated(plant, spec, params, force=True)
        ctrl_b, _ = synthesize_baseline(plant, spec, params, force=True)
        assert check_bisimulation(controller_to_system(ctrl_i),
                                  controller_to_system(ctrl_b),
                                  0.0) is not None
    # 30 of the 40 draws; at a set-up that intersected the boxes, 26 of the
    # 40 controllers were not bisimilar
    assert disjoint >= 20


def test_specification_with_inputs_is_refused_before_any_flow(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("flowed a row")

    for module in (abstraction, synthesis):
        monkeypatch.setattr(module, "_flow_tile", refuse)
    plant, _, params = toy_pair()
    for route in (synthesize_integrated, synthesize_baseline):
        with pytest.raises(ValueError, match=r"single \(zero\) input"):
            route(plant, plant, params, force=True)

def relational(s):
    """s held as its transition rows, whatever form it has."""
    return FiniteSystem(s.outputs, s.initials, s.inputs, s.transitions)


def assert_matrices_equal_the_join(plant, spec, params, substeps):
    """Runs the baseline and asserts that its composition, gathered from
    the two abstractions' successor matrices, and its pruning equal the
    relational ones: the systems, their counts and the controller rows.
    Returns whether the problem was accepted."""
    try:
        ctrl, _, (sp, sq, cstar, nb) = baseline_artifacts(
            plant, spec, params, substeps, force=True)
    except LatticeError:
        return False
    assert sp.matrix is not None and sq.matrix is not None
    joined = compose(relational(sp), relational(sq), 0.0)
    pruned = nonblocking_part(joined)
    for got, rel in ((cstar, joined), (nb, pruned)):
        assert got.matrix is None and got.same_as(rel)
        assert got.n_transitions == rel.n_transitions
        assert np.array_equal(got.out_degree(), rel.out_degree())
    flat = ctrl.state_lattice.quantize_many(pruned.outputs)
    t = pruned.transitions
    assert ctrl.same_as(Controller(
        np.column_stack([flat[t[:, 0]], t[:, 1], flat[t[:, 2]]]),
        flat[pruned.initials], [], ctrl.state_lattice, ctrl.input_lattice))
    return True


def benchmark_nonlinear_pair():
    """The nonlinear-pair benchmark problem: 15 points per axis and
    mu = 0.01."""
    plant, spec, params = nonlinear_pair()
    return plant, spec, dataclasses.replace(params, eta=1 / 15, mu=0.01)


@pytest.mark.parametrize("pair, substeps", [
    (toy_pair, dynamics.DEFAULT_SUBSTEPS),
    (lambda: linear_pair(1), dynamics.DEFAULT_SUBSTEPS),
    (benchmark_nonlinear_pair, 50)], ids=["toy", "linear-1",
                                          "nonlinear-pair"])
def test_matrix_baseline_equals_the_join(pair, substeps):
    assert assert_matrices_equal_the_join(*pair(), substeps)


def test_matrix_baseline_equals_the_join_on_random_problems():
    seen = {"examples": 0, "accepted": 0}

    @settings(derandomize=True, max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(problems(shifted=True))
    def check(problem):
        seen["examples"] += 1
        seen["accepted"] += assert_matrices_equal_the_join(*problem)

    check()
    assert seen["accepted"] >= seen["examples"] * 3 // 4, seen


def test_baseline_steps_count_exact_output_matches():
    # the plant box reaches past the spec box: plant cells outside the shared
    # box must not pair with spec cells outside it
    plant = ControlSystem(n=1, m=1, state_box=[[-1, 1]], init_box=[[-0.5, 0.5]],
                          input_box=[[-0.5, 0.5]],
                          field=(parse_expression("-x1 + u1", 1, 1),),
                          certificate=StabilityCertificate(1, 1, 1, 1))
    spec = ControlSystem(n=1, m=0, state_box=[[-0.5, 1.5]],
                         init_box=[[-0.5, 0.5]], input_box=[],
                         field=(parse_expression("-x1", 1, 0),),
                         certificate=StabilityCertificate(1, 1))
    params = SynthesisParams(epsilon=0.3, theta_p=0.15, theta_q=0.15,
                             tau=0.8, eta=0.05, mu=0.1)
    _, m, (sp, sq, cstar, nb) = baseline_artifacts(plant, spec, params, 20,
                                                   force=True)
    deg_p, deg_q = sp.out_degree(), sq.out_degree()
    brute = sum(int(deg_p[i]) * int(deg_q[j])
                for i in range(sp.n_states) for j in range(sq.n_states)
                if np.array_equal(sp.outputs[i], sq.outputs[j]))
    others = (sp.n_states * sp.n_inputs + sq.n_states
              + (cstar.n_transitions - nb.n_transitions)
              + (cstar.n_states - nb.n_states))
    assert brute > 0
    assert m.steps - others == brute


def test_options_are_the_rows_of_a_source():
    plant, spec, params = toy_pair()
    ctrl, _ = synthesize_baseline(plant, spec, params)
    t = ctrl.transitions
    relational = 0
    for x in np.unique(t[:, 0]):
        opts = ctrl.successors(x)[:, 1:]
        assert np.array_equal(opts, t[t[:, 0] == x][:, 1:])
        assert np.array_equal(opts[:, 0], np.sort(opts[:, 0]))
        relational += opts.shape[0] > 1
    assert relational > 0
    x = t[0, 0]
    trimmed = Controller(t[t[:, 0] != x], [], [], ctrl.state_lattice,
                         ctrl.input_lattice)
    assert trimmed.successors(x)[:, 1:].shape == (0, 2)


def remap_reference(ctrl):
    """controller_to_system computed row by row: the states a controller
    uses, renumbered in ascending lattice order."""
    t = ctrl.transitions
    states = np.unique(np.concatenate([t[:, 0], t[:, 2], ctrl.initials]))
    outputs = (ctrl.state_lattice.points()[states] if states.size
               else np.zeros((0, ctrl.state_lattice.dim)))
    remap = {int(s): k for k, s in enumerate(states)}
    rows = np.asarray([[remap[int(a)], int(u), remap[int(b)]]
                       for a, u, b in t], dtype=np.int64).reshape(-1, 3)
    initials = np.asarray([remap[int(i)] for i in ctrl.initials],
                          dtype=np.int64)
    return FiniteSystem(outputs, initials, ctrl.input_values(), rows)


def test_controller_to_system_matches_row_remap():
    plant, spec, params = toy_pair()
    ctrl_i, _ = synthesize_integrated(plant, spec, params)
    ctrl_b, _ = synthesize_baseline(plant, spec, params)
    empty = Controller(np.zeros((0, 3)), [], [], ctrl_i.state_lattice,
                       ctrl_i.input_lattice)
    # an initial state that is not a source still appears
    partial = Controller(ctrl_i.transitions[1:], ctrl_i.initials, [],
                         ctrl_i.state_lattice, ctrl_i.input_lattice)
    for ctrl in (ctrl_i, ctrl_b, empty, partial):
        assert controller_to_system(ctrl).same_as(remap_reference(ctrl))
