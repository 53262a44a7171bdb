"""The integrated route against its sequential definition.

`full_scan_reference` is the integrated route as a sequential worklist, with
no batching and no pruning: states are processed one at a time in
breadth-first order, each flowing every input, and a blocking state is
back-propagated at once through the transitions recorded so far
(`backprop_blocking`).  The route must give the same controller rows, bad
set and counters on random small plant and specification pairs, whose
fields are drawn from the expression grammar (blow-ups and domain exits
included), and on the benchmark problems.
"""

import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from symctrl import (AbstractionSpec, ControlSystem, Controller, Lattice,
                     StabilityCertificate, SynthesisParams, abstraction,
                     dynamics, flow_many, parse_expression,
                     synthesize_integrated)
from symctrl.synthesis import integrated_memory_units, shared_lattices

from _systems import (MULTI_WAVE_DRAWS, STIFF_AFFINE, affine_plants,
                      linear_pair, nonlinear_pair, problems)
from test_abstraction import assert_matches_full_sweep

# per-state status of the sequential reference
UNSEEN, QUEUED, CONTROLLED, BAD = 0, 1, 2, 3


def backprop_blocking(status, trans, preds, x):
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


def full_scan_reference(plant, spec, params, substeps, stats=None):
    """(controller, states, memory units, steps) of the integrated route,
    flowing every input of every scanned state.  `stats`, if given, gets
    the number of waves and of transitions deleted in a later wave than
    the one that recorded them."""
    st_lat, in_lat, _ = shared_lattices(plant, spec, params)

    def initial_cells(sys):
        # the outward-rounded initial range on the system's own lattice, as
        # cells of the shared one (-1 outside it)
        lat = Lattice(sys.state_box, 2.0 * params.eta)
        return st_lat.quantize_many(
            lat.points()[lat.outer_range_indices(sys.init_box)])

    # the composition's initial states: the points both ranges hold
    x0 = np.intersect1d(initial_cells(plant), initial_cells(spec))
    x0 = x0[x0 >= 0]
    u_pts = in_lat.points() if in_lat is not None else np.zeros((1, 0))
    n_u = u_pts.shape[0]
    st_pts = st_lat.points()
    status = np.full(st_lat.n_points, UNSEEN, dtype=np.int8)
    trans, preds = {}, {}
    steps = 0
    wave = x0
    status[wave] = QUEUED
    waves = across = 0
    while wave.size:
        waves += 1
        recorded = set(trans)
        targets = st_lat.quantize_many(flow_many(
            spec, st_pts[wave], np.zeros((wave.size, spec.m)), params.tau,
            substeps, check_finite=False))
        next_wave = []
        for x, y in zip(wave.tolist(), targets.tolist()):
            if status[x] != QUEUED:
                continue
            steps += 1
            if y < 0 or status[y] == BAD:
                steps += backprop_blocking(status, trans, preds, x)
                continue
            Z = flow_many(plant, np.repeat(st_pts[[x]], n_u, axis=0), u_pts,
                          params.tau, substeps, check_finite=False)
            d = np.max(np.abs(Z - st_pts[y]), axis=1)
            d[st_lat.quantize_many(Z) != y] = np.inf
            steps += n_u
            u = int(np.argmin(d))
            if np.isinf(d[u]):
                steps += backprop_blocking(status, trans, preds, x)
                continue
            trans[x] = (u, y)
            preds.setdefault(y, []).append(x)
            status[x] = CONTROLLED
            if status[y] == UNSEEN:
                status[y] = QUEUED
                next_wave.append(y)
        across += len(recorded - set(trans))
        wave = np.asarray(next_wave, dtype=np.int64)
    if stats is not None:
        stats.update(waves=waves, across=across)
    t = np.asarray([(x, u, y) for x, (u, y) in trans.items()],
                   dtype=np.int64).reshape(-1, 3)
    bad = np.flatnonzero(status == BAD)
    ctrl = Controller(t, x0[status[x0] == CONTROLLED], bad, st_lat, in_lat)
    return (ctrl, len(trans), integrated_memory_units(len(trans), bad.size),
            steps)


def assert_matches_full_scan(plant, spec, params, substeps, stats=None):
    """Asserts the route equals the full scan; returns its controller and
    metrics."""
    ctrl, m = synthesize_integrated(plant, spec, params, substeps, force=True)
    ref, states, memory, steps = full_scan_reference(plant, spec, params,
                                                     substeps, stats)
    assert np.array_equal(ctrl.transitions, ref.transitions)
    assert np.array_equal(ctrl.initials, ref.initials)
    assert np.array_equal(ctrl.bad, ref.bad)
    assert (m.states, m.transitions, m.memory_units, m.steps) == \
        (states, states, memory, steps)
    return ctrl, m


def test_pruned_scan_equals_full_scan_on_random_problems(monkeypatch):
    seen = {"examples": 0, "pruned": 0, "controlled": 0, "pruning": False}
    decide = abstraction._decide

    def counting(*args):
        keep, cell = decide(*args)
        seen["pruning"] |= not keep.all()
        return keep, cell

    monkeypatch.setattr(abstraction, "_decide", counting)

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(problems())
    def check(problem):
        seen["pruning"] = False
        plant, spec, params, substeps = problem
        ctrl, _ = assert_matches_full_scan(plant, spec, params, substeps)
        seen["examples"] += 1
        seen["pruned"] += seen["pruning"]
        seen["controlled"] += ctrl.n_transitions > 0

    check()
    # the draws must exercise the pruning on problems that control something
    assert seen["pruned"] >= seen["examples"] // 3
    assert seen["controlled"] >= seen["examples"] // 2

    waves = []

    @settings(derandomize=True, max_examples=MULTI_WAVE_DRAWS, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(problems(drifting=True))
    def check_drifting(problem):
        stats = {}
        assert_matches_full_scan(*problem, stats=stats)
        waves.append((stats["waves"], stats["across"]))

    check_drifting()
    # the next-wave logic, and blocking states back-propagated into the
    # transitions of earlier waves, must both be exercised
    assert sum(w > 1 for w, _ in waves) >= len(waves) // 3
    assert sum(across > 0 for _, across in waves) >= len(waves) // 10


# ---- the benchmark problems ----------------------------------------------------

def test_pruned_scan_equals_full_scan_on_linear_1():
    # 201 inputs, as in the linear-pair benchmark workload; coarser states
    plant, spec, params = linear_pair(1)
    params = SynthesisParams(epsilon=params.epsilon, theta_p=params.theta_p,
                             theta_q=params.theta_q, tau=params.tau,
                             eta=0.02, mu=0.01)
    _, m = assert_matches_full_scan(plant, spec, params, 50)
    assert m.rows_flowed * 5 < m.steps  # steps: 201 per scanned state


def test_pruned_scan_equals_full_scan_on_nonlinear():
    plant, spec, params = nonlinear_pair()
    params = SynthesisParams(epsilon=params.epsilon, theta_p=params.theta_p,
                             theta_q=params.theta_q, tau=params.tau,
                             eta=0.125, mu=0.01)
    _, m = assert_matches_full_scan(plant, spec, params, 50)
    assert m.rows_flowed * 2 < m.steps  # steps: 201 per scanned state


def test_pruned_scan_under_thread_stress(monkeypatch):
    # the scan's workers hand their landing rows over from several threads
    # at once: with more workers than cores, short tiles and frequent thread
    # switches, a lost or misplaced row would change the controller
    plant, spec, params = linear_pair(1)
    params = SynthesisParams(epsilon=params.epsilon, theta_p=params.theta_p,
                             theta_q=params.theta_q, tau=params.tau,
                             eta=0.02, mu=0.005)
    ref, states, memory, steps = full_scan_reference(plant, spec, params, 10)
    monkeypatch.setattr(dynamics, "TILE_ROWS", 97)
    monkeypatch.setenv("SYMCTRL_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ctrl, m = synthesize_integrated(plant, spec, params, 10, force=True)
    finally:
        sys.setswitchinterval(interval)
    assert ctrl.same_as(ref) and np.array_equal(ctrl.bad, ref.bad)
    assert (m.states, m.memory_units, m.steps) == (states, memory, steps)
    assert ctrl.n_transitions > 50 and m.rows_flowed * 4 < m.steps


def one_dimensional_pair(plant_text, spec_text, r, eta, mu, tau):
    plant = ControlSystem(
        n=1, m=1, state_box=[[-1, 1]], init_box=[[-0.5, 0.5]],
        input_box=[[-r, r]], field=(parse_expression(plant_text, 1, 1),),
        certificate=StabilityCertificate(1.0, 1.0, 1.0, 1.0))
    spec = ControlSystem(
        n=1, m=0, state_box=[[-1, 1]], init_box=[[-0.5, 0.5]], input_box=[],
        field=(parse_expression(spec_text, 1, 0),),
        certificate=StabilityCertificate(1.0, 1.0))
    params = SynthesisParams(epsilon=1.0, theta_p=0.5, theta_q=0.5, tau=tau,
                             eta=eta, mu=mu)
    return plant, spec, params


@pytest.mark.parametrize("a, tau, substeps", [(2.0, 0.4, 1), (1.0, 0.5, 2)])
def test_pruned_scan_equals_full_scan_on_an_unstable_plant(a, tau, substeps):
    # on dx = a x + u, a > 0, one RK4 substep moves the endpoint by
    # h (1 + ha/2 + (ha)^2/6 + (ha)^3/24) per unit of input, more than the
    # first-order h: a bound without the higher-order terms prunes inputs
    # that land
    plant, spec, params = one_dimensional_pair(f"{a}*x1 + u1", "-x1", 3.0,
                                               0.01, 0.005, tau)
    ctrl, m = assert_matches_full_scan(plant, spec, params, substeps)
    assert ctrl.n_transitions > 50 and m.rows_flowed * 10 < m.steps


def test_unbounded_derivative_keeps_every_input(monkeypatch):
    # sqrt(abs(u1)) has no bounded derivative on an input box holding 0: no
    # state has a sure bound, so every input is flowed, and the result
    # still equals the full scan
    kept = []
    decide = abstraction._decide
    monkeypatch.setattr(abstraction, "_decide",
                        lambda *args: kept.append(decide(*args)) or kept[-1])
    plant, spec, params = one_dimensional_pair(
        "-x1 + u1 + 0.1*sqrt(abs(u1))", "-x1", 0.5, 0.05, 0.02, 0.5)
    ctrl, _ = assert_matches_full_scan(plant, spec, params, 10)
    assert ctrl.n_transitions > 0
    assert kept and all(keep.all() for keep, _ in kept)


# every input of |u| > 0.3 overflows, the corners' included: the level after
# the corners is flowed in a pass of its own, and the chords of its finite
# rows decide the rows between them; a row without one is flowed
OVERFLOWING = (
    ControlSystem(n=1, m=1, state_box=[[-1, 1]], init_box=[[-1, 1]],
                  input_box=[[-2, 2]],
                  field=(parse_expression("-1*x1 + 8e307*u1", 1, 1),)),
    AbstractionSpec(tau=1.0, eta=0.05, mu=0.05, substeps=10))


def test_pruned_scan_equals_full_scan_on_affine_plants():
    # the chord of the input box's corners proves the misses against each
    # state's target cell, with one and two inputs, and where some corners
    # overflow, so that their chords are NaN or huge
    seen = {"examples": 0, "controlled": 0, "overflowed": 0, "inputs": set()}

    @settings(derandomize=True, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(affine_plants())
    @example(OVERFLOWING)
    @example(STIFF_AFFINE["1d-ha-1.8"])
    def check(problem):
        plant, quant = problem
        spec = ControlSystem(
            n=plant.n, m=0, state_box=plant.state_box,
            init_box=plant.init_box, input_box=[],
            field=tuple(parse_expression(f"-0.5*x{i + 1}", plant.n, 0)
                        for i in range(plant.n)))
        params = SynthesisParams(epsilon=1.0, theta_p=0.5, theta_q=0.5,
                                 tau=quant.tau, eta=quant.eta, mu=quant.mu)
        ctrl, m = assert_matches_full_scan(plant, spec, params, quant.substeps)
        finite = np.isfinite(flow_many(
            plant, np.repeat(ctrl.outputs, ctrl.n_inputs, axis=0),
            np.tile(ctrl.inputs, (ctrl.n_states, 1)), quant.tau,
            quant.substeps, check_finite=False)).all(axis=1)
        seen["examples"] += 1
        seen["controlled"] += ctrl.n_transitions > 0
        # rows decided on a plant that overflows on some rows: fewer plant
        # and specification rows flowed than the plant has
        seen["overflowed"] += (0 < finite.sum() < finite.size
                               and m.rows_flowed < finite.size)
        seen["inputs"].add(plant.m)

    check()
    assert seen["inputs"] == {1, 2}
    assert seen["controlled"] >= seen["examples"] // 4, seen
    assert seen["overflowed"] > 0, seen


def test_affine_plants_never_touch_the_growth_bound(monkeypatch):
    # the chord decides an affine plant's rows in both routes: no growth
    # bound is built or asked, and no radius is computed, on a plant whose
    # corners are finite and on one where some overflow
    def refuse(*args, **kwargs):
        raise AssertionError("an affine plant reached the growth bound")

    monkeypatch.setattr(abstraction, "_radii", refuse)
    monkeypatch.setattr(abstraction._GrowthBound, "__init__", refuse)
    monkeypatch.setattr(abstraction._GrowthBound, "gains", refuse)
    plant, spec, params = linear_pair(1)
    params = SynthesisParams(epsilon=params.epsilon, theta_p=params.theta_p,
                             theta_q=params.theta_q, tau=params.tau,
                             eta=0.02, mu=0.01)
    assert_matches_full_scan(plant, spec, params, 50)
    assert_matches_full_sweep(plant, AbstractionSpec(params.tau, params.eta,
                                                     params.mu, 50))
    assert_matches_full_sweep(*OVERFLOWING)


def test_growth_bound_holds_on_sampled_rows():
    # G |du| bounds the distance of any two endpoints from one state; the
    # bound is close to the largest distance seen on linear #1
    plant, spec, params = linear_pair(1)
    u_pts = np.linspace(-2.0, 2.0, 201)[:, None]
    bound = abstraction._GrowthBound(plant, u_pts, params.tau, 50,
                                   np.array([0.2]), 1.0)
    rng = np.random.default_rng(2)
    X = np.repeat(rng.uniform(-0.5, 0.5, (20, 2)), 201, axis=0)
    U = np.tile(u_pts, (20, 1))
    Z = flow_many(plant, X, U, params.tau, 50).reshape(20, 201, 2)
    G, sure = bound.gains(X[::201] - 1.0, X[::201] + 1.0)
    assert sure.all()
    step = u_pts[1, 0] - u_pts[0, 0]
    seen = np.max(np.abs(np.diff(Z, axis=1)), axis=(0, 1)) / step
    assert np.all(seen <= G[0, :, 0])
    assert np.all(G[0, :, 0] <= 1.5 * seen)


def test_gains_on_a_subset_equal_the_rows_of_gains_on_all():
    # each box is decided on its own, over as many rounds as it needs: the
    # gains of any subset of the boxes are the matching rows of the gains
    # of all of them, bit for bit
    plant, _, params = nonlinear_pair()
    u_pts = np.linspace(*plant.input_box[0], 101)[:, None]
    bound = abstraction._GrowthBound(plant, u_pts, params.tau, 50,
                                   np.array([0.1]), 1.0)
    rng = np.random.default_rng(5)
    box = plant.state_box
    centre = rng.uniform(box[:, 0], box[:, 1], (400, 3))
    width = rng.uniform(0.0, 0.6, (400, 3))
    G, sure = bound.gains(centre - width, centre + width)
    assert 0 < sure.sum() < 400
    for size in (1, 37, 200):
        sub = rng.choice(400, size, replace=False)
        Gs, ss = bound.gains(centre[sub] - width[sub], centre[sub] + width[sub])
        assert np.array_equal(Gs, G[sub]) and np.array_equal(ss, sure[sub])
