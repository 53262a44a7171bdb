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

from symctrl import (AbstractionSpec, ControlSystem, Controller, Lattice,
                     StabilityCertificate, SynthesisParams, abstraction,
                     dynamics, flow_many, parse_expression, synthesis,
                     synthesize_integrated)
from symctrl.synthesis import integrated_memory_units, shared_lattices

from _systems import (MULTI_WAVE_DRAWS, STIFF_AFFINE, affine_plants,
                      linear_pair, nonlinear_pair, problems)
from test_abstraction import LANDING_PROBLEMS, assert_matches_full_sweep

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


def off_the_box(split, E, pad, P, half, K):
    """Over the rows (state s, split.inputs[f]) that abstraction._decide
    decides from these arguments, whether the row's chord, padded as the
    proof pads it, lies off its state's box on some axis: the rows the
    proof drops as misses."""
    off = np.zeros((P.shape[0], split.inputs.size), dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        for ax, e in enumerate(E):
            c = e.T @ split.weight
            m2 = 2.0 * pad[ax][:, None]
            if K is not None:
                m2 = m2 + K[:, ax] @ split.curv
            off |= c < P[:, ax, None] - half[ax] - m2
            off |= c > P[:, ax, None] + half[ax] + m2
    return off


def test_pruned_scan_equals_full_scan_on_random_problems(monkeypatch):
    seen = {"examples": 0, "pruned": 0, "controlled": 0, "pruning": False}
    # the draws in which the distance bound dropped rows, by their count
    # before them
    skipped = set()
    decide = abstraction._decide

    def counting(split, E, pad, lat, P, half, lands, K):
        keep = decide(split, E, pad, lat, P, half, lands, K)
        seen["pruning"] |= not keep.all()
        # the scan's rows dropped with a padded chord that is not off the
        # box: dropped as farther from the centre than a landing
        if lands is None and np.any(~keep & ~off_the_box(split, E, pad, P,
                                                         half, K)):
            skipped.add(seen["examples"])
        return keep

    monkeypatch.setattr(abstraction, "_decide", counting)
    for problem in problems(100, seed=1):
        seen["pruning"] = False
        ctrl, _ = assert_matches_full_scan(*problem)
        seen["examples"] += 1
        seen["pruned"] += seen["pruning"]
        seen["controlled"] += ctrl.n_transitions > 0
    # the draws must exercise the pruning on problems that control something,
    # and the distance bound's skips among it
    assert seen["pruned"] >= seen["examples"] // 3
    assert seen["controlled"] >= seen["examples"] // 2
    assert len(skipped) >= seen["examples"] // 4

    waves = []
    for problem in problems(MULTI_WAVE_DRAWS, seed=2, drifting=True):
        stats = {}
        assert_matches_full_scan(*problem, stats=stats)
        waves.append((stats["waves"], stats["across"]))
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


def benchmark_problem(pair, eta=None):
    """A benchmark workload's timed problem, in the form of `problems()`:
    mu = 0.01 and 50 substeps, and eta where given."""
    plant, spec, params = pair()
    return plant, spec, SynthesisParams(
        epsilon=params.epsilon, theta_p=params.theta_p,
        theta_q=params.theta_q, tau=params.tau, eta=eta or params.eta,
        mu=0.01), 50


@pytest.mark.parametrize("problem", [
    benchmark_problem(lambda: linear_pair(1)),
    benchmark_problem(nonlinear_pair, 1 / 15), *LANDING_PROBLEMS],
    ids=["linear-pair", "nonlinear-pair", "landing-linear",
         "landing-nonlinear"])
def test_rows_the_distance_bound_skips_are_not_nearest(monkeypatch, problem):
    # every row the scan's proof dropped (abstraction._decide without
    # `lands`), flowed: it misses its state's target cell, or lands
    # strictly farther from the centre than the input the scan chose
    plant, spec, params, substeps = problem
    skips, rows = [], []
    decide, scan = abstraction._decide, synthesis._scan_inputs

    def recording_decide(split, E, pad, lat, P, half, lands, K):
        keep = decide(split, E, pad, lat, P, half, lands, K)
        if lands is None:
            src, f = np.nonzero(~keep)
            skips.append((src, split.inputs[f]))
        return keep

    def recording_scan(engine, st_pts, xs, ys):
        # one engine run, so at most one call of _decide, per scan
        mark = len(skips)
        choice, flowed = scan(engine, st_pts, xs, ys)
        for src, u in skips[mark:]:
            rows.append((xs[src], ys[src], choice[src], u))
        return choice, flowed

    monkeypatch.setattr(abstraction, "_decide", recording_decide)
    monkeypatch.setattr(synthesis, "_scan_inputs", recording_scan)
    synthesize_integrated(plant, spec, params, substeps, force=True)
    x, y, chosen, u = (np.concatenate(a) for a in zip(*rows))
    st_lat, in_lat, _ = shared_lattices(plant, spec, params)
    st_pts, u_pts = st_lat.points(), in_lat.points()

    def flow(inputs):
        # whether each row lands in its target cell, and its distance to
        # the centre
        Z = flow_many(plant, st_pts[x], u_pts[inputs], params.tau, substeps,
                      check_finite=False)
        return (st_lat.quantize_many(Z) == y,
                np.max(np.abs(Z - st_pts[y]), axis=1))

    lands, d = flow(u)
    assert np.all(chosen[lands] >= 0)
    _, d_chosen = flow(np.maximum(chosen, 0))
    assert np.all(~lands | (d > d_chosen))
    # rows that land, farther out, are dropped as well as misses
    assert lands.any()


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
    assert kept and all(keep.all() for keep in kept)


# every input of |u| > 0.3 overflows, the corners' included: every state has
# a corner that is not finite, so its chords are NaN and all its rows are
# flowed
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
    for plant, quant in [OVERFLOWING, STIFF_AFFINE["1d-ha-1.8"],
                         *affine_plants(60, seed=3)]:
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
        # a plant that overflows on some rows
        seen["overflowed"] += 0 < finite.sum() < finite.size
        seen["inputs"].add(plant.m)
    assert seen["inputs"] == {1, 2}
    assert seen["controlled"] >= seen["examples"] // 4, seen
    assert seen["overflowed"] > 0, seen


def test_affine_plants_never_touch_the_growth_bound(monkeypatch):
    # an affine plant's chord is exact in both routes: no growth or
    # curvature bound is built or asked, on a plant whose corners are
    # finite and on one where some overflow
    def refuse(*args, **kwargs):
        raise AssertionError("an affine plant reached the growth bound")

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
    # bound is close to the largest distance seen on linear #1, and the
    # plant's curvature bound is 0
    plant, spec, params = linear_pair(1)
    u_pts = np.linspace(-2.0, 2.0, 201)[:, None]
    bound = abstraction._GrowthBound(plant, u_pts, params.tau, 50,
                                   np.array([0.2]), 1.0)
    rng = np.random.default_rng(2)
    X = np.repeat(rng.uniform(-0.5, 0.5, (20, 2)), 201, axis=0)
    U = np.tile(u_pts, (20, 1))
    Z = flow_many(plant, X, U, params.tau, 50).reshape(20, 201, 2)
    # K is computed over the boxes that fit the region: any, with g = inf
    b = bound._at(X[::201] - 1.0, X[::201] + 1.0, np.inf)
    assert b.ok.all() and b.fits.all() and not b.K.any()
    step = u_pts[1, 0] - u_pts[0, 0]
    seen = np.max(np.abs(np.diff(Z, axis=1)), axis=(0, 1)) / step
    assert np.all(seen <= b.G[0, :, 0])
    assert np.all(b.G[0, :, 0] <= 1.5 * seen)


@pytest.mark.parametrize("substeps", [1, 2, 3, 49, 50, 64])
def test_powering_equals_the_substep_recursion(substeps):
    # _at sums the input's term B and the curvature's term C through the
    # substep gain A by binary powering.  The plain recursion S_(k+1) =
    # A S_k + C, substep by substep, gives the same G and K up to rounding,
    # and its largest partial sum before the last substep, by which the
    # stage points are sized, is the last one, R: A, B and C are >= 0
    # wherever a box is ok.  h is the engine's tau / 50 at every count, so
    # that the same random boxes of the nonlinear plant are ok
    plant, _, params = nonlinear_pair()
    u_pts = np.linspace(*plant.input_box[0], 101)[:, None]
    bound = abstraction._GrowthBound(plant, u_pts,
                                   params.tau * substeps / 50, substeps,
                                   np.array([0.1]), 1.0)
    rng = np.random.default_rng(substeps)
    box = plant.state_box
    centre = rng.uniform(box[:, 0], box[:, 1], (300, 3))
    width = rng.uniform(0.0, 0.6, (300, 3))
    b = bound._at(centre - width, centre + width, np.inf)
    ok = b.ok
    assert ok.sum() >= 250 and np.array_equal(b.fits, ok)
    assert np.all(b.A[ok] >= 0.0) and np.all(b.B[ok] >= 0.0)
    assert np.all(b.C >= 0.0)

    def recursion(A, C):
        S, partial = np.zeros_like(C), []
        for _ in range(substeps):
            partial.append(S)
            S = np.einsum("...ij,...jk->...ik", A, S) + C
        return S, partial

    G, partial = recursion(b.A[ok], b.B[ok])
    assert np.array_equal(np.max(partial, axis=0), partial[-1])
    np.testing.assert_allclose(b.R[ok], partial[-1], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(b.G[ok], G, rtol=1e-12, atol=0.0)
    K, _ = recursion(b.A[ok], b.C)
    assert np.all(K > 0.0)
    np.testing.assert_allclose(b.K, K, rtol=1e-12, atol=0.0)


def test_gains_on_a_subset_equal_the_rows_of_gains_on_all():
    # each box is decided on its own, over as many rounds as it needs: the
    # curvature bounds of any subset of the boxes are the matching rows of
    # those of all of them, bit for bit
    plant, _, params = nonlinear_pair()
    u_pts = np.linspace(*plant.input_box[0], 101)[:, None]
    bound = abstraction._GrowthBound(plant, u_pts, params.tau, 50,
                                   np.array([0.1]), 1.0)
    rng = np.random.default_rng(5)
    box = plant.state_box
    centre = rng.uniform(box[:, 0], box[:, 1], (400, 3))
    width = rng.uniform(0.0, 0.6, (400, 3))
    K, sure = bound.gains(centre - width, centre + width)
    assert 0 < sure.sum() < 400 and K[sure].all()
    for size in (1, 37, 200):
        sub = rng.choice(400, size, replace=False)
        Ks, ss = bound.gains(centre[sub] - width[sub], centre[sub] + width[sub])
        assert np.array_equal(Ks, K[sub]) and np.array_equal(ss, sure[sub])


def test_curvature_bound_holds_on_sampled_rows():
    # K bounds the endpoint's second derivative in the input, so every row
    # ends within sum_a K curv[a] of the chord of its coarse cell's corners,
    # the pad the proof gives it (_decide).  Sampled over every input of
    # random states of the nonlinear plant at mu = 0.01 (11 coarse inputs),
    # with the region the engine draws from the coarse rows' stage points.
    # x3' = -3 x3 + 0.75 u1^2 is decoupled from the other axes, and its
    # exact flow has d^2 x3 / du1^2 = 0.5 (1 - e^-3) at tau = 1: the
    # bound of the RK4 map is within 1.1 times it
    plant, _, params = nonlinear_pair()
    st_lat = Lattice(plant.state_box, 2.0 / 15.0)
    engine = abstraction.RowEngine(
        plant, st_lat, Lattice(plant.input_box, 0.02), params.tau, 50)
    split = engine.split
    assert split.coarse.size == 11 and np.allclose(split.reach, 0.1)
    rng = np.random.default_rng(11)
    X = st_lat.points()[rng.choice(st_lat.n_points, 200, replace=False)]
    Zc, lo, hi = dynamics._flow_tile(
        plant, np.repeat(X, split.coarse.size, axis=0),
        np.tile(engine.inputs[split.coarse], (200, 1)), params.tau, 50,
        hull=True)
    K, sure = engine.bound.gains(lo.reshape(200, -1, 3).min(axis=1),
                                 hi.reshape(200, -1, 3).max(axis=1))
    # a region that may hold stiffer stage points is refused
    assert sure.sum() >= 180
    X, K, Zc = X[sure], K[sure], Zc.reshape(200, -1, 3)[sure]
    exact = 0.5 * (1.0 - np.exp(-3.0))
    assert np.all((exact <= K[:, 2, 0]) & (K[:, 2, 0] <= 1.1 * exact))
    S = X.shape[0]
    Z = flow_many(plant, np.repeat(X, split.inputs.size, axis=0),
                  np.tile(engine.inputs[split.inputs], (S, 1)), params.tau,
                  50).reshape(S, -1, 3)
    chord = np.einsum("scx,cf->sfx", Zc, split.weight)
    pad = np.einsum("sxa,af->sfx", K, split.curv)
    err = np.abs(Z - chord)
    # the kernel's rounding, which the proof pads separately
    assert np.all(err <= pad + 1e-12)
    # on every axis, some row's error reaches a twentieth of its pad
    assert np.all(np.max(err / pad, axis=(0, 1)) > 0.05)
