"""The pruned input scan of the integrated route against a full scan.

`full_scan_reference` is the integrated route with no grouping and no
pruning: for each state it flows every input.  The route must give the
same controller rows, bad set and counters on random small plant and
specification pairs, whose fields are drawn from the expression grammar
(blow-ups and domain exits included), and on the benchmark problems.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symctrl import (ControlSystem, Controller, StabilityCertificate,
                     SynthesisParams, backprop_blocking, flow_many,
                     parse_expression, synthesis, synthesize_integrated)
from symctrl.abstraction import initial_indices, input_points
from symctrl.synthesis import (BAD, CONTROLLED, QUEUED, UNSEEN,
                               integrated_memory_units, shared_lattices)

from _systems import linear_pair, nonlinear_pair


def full_scan_reference(plant, spec, params, substeps):
    """(controller, states, memory units, steps) of the integrated route,
    flowing every input of every scanned state."""
    st_lat, in_lat, init_box = shared_lattices(plant, spec, params)
    if init_box is None:
        return Controller([], [], [], st_lat, in_lat), 0, 0, 0
    u_pts = input_points(plant, params.mu if plant.m else None)
    n_u = u_pts.shape[0]
    st_pts = st_lat.points()
    status = np.full(st_lat.n_points, UNSEEN, dtype=np.int8)
    trans, preds = {}, {}
    steps = 0
    x0 = initial_indices(st_lat, init_box)
    wave = x0
    status[wave] = QUEUED
    while wave.size:
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
        wave = np.asarray(next_wave, dtype=np.int64)
    t = np.asarray([(x, u, y) for x, (u, y) in trans.items()],
                   dtype=np.int64).reshape(-1, 3)
    bad = np.flatnonzero(status == BAD)
    ctrl = Controller(t, x0[status[x0] == CONTROLLED], bad, st_lat, in_lat)
    return (ctrl, len(trans), integrated_memory_units(len(trans), bad.size),
            steps)


def assert_matches_full_scan(plant, spec, params, substeps):
    """Asserts the route equals the full scan; returns its controller and
    metrics."""
    ctrl, m = synthesize_integrated(plant, spec, params, substeps, force=True)
    ref, states, memory, steps = full_scan_reference(plant, spec, params,
                                                     substeps)
    assert np.array_equal(ctrl.transitions, ref.transitions)
    assert np.array_equal(ctrl.initials, ref.initials)
    assert np.array_equal(ctrl.bad, ref.bad)
    assert (m.states, m.transitions, m.memory_units, m.steps) == \
        (states, states, memory, steps)
    return ctrl, m


# ---- random problems ----------------------------------------------------------

def _constant():
    return st.floats(-2.0, 2.0, allow_nan=False).map(lambda v: repr(round(v, 3)))


def terms(names):
    """Expression text over `names`: the four operators, the five functions
    and integer and fractional powers.  Division, sqrt and the powers -1
    and 0.5 are drawn less often: near 0 their derivatives are unbounded,
    so the scan keeps every input of the states that reach there."""
    leaf = st.one_of(st.sampled_from(names), _constant())

    def grow(kids):
        return st.one_of(
            st.tuples(kids, st.sampled_from("++--**/"), kids).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(("sin", "cos", "exp", "abs") * 2
                                      + ("sqrt",)),
                      kids).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(kids, st.sampled_from(("2", "3") * 2 + ("-1", "0.5"))
                      ).map(lambda t: f"({t[0]})^{t[1]}"))
    return st.recursive(leaf, grow, max_leaves=4)


# terms that blow up, leave the domain or stiffen the flow on parts of the
# box; "0" is drawn two times in three
BLOW_UPS = ("0",) * 12 + ("4*x1^3", "exp(5*x1)", "1/(x1 - 0.3)",
                          "sqrt(x1 + 0.4)", "-20*x1", "abs(x1)^0.5")

# state points per axis: 2k + 1 for k up to STATE_HALF[n]; input points per
# axis: 2k + 1 for k from 2 up to INPUT_HALF[m]
STATE_HALF = {1: 12, 2: 5, 3: 3}
INPUT_HALF = {1: 40, 2: 5}


@st.composite
def problems(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    xs = [f"x{i + 1}" for i in range(n)]
    us = [f"u{j + 1}" for j in range(m)]
    w = draw(st.floats(0.5, 1.5))
    eta = w / draw(st.integers(2, STATE_HALF[n])) / 2.0
    r = draw(st.floats(0.5, 2.0))
    mu = r / draw(st.integers(2, INPUT_HALF[m])) / 2.0
    tau = draw(st.floats(0.2, 1.0))
    substeps = draw(st.sampled_from((1, 2) + (5, 10) * 3))
    spec_field, plant_field = [], []
    for i in range(n):
        a = draw(st.floats(0.5, 3.0))
        b = draw(st.floats(-0.5, 0.5))
        spec_i = f"{-a}*x{i + 1} + {b}*{draw(terms(xs))}"
        gains = " + ".join(
            f"{draw(st.sampled_from((-1, 1))) * draw(st.floats(0.5, 2.0))}*{u}"
            for u in us)
        d = draw(st.floats(-0.2, 0.2))
        blow = draw(st.sampled_from(BLOW_UPS))
        # the plant may be unstable where the specification is not: there
        # RK4's higher-order terms raise the growth above the first-order one
        k = draw(st.floats(0.0, 3.0))
        plant_field.append(f"{spec_i} + {k}*x{i + 1} + {gains} + "
                           f"{d}*{draw(terms(xs + us))} + {blow}")
        spec_field.append(spec_i)
    box = [[-w, w]] * n
    init = [[-w / 2, draw(st.floats(0.0, w / 2))]] * n
    plant = ControlSystem(
        n=n, m=m, state_box=box, init_box=init, input_box=[[-r, r]] * m,
        field=tuple(parse_expression(t, n, m) for t in plant_field),
        certificate=StabilityCertificate(1.0, 1.0, 1.0, 1.0))
    spec = ControlSystem(
        n=n, m=0, state_box=box, init_box=init, input_box=[],
        field=tuple(parse_expression(t, n, 0) for t in spec_field),
        certificate=StabilityCertificate(1.0, 1.0))
    params = SynthesisParams(epsilon=1.0, theta_p=0.5, theta_q=0.5, tau=tau,
                             eta=eta, mu=mu)
    return plant, spec, params, substeps


def test_pruned_scan_equals_full_scan_on_random_problems(monkeypatch):
    seen = {"examples": 0, "pruned": 0, "controlled": 0, "pruning": False}
    fine_to_flow = synthesis._fine_to_flow

    def counting(*args):
        keep = fine_to_flow(*args)
        seen["pruning"] |= not keep.all()
        return keep

    monkeypatch.setattr(synthesis, "_fine_to_flow", counting)

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
    fine_to_flow = synthesis._fine_to_flow
    monkeypatch.setattr(synthesis, "_fine_to_flow",
                        lambda *args: kept.append(fine_to_flow(*args))
                        or kept[-1])
    plant, spec, params = one_dimensional_pair(
        "-x1 + u1 + 0.1*sqrt(abs(u1))", "-x1", 0.5, 0.05, 0.02, 0.5)
    ctrl, _ = assert_matches_full_scan(plant, spec, params, 10)
    assert ctrl.n_transitions > 0
    assert kept and all(keep.all() for keep in kept)


def test_growth_bound_holds_on_sampled_rows():
    # G |du| bounds the distance of any two endpoints from one state; the
    # bound is close to the largest distance seen on linear #1
    plant, spec, params = linear_pair(1)
    u_pts = np.linspace(-2.0, 2.0, 201)[:, None]
    bound = synthesis._GrowthBound(plant, u_pts, params.tau, 50,
                                   np.array([0.2]))
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
