import dataclasses

import numpy as np
import pytest

from symctrl import (ClosedLoopTrace, UncontrolledStateError, Controller,
                     conformance_report, flow_many, loop,
                     simulate_closed_loop, synthesize_baseline,
                     synthesize_integrated)
from symctrl.dynamics import DEFAULT_SUBSTEPS, ROW_TILE, _flow_tile

from _systems import linear_pair, nonlinear_pair, toy_pair


def toy_controller():
    plant, spec, params = toy_pair()
    ctrl, _ = synthesize_integrated(plant, spec, params)
    return plant, spec, params, ctrl


def test_zero_steps_trace():
    plant, spec, params, ctrl = toy_controller()
    x0 = np.array([-0.26])  # inside the init box, off-lattice
    trace = simulate_closed_loop(plant, spec, ctrl, x0, 0, params)
    assert trace.states.shape == (1, 1)
    assert trace.inputs.shape == (0, 1)
    assert trace.deviations[0] < params.eta


def test_lengths_consistent():
    plant, spec, params, ctrl = toy_controller()
    x0 = ctrl.state_lattice.point(int(ctrl.initials[0]))
    trace = simulate_closed_loop(plant, spec, ctrl, x0, 7, params)
    assert trace.states.shape[0] == 8
    assert trace.inputs.shape[0] == 7
    assert trace.spec_states.shape == trace.states.shape
    assert trace.deviations.shape == (8,)


def test_plant_equals_spec_deviation_bounded_by_quantization():
    # toy plant under the matching zero input equals the spec, so running
    # both flows directly (plant from x0, spec from the quantized x0) keeps
    # the deviation below the initial quantization error
    from symctrl import flow
    plant, spec, params, ctrl = toy_controller()
    x = np.array([-0.24])
    s = ctrl.state_lattice.quantize_point(x)
    for _ in range(20):
        assert abs(x[0] - s[0]) <= 2 * params.eta
        x = flow(plant, x, [0.0], params.tau)
        s = flow(spec, s, [], params.tau)


def test_closed_loop_off_lattice_start_conforms():
    plant, spec, params, ctrl = toy_controller()
    trace = simulate_closed_loop(plant, spec, ctrl, np.array([-0.24]), 20,
                                 params)
    assert trace.max_deviation <= params.epsilon


def test_conformance_pass_and_argmax():
    states = np.zeros((4, 1))
    spec_states = np.asarray([[0.0], [0.05], [0.3], [0.1]])
    trace = ClosedLoopTrace(states=states, inputs=np.zeros((3, 1)),
                            spec_states=spec_states,
                            deviations=np.abs(states - spec_states).max(axis=1))
    rep = conformance_report(trace, 0.2)
    assert not rep.passed
    assert rep.argmax_step == 2
    assert rep.max_deviation == 0.3
    assert conformance_report(trace, 0.5).passed


def test_identical_traces_pass_any_eps():
    states = np.linspace(0, 1, 5).reshape(-1, 1)
    trace = ClosedLoopTrace(states=states, inputs=np.zeros((4, 1)),
                            spec_states=states.copy(),
                            deviations=np.zeros(5))
    assert conformance_report(trace, 0.0).passed


def test_x0_outside_init_box_rejected():
    plant, spec, params, ctrl = toy_controller()
    with pytest.raises(ValueError):
        simulate_closed_loop(plant, spec, ctrl, [0.9], 5, params)


def test_x0_not_an_initial_cell_rejected():
    plant, spec, params, ctrl = toy_controller()
    # a state-box point outside the initial set
    with pytest.raises(ValueError):
        simulate_closed_loop(plant, spec, ctrl, [0.4], 5, params)


def test_uncontrolled_state_detected():
    plant, spec, params, ctrl = toy_controller()
    # keep only the first initial state's transition: its successor has no
    # outgoing transition any more, so the loop starves after one step
    first = int(ctrl.initials[0])
    row = ctrl.transitions[ctrl.transitions[:, 0] == first]
    crippled = Controller(row, [first], [], ctrl.state_lattice,
                          ctrl.input_lattice)
    x0 = ctrl.state_lattice.point(first)
    if int(row[0, 2]) != first:  # successor differs, so step 2 must starve
        with pytest.raises(UncontrolledStateError) as info:
            simulate_closed_loop(plant, spec, crippled, x0, 20, params)
        x = [float(v) for v in info.value.state]
        assert str(info.value) == \
            f"uncontrolled state at step {info.value.step}: {x}"
    # plain floats, not numpy reprs
    err = UncontrolledStateError(3, np.array([0.5, -0.25]))
    assert str(err) == "uncontrolled state at step 3: [0.5, -0.25]"


def test_closed_loop_conformance_over_initial_cells():
    # the toy's integrated controller, and both routes' controllers of linear
    # example #1 at mu = 0.01 (the benchmark's linear-pair problem)
    plant, spec, params, ctrl = toy_controller()
    runs = [(plant, spec, params, ctrl)]
    plant, spec, params = linear_pair(1)
    params = dataclasses.replace(params, mu=0.01)
    for synthesize in (synthesize_integrated, synthesize_baseline):
        runs.append((plant, spec, params,
                     synthesize(plant, spec, params)[0]))
    for plant, spec, params, ctrl in runs:
        assert ctrl.initials.size >= 10
        for idx in ctrl.initials:
            x0 = ctrl.state_lattice.point(int(idx))
            trace = simulate_closed_loop(plant, spec, ctrl, x0, 20, params)
            assert conformance_report(trace, params.epsilon).passed


def recomputing_loop(plant, spec, ctrl, x0, steps, params,
                     landings_of=flow_many):
    """The closed loop with the landing argmin recomputed at every step,
    from the landings `landings_of` flows; returns the states, spec states,
    inputs and visited symbolic states."""
    lattice, u_values = ctrl.state_lattice, ctrl.input_values()
    c = int(lattice.quantize_index(x0))
    x, s = x0, lattice.point(c)
    xs, ss, us, cells = [x], [s], [], []
    for _ in range(steps):
        cells.append(c)
        options = ctrl.successors(c)[:, 1:]
        cell = np.repeat(lattice.point(c).reshape(1, -1), len(options), 0)
        landings = landings_of(plant, cell, u_values[options[:, 0]],
                               params.tau)
        miss = np.max(np.abs(landings - lattice.points()[options[:, 1]]),
                      axis=1)
        uix, c = (int(v) for v in options[int(np.argmin(miss))])
        x = flow_many(plant, x[None], u_values[uix][None], params.tau)[0]
        s = flow_many(spec, s[None], np.zeros((1, 0)), params.tau)[0]
        xs.append(x)
        ss.append(s)
        us.append(u_values[uix])
    return np.asarray(xs), np.asarray(ss), np.asarray(us), cells


def test_relational_choice_made_once_per_cell(monkeypatch):
    # the toy baseline controller keeps every admissible input: each of its
    # cells has several options, so every step of the loop makes a choice
    plant, spec, params = toy_pair()
    ctrl, _ = synthesize_baseline(plant, spec, params)
    steps = 20
    for idx in ctrl.initials:
        x0 = ctrl.state_lattice.point(int(idx))
        xs, ss, us, cells = recomputing_loop(plant, spec, ctrl, x0, steps,
                                             params)
        assert all(ctrl.successors(c).shape[0] > 1 for c in cells)
        assert len(set(cells)) < len(cells)  # some cell is visited again
        calls = []

        def counting_flow_many(sys, X, U, *args, **kwargs):
            calls.append(len(X))
            return flow_many(sys, X, U, *args, **kwargs)

        monkeypatch.setattr(loop, "flow_many", counting_flow_many)
        trace = simulate_closed_loop(plant, spec, ctrl, x0, steps, params)
        monkeypatch.undo()
        assert np.array_equal(trace.states, xs)
        assert np.array_equal(trace.spec_states, ss)
        assert np.array_equal(trace.inputs, us)
        # one-row plant and spec flows every step, one landing flow per cell
        assert calls.count(1) == 2 * steps
        assert sum(rows > 1 for rows in calls) == len(set(cells))


def test_relational_nonlinear_loop_matches_the_array_kernel():
    # the benchmark's nonlinear-pair problem: a relational cell of its
    # baseline controller has 2 to 16 options, whose landings the loop flows
    # row by row over floats; the tile kernel over arrays must give the same
    # trace (its endpoints do not depend on `hull`, which forces it)
    plant, spec, params = nonlinear_pair()
    params = dataclasses.replace(params, eta=1.0 / 15.0, mu=0.01)
    ctrl, _ = synthesize_baseline(plant, spec, params, force=True)
    src, count = np.unique(ctrl.transitions[:, 0], return_counts=True)
    relational = np.intersect1d(src[count > 1], ctrl.initials)
    assert relational.size >= 6 and count.max() <= ROW_TILE

    def array_landings(sys, X, U, tau):
        return _flow_tile(sys, X, U, tau, DEFAULT_SUBSTEPS, hull=True)[0]

    for idx in relational[::relational.size // 6][:6]:
        x0 = ctrl.state_lattice.point(int(idx))
        xs, ss, us, cells = recomputing_loop(plant, spec, ctrl, x0, 20,
                                             params, array_landings)
        assert ctrl.successors(cells[0]).shape[0] > 1
        trace = simulate_closed_loop(plant, spec, ctrl, x0, 20, params)
        assert np.array_equal(trace.states, xs)
        assert np.array_equal(trace.spec_states, ss)
        assert np.array_equal(trace.inputs, us)
