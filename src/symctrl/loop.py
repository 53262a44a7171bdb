"""Closed-loop execution: quantize the initial state (A/D), run the plant
against the controller's symbolic chain with each input held over one period
(ZoH), and compare the plant trajectory against the specification flow.

The controller advances on its own transition chain, as in the composition
the synthesis guarantees are stated for; the loop monitors that the sampled
plant state stays within the abstraction precision of the chain and reports
leaving that region as an uncontrolled state.  Conformance against the
reference specification trajectory (started at the same initial lattice
point) is judged at sampling instants only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (DEFAULT_SUBSTEPS, ControlSystem, check_substeps,
                       flow_many)
from .quantize import SynthesisParams
from .synthesis import Controller


class UncontrolledStateError(RuntimeError):
    """The loop cannot continue: the controller's symbolic state has no
    outgoing transition, or the sampled plant state drifted beyond the
    abstraction precision from the symbolic chain (a precision violation or
    an exit from the synthesized region)."""

    def __init__(self, step: int, state):
        super().__init__(f"uncontrolled state at step {step}: "
                         f"{[float(v) for v in state]}")
        self.step = step
        self.state = state


@dataclass
class ClosedLoopTrace:
    """Sampled run of the controlled plant against the specification flow.

    states       (K+1, n) plant states at the sampling instants
    inputs       (K, m) applied input values, one per sampling interval
    spec_states  (K+1, n) reference specification states
    deviations   (K+1,) infinity-norm distance per sampling instant
    """

    states: np.ndarray
    inputs: np.ndarray
    spec_states: np.ndarray
    deviations: np.ndarray

    def __post_init__(self):
        if self.states.shape[0] != self.inputs.shape[0] + 1:
            raise ValueError("inputs must be one shorter than states")
        if self.spec_states.shape != self.states.shape:
            raise ValueError("spec_states must match states in shape")

    @property
    def max_deviation(self) -> float:
        return float(np.max(self.deviations))


@dataclass(frozen=True)
class ConformanceReport:
    passed: bool
    max_deviation: float
    argmax_step: int
    epsilon: float

    def describe(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return (f"[{tag}] max deviation {self.max_deviation:.6f} at step "
                f"{self.argmax_step} (epsilon {self.epsilon})")


def simulate_closed_loop(plant: ControlSystem, specification: ControlSystem,
                         ctrl: Controller, x0, steps: int,
                         params: SynthesisParams,
                         substeps: int = DEFAULT_SUBSTEPS) -> ClosedLoopTrace:
    """Run the loop for `steps` sampling periods from x0.

    x0 must lie in the plant's initial box and quantize to a controller
    initial state.  The reference specification trajectory starts at the same
    lattice point the controller starts from.
    """
    check_substeps(substeps)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != plant.n:
        raise ValueError(f"x0 must have dimension {plant.n}")
    # the initial cells cover the initial box up to one half-cell of overhang
    slack = ctrl.state_lattice.spacing / 2.0
    if np.any(x0 < plant.init_box[:, 0] - slack) or np.any(
            x0 > plant.init_box[:, 1] + slack):
        raise ValueError("x0 outside the plant initial box")
    q0 = ctrl.state_lattice.quantize_index(x0)
    if q0 is None:
        raise ValueError("x0 quantizes outside the controller lattice")
    if not np.any(ctrl.initials == q0):
        raise ValueError("x0 does not quantize to a controller initial state")

    u_values = ctrl.input_values()
    lattice = ctrl.state_lattice
    xs = [x0]
    ss = [np.asarray(lattice.point(q0), dtype=float)]
    us = []
    x, s = xs[0], ss[0]
    c = int(q0)  # the controller's own symbolic state
    # (input, target) per symbolic state: the choice depends on c alone, so
    # a relational cell's landings are flowed once per run
    chosen = {}
    for k in range(steps):
        if np.max(np.abs(x - lattice.point(c))) > params.theta_p:
            # the plant left the synthesized region around the symbolic chain
            raise UncontrolledStateError(k, x)
        if c not in chosen:
            options = ctrl.successors(c)[:, 1:]
            if options.shape[0] == 0:
                raise UncontrolledStateError(k, x)
            if options.shape[0] == 1:
                chosen[c] = options[0]
            else:
                # several admissible inputs (relational controller): apply
                # the one whose nominal landing sits deepest inside its own
                # target cell
                cell = np.repeat(lattice.point(c).reshape(1, -1),
                                 len(options), 0)
                landings = flow_many(plant, cell, u_values[options[:, 0]],
                                     params.tau, substeps)
                targets = lattice.points()[options[:, 1]]
                chosen[c] = options[int(np.argmin(
                    np.max(np.abs(landings - targets), axis=1)))]
        uix, target = chosen[c]
        u = u_values[uix]
        x = flow_many(plant, x.reshape(1, -1), u.reshape(1, -1), params.tau,
                      substeps)[0]
        s = flow_many(specification, s.reshape(1, -1),
                      np.zeros((1, specification.m)), params.tau, substeps)[0]
        c = int(target)
        xs.append(x)
        ss.append(s)
        us.append(u)
    states = np.asarray(xs)
    spec_states = np.asarray(ss)
    deviations = (np.max(np.abs(states - spec_states), axis=1)
                  if plant.n else np.zeros(steps + 1))
    return ClosedLoopTrace(states=states,
                           inputs=np.asarray(us).reshape(len(us), plant.m),
                           spec_states=spec_states, deviations=deviations)


def conformance_report(trace: ClosedLoopTrace, eps: float) -> ConformanceReport:
    """Pass iff every sampled deviation is at most eps; reports the argmax."""
    worst = int(np.argmax(trace.deviations))
    value = float(trace.deviations[worst])
    return ConformanceReport(passed=bool(value <= eps), max_deviation=value,
                             argmax_step=worst, epsilon=eps)
