import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from symctrl import (AbstractionSpec, ControlSystem, ResourceLimitError,
                     StabilityCertificate, abstraction, build_abstraction,
                     check_bisimulation, dynamics, flow_many,
                     is_deterministic, parse_expression)
from symctrl.dynamics import TILE_ROWS
from symctrl.quantize import Lattice

from _systems import linear_pair, problems, toy_pair


def full_sweep(sys, spec):
    """The abstraction's transitions from a sweep of every (state, input)
    row, in lexicographic order, with no pruning."""
    st_lat = Lattice(sys.state_box, 2.0 * spec.eta)
    inputs = (Lattice(sys.input_box, 2.0 * spec.mu).points() if sys.m
              else np.zeros((1, 0)))
    n_u = inputs.shape[0]
    pair = np.arange(st_lat.n_points * n_u, dtype=np.int64)
    src, uix = pair // n_u, pair % n_u
    Z = flow_many(sys, st_lat.points()[src], inputs[uix], spec.tau,
                  spec.substeps, check_finite=False)
    # the membership rule: an endpoint must fall in the half-open cell of
    # some lattice point; endpoints farther out, non-finite ones included,
    # give no transition
    dst = st_lat.quantize_many(Z)
    keep = dst >= 0
    return np.column_stack([src[keep], uix[keep], dst[keep]]).astype(np.int32)


def assert_matches_full_sweep(sys, spec):
    """Asserts the abstraction equals the full sweep; returns it."""
    fs = build_abstraction(sys, spec)
    assert np.array_equal(fs.transitions, full_sweep(sys, spec))
    return fs


def test_zero_field_gives_self_loops_per_input():
    sys = ControlSystem(n=1, m=1, state_box=[[-1, 1]], init_box=[[-1, 1]],
                        input_box=[[-1, 1]],
                        field=(parse_expression("0*x1 + 0*u1", 1, 1),))
    fs = build_abstraction(sys, AbstractionSpec(tau=1.0, eta=0.25, mu=0.5))
    assert fs.n_states == 5
    assert fs.n_inputs == 3
    assert fs.n_transitions == 15
    t = fs.transitions
    assert np.array_equal(t[:, 0], t[:, 2])


def test_abstraction_is_deterministic_on_random_systems():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = rng.uniform(-2.0, -0.2)
        b = rng.uniform(-1.0, 1.0)
        c = rng.uniform(-2.0, -0.2)
        d = rng.uniform(-0.5, 0.5)
        field = (parse_expression(f"{a}*x1 + {d}*x2 + u1", 2, 1),
                 parse_expression(f"{b}*x1 + {c}*x2", 2, 1))
        sys = ControlSystem(n=2, m=1, state_box=[[-1, 1]] * 2,
                            init_box=[[-0.5, 0.5]] * 2, input_box=[[-0.5, 0.5]],
                            field=field)
        eta = float(rng.choice([0.05, 0.1, 0.25]))
        fs = build_abstraction(sys, AbstractionSpec(tau=0.5, eta=eta, mu=0.25,
                                                    substeps=10))
        assert is_deterministic(fs)
        assert fs.n_transitions <= fs.n_states * fs.n_inputs


def test_transition_count_equals_product_iff_no_exit():
    # strongly contracting system: nothing leaves the cell cover
    sys = ControlSystem(n=1, m=1, state_box=[[-1, 1]], init_box=[[-1, 1]],
                        input_box=[[-0.1, 0.1]],
                        field=(parse_expression("-5*x1 + u1", 1, 1),))
    fs = build_abstraction(sys, AbstractionSpec(tau=1.0, eta=0.1, mu=0.05))
    assert fs.n_transitions == fs.n_states * fs.n_inputs


def test_flows_leaving_cell_cover_drop_transitions():
    # constant drift pushes the rightmost states out of the covered band
    sys = ControlSystem(n=1, m=0, state_box=[[-1, 1]], init_box=[[-1, 1]],
                        input_box=[],
                        field=(parse_expression("0*x1 + 1", 1, 0),))
    fs = build_abstraction(sys, AbstractionSpec(tau=1.0, eta=0.25))
    assert fs.n_transitions < fs.n_states


def test_autonomous_single_zero_input():
    _, spec, params = toy_pair()
    fs = build_abstraction(spec, AbstractionSpec(params.tau, params.eta))
    assert fs.n_inputs == 1
    assert fs.inputs.shape == (1, 0)


def test_initials_cover_init_box():
    plant, _, params = toy_pair()
    fs = build_abstraction(plant, AbstractionSpec(params.tau, params.eta,
                                                  params.mu))
    pts = fs.outputs[fs.initials][:, 0]
    assert pts.min() == -0.5 and pts.max() == 0.0


def test_rebuild_bit_reproducible():
    plant, _, params = toy_pair()
    spec = AbstractionSpec(params.tau, params.eta, params.mu)
    a = build_abstraction(plant, spec)
    b = build_abstraction(plant, spec)
    assert a.same_as(b)


def test_thread_count_invariance(monkeypatch):
    plant, _, params = toy_pair()
    spec = AbstractionSpec(params.tau, params.eta, params.mu)
    monkeypatch.setenv("SYMCTRL_THREADS", "1")
    ref = build_abstraction(plant, spec)
    for tile_rows in (7, TILE_ROWS, 1 << 21):
        monkeypatch.setattr(dynamics, "TILE_ROWS", tile_rows)
        for threads in ("1", "2"):
            monkeypatch.setenv("SYMCTRL_THREADS", threads)
            assert build_abstraction(plant, spec).same_as(ref)


def test_pruned_sweep_under_thread_stress(monkeypatch):
    # the workers of both passes write disjoint entries of one successor
    # array: with more workers than cores, short tiles and frequent thread
    # switches, a lost or misplaced write would change the model
    plant, _, params = linear_pair(1)
    spec = AbstractionSpec(params.tau, 0.05, 0.05, 10)
    ref = full_sweep(plant, spec)
    monkeypatch.setattr(dynamics, "TILE_ROWS", 97)
    monkeypatch.setenv("SYMCTRL_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fs = build_abstraction(plant, spec)
    finally:
        sys.setswitchinterval(interval)
    assert fs.rows_flowed < fs.n_states * fs.n_inputs
    assert np.array_equal(fs.transitions, ref)


def test_transition_cap_enforced():
    plant, _, params = toy_pair()
    with pytest.raises(ResourceLimitError):
        build_abstraction(plant, AbstractionSpec(params.tau, params.eta,
                                                 params.mu),
                          transition_cap=10)


def test_coarse_abstraction_bisimilar_to_fine_reference():
    # contractive 1-D system whose quantization satisfies the overshoot
    # inequality at theta: the eta-abstraction and an eta/8 reference must be
    # theta-approximately bisimilar
    sys = ControlSystem(n=1, m=1, state_box=[[-1, 1]], init_box=[[-1, 1]],
                        input_box=[[-0.2, 0.2]],
                        field=(parse_expression("-2*x1 + u1", 1, 1),),
                        certificate=StabilityCertificate(1.0, 2.0, 0.5, 1.0))
    tau, eta, mu, theta = 1.0, 0.05, 0.1, 0.2
    cert = sys.certificate
    assert cert.beta(theta, tau) + cert.gamma(mu) + eta <= theta
    coarse = build_abstraction(sys, AbstractionSpec(tau, eta, mu))
    fine = build_abstraction(sys, AbstractionSpec(tau, eta / 8.0, mu))
    assert check_bisimulation(coarse, fine, theta) is not None


# ---- rows proved to leave the cover are not flowed ----------------------------

def test_abstraction_equals_full_sweep_on_random_problems(monkeypatch):
    seen = {"examples": 0, "pruned": 0, "pruning": False}
    fine_to_flow = abstraction._fine_to_flow

    def counting(*args):
        keep = fine_to_flow(*args)
        seen["pruning"] |= not keep.all()
        return keep

    monkeypatch.setattr(abstraction, "_fine_to_flow", counting)
    for drifting in (False, True):
        @settings(derandomize=True, max_examples=50, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.data_too_large])
        @given(problems(drifting=drifting))
        def check(problem):
            seen["pruning"] = False
            plant, spec, params, substeps = problem
            assert_matches_full_sweep(
                plant, AbstractionSpec(params.tau, params.eta, params.mu,
                                       substeps))
            # the specification has no inputs to prune
            fq = assert_matches_full_sweep(
                spec, AbstractionSpec(params.tau, params.eta, None, substeps))
            assert fq.rows_flowed == fq.n_states
            seen["examples"] += 1
            seen["pruned"] += seen["pruning"]

        check()
    # the draws must exercise the pruning; many of them leave the cover only
    # through blow-ups, or are too stiff for a sure bound
    assert seen["pruned"] >= seen["examples"] // 4


def test_abstraction_equals_full_sweep_on_linear_1():
    # the linear-pair benchmark plant: 201 inputs, and about half of its
    # rows leave the cover
    plant, _, params = linear_pair(1)
    fs = assert_matches_full_sweep(
        plant, AbstractionSpec(params.tau, params.eta, 0.01, 50))
    assert fs.rows_flowed * 4 < fs.n_states * fs.n_inputs * 3


def test_hull_first_changes_only_the_rows_flowed(monkeypatch):
    # hulling every coarse row in the first pass (the integrated route's
    # choice) and hulling again only the states that may be proved something
    # (the baseline's) flow the same fine rows, against the cover and
    # against each state's own cell; their row counts differ by exactly the
    # coarse rows flowed again
    hull_rows = [0]
    flow_tile = abstraction._flow_tile

    def counting(sys, X, U, tau, substeps, hull=False):
        hull_rows[0] += X.shape[0] if hull else 0
        return flow_tile(sys, X, U, tau, substeps, hull=hull)

    monkeypatch.setattr(abstraction, "_flow_tile", counting)
    seen = {"examples": 0, "rehulled": 0}

    @settings(derandomize=True, max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(problems())
    def check(problem):
        plant, _, params, substeps = problem
        st_lat = Lattice(plant.state_box, 2.0 * params.eta)
        engine = abstraction.RowEngine(
            plant, st_lat, Lattice(plant.input_box, 2.0 * params.mu),
            params.tau, substeps)
        X, s = st_lat.points(), st_lat.spacing
        boxes = [(np.broadcast_to((st_lat.kmin + st_lat.kmax) * (s / 2.0),
                                  X.shape), st_lat.counts * (s / 2.0)),
                 (X, np.full(X.shape[1], s / 2.0))]
        for P, half in boxes:
            succ, rows, hulled = [], [], []
            for hull_first in (False, True):
                out = np.full((X.shape[0], engine.inputs.shape[0]), -2)

                def write(src, cols, Z, cells):
                    out[src, cols] = cells

                hull_rows[0] = 0
                rows.append(engine.run(X, P, half, write, hull_first))
                succ.append(out)
                hulled.append(hull_rows[0])
            assert np.array_equal(succ[0], succ[1])
            assert rows[0] - rows[1] == hulled[0]
            coarse_rows = X.shape[0] * engine.split.coarse.size
            assert hulled[1] == (coarse_rows if engine.bound is not None
                                 else 0)
            seen["rehulled"] += 0 < hulled[0] < coarse_rows
        seen["examples"] += 1

    check()
    # some draws must hull again only a part of their states
    assert seen["rehulled"] >= seen["examples"] // 4
