import numpy as np
import pytest

from symctrl import (AbstractionSpec, ControlSystem, ResourceLimitError,
                     StabilityCertificate, build_abstraction,
                     check_bisimulation, dynamics, is_deterministic,
                     parse_expression)
from symctrl.dynamics import TILE_ROWS

from _systems import toy_pair


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
