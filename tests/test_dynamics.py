import dataclasses
import math
import threading

import numpy as np
import pytest
from scipy.linalg import expm

from symctrl import (ControlSystem, DivergenceError, StabilityCertificate,
                     dynamics, flow, flow_many, parse_expression)

from _systems import every_operator_system, linear_pair, nonlinear_pair


def scalar_decay():
    return ControlSystem(n=1, m=0, state_box=[[-2, 2]], init_box=[[-1, 1]],
                         input_box=[], field=(parse_expression("-x1", 1, 0),))


def test_flow_matches_exponential_decay():
    z = flow(scalar_decay(), [1.0], [], 0.5, 50)
    assert abs(z[0] - math.exp(-0.5)) < 1e-6


def test_zero_field_is_identity():
    sys = ControlSystem(n=2, m=0, state_box=[[-1, 1]] * 2,
                        init_box=[[-1, 1]] * 2, input_box=[],
                        field=(parse_expression("0", 2, 0),
                               parse_expression("0", 2, 0)))
    x0 = np.array([0.3, -0.7])
    assert np.array_equal(flow(sys, x0, [], 1.0, 50), x0)


def test_flow_matches_matrix_exponential():
    # benchmark pair 1 plant with u = 0
    plant, _, _ = linear_pair(1)
    A = np.array([[-1.0, -0.5], [0.5, -1.0]])
    x0 = np.array([0.25, 0.0])
    z = flow(plant, x0, [0.0], 0.5, 50)
    ref = expm(A * 0.5) @ x0
    assert np.max(np.abs(z - ref)) < 1e-6


def test_substep_refinement_fourth_order():
    plant, _, _ = linear_pair(1)
    x0 = np.array([0.25, 0.0])
    z50 = flow(plant, x0, [0.5], 0.5, 50)
    z100 = flow(plant, x0, [0.5], 0.5, 100)
    assert np.max(np.abs(z50 - z100)) <= 1e-8


def test_flow_deterministic_across_batch_shapes():
    # the same (x, u) row must integrate bit-identically whether evaluated
    # alone (as floats), inside a small batch, or inside a large one
    plant, _, _ = linear_pair(2)
    rng = np.random.default_rng(11)
    X = rng.uniform(-0.5, 0.5, size=(5000, 2))
    U = rng.uniform(-2, 2, size=(5000, 1))
    big = flow_many(plant, X, U, 0.5, 50, threads=1)
    mid = flow_many(plant, X[100:1101], U[100:1101], 0.5, 50, threads=1)
    assert np.array_equal(big[100:1101], mid)
    none = flow_many(plant, X[:0], U[:0], 0.5, 50, threads=1)
    assert none.shape == (0, 2) and none.dtype == float
    nl_plant, nl_spec, nl_params = nonlinear_pair()
    some = list(range(0, 5000, 125)) + [4999]
    # (system, tau, substeps, rows flowed alone); the operator system takes
    # one RK4 step of h = 1, so that a last-bit difference in one field
    # value reaches the endpoint often enough to show, and all its rows run
    for sys, tau, substeps, rows in (
            (plant, 0.5, 50, some),
            (every_operator_system(), 1.0, 1, range(5000)),
            (nl_plant, nl_params.tau, 50, some),
            (nl_spec, nl_params.tau, 50, some)):
        X = rng.uniform(sys.state_box[:, 0], sys.state_box[:, 1],
                        size=(5000, sys.n))
        U = rng.uniform(sys.input_box[:, 0], sys.input_box[:, 1],
                        size=(5000, sys.m))
        big = flow_many(sys, X, U, tau, substeps, threads=1)
        for i in rows:
            one = flow_many(sys, X[i:i + 1], U[i:i + 1], tau, substeps,
                            threads=1)
            assert np.array_equal(big[i:i + 1], one), (sys.field, i)


def test_flow_many_rejects_mismatched_row_counts():
    plant, _, _ = linear_pair(1)
    for nx, nu in ((3, 5), (5, 3)):
        with pytest.raises(ValueError) as err:
            flow_many(plant, np.zeros((nx, 2)), np.zeros((nu, 1)), 0.5)
        assert str(err.value) == "X and U must have the same number of rows"


def test_flow_thread_count_does_not_change_result():
    plant, _, _ = linear_pair(3)
    rng = np.random.default_rng(5)
    X = rng.uniform(-0.5, 0.5, size=(3000, 2))
    U = rng.uniform(-2, 2, size=(3000, 1))
    a = flow_many(plant, X, U, 0.5, 50, threads=1)
    b = flow_many(plant, X, U, 0.5, 50, threads=2)
    assert np.array_equal(a, b)


def test_map_tiles_keeps_order_and_runs_on_the_caller(monkeypatch):
    # 10 rows a tile give 12 tiles on 3 workers; they come back in tile
    # order, the calling thread runs tiles 0, 3, 6 and 9, and an exception
    # of a tile on another worker reaches the caller
    monkeypatch.setattr(dynamics, "TILE_ROWS", 10)
    monkeypatch.setenv("SYMCTRL_THREADS", "3")
    ran = {}

    def fn(a, b):
        ran[a] = threading.get_ident()
        return a, b

    tiles = [(95 * i // 12, 95 * (i + 1) // 12) for i in range(12)]
    assert dynamics.map_tiles(fn, 95, threads=3) == tiles
    assert [a for a, _ in tiles if ran[a] == threading.get_ident()] == [
        tiles[i][0] for i in (0, 3, 6, 9)]

    def fail(a, b):
        if a == tiles[1][0]:
            raise ValueError("tile 1")

    with pytest.raises(ValueError, match="tile 1"):
        dynamics.map_tiles(fail, 95, threads=3)


def test_replaced_field_is_compiled_anew():
    sys = scalar_decay()
    assert flow(sys, [1.0], [], 0.5, 50)[0] < 1.0
    grown = dataclasses.replace(sys, field=(parse_expression("x1", 1, 0),))
    assert abs(flow(grown, [1.0], [], 0.5, 50)[0] - math.exp(0.5)) < 1e-6


def test_flow_rejects_state_outside_box():
    with pytest.raises(ValueError):
        flow(scalar_decay(), [3.0], [], 0.5, 50)


def test_flow_divergence_detected():
    sys = ControlSystem(n=1, m=0, state_box=[[-5, 5]], init_box=[[-1, 1]],
                        input_box=[],
                        field=(parse_expression("x1^3", 1, 0),))
    with pytest.raises(DivergenceError) as err:
        flow(sys, [5.0], [], 100.0, 10)
    assert str(err.value) == "flow diverged from x=[5.0], u=[]"


def test_init_box_must_be_inside_state_box():
    with pytest.raises(ValueError):
        ControlSystem(n=1, m=0, state_box=[[-1, 1]], init_box=[[-2, 0]],
                      input_box=[], field=(parse_expression("-x1", 1, 0),))


# certificate constants of the nonlinear tracking benchmark
def test_certificate_beta_plant_constants():
    cert = StabilityCertificate(beta_c=math.sqrt(2.0), beta_lambda=1.21)
    assert abs(cert.beta(0.13, 1.0) - 0.054824) <= 1e-5


def test_certificate_beta_spec_constants():
    cert = StabilityCertificate(beta_c=math.sqrt(2.0), beta_lambda=1.0)
    assert abs(cert.beta(0.07, 1.0) - 0.036424) <= 1e-5


def test_certificate_beta_zero_fixpoint():
    cert = StabilityCertificate(beta_c=2.0, beta_lambda=0.5)
    for s in (0.0, 0.1, 1.0, 10.0):
        assert cert.beta(0.0, s) == 0.0


def test_certificate_gamma_sqrt_form():
    cert = StabilityCertificate(beta_c=1.0, beta_lambda=1.0,
                                gamma_a=math.sqrt(14.88), gamma_p=0.5)
    assert abs(cert.gamma(0.001) - 0.121984) <= 1e-5


def test_certificate_gamma_zero_fixpoint():
    cert = StabilityCertificate(1.0, 1.0, gamma_a=3.0, gamma_p=0.5)
    assert cert.gamma(0.0) == 0.0


def test_certificate_gamma_autonomous_is_zero():
    cert = StabilityCertificate(1.0, 1.0)  # gamma_a defaults to 0
    for r in (0.0, 0.3, 7.0):
        assert cert.gamma(r) == 0.0


def test_certificate_beta_monotone_in_r_antitone_in_s():
    cert = StabilityCertificate(beta_c=1.7, beta_lambda=0.9)
    rs = np.linspace(0.0, 2.0, 100)
    ss = np.linspace(0.0, 5.0, 100)
    beta_r = [cert.beta(r, 1.0) for r in rs]
    assert all(b2 > b1 for b1, b2 in zip(beta_r, beta_r[1:]))
    beta_s = [cert.beta(1.0, s) for s in ss]
    assert all(b2 < b1 for b1, b2 in zip(beta_s, beta_s[1:]))


def test_certificate_rejects_bad_constants():
    with pytest.raises(ValueError):
        StabilityCertificate(beta_c=0.0, beta_lambda=1.0)
    with pytest.raises(ValueError):
        StabilityCertificate(beta_c=1.0, beta_lambda=-1.0)
    with pytest.raises(ValueError):
        StabilityCertificate(beta_c=1.0, beta_lambda=1.0, gamma_p=0.0)
