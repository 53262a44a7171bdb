import math
import warnings

import numpy as np
import pytest

from symctrl import (EmptyLatticeError, Lattice, StabilityCertificate,
                     SynthesisParams, validate_parameters)


def test_state_lattice_cardinality():
    lat = Lattice([[-1, 1]] * 3, 1.0 / 15.0)
    assert lat.n_points == 29791  # 31^3


def test_input_lattice_cardinality():
    lat = Lattice([[-1, 1]], 0.002)
    assert lat.n_points == 1001


def test_degenerate_box_single_point():
    lat = Lattice([[0.0, 0.0]], 0.37)
    assert lat.n_points == 1
    assert np.array_equal(lat.points(), [[0.0]])


def test_empty_lattice_raises():
    with pytest.raises(EmptyLatticeError):
        Lattice([[0.3, 0.4]], 1.0)


def test_quantize_half_open_cells():
    lat = Lattice([[-2, 2], [-2, 2]], 1.0)
    assert np.array_equal(lat.quantize_point([0.4, -0.6]), [0.0, -1.0])


def test_quantize_non_finite_and_huge_values_fall_outside():
    lat = Lattice([[-1, 1]], 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lat.quantize_many([[np.nan], [np.inf], [-np.inf], [1e300],
                                 [0.2]])
        mixed = Lattice([[-1, 1]] * 2, 0.1).quantize_many([[0.2, np.nan]])
    assert got.tolist() == [-1, -1, -1, -1, 12]
    assert mixed.tolist() == [-1]


def test_lattice_points_map_to_themselves():
    lat = Lattice([[-1, 1]] * 2, 1.0 / 15.0)
    pts = lat.points()
    assert np.array_equal(lat.quantize_many(pts), np.arange(lat.n_points))


def test_boundary_belongs_to_right_cell():
    # x exactly at eta = spacing/2 falls in the upper cell
    lat = Lattice([[-2, 2]], 1.0)
    assert lat.quantize_point([0.5])[0] == 1.0
    assert lat.quantize_point([-0.5])[0] == 0.0


def test_out_of_range_signalled():
    lat = Lattice([[-1, 1]], 0.5)
    assert lat.quantize_index([1.3]) is None
    assert lat.quantize_index([1.2]) is not None  # inside the last half-cell


def test_iteration_order_lexicographic():
    lat = Lattice([[0, 1], [0, 2]], 1.0)
    assert np.array_equal(lat.points(),
                          [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]])


def test_quantizer_partition_property():
    # each random point lies in the cell of exactly one lattice point
    lat = Lattice([[-1, 1]] * 2, 2 * 0.05)
    rng = np.random.default_rng(17)
    X = rng.uniform(-0.95, 0.95, size=(1000, 2))
    idx = lat.quantize_many(X)
    assert np.all(idx >= 0)
    pts = lat.points()
    eta = lat.spacing / 2.0
    for x, i in zip(X, idx):
        p = pts[i]
        assert np.all(x >= p - eta) and np.all(x < p + eta)
        inside = np.all((X[:1] * 0 + x >= pts - eta) & (x < pts + eta), axis=1)
        assert int(np.sum(inside)) == 1


def test_quantization_error_below_eta():
    lat = Lattice([[-1, 1]] * 3, 2 * 0.1)
    rng = np.random.default_rng(23)
    X = rng.uniform(-1, 1, size=(500, 3))
    idx = lat.quantize_many(X)
    ok = idx >= 0
    err = np.max(np.abs(X[ok] - lat.points()[idx[ok]]), axis=1)
    assert np.all(err < 0.1)


def test_outer_range_grid_aligned_box_adds_nothing():
    lat = Lattice([[-1, 1]] * 3, 1.0 / 15.0)
    idx = lat.outer_range_indices([[-1.0, 0.0]] * 3)
    assert idx.size == 16 ** 3


def test_outer_range_unaligned_box_takes_straddling_points():
    lat = Lattice([[-0.5, 0.5]] * 2, 0.02)
    idx = lat.outer_range_indices([[-0.25, 0.25]] * 2)
    assert idx.size == 27 ** 2


def test_outer_range_clipped_to_lattice():
    lat = Lattice([[-1, 1]], 0.5)
    idx = lat.outer_range_indices([[0.6, 5.0]])
    assert np.array_equal(lat.points()[idx][:, 0], [0.5, 1.0])


_CERT_P = StabilityCertificate(beta_c=math.sqrt(2.0), beta_lambda=1.21,
                               gamma_a=math.sqrt(14.88), gamma_p=0.5)
_CERT_Q = StabilityCertificate(beta_c=math.sqrt(2.0), beta_lambda=1.0)
_PARAMS = SynthesisParams(epsilon=0.2, theta_p=0.13, theta_q=0.07,
                          tau=1.0, eta=1.0 / 30.0, mu=0.001)


def test_validate_spec_inequality_passes_with_small_slack():
    report = validate_parameters(_CERT_P, _CERT_Q, _PARAMS)
    spec_check = report.checks[1]
    assert spec_check.passed
    assert abs(spec_check.lhs - 0.069758) < 1e-5
    assert abs(spec_check.slack - 2.4e-4) < 1e-5


def test_validate_plant_inequality_fails_with_deficit():
    # the nonlinear benchmark's own constants violate the plant inequality
    report = validate_parameters(_CERT_P, _CERT_Q, _PARAMS)
    plant_check = report.checks[0]
    assert not plant_check.passed
    assert abs(plant_check.lhs - 0.210141) < 1e-5
    assert abs(plant_check.slack + 0.0801) < 1e-4
    assert not report.passed


def test_validate_precision_split_exact_boundary():
    report = validate_parameters(_CERT_P, _CERT_Q, _PARAMS)
    split = report.checks[2]
    assert split.passed
    assert split.slack == 0.0


def test_validate_never_raises_on_violations():
    bad = SynthesisParams(epsilon=0.01, theta_p=0.2, theta_q=0.2, tau=0.1,
                          eta=0.5, mu=0.5)
    report = validate_parameters(_CERT_P, _CERT_Q, bad)
    assert not report.passed
    assert len(report.checks) == 3


def test_params_must_be_positive():
    with pytest.raises(ValueError):
        SynthesisParams(epsilon=0.0, theta_p=1, theta_q=1, tau=1, eta=1, mu=1)
    with pytest.raises(ValueError):
        SynthesisParams(epsilon=1, theta_p=1, theta_q=1, tau=-1, eta=1, mu=1)
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            SynthesisParams(epsilon=1, theta_p=1, theta_q=1, tau=value, eta=1,
                            mu=1)
