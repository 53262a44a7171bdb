import sys

import numpy as np
import pytest

from symctrl import (AbstractionSpec, ControlSystem, ResourceLimitError,
                     StabilityCertificate, SynthesisParams, abstraction,
                     build_abstraction, check_bisimulation, dynamics,
                     flow_many, is_deterministic, parse_expression)
from symctrl.dynamics import TILE_ROWS
from symctrl.quantize import Lattice

from _systems import (STIFF_AFFINE, affine_plants, linear_pair,
                      nonlinear_pair, problems, toy_pair)


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


def test_no_finite_coarse_row_gives_no_transition():
    # the growth bound is asked of no box, and its Jacobian's constant
    # divisor 0 must not raise
    sys = ControlSystem(n=1, m=1, state_box=[[-1, 1]], init_box=[[-1, 1]],
                        input_box=[[-1, 1]],
                        field=(parse_expression("x1 / 0 + u1", 1, 1),))
    fs = build_abstraction(sys, AbstractionSpec(tau=1.0, eta=0.25, mu=0.05))
    assert fs.n_transitions == 0 and fs.rows_flowed == 5 * 21


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


def test_sweep_chunks_change_nothing(monkeypatch):
    # sweep chunks give the model and the counters of one chunk: on linear
    # #1, 13 chunks of 10 states, the last of one; on the nonlinear plant,
    # whose chords take a curvature bound per state, 2 chunks of 991 and
    # 340 states
    for (plant, _, params), eta, mu, substeps, rows in (
            (linear_pair(1), 0.05, 0.01, 20, 10 * 201),
            (nonlinear_pair(), 0.1, 0.01, 50, 100 * 1001)):
        spec = AbstractionSpec(params.tau, eta, mu, substeps)
        ref = build_abstraction(plant, spec)
        assert ref.rows_landed > 0
        with monkeypatch.context() as patch:
            patch.setattr(abstraction, "_SWEEP_ROWS", rows)
            fs = build_abstraction(plant, spec)
        assert fs.same_as(ref)
        assert ((fs.rows_flowed, fs.rows_landed)
                == (ref.rows_flowed, ref.rows_landed))


def test_pruned_sweep_under_thread_stress(monkeypatch):
    # the workers of both passes write disjoint entries of one successor
    # array, and those of the coarse pass hand back the endpoints and, on
    # the nonlinear plant, the stage-point hulls the proof reads: with more
    # workers than cores, short tiles and frequent thread switches, a lost
    # or misplaced write would change the model
    for (plant, _, params), eta, mu, substeps in (
            (linear_pair(1), 0.05, 0.05, 10),
            (nonlinear_pair(), 0.2, 0.02, 50)):
        spec = AbstractionSpec(params.tau, eta, mu, substeps)
        ref = full_sweep(plant, spec)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "TILE_ROWS", 97)
            patch.setenv("SYMCTRL_THREADS", "4")
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
    seen = {"examples": 0, "pruned": 0, "landed": 0, "pruning": False,
            "landing": False}
    decide = abstraction._decide

    def counting(split, E, pad, lat, P, half, lands, K):
        def landing(src, f, cells):
            seen["landing"] = True
            lands(src, f, cells)

        keep = decide(split, E, pad, lat, P, half,
                      landing if lands else None, K)
        seen["pruning"] |= not keep.all()
        return keep

    monkeypatch.setattr(abstraction, "_decide", counting)
    for plant, spec, params, substeps in (problems(50, seed=4)
                                          + problems(50, seed=5,
                                                     drifting=True)):
        seen["pruning"] = seen["landing"] = False
        fp = assert_matches_full_sweep(
            plant, AbstractionSpec(params.tau, params.eta, params.mu,
                                   substeps))
        assert (fp.rows_landed > 0) == seen["landing"]
        # the specification has no inputs to prune
        fq = assert_matches_full_sweep(
            spec, AbstractionSpec(params.tau, params.eta, None, substeps))
        assert fq.rows_flowed == fq.n_states and fq.rows_landed == 0
        seen["examples"] += 1
        seen["pruned"] += seen["pruning"]
        seen["landed"] += seen["landing"]
    # the draws must exercise the pruning, and the landing proofs among it;
    # many of them leave the cover only through blow-ups, or are too stiff
    # for a sure curvature bound
    assert seen["pruned"] >= seen["examples"] // 4
    assert seen["landed"] >= seen["examples"] // 4


def engine_of(plant, spec):
    return abstraction.RowEngine(
        plant, Lattice(plant.state_box, 2.0 * spec.eta),
        Lattice(plant.input_box, 2.0 * spec.mu), spec.tau, spec.substeps)


def assert_flows_the_coarse_rows(example):
    """Asserts that linear example `example`'s plant at mu = 0.01 equals the
    full sweep and flows the 2^m corners of its input box per state and at
    most 8 rows more: its field is affine, so a row's endpoint is the chord
    of the corners', and only a row whose chord lies within the margins of
    a cell face is flowed.  Returns the model."""
    plant, _, params = linear_pair(example)
    spec = AbstractionSpec(params.tau, params.eta, 0.01, 50)
    engine = engine_of(plant, spec)
    assert engine.split.curv is None and engine.bound is None
    corners = engine.inputs[engine.split.coarse]
    lo, hi = engine.inputs.min(axis=0), engine.inputs.max(axis=0)
    assert np.all((corners == lo) | (corners == hi))
    assert np.unique(corners, axis=0).shape[0] == 2 ** plant.m
    fs = assert_matches_full_sweep(plant, spec)
    coarse = fs.n_states * 2 ** plant.m
    assert coarse <= fs.rows_flowed <= coarse + 8
    return fs


def test_abstraction_equals_full_sweep_on_linear_1():
    # the linear-pair benchmark plant: 201 inputs, and about half of its
    # rows leave the cover; some of the others are proved to land
    fs = assert_flows_the_coarse_rows(1)
    assert fs.rows_flowed * 4 < fs.n_states * fs.n_inputs * 3
    assert fs.rows_landed > 0


@pytest.mark.parametrize("example", range(2, 9))
def test_affine_plants_flow_their_coarse_rows(example):
    # the other seven linear plants, on the linear-pair lattices
    assert assert_flows_the_coarse_rows(example).rows_landed > 0


@pytest.mark.parametrize("text", [
    "-x1 + (3e15 + u1) - 3e15", "-x1 + (1e16 + u1) - 1e16",
    "-x1 + (3e15 + u1) - 3e15 + 0.01*sin(x1)"],
    ids=["affine-3e15", "affine-1e16", "not-affine-3e15"])
def test_a_field_that_cancels_equals_the_full_sweep(text):
    # the kernel rounds 3e15 + u1 in steps of 0.5, and 1e16 + u1 in steps of
    # 2, so the endpoints drift from the exact RK4 map's by far more than a
    # margin relative to their own size: the margin's unit grows with the
    # field's largest intermediate, through the chord and its curvature
    # bound
    plant = ControlSystem(n=1, m=1, state_box=[[-1, 1]], init_box=[[-1, 1]],
                          input_box=[[-2, 2]],
                          field=(parse_expression(text, 1, 1),))
    spec = AbstractionSpec(tau=0.5, eta=0.02, mu=0.01, substeps=10)
    assert engine_of(plant, spec).unit > 1e15
    assert assert_matches_full_sweep(plant, spec).n_transitions > 8000


def test_a_field_with_a_domain_takes_no_chord():
    # the derivatives fold to constants, but the flows from below x1 = -0.2
    # leave sqrt's domain and end at NaN.  The field is not affine, so its
    # chord takes a curvature bound, which a state whose stage points may
    # leave the domain does not get: its rows take no chord.  The model is
    # the full sweep's
    plant = ControlSystem(
        n=1, m=1, state_box=[[-1, 1]], init_box=[[-1, 1]],
        input_box=[[-1, 1]],
        field=(parse_expression("-x1 + u1 + 0*sqrt(x1 + 0.2)", 1, 1),))
    spec = AbstractionSpec(tau=0.5, eta=0.02, mu=0.01, substeps=10)
    engine = engine_of(plant, spec)
    assert engine.split.curv is not None and engine.bound.second == []
    fs = assert_matches_full_sweep(plant, spec)
    assert fs.n_transitions > 0 and fs.rows_landed > 0


@pytest.mark.parametrize("box, mu", [
    ([[-2, 2]], 0.01), ([[-1, 1], [0, 0.5]], 0.05),
    ([[-1, 1], [0.2, 0.2]], 0.05)], ids=["m1", "m2", "m2-one-point-axis"])
def test_affine_inputs_are_the_corners_and_the_rest(box, mu):
    # one level past the input box's corners, whatever the input count; the
    # weights on the 2^m corners of every other input, those on a face of
    # the box included, reproduce it.  An axis of one point has one end,
    # so its corners coincide, and so do their weights
    in_lat = Lattice(np.asarray(box, dtype=float), 2.0 * mu)
    u_pts = in_lat.points()
    split = abstraction._InputSplit(in_lat, u_pts, affine=True)
    corners = u_pts[split.coarse]
    lo, hi = u_pts.min(axis=0), u_pts.max(axis=0)
    assert np.all((corners == lo) | (corners == hi))
    assert split.coarse.size == 2 ** int(np.sum(lo < hi))
    assert np.array_equal(np.union1d(split.coarse, split.inputs),
                          np.arange(u_pts.shape[0]))
    face = np.any((u_pts[split.inputs] == lo) | (u_pts[split.inputs] == hi),
                  axis=1)
    assert face.any() == (len(box) > 1)
    assert split.curv is None
    assert np.all(split.weight >= 0.0)
    assert np.allclose(split.weight.sum(axis=0), 1.0)
    assert np.allclose(split.weight.T @ corners, u_pts[split.inputs],
                       rtol=0.0, atol=1e-12)


def test_affine_plants_equal_the_full_sweep():
    # with one and two inputs, and where some corners overflow, so that
    # their chords are NaN or huge
    seen = {"examples": 0, "landed": 0, "overflowed": 0, "inputs": set()}
    for plant, spec in affine_plants(60, seed=6):
        assert engine_of(plant, spec).split.curv is None
        fs = assert_matches_full_sweep(plant, spec)
        X = np.repeat(fs.outputs, fs.n_inputs, axis=0)
        U = np.tile(fs.inputs, (fs.n_states, 1))
        finite = np.isfinite(flow_many(plant, X, U, spec.tau, spec.substeps,
                                       check_finite=False)).all(axis=1)
        seen["examples"] += 1
        seen["landed"] += fs.rows_landed > 0
        # a plant that overflows on some rows
        seen["overflowed"] += 0 < finite.sum() < finite.size
        seen["inputs"].add(plant.m)
    assert seen["inputs"] == {1, 2}
    assert seen["landed"] >= seen["examples"] // 4
    assert seen["overflowed"] > 0


@pytest.mark.parametrize("name", STIFF_AFFINE)
def test_stiff_affine_plants_flow_only_their_corners(name):
    # where 1 + h a < 0 a curvature bound would refuse every state, but the
    # chord does not need one: the RK4 map is affine in the input however
    # stiff the plant, even where it is unstable, so each state flows the
    # two corners of its input box and nothing more
    plant, spec = STIFF_AFFINE[name]
    fs = assert_matches_full_sweep(plant, spec)
    assert fs.rows_flowed == 2 * fs.n_states


def landing_problems():
    """Fixed problems whose rows are proved to land, in the form of
    `problems()`: the linear-pair plant and the nonlinear plant on coarse
    lattices.  The nonlinear plant's curvature bound needs 1 + h inf J_ii
    >= 0, so 50 substeps."""
    out = []
    for pair, eta, mu, substeps in ((lambda: linear_pair(1), 0.05, 0.01, 20),
                                    (nonlinear_pair, 0.2, 0.02, 50)):
        plant, spec, params = pair()
        out.append((plant, spec, SynthesisParams(
            epsilon=params.epsilon, theta_p=params.theta_p,
            theta_q=params.theta_q, tau=params.tau, eta=eta, mu=mu), substeps))
    return out


LANDING_PROBLEMS = landing_problems()


def test_handed_over_cells_equal_the_full_sweep():
    # the sweep's rows, handed over as the cells they are proved to land in
    # or flowed, give the full sweep's successors in the box, against the
    # cover and against each state's own cell.  The fixed landing problems
    # must land rows whatever the draws do
    seen = {"examples": 0, "landed": 0}
    for problem in LANDING_PROBLEMS + problems(50, seed=7):
        plant, _, params, substeps = problem
        spec = AbstractionSpec(params.tau, params.eta, params.mu, substeps)
        st_lat = Lattice(plant.state_box, 2.0 * params.eta)
        engine = engine_of(plant, spec)
        X, s = st_lat.points(), st_lat.spacing
        own, hit = np.arange(X.shape[0]), False
        ref = np.full((X.shape[0], engine.inputs.shape[0]), -1)
        src, uix, dst = full_sweep(plant, spec).T
        ref[src, uix] = dst
        boxes = [(np.broadcast_to((st_lat.kmin + st_lat.kmax) * (s / 2.0),
                                  X.shape), st_lat.counts * (s / 2.0), None),
                 (X, np.full(X.shape[1], s / 2.0), own)]
        for P, half, target in boxes:
            out = np.full(ref.shape, -1)
            bare = [0]

            def write(src, cols, Z, cells):
                if Z is None:
                    # a slice of states' rows over cols, -1 where a row is
                    # not proved to land
                    at, k = np.nonzero(cells >= 0)
                    src, cols, cells = own[src][at], cols[k], cells[at, k]
                    bare[0] += src.size
                inside = (cells >= 0 if target is None
                          else cells == target[src])
                out[src[inside], cols[inside]] = cells[inside]

            _, rows_landed = engine.run(X, P, half, write, nearest=False)
            assert rows_landed == bare[0]
            want = ref if target is None else np.where(
                ref == target[:, None], ref, -1)
            assert np.array_equal(out, want)
            hit |= rows_landed > 0
        assert hit or all(problem is not p for p in LANDING_PROBLEMS)
        seen["examples"] += 1
        seen["landed"] += hit
    # the landing proofs must decide rows in some draws
    assert seen["landed"] >= seen["examples"] // 4
