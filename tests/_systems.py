"""Reference systems shared across the test suite: the 3-D nonlinear
tracking pair, the eight 2-D linear benchmark pairs, a small 1-D toy
pair for fast tests, a 4-D field that uses every operator, and the
hypothesis strategy `problems` of random small plant and specification
pairs.

Two entries of the published linear benchmark table carry typos that
independent count fingerprints pin down: example 3's plant matrix prints
-0.1 for -1.0 (only diag(-0.6, -1.0) reproduces its published model size,
composition, pruning and controller counts, all exactly), and example 5's
specification matrix prints +0.8 for -0.8 (the benchmark classifies its
eigenvalues as complex, which only the negative sign yields, and only the
negative sign reproduces the published counts).  The corrected matrices are
used here; with them every published count reproduces exactly.
"""

import math

from hypothesis import strategies as st

from symctrl import (ControlSystem, StabilityCertificate, SynthesisParams,
                     parse_expression)

NONLINEAR_PLANT_FIELD = ("-2*x1 + x3^2 - u1",
                         "2*x1 - 7*exp(x2) + 7",
                         "-3*x3 + 0.75*u1^2")
NONLINEAR_SPEC_FIELD = ("-3*x1 + x3^3",
                        "x1 - 5*sin(x2)",
                        "-x2^2 - 4*x3")


def nonlinear_pair():
    plant = ControlSystem(
        n=3, m=1,
        state_box=[[-1, 1]] * 3, init_box=[[-1, 0]] * 3,
        input_box=[[-1, 1]],
        field=tuple(parse_expression(t, 3, 1) for t in NONLINEAR_PLANT_FIELD),
        certificate=StabilityCertificate(
            beta_c=math.sqrt(2.0), beta_lambda=1.21,
            gamma_a=math.sqrt(14.88), gamma_p=0.5))
    spec = ControlSystem(
        n=3, m=0,
        state_box=[[-1, 1]] * 3, init_box=[[-1, 0]] * 3, input_box=[],
        field=tuple(parse_expression(t, 3, 0) for t in NONLINEAR_SPEC_FIELD),
        certificate=StabilityCertificate(beta_c=math.sqrt(2.0),
                                         beta_lambda=1.0))
    params = SynthesisParams(epsilon=0.2, theta_p=0.13, theta_q=0.07,
                             tau=1.0, eta=1.0 / 30.0, mu=0.001)
    return plant, spec, params


def linear_field(A, B, n, m):
    terms = []
    for i in range(n):
        parts = [f"{A[i][j]}*x{j + 1}" for j in range(n) if A[i][j]]
        parts += [f"{B[i][j]}*u{j + 1}" for j in range(m) if B[i][j]]
        terms.append(" + ".join(parts) if parts else "0")
    return tuple(parse_expression(t, n, m) for t in terms)


LINEAR_AP = [
    [[-1.0, -0.5], [0.5, -1.0]],
    [[-0.8, -0.3], [0.3, -0.8]],
    [[-0.6, 0.0], [0.0, -1.0]],   # (2,2) corrected from the printed -0.1
    [[-0.9, 0.0], [0.0, -0.6]],
    [[-0.9, 0.0], [0.0, -0.6]],
    [[-1.5, 1.0], [0.0, -1.5]],
    [[-0.8, 0.0], [0.0, -0.6]],
    [[-1.5, 1.0], [0.0, -1.5]],
]
LINEAR_BP = [[[1.0], [1.0]]] * 4 + [[[1.0], [0.0]]] * 4
LINEAR_AQ = [
    [[-0.75, -0.25], [0.25, -0.75]],
    [[-1.0, 0.0], [0.0, -1.0]],
    [[-1.0, 0.0], [0.0, -2.0]],
    [[-0.8, -0.4], [0.4, -0.8]],
    [[-0.8, -0.4], [0.4, -0.8]],  # (2,2) corrected from the printed +0.8
    [[-0.9, -0.5], [0.5, -0.9]],
    [[-1.2, 0.0], [0.0, -0.5]],
    [[-1.0, -0.75], [0.75, -1.0]],
]

# certificates for the linear benchmarks are not published; these are chosen
# to satisfy the quantization inequalities at the benchmark parameter set
LINEAR_CERT_P = StabilityCertificate(beta_c=1.2, beta_lambda=1.5,
                                     gamma_a=0.5, gamma_p=1.0)
LINEAR_CERT_Q = StabilityCertificate(beta_c=1.2, beta_lambda=1.5)


def linear_pair(example: int):
    """Benchmark pair number 1..8."""
    k = example - 1
    plant = ControlSystem(
        n=2, m=1,
        state_box=[[-0.5, 0.5]] * 2, init_box=[[-0.25, 0.25]] * 2,
        input_box=[[-2.0, 2.0]],
        field=linear_field(LINEAR_AP[k], LINEAR_BP[k], 2, 1),
        certificate=LINEAR_CERT_P)
    spec = ControlSystem(
        n=2, m=0,
        state_box=[[-0.5, 0.5]] * 2, init_box=[[-0.25, 0.25]] * 2,
        input_box=[],
        field=linear_field(LINEAR_AQ[k], [], 2, 0),
        certificate=LINEAR_CERT_Q)
    params = SynthesisParams(epsilon=0.1, theta_p=0.05, theta_q=0.05,
                             tau=0.5, eta=0.01, mu=0.001)
    return plant, spec, params


# published counts for the linear benchmarks:
# (integrated states, bad states, integrated memory, Nb states, Nb transitions)
LINEAR_EXPECTED = {
    1: (239, 490, 1207, 403, 5719),
    2: (281, 448, 1291, 521, 6753),
    3: (199, 530, 1127, 343, 4331),
    4: (277, 452, 1283, 499, 6505),
    5: (99, 630, 927, 99, 2461),
    6: (109, 620, 947, 129, 3665),
    7: (81, 648, 891, 153, 3717),
    8: (53, 676, 835, 65, 1847),
}


def toy_pair():
    """Fast 1-D pair: plant dx = -x + u tracking spec dx = -x."""
    plant = ControlSystem(
        n=1, m=1, state_box=[[-1, 1]], init_box=[[-0.5, 0.0]],
        input_box=[[-0.25, 0.25]],
        field=(parse_expression("-x1 + u1", 1, 1),),
        certificate=StabilityCertificate(1.0, 1.0, 0.2, 1.0))
    spec = ControlSystem(
        n=1, m=0, state_box=[[-1, 1]], init_box=[[-0.5, 0.0]], input_box=[],
        field=(parse_expression("-x1", 1, 0),),
        certificate=StabilityCertificate(1.0, 1.0))
    params = SynthesisParams(epsilon=0.2, theta_p=0.1, theta_q=0.1,
                             tau=0.5, eta=0.025, mu=0.025)
    return plant, spec, params


def every_operator_system():
    """A 4-D field using every function and power form, the negative
    integer literal exponent -3 included; on the box [0.5, 1]^4 sqrt, the
    negative powers and x2^x3 stay in their domains."""
    field = tuple(parse_expression(text, 4, 1) for text in (
        "0.5*exp(-x1) + 0.2*sqrt(x1) + 0.1*x1^-2 + 0.1*u1 - x1",
        "0.5*sin(x2) + 0.5*x2/(1 + x1) + 0.2*x2^x3 - x2",
        "0.5*cos(x3) + 0.5*abs(x2 - 0.75) + 0.5*x3^2 - x3",
        "0.5*x4^3 + 0.3*x1*x4 - x4 + 0.1*x4^-3"))
    return ControlSystem(n=4, m=1, state_box=[[0.5, 1]] * 4,
                         init_box=[[0.5, 1]] * 4, input_box=[[-1, 1]],
                         field=field)


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
# draws whose specification drifts across the state box
MULTI_WAVE_DRAWS = 100


@st.composite
def problems(draw, drifting=False, shifted=False):
    """A random plant and specification pair; with `drifting`, the initial
    box is a corner sub-box and the specification contracts toward a centre
    outside it, so that synthesis runs over several waves.  With `shifted`,
    the plant's initial box is at most one cell wide and the
    specification's is the plant's shifted by up to one cell per axis, so
    that the two may be disjoint and still share outward-rounded cells."""
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
    if drifting:
        # per axis, the initial box is the low or the high quarter of the
        # state box and the centre lies in the other half
        sides = [draw(st.sampled_from((-1, 1))) for _ in range(n)]
        centre = [-side * draw(st.floats(0.0, 0.8 * w)) for side in sides]
    for i in range(n):
        a = draw(st.floats(0.5, 3.0))
        b = draw(st.floats(-0.5, 0.5))
        spec_i = f"{-a}*x{i + 1} + {b}*{draw(terms(xs))}"
        if drifting:
            spec_i += f" + {a * centre[i]}"
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
    if drifting:
        init = spec_init = [sorted((side * w / 2, side * w)) for side in sides]
    elif shifted:
        # one cell, 2 eta, is at most w / 2: both boxes stay inside the box
        lo = draw(st.floats(-w / 2, 0.0))
        init = [[lo, lo + draw(st.floats(0.0, 2 * eta))]] * n
        spec_init = [[a + s, b + s] for a, b in init
                     for s in [draw(st.floats(-2 * eta, 2 * eta))]]
    else:
        init = spec_init = [[-w / 2, draw(st.floats(0.0, w / 2))]] * n
    plant = ControlSystem(
        n=n, m=m, state_box=box, init_box=init, input_box=[[-r, r]] * m,
        field=tuple(parse_expression(t, n, m) for t in plant_field),
        certificate=StabilityCertificate(1.0, 1.0, 1.0, 1.0))
    spec = ControlSystem(
        n=n, m=0, state_box=box, init_box=spec_init, input_box=[],
        field=tuple(parse_expression(t, n, 0) for t in spec_field),
        certificate=StabilityCertificate(1.0, 1.0))
    params = SynthesisParams(epsilon=1.0, theta_p=0.5, theta_q=0.5, tau=tau,
                             eta=eta, mu=mu)
    return plant, spec, params, substeps
