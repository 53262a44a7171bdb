"""Reference systems shared across the test suite: the ten problems of
`configs/`, loaded as the `symctrl` commands load them (`config`; the toy
pair, the eight linear benchmark pairs and the 3-D nonlinear tracking pair
as `(plant, specification, params)`), a 4-D field that uses every
operator, the hypothesis strategies `problems` of random small plant and
specification pairs and `affine_plants` of random affine plants, and
`STIFF_AFFINE`, affine plants on which an RK4 substep overshoots.
"""

import os

from hypothesis import strategies as st

from symctrl import (AbstractionSpec, ControlSystem, StabilityCertificate,
                     SynthesisParams, parse_expression)
from symctrl.cli import ProblemConfig, load_config

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def config(name: str) -> ProblemConfig:
    """The shipped config `configs/<name>.json`."""
    return load_config(os.path.join(CONFIGS, f"{name}.json"))


def _pair(name: str):
    cfg = config(name)
    return cfg.plant, cfg.specification, cfg.params


def toy_pair():
    """Fast 1-D pair: plant dx = -x + u tracking spec dx = -x."""
    return _pair("toy_tracking")


def linear_pair(example: int):
    """Benchmark pair number 1..8."""
    return _pair(f"linear_example_{example}")


def nonlinear_pair():
    return _pair("nonlinear_tracking")


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


@st.composite
def affine_plants(draw):
    """A random plant with an affine field, n and m of 1 or 2, and its
    abstraction spec.  One input gain in four is huge, so that the flows
    overflow for some inputs and not for others."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def coefficient(huge=False):
        if huge and not draw(st.integers(0, 3)):
            return draw(st.sampled_from((-1.0, 1.0))) * draw(
                st.sampled_from((1e150, 1e307, 5e307, 1e308)))
        return round(draw(st.floats(-3.0, 3.0)), 3)

    field = tuple(parse_expression(" + ".join(
        [f"{coefficient()!r}*x{i + 1}" for i in range(n)]
        + [f"{coefficient(huge=True)!r}*u{j + 1}" for j in range(m)]
        + [repr(coefficient())]), n, m) for _ in range(n))
    w, r = draw(st.floats(0.5, 1.5)), draw(st.floats(0.5, 2.0))
    plant = ControlSystem(n=n, m=m, state_box=[[-w, w]] * n,
                          init_box=[[-w, w]] * n, input_box=[[-r, r]] * m,
                          field=field)
    spec = AbstractionSpec(
        tau=draw(st.floats(0.2, 1.0)),
        eta=w / draw(st.integers(2, (12, 5)[n - 1])) / 2.0,
        mu=r / draw(st.integers(4, (40, 6)[m - 1])) / 2.0,
        substeps=draw(st.sampled_from((1, 2, 5, 10))))
    return plant, spec


def _stiff_affine(field, tau, substeps, eta):
    n = len(field)
    plant = ControlSystem(n=n, m=1, state_box=[[-1, 1]] * n,
                          init_box=[[-1, 1]] * n, input_box=[[-2, 2]],
                          field=tuple(parse_expression(t, n, 1)
                                      for t in field))
    return plant, AbstractionSpec(tau=tau, eta=eta, mu=0.01,
                                  substeps=substeps)


# affine plants and their abstraction specs where 1 + h a < 0 for the
# diagonal entry a of the Jacobian, h = tau / substeps: h a is -1.8 on the
# first two, -3.5 on the third, where the RK4 map is unstable, and -4 on the
# last
STIFF_AFFINE = {
    "1d-ha-1.8": _stiff_affine(("-9*x1 + u1",), 0.2, 1, 0.02),
    "2d-ha-1.8": _stiff_affine(("-9*x1 + x2 + u1", "-x2"), 0.2, 1, 0.05),
    "1d-ha-3.5": _stiff_affine(("-35*x1 + u1",), 1.0, 10, 0.02),
    "1d-ha-4": _stiff_affine(("-20*x1 + u1",), 2.0, 10, 0.02),
}
