"""Reference systems shared across the test suite: the ten problems of
`configs/`, loaded as the `symctrl` commands load them (`config`; the toy
pair, the eight linear benchmark pairs and the 3-D nonlinear tracking pair
as `(plant, specification, params)`), a 4-D field that uses every
operator, `problems`, seeded draws of random small plant and
specification pairs, and `affine_plants`, of random affine plants, and
`STIFF_AFFINE`, affine plants on which an RK4 substep overshoots.
"""

import os

import numpy as np

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
#
# Each draw comes from a numpy generator seeded with (seed, index), so that it
# depends on those two numbers alone and the coverage floors that tests count
# over the draws stay where they are.  Hypothesis's derandomized draws also
# mix in the literals of the modules under test and the test's own source, so
# an edit to either moved them.

class Draw:
    """Uniform draws from the generator seeded with (seed, index)."""

    def __init__(self, seed: int, index: int):
        self.rng = np.random.default_rng([seed, index])

    def integers(self, lo: int, hi: int) -> int:
        """An integer of [lo, hi]."""
        return int(self.rng.integers(lo, hi, endpoint=True))

    def floats(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def choice(self, options):
        return options[self.integers(0, len(options) - 1)]


def terms(draw: Draw, names, leaves: int = 4, depth: int = 3) -> str:
    """Expression text over `names`, of at most `leaves` leaves nested at
    most `depth` deep, a leaf two times in three at each level: the four
    operators, the five functions and integer and fractional powers.
    Division, sqrt and the powers -1 and 0.5 are drawn less often: near 0
    their derivatives are unbounded, so the scan keeps every input of the
    states that reach there."""
    if not depth or draw.integers(0, 2):
        if draw.integers(0, 1):
            return draw.choice(names)
        return repr(round(draw.floats(-2.0, 2.0), 3))
    kind = draw.choice(("op", "call", "power") if leaves > 1
                       else ("call", "power"))
    if kind == "op":
        k = draw.integers(1, leaves - 1)
        return (f"({terms(draw, names, k, depth - 1)} "
                f"{draw.choice('++--**/')} "
                f"{terms(draw, names, leaves - k, depth - 1)})")
    inner = terms(draw, names, leaves, depth - 1)
    if kind == "call":
        return (f"{draw.choice(('sin', 'cos', 'exp', 'abs') * 2 + ('sqrt',))}"
                f"({inner})")
    return f"({inner})^{draw.choice(('2', '3') * 2 + ('-1', '0.5'))}"


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


def problems(count: int, seed: int, drifting=False, shifted=False) -> list:
    """`count` random plant and specification pairs, (plant, spec, params,
    substeps), drawn with `seed`; with `drifting`, the initial box is a
    corner sub-box and the specification contracts toward a centre outside
    it, so that synthesis runs over several waves.  With `shifted`, the
    plant's initial box is at most one cell wide and the specification's is
    the plant's shifted by up to one cell per axis, so that the two may be
    disjoint and still share outward-rounded cells."""
    return [_problem(Draw(seed, i), drifting, shifted) for i in range(count)]


def _problem(draw: Draw, drifting: bool, shifted: bool):
    n = draw.integers(1, 3)
    m = draw.integers(1, 2)
    xs = [f"x{i + 1}" for i in range(n)]
    us = [f"u{j + 1}" for j in range(m)]
    w = draw.floats(0.5, 1.5)
    eta = w / draw.integers(2, STATE_HALF[n]) / 2.0
    r = draw.floats(0.5, 2.0)
    mu = r / draw.integers(2, INPUT_HALF[m]) / 2.0
    tau = draw.floats(0.2, 1.0)
    substeps = draw.choice((1, 2) + (5, 10) * 3)
    spec_field, plant_field = [], []
    # the plant may be unstable where the specification is not, in half the
    # draws: there RK4's higher-order terms raise the growth above the
    # first-order one.  In the other half it is the specification plus its
    # inputs, a small term and the blow-ups, and so controlled more often
    unstable = draw.integers(0, 1)
    if drifting:
        # per axis, the initial box is the low or the high quarter of the
        # state box and the centre lies in the other half
        sides = [draw.choice((-1, 1)) for _ in range(n)]
        centre = [-side * draw.floats(0.0, 0.8 * w) for side in sides]
    for i in range(n):
        a = draw.floats(0.5, 3.0)
        b = draw.floats(-0.5, 0.5)
        spec_i = f"{-a}*x{i + 1} + {b}*{terms(draw, xs)}"
        if drifting:
            spec_i += f" + {a * centre[i]}"
        gains = " + ".join(
            f"{draw.choice((-1, 1)) * draw.floats(0.5, 2.0)}*{u}" for u in us)
        d = draw.floats(-0.2, 0.2)
        blow = draw.choice(BLOW_UPS)
        k = draw.floats(0.0, 3.0) if unstable else 0.0
        plant_field.append(f"{spec_i} + {k}*x{i + 1} + {gains} + "
                           f"{d}*{terms(draw, xs + us)} + {blow}")
        spec_field.append(spec_i)
    box = [[-w, w]] * n
    if drifting:
        init = spec_init = [sorted((side * w / 2, side * w)) for side in sides]
    elif shifted:
        # one cell, 2 eta, is at most w / 2: both boxes stay inside the box
        lo = draw.floats(-w / 2, 0.0)
        init = [[lo, lo + draw.floats(0.0, 2 * eta)]] * n
        spec_init = [[a + s, b + s] for a, b in init
                     for s in [draw.floats(-2 * eta, 2 * eta)]]
    else:
        init = spec_init = [[-w / 2, draw.floats(0.0, w / 2)]] * n
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


def affine_plants(count: int, seed: int) -> list:
    """`count` random plants with an affine field, n and m of 1 or 2, and
    their abstraction specs, drawn with `seed`.  One input gain in four is
    huge, so that the flows overflow for some inputs and not for others."""
    return [_affine_plant(Draw(seed, i)) for i in range(count)]


def _affine_plant(draw: Draw):
    n, m = draw.integers(1, 2), draw.integers(1, 2)

    def coefficient(huge=False):
        if huge and not draw.integers(0, 3):
            return draw.choice((-1.0, 1.0)) * draw.choice(
                (1e150, 1e307, 5e307, 1e308))
        return round(draw.floats(-3.0, 3.0), 3)

    field = tuple(parse_expression(" + ".join(
        [f"{coefficient()!r}*x{i + 1}" for i in range(n)]
        + [f"{coefficient(huge=True)!r}*u{j + 1}" for j in range(m)]
        + [repr(coefficient())]), n, m) for _ in range(n))
    w, r = draw.floats(0.5, 1.5), draw.floats(0.5, 2.0)
    plant = ControlSystem(n=n, m=m, state_box=[[-w, w]] * n,
                          init_box=[[-w, w]] * n, input_box=[[-r, r]] * m,
                          field=field)
    spec = AbstractionSpec(
        tau=draw.floats(0.2, 1.0),
        eta=w / draw.integers(2, (12, 5)[n - 1]) / 2.0,
        mu=r / draw.integers(4, (40, 6)[m - 1]) / 2.0,
        substeps=draw.choice((1, 2, 5, 10)))
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
