"""The generated RK4 kernels against the closure-tree RK4 they replaced.

`reference_compile` and `reference_flow_tile` are copies of the evaluator
the kernels replaced: a closure per AST node, and RK4 over lists of columns
(Python floats for a one-row tile); its integer powers from 2 to 16 follow
the kernels' rule, a product of squares (`product_of_squares`).  The
kernels must give the same endpoints bit for bit, on every tile size and
thread count, and rows that leave a field's domain must end at NaN while
the other rows keep their endpoints.
"""

import numpy as np
import pytest

from symctrl import (ControlSystem, DivergenceError, flow, flow_many,
                     parse_expression)
from symctrl.dynamics import ROW_TILE, TILE_ROWS, _flow_tile
from symctrl.expr import Call, EvalDomainError, Neg, Num, Var

from _systems import every_operator_system, linear_pair, nonlinear_pair

_NUMPY_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}


def product_of_squares(a, k):
    """a^k by binary powering: a^3 is a * (a*a), a^4 (a*a) * (a*a)."""
    power = None
    while k:
        if k & 1:
            power = a if power is None else power * a
        k >>= 1
        if k:
            a = a * a
    return power


def reference_compile(expr):
    if isinstance(expr, Num):
        v = float(expr.value)
        return lambda X, U: v
    if isinstance(expr, Var):
        i = expr.index
        if expr.kind == "x":
            return lambda X, U: X[i]
        return lambda X, U: U[i]
    if isinstance(expr, Neg):
        f = reference_compile(expr.operand)
        return lambda X, U: -f(X, U)
    if isinstance(expr, Call):
        f = reference_compile(expr.arg)
        if expr.func == "sqrt":
            def do_sqrt(X, U):
                a = f(X, U)
                if np.any(np.less(a, 0.0)):
                    raise EvalDomainError("sqrt of negative argument", expr)
                return np.sqrt(a)
            return do_sqrt
        g = _NUMPY_FUNCS[expr.func]
        return lambda X, U: g(f(X, U))
    fl = reference_compile(expr.left)
    fr = reference_compile(expr.right)
    if expr.op == "+":
        return lambda X, U: fl(X, U) + fr(X, U)
    if expr.op == "-":
        return lambda X, U: fl(X, U) - fr(X, U)
    if expr.op == "*":
        return lambda X, U: fl(X, U) * fr(X, U)
    if expr.op == "/":
        def do_div(X, U):
            b = fr(X, U)
            if np.any(np.equal(b, 0.0)):
                raise EvalDomainError("division by zero", expr)
            return fl(X, U) / b
        return do_div
    if isinstance(expr.right, Num) and float(expr.right.value).is_integer():
        k = int(expr.right.value)
        if 2 <= k <= 16:
            return lambda X, U: product_of_squares(fl(X, U), k)
        if k >= 0:
            return lambda X, U: np.power(fl(X, U), k)

        def do_ipow(X, U):
            a = fl(X, U)
            if np.any(np.equal(a, 0.0)):
                raise EvalDomainError("zero raised to negative power", expr)
            return np.power(a, float(k))
        return do_ipow

    def do_pow(X, U):
        a = fl(X, U)
        b = fr(X, U)
        bad = (np.less(a, 0.0) & np.not_equal(np.floor(b), b)) | (
            np.equal(a, 0.0) & np.less(b, 0.0))
        if np.any(bad):
            raise EvalDomainError("power outside real domain", expr)
        return np.power(a, b)
    return do_pow


def reference_flow_tile(sys, X, U, tau, substeps, visit=None):
    """RK4 over columns; visit, if given, is called with the columns of
    each point at which the field is evaluated."""
    visit = visit or (lambda cols: None)
    funcs = [reference_compile(e) for e in sys.field]
    if X.shape[0] == 1:
        xcols = [float(v) for v in X[0]]
        ucols = [float(v) for v in U[0]]
    else:
        xcols = [np.ascontiguousarray(X[:, i], dtype=float)
                 for i in range(sys.n)]
        ucols = [np.ascontiguousarray(U[:, i], dtype=float)
                 for i in range(sys.m)]
    h = tau / substeps
    n = sys.n
    with np.errstate(all="ignore"):
        for _ in range(substeps):
            visit(xcols)
            k1 = [f(xcols, ucols) for f in funcs]
            xt = [xcols[i] + (h / 2.0) * k1[i] for i in range(n)]
            visit(xt)
            k2 = [f(xt, ucols) for f in funcs]
            for i in range(n):
                xt[i] = xcols[i] + (h / 2.0) * k2[i]
            visit(xt)
            k3 = [f(xt, ucols) for f in funcs]
            for i in range(n):
                xt[i] = xcols[i] + h * k3[i]
            visit(xt)
            k4 = [f(xt, ucols) for f in funcs]
            for i in range(n):
                acc = k2[i] + k3[i]
                acc *= 2.0
                acc += k1[i]
                acc += k4[i]
                acc *= h / 6.0
                xcols[i] = xcols[i] + acc
    out = np.empty((X.shape[0], n), dtype=float)
    for i in range(n):
        out[:, i] = xcols[i]
    return out


def reference_cases():
    """(label, system, tau, substeps); the operator system takes one RK4
    step of h = 1, so that a last-bit difference in a field value reaches
    the endpoint often enough to show."""
    lin_plant, lin_spec, lin_params = linear_pair(1)
    nl_plant, nl_spec, nl_params = nonlinear_pair()
    return [("operators", every_operator_system(), 1.0, 1),
            ("nonlinear plant", nl_plant, nl_params.tau, 50),
            ("nonlinear spec", nl_spec, nl_params.tau, 50),
            ("linear #1 plant", lin_plant, lin_params.tau, 50),
            ("linear #1 spec", lin_spec, lin_params.tau, 50)]


@pytest.mark.parametrize("case", reference_cases(), ids=lambda c: c[0])
def test_kernel_matches_closure_rk4(case, monkeypatch):
    _, sys, tau, substeps = case
    rng = np.random.default_rng(17)
    rows = TILE_ROWS + 123  # two tiles, the second one short
    X = rng.uniform(sys.state_box[:, 0], sys.state_box[:, 1],
                    size=(rows, sys.n))
    U = rng.uniform(sys.input_box[:, 0], sys.input_box[:, 1],
                    size=(rows, sys.m))
    ref = reference_flow_tile(sys, X, U, tau, substeps)
    assert np.all(np.isfinite(ref))
    # one tile runs on the calling thread; the row count alone picks the
    # kernel, over floats row by row up to ROW_TILE rows, else over arrays
    for size in (2, 7, ROW_TILE, ROW_TILE + 1, 256, TILE_ROWS):
        assert np.array_equal(_flow_tile(sys, X[:size], U[:size], tau,
                                         substeps), ref[:size]), size
    for i in range(0, rows, 2053):
        one = (X[i:i + 1], U[i:i + 1], tau, substeps)
        assert np.array_equal(_flow_tile(sys, *one),
                              reference_flow_tile(sys, *one)), i
    for threads in ("1", "2"):
        monkeypatch.setenv("SYMCTRL_THREADS", threads)
        assert np.array_equal(flow_many(sys, X, U, tau, substeps), ref), \
            threads


@pytest.mark.parametrize("case", reference_cases(), ids=lambda c: c[0])
def test_hull_kernel_bounds_every_stage_point(case):
    # the coarse pass of the integrated scan: the same endpoints as the
    # plain kernel, plus the componentwise hull of every RK4 stage point
    _, sys, tau, substeps = case
    rng = np.random.default_rng(19)
    X = rng.uniform(sys.state_box[:, 0], sys.state_box[:, 1], size=(300, sys.n))
    U = rng.uniform(sys.input_box[:, 0], sys.input_box[:, 1], size=(300, sys.m))
    lo, hi = X.copy(), X.copy()

    def visit(cols):
        for i, col in enumerate(cols):
            np.minimum(lo[:, i], col, out=lo[:, i])
            np.maximum(hi[:, i], col, out=hi[:, i])

    ref = reference_flow_tile(sys, X, U, tau, substeps, visit)
    for rows in (1, 300):
        Z, got_lo, got_hi = _flow_tile(sys, X[:rows], U[:rows], tau, substeps,
                                       hull=True)
        assert np.array_equal(Z, ref[:rows])
        assert np.array_equal(got_lo, lo[:rows])
        assert np.array_equal(got_hi, hi[:rows])


def domain_system(text):
    """A system of one component per "; "-separated expression of `text`."""
    texts = text.split("; ")
    n = len(texts)
    return ControlSystem(n=n, m=1, state_box=[[-1, 1]] * n,
                         init_box=[[-1, 1]] * n, input_box=[[-0.5, 0.5]],
                         field=tuple(parse_expression(t, n, 1) for t in texts))


@pytest.mark.parametrize("text", ["sqrt(x1) + u1", "0.1/x1 - u1",
                                  "0.1*x1^-1 - u1", "x1^0.5 + u1",
                                  "(x1 + 0.5)^x1 + u1", "sqrt(0 - 1) + x1",
                                  "x1 - 0.1/u1", "u1 - x1; sqrt(x2) + u1"])
def test_rows_leaving_the_domain_end_at_nan(text):
    # a row ends at NaN exactly when the reference, run on that row alone,
    # raises EvalDomainError; every other row keeps its endpoint, whether it
    # flows in a long tile (over arrays), in a ROW_TILE-row tile (row by row
    # over floats) or alone, and in a long tile its hull.  x1 - 0.1/u1
    # divides in the prologue, where a zero divisor would raise over
    # floats.  On two axes, a row that leaves the domain on the second ends
    # at NaN on both, though the first does not read the second
    sys = domain_system(text)
    n = sys.n
    rng = np.random.default_rng(23)
    X = np.concatenate([np.repeat([[0.0], [-0.0], [0.3], [-0.3]], n, axis=1),
                        rng.uniform(-1, 1, size=(96, n))])
    U = np.concatenate([[[0.0], [0.1], [-0.5], [0.5]],
                        rng.uniform(-0.5, 0.5, size=(96, 1))])
    batch = _flow_tile(sys, X, U, 1.0, 5)
    hulled, lo, hi = _flow_tile(sys, X, U, 1.0, 5, hull=True)
    small = _flow_tile(sys, X[:ROW_TILE], U[:ROW_TILE], 1.0, 5)
    left = 0
    for i in range(X.shape[0]):
        alone = _flow_tile(sys, X[i:i + 1], U[i:i + 1], 1.0, 5)
        flowed = [batch[i:i + 1], hulled[i:i + 1], alone] + (
            [small[i:i + 1]] if i < ROW_TILE else [])
        ref_lo, ref_hi = X[i:i + 1].copy(), X[i:i + 1].copy()

        def visit(cols):
            for k, col in enumerate(cols):
                ref_lo[0, k] = min(ref_lo[0, k], col)
                ref_hi[0, k] = max(ref_hi[0, k], col)

        try:
            ref = reference_flow_tile(sys, X[i:i + 1], U[i:i + 1], 1.0, 5,
                                      visit)
        except EvalDomainError:
            assert all(np.all(np.isnan(z)) for z in flowed), i
            left += 1
        else:
            assert all(np.array_equal(z, ref) for z in flowed), i
            assert np.array_equal(lo[i:i + 1], ref_lo), i
            assert np.array_equal(hi[i:i + 1], ref_hi), i
    assert 0 < left < X.shape[0] or text == "sqrt(0 - 1) + x1"


def test_flow_raises_on_leaving_the_domain():
    sys = domain_system("sqrt(x1) + u1")
    with pytest.raises(DivergenceError):
        flow(sys, [-0.25], [0.0], 1.0, 5)
    with pytest.raises(DivergenceError):
        flow_many(sys, [[0.5], [-0.25]], [[0.0], [0.0]], 1.0, 5)
    Z = flow_many(sys, [[0.5], [-0.25]], [[0.0], [0.0]], 1.0, 5,
                  check_finite=False)
    assert np.isfinite(Z[0, 0]) and np.isnan(Z[1, 0])
