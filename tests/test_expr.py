import math
import random

import numpy as np
import pytest

from symctrl import (EvalDomainError, ExprSyntaxError, evaluate,
                     format_expression, parse_expression)
from symctrl.expr import (MAX_DEPTH, Bin, FieldCode, Neg, Num, Var,
                          compile_expression, derivative, enclose, is_affine)

from test_kernel import product_of_squares


def test_arithmetic_with_states_and_inputs():
    e = parse_expression("-2*x1 + x3^2 - u1", 3, 1)
    assert evaluate(e, (1, 0, 2), (3,)) == -1.0


def test_exp_of_zero():
    e = parse_expression("7*exp(x2)", 2, 0)
    assert evaluate(e, (5.0, 0.0)) == 7.0


def test_unclosed_parenthesis_reports_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression("sin(", 1, 0)
    assert exc.value.position == 4


def test_sin_of_zero():
    e = parse_expression("x1 - 5*sin(x2)", 2, 0)
    assert evaluate(e, (2.0, 0.0)) == 2.0


def test_mixed_power_and_input():
    e = parse_expression("-3*x3 + 0.75*u1^2", 3, 1)
    assert evaluate(e, (0, 0, 1), (2,)) == 0.0


def test_sqrt_negative_is_domain_error():
    e = parse_expression("sqrt(x1)", 1, 0)
    with pytest.raises(EvalDomainError):
        evaluate(e, (-1.0,))


def test_division_by_zero_is_domain_error():
    e = parse_expression("1/x1", 1, 0)
    with pytest.raises(EvalDomainError):
        evaluate(e, (0.0,))


def test_unknown_identifier_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("pi*x1", 1, 0)


def test_variable_index_out_of_range():
    with pytest.raises(ExprSyntaxError):
        parse_expression("x4", 3, 0)
    with pytest.raises(ExprSyntaxError):
        parse_expression("u2", 3, 1)


def test_empty_expression_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("   ", 1, 0)


def test_power_right_associative():
    e = parse_expression("2^3^2", 1, 0)
    assert evaluate(e, (0.0,)) == 2.0 ** 9


def test_precedence_power_over_product_over_sum():
    e = parse_expression("2 + 3 * 2 ^ 2", 1, 0)
    assert evaluate(e, (0.0,)) == 14.0


def test_unary_minus_binds_below_power():
    e = parse_expression("-x1^2", 1, 0)
    assert evaluate(e, (3.0,)) == -9.0


def test_negative_literal_exponent_parses_to_literal():
    assert parse_expression("x2^-2", 2, 0) == Bin("^", Var("x", 1), Num(-2.0))
    assert parse_expression("-3*x1", 1, 0) == Bin("*", Num(-3.0), Var("x", 0))
    # a minus before a power still negates the power
    assert parse_expression("-2^2", 1, 0) == Neg(Bin("^", Num(2.0), Num(2.0)))
    assert evaluate(parse_expression("-2^2", 1, 0), (0.0,)) == -4.0
    assert evaluate(parse_expression("(-2)^2", 1, 0), (0.0,)) == 4.0


def test_negative_literal_exponent_values_equal_old_ast():
    # the old parse, x2^(-(2)), ran the general power; the literal runs the
    # integer one, with the same values and the same domain
    rng = np.random.default_rng(9)
    X = rng.uniform(-2, 2, size=(2000, 2))
    X[:5, 1] = (0.5, -0.5, 1.0, -1.0, 2.0)
    for k in (1.0, 2.0, 3.0):
        new = parse_expression(f"x2^-{k}", 2, 0)
        old = Bin("^", Var("x", 1), Neg(Num(k)))
        a = compile_expression(new)([X[:, 0], X[:, 1]], [])
        b = compile_expression(old)([X[:, 0], X[:, 1]], [])
        assert np.array_equal(a, b)
        for i in range(0, 2000, 37):
            assert evaluate(new, X[i]) == evaluate(old, X[i]) == a[i]
        for e in (new, old):
            with pytest.raises(EvalDomainError):
                evaluate(e, (0.0, 0.0))


def test_format_keeps_negative_literals_apart():
    for text in ("(-2)^2", "x1 - -3", "x1^-0.5", "-x1^2", "(-0.0)*x1"):
        e = parse_expression(text, 1, 0)
        assert parse_expression(format_expression(e), 1, 0) == e, text


def test_whitespace_insignificant():
    a = parse_expression("  - 2 * x1 + x3 ^ 2   - u1 ", 3, 1)
    b = parse_expression("-2*x1+x3^2-u1", 3, 1)
    assert a == b


def test_parsing_is_pure():
    text = "x1 - 5*sin(x2) + exp(x1)/2"
    assert parse_expression(text, 2, 0) == parse_expression(text, 2, 0)


def test_all_functions_evaluate():
    e = parse_expression("sin(x1) + cos(x1) + exp(x1) + sqrt(abs(x1))", 1, 0)
    v = evaluate(e, (-0.7,))
    ref = math.sin(-0.7) + math.cos(-0.7) + math.exp(-0.7) + math.sqrt(0.7)
    assert abs(v - ref) < 1e-15


def test_format_roundtrip_bit_exact_on_random_points():
    rng = random.Random(42)
    texts = [
        "-2*x1 + x3^2 - u1",
        "2*x1 - 7*exp(x2) + 7",
        "-3*x3 + 0.75*u1^2",
        "x1 - 5*sin(x2)",
        "-x2^2 - 4*x3",
        "sqrt(abs(x1)) / (1 + x2^2) - cos(u1)",
        "1.5e-2*x1^3 - x2/4 + 0.5",
    ]
    for text in texts:
        e1 = parse_expression(text, 3, 1)
        e2 = parse_expression(format_expression(e1), 3, 1)
        f1, f2 = compile_expression(e1), compile_expression(e2)
        for _ in range(100):
            x = [np.asarray([rng.uniform(-3, 3)]) for _ in range(3)]
            u = [np.asarray([rng.uniform(-3, 3)])]
            v1 = float(np.asarray(f1(x, u)).reshape(-1)[0])
            v2 = float(np.asarray(f2(x, u)).reshape(-1)[0])
            assert v1 == v2  # bit-exact


def test_vectorized_matches_scalar():
    # evaluate() runs on floats: every operator must give the array result
    # bit for bit (Python's ** and math.exp can differ in the last bit)
    rng = np.random.default_rng(3)
    X = rng.uniform(0.5, 2, size=(500, 2))
    for text in ("2*x1 - 7*exp(x2) + 7", "sin(x1) + cos(x2)", "abs(x1 - 1)",
                 "sqrt(x1)", "x1/x2", "x1^2", "x1^3", "x1^-2", "x1^x2",
                 "x1^0.5"):
        e = parse_expression(text, 2, 0)
        batch = compile_expression(e)([X[:, 0], X[:, 1]], [])
        for i in range(500):
            assert batch[i] == evaluate(e, X[i]), (text, i)


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


def _power_samples():
    """Random bases of both signs, with +-0, +-inf, nan and bases whose
    16th power overflows or underflows."""
    rng = np.random.default_rng(12)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e30, -1e30,
               1e-30, -1e-30, 1.0, -1.0]
    return np.r_[special, rng.uniform(-3.0, 3.0, 400),
                 rng.normal(0.0, 1e-3, 100)]


@pytest.mark.parametrize("k", range(2, 17))
def test_integer_powers_lower_to_products_of_squares(k):
    # binary powering: one square per bit of k after the leading one, one
    # product per further set bit, and no call of np.power
    code = FieldCode([parse_expression(f"x1^{k}", 1, 0)])
    assert [op[0] for op in code.ops] == ["mul"] * (
        k.bit_length() - 1 + bin(k).count("1") - 1)


@pytest.mark.parametrize("k", range(2, 17))
def test_integer_powers_equal_the_product_chain_bit_for_bit(k):
    # over arrays and on one point alike, x1^k is the chain of products
    # the kernels' reference computes
    e = parse_expression(f"x1^{k}", 1, 0)
    X = _power_samples()
    with np.errstate(all="ignore"):
        want = product_of_squares(X, k)
        batch = compile_expression(e)([X], [])
    assert np.array_equal(_bits(batch), _bits(want))
    for i, x in enumerate(X):
        assert _bits(evaluate(e, (x,))) == _bits(want[i]), (k, x)


@pytest.mark.parametrize("text", ["x1^17", "x1^1", "x1^0", "x1^-2",
                                  "x1^0.5"])
def test_other_powers_still_call_np_power(text):
    e = parse_expression(text, 1, 0)
    code = FieldCode([e])
    assert [op[0] for op in code.ops if op[0] != "check"] == ["pow"]
    p = e.right.value
    X = _power_samples()
    # their domain checks: zero to a negative power, a negative base to a
    # fractional one
    bad = (X == 0.0) if p < 0 else (X < 0.0) & (not p.is_integer())
    with np.errstate(all="ignore"):
        want = np.power(X, p)
        batch = compile_expression(e)([X], [])
        assert np.array_equal(_bits(batch[~bad]), _bits(want[~bad]))
        assert np.isnan(batch[bad]).all()
        for i, x in enumerate(X):
            if bad[i]:
                with pytest.raises(EvalDomainError):
                    evaluate(e, (x,))
            else:
                assert _bits(evaluate(e, (x,))) == _bits(want[i]), x


def test_enclosure_of_a_cube_holds_the_product():
    # the enclosure takes np.power of the box's ends, rounded to nearest;
    # the product chain at any point of the box stays within its documented
    # margin of a few ulps of it
    rng = np.random.default_rng(13)
    e = parse_expression("x1^3", 1, 0)
    f = compile_expression(e)
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(-2.0, 2.0, 2))
        (iv,), ok = enclose([e], [(lo, hi)], [])
        assert ok
        x = np.r_[lo, hi, rng.uniform(lo, hi, 50)]
        vals = f([x], [])
        margin = 4 * np.spacing(np.maximum(np.abs(iv[0]), np.abs(iv[1])))
        assert np.all((iv[0] - margin <= vals) & (vals <= iv[1] + margin))


def test_nonfinite_literals_format_to_parseable_text():
    for text in ("1e999*x1", "-1e999*x1", "x1^-1e999", "(-1e999)^2 + x1"):
        e = parse_expression(text, 1, 0)
        assert parse_expression(format_expression(e), 1, 0) == e
    assert format_expression(parse_expression("1e999*x1", 1, 0)) == \
        "(1e999 * x1)"
    with pytest.raises(ValueError):
        format_expression(Bin("*", Num(math.nan), Var("x", 0)))


# ---- derivatives and interval enclosures ------------------------------------

# on [0.5, 2]^2 x [-1, 1] every subexpression stays in its domain and away
# from the kink of abs
DERIVATIVE_TEXTS = (
    "-2*x1 + x2^2 - u1", "2*x1 - 7*exp(x2) + 7", "-3*x2 + 0.75*u1^2",
    "x1 - 5*sin(x2)", "cos(x1*x2) + u1*x1", "sqrt(x1 + x2) / (1 + x2^2)",
    "x1^3 - x2^-2 + x1^0.5", "abs(x1 - 3) * u1", "x1^x2", "(x1 + u1)^3",
    "-(x1 / x2) + exp(-u1*x1)", "abs(u1 - 2)^2 / x1")


def _point(e, x, u):
    """The value of e at a point, or at the rows of arrays x, u: the
    enclosure of a one-point box."""
    (lo, hi), = enclose([e], [(v, v) for v in x], [(v, v) for v in u])[0]
    return lo


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(5)
    wrt = [Var("x", 0), Var("x", 1), Var("u", 0)]
    for text in DERIVATIVE_TEXTS:
        e = parse_expression(text, 2, 1)
        for _ in range(20):
            p = np.r_[rng.uniform(0.5, 2.0, 2), rng.uniform(-1.0, 1.0)]
            for k, var in enumerate(wrt):
                d = derivative(e, var)
                step = 1e-6 * np.eye(3)[k]
                lo, hi = p - step, p + step
                fd = (evaluate(e, hi[:2], hi[2:]) - evaluate(e, lo[:2], lo[2:])) / 2e-6
                got = _point(d, p[:2], p[2:])
                assert abs(got - fd) <= 1e-5 * (1 + abs(fd)), (text, var)


def test_enclosure_contains_sampled_values():
    rng = np.random.default_rng(6)
    for text in DERIVATIVE_TEXTS + ("sin(4*x1) - cos(3*x2)", "abs(x1 - 1.2)"):
        e = parse_expression(text, 2, 1)
        exprs = [e] + [derivative(e, v) for v in (Var("x", 0), Var("x", 1))]
        for _ in range(10):
            a, b = np.sort(rng.uniform(0.5, 2.0, (2, 2)), axis=0)
            c, d = np.sort(rng.uniform(-1.0, 1.0, 2))
            ivs, ok = enclose(exprs, list(zip(a, b)), [(c, d)])
            assert ok
            pts = rng.uniform([a[0], a[1], c], [b[0], b[1], d], (200, 3))
            for ex, (lo, hi) in zip(exprs, ivs):
                vals = _point(ex, pts[:, :2].T, pts[:, 2:].T)
                assert np.all((lo <= vals) & (vals <= hi)), text


def test_enclosure_over_many_boxes_at_once():
    e = parse_expression("x1*exp(x2) - sin(x1)", 2, 0)
    lo = np.array([[0.0, -1.0], [1.0, 0.5], [-2.0, 0.0]])
    hi = lo + 0.25
    (both,), ok = enclose([e], list(zip(lo.T, hi.T)), [])
    assert ok.shape == (3,) and ok.all()
    for k in range(3):
        (one,), _ = enclose([e], list(zip(lo[k], hi[k])), [])
        assert both[0][k] == one[0] and both[1][k] == one[1]


@pytest.mark.parametrize("text, box", [
    ("sqrt(x1)", (-1.0, 1.0)),                  # radicand below 0
    ("1 / x1", (-1.0, 1.0)),                    # divisor interval holds 0
    ("x1^-2", (0.0, 1.0)),                      # zero to a negative power
    ("x1^0.5", (-0.5, 1.0)),                    # negative base, fractional
    ("x1^x1", (0.0, 1.0)),                      # exp(x1 log x1) at 0
    ("exp(1000/x1)", (0.5, 1.0)),               # overflow
    ("sin(sqrt(x1))", (-1.0, 1.0)),             # not hidden by a bounded sin
])
def test_enclosure_flags_unbounded_and_undefined(text, box):
    (_, ok) = enclose([parse_expression(text, 1, 0)], [box], [])
    assert not ok
    x = np.array([box[0], 2.0])
    _, ok = enclose([parse_expression(text, 1, 0)], [(x, x + 1.0)], [])
    assert list(ok) == [False, True]


def test_enclosure_flags_a_constant_zero_divisor():
    (_, ok) = enclose([parse_expression("x1 + 1 / 0", 1, 0)], [(0.0, 1.0)], [])
    assert not ok


def test_derivative_of_sqrt_is_unbounded_at_zero():
    e = parse_expression("sqrt(x1)", 1, 0)
    d = derivative(e, Var("x", 0))
    assert enclose([e], [(0.0, 1.0)], [])[1]
    assert not enclose([d], [(0.0, 1.0)], [])[1]
    assert enclose([d], [(0.25, 1.0)], [])[0][0] == (0.5, 1.0)


def test_derivative_of_abs_is_its_subgradient():
    d = derivative(parse_expression("abs(x1)", 1, 0), Var("x", 0))
    assert [enclose([d], [box], [])[0][0] for box in
            ((-1.0, 1.0), (0.0, 0.0), (0.5, 1.0), (-1.0, -0.5))] == \
        [(-1.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (-1.0, -1.0)]


def test_second_derivatives_enclose():
    # the curvature bound differentiates a field twice: abs's sign
    # differentiates to 0 away from the kink and is refused over a box that
    # holds it, and the second derivatives of a power with a variable
    # exponent, through log, enclose their sampled values
    x1, x2 = Var("x", 0), Var("x", 1)
    d2 = derivative(derivative(parse_expression("abs(x1)", 1, 0), x1), x1)
    for box in ((-1.0, 1.0), (0.0, 0.5), (-0.5, 0.0)):
        assert not enclose([d2], [box], [])[1]
    for box in ((0.5, 1.0), (-1.0, -0.5)):
        (iv,), ok = enclose([d2], [box], [])
        assert ok and iv == (0.0, 0.0)
    e = parse_expression("x1^x2", 2, 0)
    exact = {(x1, x1): lambda a, b: b * (b - 1) * a ** (b - 2),
             (x1, x2): lambda a, b: a ** (b - 1) * (1 + b * np.log(a)),
             (x2, x1): lambda a, b: a ** (b - 1) * (1 + b * np.log(a)),
             (x2, x2): lambda a, b: a ** b * np.log(a) ** 2}
    rng = np.random.default_rng(8)
    for _ in range(10):
        lo, hi = np.sort(rng.uniform([0.5, -1.0], [2.0, 2.0], (2, 2)), axis=0)
        ivs, ok = enclose([derivative(derivative(e, v), w)
                           for v, w in exact], list(zip(lo, hi)), [])
        assert ok
        a, b = rng.uniform(lo, hi, (200, 2)).T
        for f, (elo, ehi) in zip(exact.values(), ivs):
            val, tol = f(a, b), 1e-12 * (1.0 + np.abs(f(a, b)))
            assert np.all((elo - tol <= val) & (val <= ehi + tol))


# expression text nested k levels deep, by shape: in the parser
# (parentheses, signs, functions, exponents) or only in the tree (a long
# sum or product, which the parser reads in a loop)
DEEP = {
    "parentheses": lambda k: "(" * (k - 1) + "x1" + ")" * (k - 1),
    "signs": lambda k: "-" * (k - 1) + "x1",
    "functions": lambda k: "sin(" * (k - 1) + "x1" + ")" * (k - 1),
    "exponents": lambda k: "^".join(["x1"] * k),
    "sum": lambda k: " + ".join(["x1"] * k),
    "product": lambda k: "*".join(["x1"] * k),
    "nested products": lambda k: "x1*(" * (k - 1) + "u1" + ")" * (k - 1),
}


def distinct_nodes(e) -> int:
    """The nodes of a tree, each shared subtree counted once."""
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, k) for k in ("operand", "arg", "left",
                                                    "right")
                         if hasattr(node, k))
    return len(seen)


@pytest.mark.parametrize("shape, k", [("exponents", 40), ("functions", 127)])
def test_a_second_derivative_shares_its_subtrees(shape, k):
    # a derivative shares its operands' subtrees, and differentiating it
    # again differentiates each shared node once: the curvature bound's
    # second derivatives of a 40-deep x1^x1^... (79 nodes) and a 126-deep
    # sin(sin(...)) (127 nodes) hold 1,010 and 1,377 distinct nodes, where
    # a derivative that shares nothing held 8,344 and 16,753
    e = parse_expression(DEEP[shape](k), 1, 1)
    x1 = Var("x", 0)
    d2 = derivative(derivative(e, x1), x1)
    assert distinct_nodes(d2) <= 16 * distinct_nodes(e)


@pytest.mark.parametrize("shape", DEEP)
def test_expressions_nest_at_most_max_depth(shape):
    # at the limit every walker over the tree runs, the derivative (up to
    # three times as deep) included, and the rendered text parses back to
    # the tree; one level more is a syntax error
    e = parse_expression(DEEP[shape](MAX_DEPTH), 1, 1)
    assert parse_expression(format_expression(e), 1, 1) == e
    for v in (Var("x", 0), Var("u", 0)):
        d = derivative(e, v)
        enclose([e, d], [(0.5, 0.75)], [(0.25, 0.5)])
        format_expression(d)
    FieldCode([e])
    is_affine(e)
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse_expression(DEEP[shape](MAX_DEPTH + 1), 1, 1)


@pytest.mark.parametrize("text, affine", [
    ("x1", True), ("2.5", True), ("-x1 + 3*u2 - x2/4 + 1", True),
    ("(x1 - u1) * (2 + 3)", True), ("2^0.5 * x1 + sin(1) * u1", True),
    ("x1 / (1 - 3)", True), ("-(x1 + -(2*u1))", True),
    ("x1 * x2", False), ("x1 * u1", False), ("x1^2", False),
    ("2^x1", False), ("1 / x1", False), ("sin(x1)", False),
    ("abs(u1)", False),
    # the derivatives fold to constants, but the field has a domain
    ("x1 + 0*sqrt(x1 + 0.2)", False), ("u1 + 0*(1/u1)", False)])
def test_affinity_is_structural(text, affine):
    assert is_affine(parse_expression(text, 2, 2)) is affine
