import math
import random

import numpy as np
import pytest

from symctrl import (EvalDomainError, ExprSyntaxError, evaluate,
                     format_expression, parse_expression)
from symctrl.expr import Bin, Neg, Num, Var, compile_expression


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
