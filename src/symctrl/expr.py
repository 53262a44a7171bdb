"""Parser and evaluator for the arithmetic expressions that define vector fields.

Expressions are written over state variables ``x1..xn`` and input variables
``u1..um``, with operators ``+ - * / ^`` (``^`` is right-associative and binds
tightest), unary minus, and the functions sin, cos, exp, sqrt, abs.  Numeric
constants are plain decimal literals.

Evaluation is numpy-vectorized: every occurrence of a variable broadcasts over
column arrays.  A compiled expression also accepts Python floats in place of
the columns, which is how a single point is evaluated.  Every operation goes
through the same numpy ufunc loop on a float as on an array (powers other
than ``^2`` through ``np.power``, never Python's ``**`` or ``math``, whose
results can differ in the last bit), so single points and batches agree bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")

_NUMPY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
}


class ExprSyntaxError(ValueError):
    """Raised for malformed expression text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ArithmeticError):
    """Raised when evaluation leaves the real domain (sqrt of a negative
    argument, division by zero).  Carries the offending sub-expression."""

    def __init__(self, message: str, subexpression: "Expr"):
        super().__init__(f"{message} in {format_expression(subexpression)}")
        self.subexpression = subexpression


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # "x" or "u"
    index: int  # zero-based


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, Bin, Call]

_TOKEN_OPS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad numeric literal '{lit}'", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character '{c}'", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, n_states: int, n_inputs: int):
        self.tokens = tokens
        self.pos = 0
        self.n_states = n_states
        self.n_inputs = n_inputs

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected '{kind}'", tok[2])
        return tok

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = Bin(op, node, self.parse_term())
        return node

    # term := unary (('*'|'/') unary)*
    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = Bin(op, node, self.parse_unary())
        return node

    # unary := '-' unary | power
    def parse_unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.parse_unary())
        if self.peek()[0] == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    # power := atom ('^' unary)?   right-associative, exponent may be signed
    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            return Bin("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "(":
            node = self.parse_expr()
            tok = self.advance()
            if tok[0] != ")":
                raise ExprSyntaxError("unclosed parenthesis", tok[2])
            return node
        if kind == "ident":
            if value in FUNCTIONS:
                tok = self.advance()
                if tok[0] != "(":
                    raise ExprSyntaxError(f"'{value}' requires parentheses", tok[2])
                arg = self.parse_expr()
                tok = self.advance()
                if tok[0] != ")":
                    raise ExprSyntaxError("unclosed parenthesis", tok[2])
                return Call(value, arg)
            return self._variable(value, pos)
        raise ExprSyntaxError("expected a value", pos)

    def _variable(self, name: str, pos: int) -> Var:
        if len(name) >= 2 and name[0] in ("x", "u") and name[1:].isdigit():
            idx = int(name[1:])
            limit = self.n_states if name[0] == "x" else self.n_inputs
            if not 1 <= idx <= limit:
                raise ExprSyntaxError(
                    f"variable '{name}' out of range (declared "
                    f"{'n' if name[0] == 'x' else 'm'}={limit})", pos)
            return Var(name[0], idx - 1)
        raise ExprSyntaxError(f"unknown identifier '{name}'", pos)


def parse_expression(text: str, n_states: int, n_inputs: int) -> Expr:
    """Parse expression text into an AST over x1..xn and u1..um."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text), n_states, n_inputs)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ExprSyntaxError("trailing input", tok[2])
    return node


def format_expression(expr: Expr) -> str:
    """Render an AST back to parseable text (fully parenthesized)."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return f"{expr.kind}{expr.index + 1}"
    if isinstance(expr, Neg):
        return f"(-{format_expression(expr.operand)})"
    if isinstance(expr, Bin):
        return (f"({format_expression(expr.left)} {expr.op} "
                f"{format_expression(expr.right)})")
    if isinstance(expr, Call):
        return f"{expr.func}({format_expression(expr.arg)})"
    raise TypeError(expr)


Columns = Sequence[np.ndarray]
CompiledExpr = Callable[[Columns, Columns], np.ndarray]


def compile_expression(expr: Expr) -> CompiledExpr:
    """Compile an AST into a closure evaluating over column arrays.

    The closure takes (state_columns, input_columns), each a sequence of
    arrays or of floats, and returns the value broadcast over the columns.
    Domain checks (division by zero, negative radicand, fractional power of
    a negative base) raise EvalDomainError.
    """
    if isinstance(expr, Num):
        v = float(expr.value)
        return lambda X, U: v
    if isinstance(expr, Var):
        i = expr.index
        if expr.kind == "x":
            return lambda X, U: X[i]
        return lambda X, U: U[i]
    if isinstance(expr, Neg):
        f = compile_expression(expr.operand)
        return lambda X, U: -f(X, U)
    if isinstance(expr, Call):
        f = compile_expression(expr.arg)
        if expr.func == "sqrt":
            node = expr

            def do_sqrt(X, U):
                a = f(X, U)
                if np.any(np.less(a, 0.0)):
                    raise EvalDomainError("sqrt of negative argument", node)
                return np.sqrt(a)

            return do_sqrt
        g = _NUMPY_FUNCS[expr.func]
        return lambda X, U: g(f(X, U))
    if isinstance(expr, Bin):
        fl = compile_expression(expr.left)
        fr = compile_expression(expr.right)
        if expr.op == "+":
            return lambda X, U: fl(X, U) + fr(X, U)
        if expr.op == "-":
            return lambda X, U: fl(X, U) - fr(X, U)
        if expr.op == "*":
            return lambda X, U: fl(X, U) * fr(X, U)
        if expr.op == "/":
            node = expr

            def do_div(X, U):
                b = fr(X, U)
                if np.any(np.equal(b, 0.0)):
                    raise EvalDomainError("division by zero", node)
                return fl(X, U) / b
            return do_div
        if expr.op == "^":
            node = expr
            # integer literal exponents cover every field in practice and
            # avoid the cost and domain pitfalls of the general pow
            if isinstance(expr.right, Num) and float(expr.right.value).is_integer():
                k = int(expr.right.value)
                if k == 2:
                    def do_sq(X, U):
                        a = fl(X, U)
                        return a * a
                    return do_sq
                if k >= 0:
                    return lambda X, U: np.power(fl(X, U), k)

                def do_ipow(X, U):
                    a = fl(X, U)
                    if np.any(np.equal(a, 0.0)):
                        raise EvalDomainError("zero raised to negative power", node)
                    return np.power(a, float(k))
                return do_ipow

            def do_pow(X, U):
                a = fl(X, U)
                b = fr(X, U)
                bad = (np.less(a, 0.0) & np.not_equal(np.floor(b), b)) | (
                    np.equal(a, 0.0) & np.less(b, 0.0))
                if np.any(bad):
                    raise EvalDomainError("power outside real domain", node)
                return np.power(a, b)
            return do_pow
    raise TypeError(expr)


def evaluate(expr: Expr, x: Sequence[float], u: Sequence[float] = ()) -> float:
    """Evaluate an AST at a single point."""
    return float(compile_expression(expr)([float(v) for v in x],
                                           [float(v) for v in u]))
