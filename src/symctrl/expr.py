"""Parser and code generator for the arithmetic expressions that define
vector fields.

Expressions are written over state variables ``x1..xn`` and input variables
``u1..um``, with operators ``+ - * / ^`` (``^`` is right-associative and binds
tightest), unary minus, and the functions sin, cos, exp, sqrt, abs.  Numeric
constants are plain decimal literals; a minus sign directly before a literal
is part of it, so ``x1^-2`` has the integer exponent -2.

Nothing walks the AST while evaluating.  `FieldCode` lowers the components
of a field to one list of operations: each distinct subexpression once,
subexpressions of constants folded to literals, products by 1 and -1 and
sums of negations rewritten to the operations they equal bit for bit,
integer powers from 2 to 16 written as products of squares (``x^3`` is
``t = x*x; x*t``), and the operations on the inputs alone set apart, to
run once per call instead of once per use.  Each operation is rendered as
Python source in one of two forms: a numpy ufunc writing through ``out=``
into a preallocated buffer, or the same operation on Python floats (the
same IEEE ``+ - * /`` and negation, and for the other powers and the five
functions the same numpy function with its result turned back into a
float, never Python's ``**`` or ``math``, whose results can differ in the
last bit).  So one point and a batch agree bit for bit, and a point's
arithmetic stays on Python floats, not numpy scalars.  `compile_expression`
and `evaluate` compile one expression; `dynamics` builds its RK4 kernels
from the same operations.

Domain checks (a negative radicand, a zero divisor, zero to a negative
power, a negative base to a fractional power) are operations too.  Over
arrays they mark the offending rows, whose results read NaN; over floats
they run a given statement, which in `evaluate` raises EvalDomainError.

`derivative` differentiates an AST symbolically and `enclose` bounds ASTs
over boxes in interval arithmetic; the row engine's growth and curvature
bounds are built from both, its rounding margin from the enclosures of a
field's `subexpressions`, and `is_affine` tells it which fields' flows are
affine in the input.  The parser refuses an expression nested deeper than
MAX_DEPTH, so that no walker over a tree runs out of Python's recursion
limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")

# the deepest an expression may nest, in parentheses, function arguments,
# signs and exponents as the parser reads it, and in levels of its tree.
# The parser recurses about five calls per nesting, and every walker over a
# tree (derivative, enclose, FieldCode, format_expression) one per level; a
# derivative may be about three times as deep as its expression.  So both
# stay well within Python's default limit of 1,000 frames
MAX_DEPTH = 128


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
        self.depth = 0  # the parse_unary calls open
        self.n_states = n_states
        self.n_inputs = n_inputs

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
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

    # unary := '-' unary | power; a negated literal is a negative literal.
    # Every nesting (parenthesis, argument, sign, exponent) passes here
    def parse_unary(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels",
                self.peek()[2])
        try:
            if self.peek()[0] == "-":
                self.advance()
                operand = self.parse_unary()
                if isinstance(operand, Num):
                    return Num(-operand.value)
                return Neg(operand)
            if self.peek()[0] == "+":
                self.advance()
                return self.parse_unary()
            return self.parse_power()
        finally:
            self.depth -= 1

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
    # a long sum or product nests its tree without nesting the parser
    if _depth(node) > MAX_DEPTH:
        raise ExprSyntaxError(
            f"expression nested deeper than {MAX_DEPTH} levels", 0)
    return node


def _children(e: Expr) -> tuple:
    if isinstance(e, Neg):
        return (e.operand,)
    if isinstance(e, Bin):
        return (e.left, e.right)
    if isinstance(e, Call):
        return (e.arg,)
    return ()


def _depth(expr: Expr) -> int:
    """The levels of a tree, counted without recursion."""
    depth, stack = 0, [(expr, 1)]
    while stack:
        e, d = stack.pop()
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in _children(e))
    return depth


def subexpressions(expr: Expr) -> list:
    """Every node of a tree, the tree itself first, collected without
    recursion; a shared subtree is listed once per use."""
    out, stack = [], [expr]
    while stack:
        out.append(stack.pop())
        stack.extend(_children(out[-1]))
    return out


def _has_variable(expr: Expr) -> bool:
    return isinstance(expr, Var) or any(map(_has_variable, _children(expr)))


def is_affine(expr: Expr) -> bool:
    """Whether `expr` is affine in its variables by its structure: built of
    literals, variables, signs, sums and differences, products with at most
    one operand that holds a variable, quotients by a divisor without one,
    and subexpressions without variables (a power, a function of
    constants).  A field whose derivatives fold to constants is not enough:
    x1 + 0*sqrt(x1 + 0.2) has a domain, so it is not affine."""
    if not _has_variable(expr) or isinstance(expr, Var):
        return True
    if isinstance(expr, Neg):
        return is_affine(expr.operand)
    if isinstance(expr, Bin) and expr.op in "+-":
        return is_affine(expr.left) and is_affine(expr.right)
    if isinstance(expr, Bin) and expr.op == "*":
        return ((not _has_variable(expr.left) and is_affine(expr.right))
                or (not _has_variable(expr.right) and is_affine(expr.left)))
    if isinstance(expr, Bin) and expr.op == "/":
        return not _has_variable(expr.right) and is_affine(expr.left)
    return False


def format_expression(expr: Expr) -> str:
    """Render an AST back to parseable text.  Sums, differences, products
    and quotients are parenthesized; signs and powers take only the
    parentheses the parser needs (a power's base is a variable, a call, a
    literal >= 0 or parenthesized), so that the text nests no deeper than
    the tree and every tree the parser accepts parses back from it.  An
    infinite literal renders as ``1e999``, which parses back to it; a NaN
    literal has no text form and raises ValueError."""
    if isinstance(expr, Num):
        if math.isnan(expr.value):
            raise ValueError("a NaN literal has no text form")
        if math.isinf(expr.value):
            return "1e999" if expr.value > 0 else "-1e999"
        return repr(float(expr.value))
    if isinstance(expr, Var):
        return f"{expr.kind}{expr.index + 1}"
    if isinstance(expr, Neg):
        return f"-{format_expression(expr.operand)}"
    if isinstance(expr, Bin) and expr.op == "^":
        base = format_expression(expr.left)
        if (base.startswith("-") or isinstance(expr.left, Neg)
                or (isinstance(expr.left, Bin) and expr.left.op == "^")):
            base = f"({base})"
        return f"{base} ^ {format_expression(expr.right)}"
    if isinstance(expr, Bin):
        return (f"({format_expression(expr.left)} {expr.op} "
                f"{format_expression(expr.right)})")
    if isinstance(expr, Call):
        return f"{expr.func}({format_expression(expr.arg)})"
    raise TypeError(expr)


# operation -> (numpy ufunc, the same operation on Python floats); the float
# form runs the same IEEE operation (+ - * / and negation) or calls the same
# numpy function, so both forms give the same bits.  A numpy function's
# np.float64 result is turned back into a float, the same bits: arithmetic
# on np.float64 runs through numpy's scalar machinery at about twice the
# cost of a float's.  A division never meets a zero divisor on floats, which
# would raise: the domain check before it (_DIV_CHECK) ends the row first.
# Integer powers from 2 to 16 are products of squares (FieldCode._squares):
# over 3,375 uniform elements in (-1, 1), x^3 took 4.5 us as two products
# against 211 us through np.power, and on one float 42 ns against 770 ns
# (x86-64, Python 3.11, numpy 2.4).  "pow" runs the other powers
_OPS = {
    "add": (np.add, "{0} + {1}"),
    "sub": (np.subtract, "{0} - {1}"),
    "mul": (np.multiply, "{0} * {1}"),
    "div": (np.divide, "{0} / {1}"),
    "neg": (np.negative, "-{0}"),
    "pow": (np.power, "float(np.power({0}, {1}))"),
    "sin": (np.sin, "float(np.sin({0}))"),
    "cos": (np.cos, "float(np.cos({0}))"),
    "exp": (np.exp, "float(np.exp({0}))"),
    "sqrt": (np.sqrt, "float(np.sqrt({0}))"),
    "abs": (np.abs, "float(np.abs({0}))"),
}
_BIN_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
# correctly rounded operations, whose every numpy loop gives the same bits,
# may write over a dying operand; the others always get a buffer of their own
_EXACT = {"add", "sub", "mul", "div", "neg", "sqrt", "abs"}

# domain checks: (message, condition); the condition holds where the operands
# ({0}, {1}) leave the real domain, over arrays and over floats alike
_SQRT_CHECK = ("sqrt of negative argument", "{0} < 0.0")
_DIV_CHECK = ("division by zero", "{1} == 0.0")
_IPOW_CHECK = ("zero raised to negative power", "{0} == 0.0")
_POW_CHECK = ("power outside real domain",
              "(({0} < 0.0) & (np.floor({1}) != {1}))"
              " | (({0} == 0.0) & ({1} < 0.0))")

# names the generated source may use besides its own variables
_NAMESPACE = {"np": np, "inf": math.inf, "nan": math.nan}


def _key(ref):
    # repr tells 0.0 from -0.0, which compare equal
    return repr(ref) if isinstance(ref, float) else ref


def _literal(value: float) -> str:
    text = repr(float(value))  # inf and nan are names in _NAMESPACE
    return f"({text})" if text.startswith("-") else text


def render(form: str, fn: str, args: Sequence[str], dest: str) -> str:
    """One operation as a line of source: over arrays, a ufunc writing
    through ``out=`` into `dest`; over floats, an assignment to `dest`.
    `fn` is "copy" or an operation of _OPS; `args` are names or literals."""
    if fn == "copy":
        return (f"np.copyto({dest}, {args[0]})" if form == "array"
                else f"{dest} = {args[0]}")
    ufunc, expr = _OPS[fn]
    if form == "array":
        return f"np.{ufunc.__name__}({', '.join(args)}, out={dest})"
    return f"{dest} = {expr.format(*args)}"


def compile_source(lines: Sequence[str], name: str, **names):
    """The function `name` defined by the source `lines`."""
    namespace = dict(_NAMESPACE, **names)
    exec(compile("\n".join(lines), f"<{name}>", "exec"), namespace)
    return namespace[name]


def _negated(e: Expr):
    """a when e is -a, -1 * a or a * -1, else None."""
    if isinstance(e, Neg):
        return e.operand
    if isinstance(e, Bin) and e.op == "*":
        for minus_one, a in ((e.left, e.right), (e.right, e.left)):
            if isinstance(minus_one, Num) and float(minus_one.value) == -1.0:
                return a
    return None


class FieldCode:
    """Straight-line code for the components of a vector field.

    Each distinct subexpression becomes one operation; subexpressions of
    constants alone are folded to a literal.  Operations on constants and
    inputs alone form the prologue, run once per call; the rest, which read
    the state, form the body.  Values live in registers ``t0, t1, ...``,
    reused as values die; each root writes straight into its output.
    Operands are floats (constants), ``"x<i>"``/``"u<j>"`` (variables) or
    the indices of earlier operations.
    """

    def __init__(self, exprs: Sequence[Expr]):
        self.ops: list = []       # (fn, args, check index or None)
        self.levels: list = []    # 1: inputs and constants only, 2: state
        self.checks: list = []    # (message, condition, subexpression)
        self.variables: set = set()
        self._memo: dict = {}
        roots = [self._lower(e) for e in exprs]
        self.home = {}            # operation -> component it writes
        self.copies = []          # (component, operand) of the other roots
        for pos, r in enumerate(roots):
            if isinstance(r, int) and self.levels[r] == 2 and r not in self.home:
                self.home[r] = pos
            else:
                self.copies.append((pos, r))
        self.prologue = [i for i, lv in enumerate(self.levels) if lv < 2]
        self.body = [i for i, lv in enumerate(self.levels) if lv == 2]
        self._allocate()

    def _level(self, ref) -> int:
        if isinstance(ref, float):
            return 0
        if isinstance(ref, str):
            return 1 if ref[0] == "u" else 2
        return self.levels[ref]

    def _append(self, op, level: int) -> int:
        self.ops.append(op)
        self.levels.append(level)
        return len(self.ops) - 1

    def _emit(self, fn: str, *args):
        key = (fn,) + tuple(map(_key, args))
        if key not in self._memo:
            if max(map(self._level, args)) == 0:
                with np.errstate(all="ignore"):
                    self._memo[key] = float(_OPS[fn][0](*args))
            else:
                self._memo[key] = self._append(
                    (fn, args, None), max(map(self._level, args)))
        return self._memo[key]

    def _check(self, node: Expr, spec, *args):
        message, cond = spec
        key = ("check", cond) + tuple(map(_key, args))
        if key in self._memo:
            return
        self._memo[key] = None
        level = max(map(self._level, args))
        if level == 0:
            if not eval(cond.format(*map(_literal, args)), dict(_NAMESPACE)):
                return
            args, cond, level = (), "True", 1  # fails on every row
        self._append(("check", args, len(self.checks)), level)
        self.checks.append((message, cond, node))

    def _lower(self, e: Expr):
        if isinstance(e, Num):
            return float(e.value)
        if isinstance(e, Var):
            self.variables.add(f"{e.kind}{e.index}")
            return f"{e.kind}{e.index}"
        if isinstance(e, Neg):
            return self._emit("neg", self._lower(e.operand))
        if isinstance(e, Call):
            a = self._lower(e.arg)
            if e.func == "sqrt":
                self._check(e, _SQRT_CHECK, a)
            return self._emit(e.func, a)
        if isinstance(e, Bin) and e.op in "+-":
            # a + -b is a - b, a - -b is a + b and -a + b is b - a, exactly
            a, b = _negated(e.left), _negated(e.right)
            if b is not None:
                return self._emit("sub" if e.op == "+" else "add",
                                  self._lower(e.left), self._lower(b))
            if a is not None and e.op == "+":
                a = self._lower(a)
                return self._emit("sub", self._lower(e.right), a)
        if isinstance(e, Bin) and e.op == "*":
            # 1 * a is a and -1 * a is -a, exactly
            for one, a in ((e.left, e.right), (e.right, e.left)):
                if isinstance(one, Num) and float(one.value) == 1.0:
                    return self._lower(a)
            a = _negated(e)
            if a is not None:
                return self._emit("neg", self._lower(a))
        if isinstance(e, Bin):
            a, b = self._lower(e.left), self._lower(e.right)
            if e.op != "^":
                if e.op == "/":
                    self._check(e, _DIV_CHECK, a, b)
                return self._emit(_BIN_OPS[e.op], a, b)
            if isinstance(e.right, Num) and float(e.right.value).is_integer():
                # integer literal exponents cover every field in practice;
                # they skip the general power's domain check
                if 2 <= b <= 16:
                    return self._squares(a, int(b))
                if b < 0.0:
                    self._check(e, _IPOW_CHECK, a)
                return self._emit("pow", a, b)
            self._check(e, _POW_CHECK, a, b)
            return self._emit("pow", a, b)
        raise TypeError(e)

    def _squares(self, a, k: int):
        """a^k, for k >= 1, as a product of squares by binary powering; the
        squares are shared through the memo: a^3 is t = a*a; a*t, and a^4
        is t = a*a; t*t.  Up to k = 16 the chain holds at most 6 products,
        whose rounding stays within 15 ulp of a^k."""
        power = None
        while True:
            if k & 1:
                power = a if power is None else self._emit("mul", power, a)
            k >>= 1
            if not k:
                return power
            a = self._emit("mul", a, a)

    def _allocate(self):
        seq = self.prologue + self.body
        last = {}  # operation -> position in seq of its last use
        for pos, i in enumerate(seq):
            for a in self.ops[i][1]:
                if isinstance(a, int):
                    last[a] = pos
        # prologue values that the body or a copied root reads live on
        kept = {a for i in self.body for a in self.ops[i][1]
                if isinstance(a, int) and self.levels[a] < 2}
        kept |= {r for _, r in self.copies if isinstance(r, int)}
        self.reg, free, self.n_registers = {}, [], 0
        for pos, i in enumerate(seq):
            fn, args, _ = self.ops[i]
            dying = sorted({self.reg[a] for a in args if isinstance(a, int)
                            and a in self.reg and last[a] == pos
                            and a not in kept})
            if fn in _EXACT:
                free += dying
                dying = []
            if fn != "check" and i not in self.home:
                if free:
                    self.reg[i] = free.pop()
                else:
                    self.reg[i] = self.n_registers
                    self.n_registers += 1
            free += dying

    def _name(self, ref, xs: str, outs: str) -> str:
        if isinstance(ref, float):
            return _literal(ref)
        if isinstance(ref, str):
            return xs + ref[1:] if ref[0] == "x" else ref
        if ref in self.home:
            return f"{outs}{self.home[ref]}"
        return f"t{self.reg[ref]}"

    def _lines(self, part, form: str, fail: str, xs: str, outs: str):
        lines = []
        for i in part:
            fn, args, check = self.ops[i]
            names = [self._name(a, xs, outs) for a in args]
            if fn != "check":
                lines.append(render(form, fn, names,
                                    self._name(i, xs, outs)))
                continue
            test = self.checks[check][1].format(*names)
            lines.append(f"bad |= {test}" if form == "array"
                         else f"if {test}: {fail.format(check)}")
        return lines

    def prologue_lines(self, form: str, fail: str) -> list:
        """Source of the operations on constants and inputs alone.

        `form` is "array" or "float".  Over arrays a failed domain check
        marks its rows in the boolean array ``bad``; over floats it runs
        the statement `fail`, formatted with the index of the check in
        self.checks."""
        return self._lines(self.prologue, form, fail, "", "")

    def body_lines(self, form: str, fail: str, xs: str, outs: str) -> list:
        """Source of the operations on the state ``<xs>0, <xs>1, ...``,
        which leave component i in ``<outs>i``; see prologue_lines."""
        return self._lines(self.body, form, fail, xs, outs) + [
            render(form, "copy", [self._name(r, xs, outs)], f"{outs}{pos}")
            for pos, r in self.copies]


def _field_function(code: FieldCode, form: str, fail: str = "", **names):
    """f(X, U) computing the single component of `code`."""
    body = [f"{v} = {v[0].upper()}[{v[1:]}]" for v in sorted(code.variables)]
    if form == "array":
        body += ["shape = np.broadcast(*X, *U).shape", "out0 = np.empty(shape)"]
        body += [f"t{r} = np.empty(shape)" for r in range(code.n_registers)]
        if code.checks:
            body.append("bad = np.zeros(shape, dtype=bool)")
    body += code.prologue_lines(form, fail)
    body += code.body_lines(form, fail, "x", "out")
    if form == "array" and code.checks:
        body.append("out0[bad] = nan")
    body.append("return out0")
    return compile_source(
        ["def field(X, U):"] + ["    " + ln for ln in body], "field", **names)


def compile_expression(expr: Expr) -> Callable:
    """f(X, U): the value of `expr` over the state and input columns X and
    U (arrays, or floats for one point), broadcast together.  The result is
    an array, NaN where the expression leaves its domain."""
    return _field_function(FieldCode([expr]), "array")


def evaluate(expr: Expr, x: Sequence[float], u: Sequence[float] = ()) -> float:
    """Evaluate an AST at a single point; leaving the domain raises
    EvalDomainError."""
    code = FieldCode([expr])
    field = _field_function(
        code, "float", "raise domain_error({})",
        domain_error=lambda k: EvalDomainError(code.checks[k][0],
                                               code.checks[k][2]))
    return float(field([float(v) for v in x], [float(v) for v in u]))


# ---- derivatives and interval enclosures -----------------------------------
#
# `derivative` differentiates an AST symbolically.  Its result may call two
# functions the parser does not know: log (the derivative of a power with a
# non-constant exponent) and sign (the derivative of abs, whose subgradient
# at 0 is [-1, 1]).  Such trees are only ever enclosed, never compiled, and
# differentiated again: log to da / a, sign to 0 / a, which encloses to 0
# away from the kink and is undefined where its interval holds 0.

def _is(e: Expr, value: float) -> bool:
    return isinstance(e, Num) and e.value == value


def _sum(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return b if _is(a, 0.0) else a if _is(b, 0.0) else Bin("+", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    return a.operand if isinstance(a, Neg) else Neg(a)


def _diff(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return _neg(b) if _is(a, 0.0) else a if _is(b, 0.0) else Bin("-", a, b)


def _prod(a: Expr, b: Expr) -> Expr:
    if _is(a, 0.0) or _is(b, 0.0):
        return Num(0.0)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return b if _is(a, 1.0) else a if _is(b, 1.0) else Bin("*", a, b)


def _quot(a: Expr, b: Expr) -> Expr:
    if _is(a, 0.0):
        return Num(0.0)
    return a if _is(b, 1.0) else Bin("/", a, b)


def _power(a: Expr, p: float) -> Expr:
    return Num(1.0) if p == 0.0 else a if p == 1.0 else Bin("^", a, Num(p))


def derivative(expr: Expr, var: Var) -> Expr:
    """The partial derivative of `expr` with respect to `var`, with products
    and sums of constants folded.  abs differentiates to sign, whose
    enclosure over an interval holding 0 is the subgradient [-1, 1], and
    sign to 0 / a, which `enclose` refuses over an interval holding 0.
    Each node is differentiated once per call (memo, by node id; the nodes
    are those of `expr`, alive for the whole call), so a subtree the
    expression shares, as a derivative shares its operands, has one
    derivative, shared in turn."""
    memo = {}

    def d(e: Expr) -> Expr:
        if isinstance(e, Num):
            return Num(0.0)
        if isinstance(e, Var):
            return Num(1.0 if e == var else 0.0)
        if id(e) in memo:
            return memo[id(e)]
        if isinstance(e, Neg):
            r = _neg(d(e.operand))
        elif isinstance(e, Call):
            a, da = e.arg, d(e.arg)
            outer = {"sin": lambda: Call("cos", a),
                     "cos": lambda: Neg(Call("sin", a)),
                     "exp": lambda: e,
                     "sqrt": lambda: _quot(Num(0.5), e),
                     "abs": lambda: Call("sign", a),
                     "log": lambda: _quot(Num(1.0), a),
                     "sign": lambda: Bin("/", Num(0.0), a)}[e.func]
            r = Num(0.0) if _is(da, 0.0) else _prod(outer(), da)
        else:
            a, b = e.left, e.right
            da, db = d(a), d(b)
            if e.op == "+":
                r = _sum(da, db)
            elif e.op == "-":
                r = _diff(da, db)
            elif e.op == "*":
                r = _sum(_prod(da, b), _prod(a, db))
            elif e.op == "/":
                r = _diff(_quot(da, b),
                          _quot(_prod(a, db), _power(b, 2.0)))
            elif isinstance(b, Num):
                r = _prod(_prod(Num(b.value), _power(a, b.value - 1.0)), da)
            else:
                # a^b = exp(b log a)
                r = _prod(e, _sum(_prod(db, Call("log", a)),
                                  _quot(_prod(b, da), a)))
        memo[id(e)] = r
        return r
    return d(expr)


_PI = math.pi


def _mul_iv(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (np.minimum(np.minimum(p[0], p[1]), np.minimum(p[2], p[3])),
            np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3])))


def _recip_iv(a):
    # NaN where the interval holds 0; np.divide, as 1.0 / 0.0 raises on floats
    hole = (a[0] <= 0.0) & (a[1] >= 0.0)
    return (np.where(hole, np.nan, np.divide(1.0, a[1])),
            np.where(hole, np.nan, np.divide(1.0, a[0])))


def _pow_iv(a, p: float):
    lo, hi = a
    if p == 0.0:
        return 1.0, 1.0
    if float(p).is_integer():
        if p < 0.0:
            return _recip_iv(_pow_iv(a, -p))
        plo, phi = np.power(lo, p), np.power(hi, p)
        if int(p) % 2:
            return plo, phi
        return (np.where(lo > 0.0, plo, np.where(hi < 0.0, phi, 0.0)),
                np.maximum(plo, phi))
    # a fractional power needs a base >= 0, and > 0 when p < 0
    out = (lo < 0.0) if p > 0.0 else (lo <= 0.0)
    plo = np.where(out, np.nan, np.power(np.maximum(lo, 0.0), p))
    phi = np.where(out, np.nan, np.power(hi, p))
    return (plo, phi) if p > 0.0 else (phi, plo)


def _sin_iv(lo, hi):
    slo, shi = np.sin(lo), np.sin(hi)
    # the interval holds a maximum pi/2 + 2k pi or a minimum -pi/2 + 2k pi
    top = np.floor((hi - _PI / 2) / (2 * _PI)) >= np.ceil((lo - _PI / 2) / (2 * _PI))
    bot = np.floor((hi + _PI / 2) / (2 * _PI)) >= np.ceil((lo + _PI / 2) / (2 * _PI))
    return (np.where(bot, -1.0, np.minimum(slo, shi)),
            np.where(top, 1.0, np.maximum(slo, shi)))


def _call_iv(func: str, a):
    lo, hi = a
    if func == "exp":
        return np.exp(lo), np.exp(hi)
    if func == "sin":
        return _sin_iv(lo, hi)
    if func == "cos":
        return _sin_iv(lo + _PI / 2, hi + _PI / 2)
    if func in ("sqrt", "log"):
        out = (lo < 0.0) if func == "sqrt" else (lo <= 0.0)
        fn = np.sqrt if func == "sqrt" else np.log
        return (np.where(out, np.nan, fn(np.maximum(lo, 0.0))),
                np.where(out, np.nan, fn(hi)))
    if func == "abs":
        return (np.where(lo >= 0.0, lo, np.where(hi <= 0.0, -hi, 0.0)),
                np.maximum(np.abs(lo), np.abs(hi)))
    if func == "sign":
        return np.where(lo > 0.0, 1.0, -1.0), np.where(hi < 0.0, -1.0, 1.0)
    raise TypeError(func)


def enclose(exprs: Sequence[Expr], x: Sequence[tuple], u: Sequence[tuple]):
    """Interval enclosures of `exprs` over a box, or over many boxes at
    once: x[i] and u[j] are the (lo, hi) bounds of x<i+1> and u<j+1>,
    floats or arrays broadcast together.

    Returns ([(lo, hi)] per expression, ok).  ok is False on the boxes
    where some subexpression is unbounded or undefined: a sqrt or log of an
    interval reaching below 0 (log: to 0), a divisor interval holding 0, a
    base reaching 0 under a negative power or below 0 under a fractional
    one, or an overflow.  The enclosures hold there no meaning.

    Bounds are computed in round-to-nearest, not rounded outward: a caller
    relying on them must allow a margin of a few ulps.
    """
    # keyed by node identity: a frozen dataclass hashes its whole subtree
    # on every lookup.  The trees outlive the call, so no id is reused
    memo: dict = {}
    ok = np.array(True)

    def iv(e: Expr):
        nonlocal ok
        if id(e) in memo:
            return memo[id(e)]
        if isinstance(e, Num):
            r = (e.value, e.value)
        elif isinstance(e, Var):
            r = x[e.index] if e.kind == "x" else u[e.index]
        elif isinstance(e, Neg):
            lo, hi = iv(e.operand)
            r = (-hi, -lo)
        elif isinstance(e, Call):
            r = _call_iv(e.func, iv(e.arg))
        elif e.op == "^":
            if isinstance(e.right, Num):
                r = _pow_iv(iv(e.left), e.right.value)
            else:  # exp(b log a)
                r = _call_iv("exp", _mul_iv(iv(e.right),
                                            _call_iv("log", iv(e.left))))
        else:
            a, b = iv(e.left), iv(e.right)
            if e.op == "+":
                r = (a[0] + b[0], a[1] + b[1])
            elif e.op == "-":
                r = (a[0] - b[1], a[1] - b[0])
            elif e.op == "*":
                r = _mul_iv(a, b)
            else:
                r = _mul_iv(a, _recip_iv(b))
        ok = ok & np.isfinite(r[0]) & np.isfinite(r[1])
        memo[id(e)] = r
        return r

    with np.errstate(all="ignore"):
        out = [iv(e) for e in exprs]
    return out, ok
