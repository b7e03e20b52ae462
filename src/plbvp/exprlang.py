"""Arithmetic expression language for problem coefficients.

Problem files carry the coefficient a(t) and the nonlinearity f(t, u) as
text.  The grammar is conventional infix arithmetic:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

'^' is right-associative, and a leading minus applies to the whole power:
-x^2 parses as -(x^2).  The only variables are t and u; pi and e are
built-in constants, and e^t is written exp(t).

Evaluation is array-aware (scalars or numpy arrays for t and u) and total
on valid domains: log of a nonpositive value, square root of a negative,
division by zero and similar never produce a silent NaN but raise
:class:`ExprEvalError` carrying the offending subexpression and sample.
Domain checks are elementwise, so an array evaluation raises exactly when
one of its points is invalid on its own.

An expression is compiled once, on its first evaluation, into one closure
per node; the closures live on the expression object and die with it.
Later evaluations, such as the hundreds of scalar calls of one theorem
check, skip the walk over the tree.  Compiling changes no result: each
closure applies the same numpy operation to the same operands as the tree
walk did.
"""

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "parse",
    "evaluate",
    "to_text",
    "variables_of",
]

FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "ln": 1,
    "sqrt": 1,
    "abs": 1,
    "pow": 2,
    "min": 2,
    "max": 2,
}

CONSTANTS = {"pi": math.pi, "e": math.e}

DEFAULT_VARIABLES = ("t", "u")


class ExprError(ValueError):
    """Base class for expression language failures."""


class ExprSyntaxError(ExprError):
    """Parse failure; ``offset`` is the byte offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    """Domain failure during evaluation; carries the offending subexpression."""

    def __init__(self, message: str, subexpr: "Expr", sample: dict | None = None):
        self.subexpr = subexpr
        self.sample = dict(sample) if sample else {}
        where = f" in '{to_text(subexpr)}'"
        at = ""
        if self.sample:
            at = " at " + ", ".join(f"{k}={v!r}" for k, v in sorted(self.sample.items()))
        super().__init__(message + where + at)


class Expr:
    """Base class of parsed expression nodes.

    :func:`evaluate` keeps the compiled form of the expression it evaluates
    on the node, as ``_compiled``.  It is not a field: equality, hashing and
    repr ignore it, and pickling and copying leave it out.
    """

    __slots__ = ()

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_compiled"}


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Const(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    args: tuple


_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", m.group(), pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.current
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                                  tok[2])
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.current[0] in ("+", "-"):
            op = self.advance()[0]
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.current[0] in ("*", "/"):
            op = self.advance()[0]
            node = Bin(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        if self.current[0] == "-":
            self.advance()
            return Neg(self.parse_factor())
        node = self.parse_base()
        if self.current[0] == "^":
            self.advance()
            node = Bin("^", node, self.parse_factor())
        return node

    def parse_base(self) -> Expr:
        kind, text, offset = self.current
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "ident":
            self.advance()
            if self.current[0] == "(":
                return self.parse_call(text, offset)
            if text in CONSTANTS:
                return Const(text)
            if text in self.variables:
                return Var(text)
            if text in FUNCTIONS:
                raise ExprSyntaxError(f"function {text!r} needs arguments", offset)
            raise ExprSyntaxError(f"unknown identifier {text!r}", offset)
        if kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"expected a value, found {text or 'end of input'!r}",
                              offset)

    def parse_call(self, name: str, offset: int) -> Expr:
        if name not in FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {name!r}", offset)
        self.expect("(")
        args = [self.parse_expr()]
        while self.current[0] == ",":
            self.advance()
            args.append(self.parse_expr())
        self.expect(")")
        arity = FUNCTIONS[name]
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                offset,
            )
        return Call(name, tuple(args))


def parse(text: str, variables=DEFAULT_VARIABLES) -> Expr:
    """Parse source text into an Expr, permitting only the given variables."""
    parser = _Parser(_tokenize(text), variables)
    node = parser.parse_expr()
    kind, tok_text, offset = parser.current
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {tok_text!r}", offset)
    return node


def variables_of(e: Expr) -> frozenset:
    """Names of the variables referenced anywhere in the expression."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return variables_of(e.operand)
    if isinstance(e, Bin):
        return variables_of(e.lhs) | variables_of(e.rhs)
    if isinstance(e, Call):
        out = frozenset()
        for a in e.args:
            out |= variables_of(a)
        return out
    return frozenset()


def _witness(env: dict, mask: np.ndarray) -> dict:
    """Variable values at the first offending broadcast index."""
    # a mask from a subexpression can have fewer dimensions than the inputs
    mask = np.broadcast_to(mask, np.broadcast_shapes(
        np.shape(mask), *(np.shape(v) for v in env.values() if v is not None)))
    flat = np.flatnonzero(np.atleast_1d(mask))
    if flat.size == 0:
        return {}
    idx = np.unravel_index(flat[0], np.shape(mask)) if np.ndim(mask) else ()
    out = {}
    for name, value in env.items():
        if value is None:
            continue
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            out[name] = float(arr)
        else:
            out[name] = float(np.broadcast_to(arr, np.shape(mask))[idx])
    return out


def _check_domain(ok, message: str, node: Expr, t, u):
    if not ok.all():
        raise ExprEvalError(message, node, _witness({"t": t, "u": u}, ~np.asarray(ok)))


def _compile(e: Expr):
    """Compile e into one closure per node: fn(t, u) evaluates e.

    Each closure applies the same numpy operation to its children's values,
    in the same order, as a walk of the tree would, so results are
    bit-identical and the first domain error is the same.  Compiling, like
    evaluating, takes one stack frame per level of the tree.
    """
    if isinstance(e, Num):
        value = e.value
        return lambda t, u: value
    if isinstance(e, Const):
        value = CONSTANTS[e.name]
        return lambda t, u: value
    if isinstance(e, Var):
        # a dict lookup, unlike ==, costs no recursion count at the leaves
        position = {"t": 0, "u": 1}.get(e.name)

        def var(t, u):
            value = None if position is None else (t, u)[position]
            if value is None:
                raise ExprEvalError(f"no value supplied for variable {e.name!r}", e)
            return value
        return var
    if isinstance(e, Neg):
        operand = _compile(e.operand)
        return lambda t, u: -operand(t, u)
    if isinstance(e, Bin):
        return _BINARY[e.op](e, _compile(e.lhs), _compile(e.rhs))
    if isinstance(e, Call):
        return _CALLS[e.fn](e, *map(_compile, e.args))
    raise TypeError(f"not an expression node: {e!r}")


def _elementwise(op):
    """Builder of the closure applying op to one or two compiled operands."""
    def build(node, x, y=None):
        if y is None:
            return lambda t, u: op(x(t, u))
        return lambda t, u: op(x(t, u), y(t, u))
    return build


def _checked(op, test, message):
    """Builder of the closure applying op to one operand that passes test."""
    def build(node, x):
        def checked(t, u):
            v = x(t, u)
            _check_domain(test(np.asarray(v)), message, node, t, u)
            return op(v)
        return checked
    return build


def _division(node, lhs, rhs):
    def division(t, u):
        a, b = lhs(t, u), rhs(t, u)
        _check_domain(np.asarray(b) != 0.0, "division by zero", node, t, u)
        return a / b
    return division


def _power(node, base, expo):
    """base ** expo, which needs base >= 0 where expo is not an integer and
    base != 0 where expo < 0, both tested elementwise.  An exponent without
    variables is evaluated here, once, and decides which of the two tests
    its base must pass."""
    expo_value = _constant_value(expo)
    if expo_value is None:
        def power(t, u):
            b, x = base(t, u), expo(t, u)
            b_arr = np.asarray(b, dtype=float)
            x_arr = np.asarray(x, dtype=float)
            _check_domain(~((b_arr < 0.0) & (x_arr != np.round(x_arr))),
                          "negative base with non-integer exponent", node, t, u)
            _check_domain((b_arr != 0.0) | (x_arr >= 0.0),
                          "zero base with negative exponent", node, t, u)
            return _pow(b, x)
        return power

    integral = bool(expo_value == np.round(expo_value))
    nonnegative = bool(expo_value >= 0.0)
    if integral and nonnegative:
        return lambda t, u: _pow(base(t, u), expo_value)

    def constant_power(t, u):
        b = base(t, u)
        if not integral:
            _check_domain(~(np.asarray(b, dtype=float) < 0.0),
                          "negative base with non-integer exponent", node, t, u)
        if not nonnegative:
            _check_domain(np.asarray(b, dtype=float) != 0.0,
                          "zero base with negative exponent", node, t, u)
        return _pow(b, expo_value)
    return constant_power


def _pow(b, x):
    """b ** x, overflowing to +-inf as numpy does.  Where both are Python
    floats (constants, or scalar inputs) Python raises OverflowError
    instead, which would escape the non-finite check of :func:`evaluate`."""
    try:
        return b ** x
    except OverflowError:
        return np.power(b, x)


def _constant_value(fn):
    """Value of the compiled fn if it evaluates cleanly without t and u;
    else None, and fn raises again, with its witness, on every evaluation.
    Every variable of an expression is evaluated, so one with variables
    always raises here."""
    try:
        return fn(None, None)
    except (ExprEvalError, ArithmeticError):
        return None


_BINARY = {
    "+": _elementwise(operator.add),
    "-": _elementwise(operator.sub),
    "*": _elementwise(operator.mul),
    "/": _division,
    "^": _power,
}

_CALLS = {
    "sin": _elementwise(np.sin),
    "cos": _elementwise(np.cos),
    "exp": _elementwise(np.exp),
    "abs": _elementwise(np.abs),
    "ln": _checked(np.log, lambda x: x > 0.0, "log of a nonpositive value"),
    "sqrt": _checked(np.sqrt, lambda x: x >= 0.0, "square root of a negative value"),
    "pow": _power,
    "min": _elementwise(np.minimum),
    "max": _elementwise(np.maximum),
}


def evaluate(e: Expr, t=None, u=None):
    """Evaluate an expression at t and/or u (scalars or numpy arrays).

    Scalar inputs give a float, others an array of their broadcast shape.

    The first evaluation compiles e (see :func:`_compile`) and keeps the
    compiled form on e itself, so later evaluations skip the tree walk and
    the form is freed with e.
    """
    # domain checks preempt divide/invalid; overflow to inf is converted to
    # an ExprEvalError below, so keep numpy quiet in between
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fn = getattr(e, "_compiled", None)
        if fn is None:
            fn = _compile(e)
            object.__setattr__(e, "_compiled", fn)
        value = fn(t, u)
    arr = np.asarray(value, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        raise ExprEvalError("evaluation produced a non-finite value", e,
                            _witness({"t": t, "u": u}, ~finite))
    if np.ndim(t) == 0 and np.ndim(u) == 0:
        return float(arr)
    shape = np.broadcast(t, u).shape
    return arr if arr.shape == shape else np.broadcast_to(arr, shape)


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        if e.op in ("+", "-"):
            return _PREC_ADD
        if e.op in ("*", "/"):
            return _PREC_MUL
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(text: str, needs: bool) -> str:
    return f"({text})" if needs else text


def to_text(e: Expr) -> str:
    """Canonical source text; reparsing it yields a structurally equal Expr."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Var, Const)):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(to_text(e.operand), _prec(e.operand) < _PREC_NEG)
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(to_text(a) for a in e.args)})"
    if isinstance(e, Bin):
        p = _prec(e)
        if e.op == "^":
            # right-associative: the left operand must bind strictly tighter
            lhs = _wrap(to_text(e.lhs), _prec(e.lhs) <= p)
            rhs = _wrap(to_text(e.rhs), _prec(e.rhs) < p)
        else:
            lhs = _wrap(to_text(e.lhs), _prec(e.lhs) < p)
            rhs = _wrap(to_text(e.rhs), _prec(e.rhs) <= p)
        return f"{lhs} {e.op} {rhs}" if e.op in ("+", "-") else f"{lhs}{e.op}{rhs}"
    raise TypeError(f"not an expression node: {e!r}")
