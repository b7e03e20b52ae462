"""Arithmetic expression language for problem coefficients.

Problem files carry the coefficient a(t) and the nonlinearity f(t, u) as
text.  The grammar is conventional infix arithmetic:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

'^' is right-associative, and a leading minus applies to the whole power:
-x^2 parses as -(x^2).  The only variables are t and u; pi and e are
built-in constants, and e^t is written exp(t).  Nesting deeper than
MAX_DEPTH levels is a syntax error.

Evaluation is array-aware (scalars or numpy arrays for t and u) and total
on valid domains: log of a nonpositive value, square root of a negative,
division by zero and similar never produce a silent NaN but raise
:class:`ExprEvalError` carrying the offending subexpression and sample.
Domain checks are elementwise, so an array evaluation raises exactly when
one of its points is invalid on its own.

An expression is compiled once, on its first evaluation, into one closure
per node; the closures live on the expression object and die with it.
Later evaluations skip the walk over the tree.  Compiling changes no
result: each closure applies the same numpy operation to the same operands
as the tree walk did.
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
    "ExprOverflowError",
    "parse",
    "evaluate",
    "to_text",
    "variables_of",
]

CONSTANTS = {"pi": math.pi, "e": math.e}

DEFAULT_VARIABLES = ("t", "u")

# The deepest nesting parse accepts, in its own calls and in the height of
# the tree it builds.  Compiling, evaluating, printing and variables_of take
# a stack frame per level, so 900 leaves a caller 100 of Python's default 1000.
MAX_DEPTH = 900


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


class ExprOverflowError(ExprEvalError):
    """Every domain test passed, but the value is not finite: it overflowed."""


class Expr:
    """Base class of parsed expression nodes.

    Equality, hashing, repr, pickling and copying walk the tree on a list of
    their own, not on the interpreter's stack, so they take a tree of any
    height: equality and repr are those a dataclass would generate.

    :func:`evaluate` keeps the compiled form of the expression it evaluates
    on the node, as ``_compiled``.  It is not a field: equality, hashing and
    repr ignore it, and pickling and copying leave it out.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._flat() == other._flat()

    def __hash__(self):
        return hash(self._flat())

    def __repr__(self):
        return _fold(self._flat(), _node_repr)

    def __reduce__(self):  # pickling and copying rebuild the tree from its rows
        return _rebuild, (self._flat(),)

    def _flat(self) -> tuple:
        """The tree as rows (class, fields that are not nodes, child count),
        every child before its parent and left before right: the rows
        determine the tree, and compare as its fields would."""
        rows, stack = [], [self]
        while stack:
            node = stack.pop()
            fields, children = _parts(node)
            rows.append((node.__class__, fields, len(children)))
            stack.extend(children)
        return tuple(reversed(rows))


@dataclass(frozen=True, eq=False, repr=False)
class Num(Expr):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Bin(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Call(Expr):
    fn: str
    args: tuple


def _parts(e: Expr) -> tuple:
    """(the node's fields that are not nodes, its child nodes)."""
    if isinstance(e, Bin):
        return (e.op,), (e.lhs, e.rhs)
    if isinstance(e, Neg):
        return (), (e.operand,)
    if isinstance(e, Call):
        return (e.fn,), e.args
    if isinstance(e, Num):
        return (e.value,), ()
    return (e.name,), ()


def _fold(rows: tuple, join):
    """The value at the root of join(class, fields, child values), taken
    over the rows of Expr._flat, children first."""
    stack = []
    for cls, fields, count in rows:
        children = stack[len(stack) - count:]
        del stack[len(stack) - count:]
        stack.append(join(cls, fields, children))
    return stack[0]


def _node(cls, fields: tuple, children: list) -> Expr:
    return cls(*fields, tuple(children)) if cls is Call else cls(*fields, *children)


def _rebuild(rows: tuple) -> Expr:
    """The tree of the rows of Expr._flat."""
    return _fold(rows, _node)


def _node_repr(cls, fields: tuple, children: list) -> str:
    """A node's repr as its dataclass would write it, from its children's."""
    values = [repr(value) for value in fields]
    if cls is Call:  # its arguments are a tuple
        values.append(f"({', '.join(children)}{',' * (len(children) == 1)})")
    else:
        values += children
    pairs = ", ".join(f"{name}={value}" for name, value in zip(cls.__dataclass_fields__, values))
    return f"{cls.__qualname__}({pairs})"


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


def _level(level: int, offset: int) -> int:
    """level, if it is at most MAX_DEPTH; else the syntax error at offset."""
    if level > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
    return level


class _Parser:
    """Recursive descent.  Each method takes its depth in the parser's calls
    and returns its node with the node's height: MAX_DEPTH bounds both."""

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

    def parse_expr(self, depth: int) -> tuple:
        node, height = self.parse_term(depth + 1)
        while self.current[0] in ("+", "-"):
            op, _, offset = self.advance()
            rhs, rhs_height = self.parse_term(depth + 1)
            node, height = Bin(op, node, rhs), _level(1 + max(height, rhs_height), offset)
        return node, height

    def parse_term(self, depth: int) -> tuple:
        node, height = self.parse_factor(depth + 1)
        while self.current[0] in ("*", "/"):
            op, _, offset = self.advance()
            rhs, rhs_height = self.parse_factor(depth + 1)
            node, height = Bin(op, node, rhs), _level(1 + max(height, rhs_height), offset)
        return node, height

    def parse_factor(self, depth: int) -> tuple:
        offset = self.current[2]
        _level(depth, offset)  # every recursion of the parser passes through here
        if self.current[0] == "-":
            self.advance()
            node, height = self.parse_factor(depth + 1)
            return Neg(node), _level(1 + height, offset)
        node, height = self.parse_base(depth + 1)
        if self.current[0] == "^":
            offset = self.advance()[2]
            rhs, rhs_height = self.parse_factor(depth + 1)
            node, height = Bin("^", node, rhs), _level(1 + max(height, rhs_height), offset)
        return node, height

    def parse_base(self, depth: int) -> tuple:
        kind, text, offset = self.current
        if kind == "num":
            self.advance()
            return Num(float(text)), 1
        if kind == "ident":
            self.advance()
            if self.current[0] == "(":
                return self.parse_call(text, offset, depth + 1)
            if text in CONSTANTS:
                return Const(text), 1
            if text in self.variables:
                return Var(text), 1
            if text in _CALLS:
                raise ExprSyntaxError(f"function {text!r} needs arguments", offset)
            raise ExprSyntaxError(f"unknown identifier {text!r}", offset)
        if kind == "(":
            self.advance()
            node = self.parse_expr(depth + 1)
            self.expect(")")
            return node
        raise ExprSyntaxError(f"expected a value, found {text or 'end of input'!r}",
                              offset)

    def parse_call(self, name: str, offset: int, depth: int) -> tuple:
        if name not in _CALLS:
            raise ExprSyntaxError(f"unknown function {name!r}", offset)
        self.expect("(")
        args = [self.parse_expr(depth + 1)]
        while self.current[0] == ",":
            self.advance()
            args.append(self.parse_expr(depth + 1))
        self.expect(")")
        arity = _CALLS[name][0]
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                offset,
            )
        nodes, heights = zip(*args)
        return Call(name, nodes), _level(1 + max(heights), offset)


def parse(text: str, variables=DEFAULT_VARIABLES) -> Expr:
    """Parse source text into an Expr, permitting only the given variables."""
    parser = _Parser(_tokenize(text), variables)
    node, _ = parser.parse_expr(1)
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
        return _CALLS[e.fn][1](e, *map(_compile, e.args))
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

# Each function's arity, which the parser checks, and the maker of its closure.
_CALLS = {
    "sin": (1, _elementwise(np.sin)),
    "cos": (1, _elementwise(np.cos)),
    "exp": (1, _elementwise(np.exp)),
    "abs": (1, _elementwise(np.abs)),
    "ln": (1, _checked(np.log, lambda x: x > 0.0, "log of a nonpositive value")),
    "sqrt": (1, _checked(np.sqrt, lambda x: x >= 0.0, "square root of a negative value")),
    "pow": (2, _power),
    "min": (2, _elementwise(np.minimum)),
    "max": (2, _elementwise(np.maximum)),
}


def evaluate(e: Expr, t=None, u=None):
    """Evaluate an expression at t and/or u (scalars or numpy arrays).

    Scalar inputs give a float, others an array of their broadcast shape.

    The first evaluation compiles e (see :func:`_compile`) and keeps the
    compiled form on e itself, so later evaluations skip the tree walk and
    the form is freed with e.
    """
    # domain checks preempt divide/invalid; overflow to inf is converted to
    # an ExprOverflowError below, so keep numpy quiet in between
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _evaluate(e, t, u)


def _evaluate(e: Expr, t, u):
    """:func:`evaluate` in the caller's numpy error state, which must ignore
    overflow, invalid results and division by zero."""
    fn = getattr(e, "_compiled", None)
    if fn is None:
        fn = _compile(e)
        object.__setattr__(e, "_compiled", fn)
    arr = np.asarray(fn(t, u), dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        raise ExprOverflowError("evaluation produced a non-finite value", e,
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
        return f"{e.fn}({', '.join(map(to_text, e.args))})"
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
