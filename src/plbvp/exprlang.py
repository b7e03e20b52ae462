"""Arithmetic expression language for problem coefficients.

Problem files carry the coefficient a(t) and the nonlinearity f(t, u) as
text, in infix arithmetic whose grammar is one table of precedences, where
a higher one binds tighter (``_BINARY``):

    + -  1, left     * /  2, left     prefix -  3     ^  4, right

An operand is a number, a variable, a constant, fn(expr, ...) or (expr),
and a prefix minus may stand before any operand: -x^2 parses as -(x^2),
-x*y as (-x)*y and 2^-3*4 as (2^(-3))*4.  The only variables are t and u;
pi and e are built-in constants, and e^t is written exp(t).  A number must
be finite as a double, and not round to 0 unless it is 0; nesting deeper
than MAX_DEPTH levels is a syntax error.

An expression is one tape: its nodes as rows in postorder (see
:class:`Expr`).  The parser emits the rows, and comparing, printing,
compiling and the rest read them in order, on a stack of their own.  An
expression's repr is its canonical text (:func:`to_text`), as
``Expr('...')``.

Evaluation is array-aware (scalars or numpy arrays for t and u) and total
on valid domains: log of a nonpositive value, square root of a negative,
division by zero and similar never produce a silent NaN but raise
:class:`ExprEvalError` carrying the offending subexpression and sample.
Domain checks are elementwise, so an array evaluation raises exactly when
one of its points is invalid on its own.

An expression is compiled once, on its first evaluation, into one closure
per node; the closures live on the expression object and die with it.
Compiling changes no result: each closure applies the same numpy operation
to the same operands as a walk of the tree would.
"""

import math
import operator
import re

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
# the tree it emits.  Evaluating takes a stack frame per level, so 900
# leaves a caller 100 of Python's default 1000.
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
        at = ", ".join(f"{k}={v!r}" for k, v in sorted(self.sample.items()))
        super().__init__(f"{message} in '{to_text(subexpr)}'" + (f" at {at}" if at else ""))


class ExprOverflowError(ExprEvalError):
    """Every domain test passed, but the value is not finite: it overflowed."""


class Expr:
    """A parsed expression, immutable: its nodes as ``rows``, one row
    (kind, label, child count) per node, every child before its parent and
    left before right.

    The rows are ("Num", value, 0), ("Var", name, 0), ("Const", name, 0),
    ("Neg", None, 1), ("Bin", op, 2) and ("Call", fn, arity).  They
    determine the tree, so equality and hashing compare them.  repr is
    ``Expr('<text>')`` with the canonical text of :func:`to_text`, which
    parses back to an equal Expr.

    :func:`evaluate` keeps the compiled form of the expression it evaluates
    as ``_compiled``.  Equality, hashing and repr ignore it, and pickling
    and copying leave it out.
    """

    __slots__ = ("rows", "_compiled", "__weakref__")

    def __init__(self, rows: tuple):
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set {name!r}: an Expr is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Expr({to_text(self)!r})"

    def __reduce__(self):  # the rows alone: the compiled form stays out
        return Expr, (self.rows,)


def _fold(rows: tuple, join):
    """The value at the root of join(kind, label, child values), taken over
    the rows, children first."""
    stack = []
    for kind, label, count in rows:
        children = stack[len(stack) - count:]
        del stack[len(stack) - count:]
        stack.append(join(kind, label, children))
    return stack[0]


def _subexpr(rows: tuple, end: int) -> Expr:
    """The expression whose root is rows[end]: its subtree's rows end there."""
    start, pending = end + 1, 1
    while pending:
        start -= 1
        pending += rows[start][2] - 1
    return Expr(rows[start:end + 1])


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
        if m.lastgroup in ("num", "ident"):
            tokens.append((m.lastgroup, m.group(), pos))
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


# The grammar: each binary operator's precedence and the least precedence
# of an operator in its right operand, which is the operator's own for the
# right-associative '^'.  A prefix minus has precedence _NEG, and an operand
# that needs no parentheses anywhere _ATOM.
_BINARY = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "^": (4, 4)}
_NEG, _ATOM = 3, 5


class _Parser:
    """Precedence climbing (Pratt 1973) that emits each node's row once its
    children's rows are in, which is postorder.  Each method takes its depth
    in the parser's calls and returns the height of the node it emitted:
    MAX_DEPTH bounds both.  A level of parentheses costs two calls and a
    function call three, against four and five when the grammar took a
    method per precedence level, so input nested too deep for that parser
    may parse."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)
        self.rows = []

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

    def emit(self, kind: str, label, count: int, height: int, offset: int) -> int:
        """Append a node's row; its height, if that is at most MAX_DEPTH."""
        self.rows.append((kind, label, count))
        return _level(height, offset)

    def parse_expr(self, depth: int, least: int = 1) -> int:
        """An operand, then every binary operator of precedence least or more."""
        kind, _, offset = self.current
        _level(depth, offset)  # every recursion of the parser passes through here
        if kind == "-":
            self.advance()
            height = self.emit("Neg", None, 1, 1 + self.parse_expr(depth + 1, _NEG + 1), offset)
        else:
            height = self.parse_base(depth + 1)
        while _BINARY.get(self.current[0], (0,))[0] >= least:
            op, _, offset = self.advance()
            rhs = self.parse_expr(depth + 1, _BINARY[op][1])
            height = self.emit("Bin", op, 2, 1 + max(height, rhs), offset)
        return height

    def parse_base(self, depth: int) -> int:
        kind, text, offset = self.current
        if kind == "num":
            self.advance()
            value = float(text)
            # inf would print as 'inf', and a nonzero value rounded to 0 as '0.0'
            if not math.isfinite(value) or not value and text.lower().split("e")[0].strip("0."):
                raise ExprSyntaxError(f"number {text!r} is out of range", offset)
            return self.emit("Num", value, 0, 1, offset)
        if kind == "ident":
            self.advance()
            if self.current[0] == "(":
                return self.parse_call(text, offset, depth + 1)
            if text in CONSTANTS:
                return self.emit("Const", text, 0, 1, offset)
            if text in self.variables:
                return self.emit("Var", text, 0, 1, offset)
            if text in _ARITY:
                raise ExprSyntaxError(f"function {text!r} needs arguments", offset)
            raise ExprSyntaxError(f"unknown identifier {text!r}", offset)
        if kind == "(":
            self.advance()
            height = self.parse_expr(depth + 1)
            self.expect(")")
            return height
        raise ExprSyntaxError(f"expected a value, found {text or 'end of input'!r}",
                              offset)

    def parse_call(self, name: str, offset: int, depth: int) -> int:
        if name not in _ARITY:
            raise ExprSyntaxError(f"unknown function {name!r}", offset)
        self.expect("(")
        heights = [self.parse_expr(depth + 1)]
        while self.current[0] == ",":
            self.advance()
            heights.append(self.parse_expr(depth + 1))
        self.expect(")")
        arity = _ARITY[name]
        if len(heights) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument{'s' if arity > 1 else ''}, got {len(heights)}",
                offset,
            )
        return self.emit("Call", name, arity, 1 + max(heights), offset)


def parse(text: str, variables=DEFAULT_VARIABLES) -> Expr:
    """Parse source text into an Expr, permitting only the given variables."""
    parser = _Parser(_tokenize(text), variables)
    parser.parse_expr(1)
    kind, tok_text, offset = parser.current
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {tok_text!r}", offset)
    return Expr(tuple(parser.rows))


def variables_of(e: Expr) -> frozenset:
    """Names of the variables referenced anywhere in the expression."""
    return frozenset(label for kind, label, _ in e.rows if kind == "Var")


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


def _check_domain(ok, message: str, node: tuple, t, u):
    """Raise ExprEvalError at node, (rows, index of its row), where ok fails."""
    if not ok.all():
        raise ExprEvalError(message, _subexpr(*node),
                            _witness({"t": t, "u": u}, ~np.asarray(ok)))


def _compile(e: Expr):
    """Compile e into one closure per node: fn(t, u) evaluates e.

    One pass over the rows keeps the children's closures on a stack.  An
    operator's maker in _BUILD takes them and the node, (rows, index of its
    row), whose subexpression an error builds only when it is raised.  Each
    closure applies the same numpy operation to its children's values, in
    the same order, as a walk of the tree would, so results are
    bit-identical and the first domain error is the same.
    """
    rows, stack = e.rows, []
    for i, (kind, label, count) in enumerate(rows):
        if count:
            children = stack[-count:]
            del stack[-count:]
            stack.append(_BUILD[label]((rows, i), *children))
        elif kind == "Var":
            stack.append(_variable(label, (rows, i)))
        else:
            stack.append(_constant(CONSTANTS[label] if kind == "Const" else label))
    return stack[0]


def _constant(value):
    return lambda t, u: value


def _variable(name: str, node: tuple):
    position = {"t": 0, "u": 1}.get(name)

    def var(t, u):
        value = None if position is None else (t, u)[position]
        if value is None:
            raise ExprEvalError(f"no value supplied for variable {name!r}", _subexpr(*node))
        return value
    return var


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


# The maker of each operator's closure, by the label of its row.
_BUILD = {
    None: _elementwise(operator.neg),
    "+": _elementwise(operator.add),
    "-": _elementwise(operator.sub),
    "*": _elementwise(operator.mul),
    "/": _division,
    "^": _power,
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

# Each function's arity, which the parser checks.
_ARITY = {"sin": 1, "cos": 1, "exp": 1, "abs": 1, "ln": 1, "sqrt": 1, "pow": 2, "min": 2, "max": 2}


def evaluate(e: Expr, t=None, u=None):
    """Evaluate an expression at t and/or u (scalars or numpy arrays).

    Scalar inputs give a float, others an array of their broadcast shape.

    The first evaluation compiles e (see :func:`_compile`) and keeps the
    compiled form on e itself, so later evaluations skip compiling and the
    form is freed with e.
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


def _wrap(text: str, needs: bool) -> str:
    return f"({text})" if needs else text


def _node_text(kind: str, label, children: list) -> tuple:
    """A node's canonical text and precedence, from its children's."""
    if kind == "Neg":
        (text, prec), = children
        return "-" + _wrap(text, prec < _NEG), _NEG
    if kind == "Call":
        return f"{label}({', '.join(text for text, _ in children)})", _ATOM
    if kind == "Bin":
        p, right = _BINARY[label]
        (lhs, lhs_prec), (rhs, rhs_prec) = children
        # the left operand of a right-associative operator binds strictly tighter
        lhs, rhs = _wrap(lhs, lhs_prec < p + (right == p)), _wrap(rhs, rhs_prec < right)
        return (f"{lhs} {label} {rhs}" if p == 1 else f"{lhs}{label}{rhs}"), p
    return (repr(label) if kind == "Num" else label), _ATOM


def to_text(e: Expr) -> str:
    """Canonical source text; reparsing it yields a structurally equal Expr."""
    return _fold(e.rows, _node_text)[0]
