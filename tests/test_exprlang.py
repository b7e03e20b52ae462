import copy
import dataclasses
import gc
import math
import operator
import pickle
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbvp import exprlang
from plbvp.exprlang import ExprEvalError, ExprSyntaxError, evaluate, parse, to_text, variables_of


def test_parse_paper_expressions():
    for text in ("0.5*t*ln(u+1)", "(348+sqrt(u)+t)/400", "exp(-t)*sin(u)^2",
                 "2.5*t*sqrt(t)"):
        parse(text)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2*")
    assert err.value.offset == 2


def test_unbalanced_paren():
    with pytest.raises(ExprSyntaxError):
        parse("(1+2")


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as err:
        parse("v+1")
    assert "unknown identifier" in str(err.value)
    assert err.value.offset == 0


def test_variable_restriction():
    parse("t+1", variables=("t",))
    with pytest.raises(ExprSyntaxError):
        parse("u+1", variables=("t",))


def test_arity_mismatch():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin(t, u)")
    assert "argument" in str(err.value)
    with pytest.raises(ExprSyntaxError):
        parse("pow(t)")
    with pytest.raises(ExprSyntaxError):
        parse("max(1)")


def test_function_without_arguments():
    with pytest.raises(ExprSyntaxError):
        parse("sin + 1")


def test_unexpected_character():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 @ 2")
    assert err.value.offset == 2


@pytest.mark.parametrize("text, offset", [("1e400", 0), ("1 + 1/1e400", 6),
                                          ("min(1e400, 1 + u)", 4),
                                          ("1.7976931348623159e308*u", 0)])
def test_number_out_of_range(text, offset):
    # a literal that rounds to inf would print as 'inf', which does not parse
    with pytest.raises(ExprSyntaxError, match="out of range") as err:
        parse(text)
    assert err.value.offset == offset
    largest = parse("1.7976931348623157e308")
    assert parse(to_text(largest)) == largest


def test_eval_constants():
    assert evaluate(parse("pi")) == pytest.approx(math.pi)
    assert evaluate(parse("e")) == pytest.approx(math.e)


def test_eval_examples():
    assert evaluate(parse("0.5*t*ln(u+1)"), t=1.0, u=math.e - 1.0) == pytest.approx(0.5)
    assert evaluate(parse("exp(-t)*sin(u)^2"), t=0.0, u=math.pi / 2.0) == pytest.approx(1.0)


def test_unary_minus_binds_whole_power():
    assert evaluate(parse("-t^2"), t=3.0) == pytest.approx(-9.0)
    assert evaluate(parse("(-t)^2"), t=3.0) == pytest.approx(9.0)


def test_power_right_associative():
    assert evaluate(parse("2^3^2")) == pytest.approx(512.0)


def test_negative_exponent():
    assert evaluate(parse("t^-2"), t=4.0) == pytest.approx(1.0 / 16.0)


def test_missing_variable_value():
    with pytest.raises(ExprEvalError):
        evaluate(parse("t+u"), t=1.0)


def test_domain_errors_carry_subexpression():
    with pytest.raises(ExprEvalError) as err:
        evaluate(parse("ln(u)"), u=0.0)
    assert "ln(u)" in str(err.value)
    with pytest.raises(ExprEvalError) as err:
        evaluate(parse("sqrt(t-1)"), t=0.5)
    assert "square root" in str(err.value)
    with pytest.raises(ExprEvalError):
        evaluate(parse("1/t"), t=0.0)
    with pytest.raises(ExprEvalError):
        evaluate(parse("t^0.5"), t=-2.0)
    with pytest.raises(ExprEvalError):
        evaluate(parse("t^-1"), t=0.0)


def test_domain_error_reports_offending_sample():
    ts = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ExprEvalError) as err:
        evaluate(parse("ln(t-0.35)"), t=ts)
    assert "t=" in str(err.value)


def test_no_silent_nan_or_inf():
    with pytest.raises(ExprEvalError):
        evaluate(parse("exp(t)"), t=1e4)


def test_vectorized_matches_scalar():
    e = parse("exp(-t)*sin(u)^2 + max(t, u)/2")
    ts = np.linspace(0.0, 1.0, 17)
    us = np.linspace(0.0, 2.0, 17)
    vec = evaluate(e, t=ts, u=us)
    for i in range(ts.size):
        assert vec[i] == pytest.approx(evaluate(e, t=float(ts[i]), u=float(us[i])))


def test_array_inputs_give_the_broadcast_shape():
    ts = np.linspace(0.0, 1.0, 5)
    const = evaluate(parse("1"), t=ts)
    assert isinstance(const, np.ndarray) and const.shape == (5,)
    assert const.tolist() == [1.0] * 5
    grid = evaluate(parse("t"), t=ts[:, None], u=np.linspace(0.0, 2.0, 3)[None, :])
    assert grid.shape == (5, 3)
    np.testing.assert_array_equal(grid, np.repeat(ts[:, None], 3, axis=1))
    assert evaluate(parse("t + u"), t=ts[:, None], u=np.ones((1, 3))).shape == (5, 3)
    assert type(evaluate(parse("1"), t=0.5)) is float
    assert type(evaluate(parse("t*u"), t=0.5, u=2.0)) is float
    assert type(evaluate(parse("2"))) is float


def test_variables_of():
    assert variables_of(parse("0.5*t*ln(u+1)")) == frozenset({"t", "u"})
    assert variables_of(parse("pi+1")) == frozenset()


def test_number_lexing():
    assert evaluate(parse("1e-3")) == pytest.approx(1e-3)
    assert evaluate(parse(".5+2.")) == pytest.approx(2.5)
    # 'e' after a complete number with no exponent digits is the constant
    assert evaluate(parse("2*e")) == pytest.approx(2.0 * math.e)


def test_round_trip_sample_strings():
    for text in ("0.5*t*ln(u+1)", "(348+sqrt(u)+t)/400", "exp(-t)*sin(u)^2",
                 "-t^2", "t^-2", "1-2-3", "t/(u+1)/2", "min(t, max(u, 1))"):
        tree = parse(text)
        assert parse(to_text(tree)) == tree


# the node kinds of exprlang.Expr as plain dataclasses, whose ==, hash and
# repr are generated
Num = dataclasses.make_dataclass("Num", [("value", float)], frozen=True)
Var = dataclasses.make_dataclass("Var", [("name", str)], frozen=True)
Const = dataclasses.make_dataclass("Const", [("name", str)], frozen=True)
Neg = dataclasses.make_dataclass("Neg", [("operand", object)], frozen=True)
Bin = dataclasses.make_dataclass("Bin", [("op", str), ("lhs", object), ("rhs", object)],
                                 frozen=True)
Call = dataclasses.make_dataclass("Call", [("fn", str), ("args", tuple)], frozen=True)


def _parts(node) -> tuple:
    """(the label of the node's row, its children)."""
    if isinstance(node, Bin):
        return node.op, (node.lhs, node.rhs)
    if isinstance(node, Neg):
        return None, (node.operand,)
    if isinstance(node, Call):
        return node.fn, node.args
    return (node.value if isinstance(node, Num) else node.name), ()


def _tape(tree) -> exprlang.Expr:
    """The Expr of a tree of the dataclasses above: its rows in postorder."""
    rows = []

    def emit(node):
        label, children = _parts(node)
        for child in children:
            emit(child)
        rows.append((type(node).__name__, label, len(children)))
    emit(tree)
    return exprlang.Expr(tuple(rows))


_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=sys.float_info.max, allow_nan=False,
                             allow_infinity=False)),
    st.sampled_from([Var("t"), Var("u"), Const("pi"), Const("e")]),
)


def _nodes(children):
    unary_fns = st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "abs"])
    binary_fns = st.sampled_from(["pow", "min", "max"])
    return st.one_of(
        st.builds(Neg, children),
        st.builds(lambda op, a, b: Bin(op, a, b),
                  st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(lambda f, a: Call(f, (a,)), unary_fns, children),
        st.builds(lambda f, a, b: Call(f, (a, b)), binary_fns, children, children),
    )


expr_trees = st.recursive(_leaf, _nodes, max_leaves=25)


@given(tree=expr_trees)
def test_print_parse_round_trip(tree):
    e = _tape(tree)
    assert parse(to_text(e)) == e


@given(tree=expr_trees, other=expr_trees)
def test_equality_and_repr_are_the_generated_ones(tree, other):
    e = _tape(tree)
    assert repr(e) == repr(tree)
    assert (e == _tape(other)) == (tree == other)
    assert (e != _tape(other)) == (tree != other)
    for clone in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e), parse(to_text(e))):
        assert clone == e and hash(clone) == hash(e) and repr(clone) == repr(e)
    assert e != to_text(e)



# --- compiled evaluation -------------------------------------------------

_WALK_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv, "sin": np.sin, "cos": np.cos, "exp": np.exp,
             "abs": np.abs, "ln": np.log, "sqrt": np.sqrt, "min": np.minimum,
             "max": np.maximum}


def _walk(e, env):
    """Reference evaluator: a plain walk of the tree, with the operations and
    elementwise domain checks ``evaluate`` promises, and no compilation."""
    def check(ok, message):
        if not np.all(ok):
            raise ExprEvalError(message, _tape(e), exprlang._witness(env, ~np.asarray(ok)))

    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return exprlang.CONSTANTS[e.name]
    if isinstance(e, Var):
        if env.get(e.name) is None:
            raise ExprEvalError(f"no value supplied for variable {e.name!r}", _tape(e))
        return env[e.name]
    if isinstance(e, Neg):
        return -_walk(e.operand, env)
    op, args = (e.op, (e.lhs, e.rhs)) if isinstance(e, Bin) else (e.fn, e.args)
    values = [_walk(a, env) for a in args]
    if op in ("^", "pow"):
        base, expo = (np.asarray(v, dtype=float) for v in values)
        check(~((base < 0.0) & (expo != np.round(expo))), "negative base with non-integer exponent")
        check((base != 0.0) | (expo >= 0.0), "zero base with negative exponent")
        try:
            return values[0] ** values[1]
        except OverflowError:  # two Python floats; numpy overflows to inf
            return np.power(*values)
    if op == "/":
        check(np.asarray(values[1]) != 0.0, "division by zero")
    elif op == "ln":
        check(np.asarray(values[0]) > 0.0, "log of a nonpositive value")
    elif op == "sqrt":
        check(np.asarray(values[0]) >= 0.0, "square root of a negative value")
    return _WALK_OPS[op](*values)


def _outcome(fn):
    try:
        with np.errstate(all="ignore"):
            return "value", fn()
    except (ExprEvalError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _walk_evaluate(e, t=None, u=None):
    env = {"t": t, "u": u}
    with np.errstate(all="ignore"):
        arr = np.asarray(_walk(e, env), dtype=float)
    if not np.all(np.isfinite(arr)):
        raise exprlang.ExprOverflowError("evaluation produced a non-finite value", _tape(e),
                                         exprlang._witness(env, ~np.isfinite(arr)))
    if np.ndim(t) == 0 and np.ndim(u) == 0:
        return float(arr)
    return np.broadcast_to(arr, np.broadcast_shapes(np.shape(t), np.shape(u)))


_SAMPLE_T = np.array([0.0, 0.3, 1.0, -0.5, 2.0])
_SAMPLE_U = np.array([0.0, 1.7, -2.0, 0.5, 3.0])


@given(tree=expr_trees)
def test_compiled_evaluation_matches_tree_walk(tree):
    # bit for bit, or the same error with the same witness; on arrays, on
    # scalars, and again once the compiled form is cached on the tree
    e = _tape(tree)
    for t, u in [(_SAMPLE_T, _SAMPLE_U), *zip(_SAMPLE_T.tolist(), _SAMPLE_U.tolist())]:
        want = _outcome(lambda: _walk_evaluate(tree, t=t, u=u))
        for _ in range(2):
            got = _outcome(lambda: evaluate(e, t=t, u=u))
            assert got[0] == want[0]
            if got[0] == "value":
                assert type(got[1]) is type(want[1])
                np.testing.assert_array_equal(got[1], want[1], strict=True)
            else:
                assert got[1] == want[1]


_LATTICES = [(np.linspace(0.0, 1.0, 201), np.linspace(0.0, 100.0, 201)),
             (np.linspace(-0.5, 2.0, 21), np.linspace(-2.0, 3.0, 21))]


@given(tree=expr_trees)
def test_broadcast_lattice_matches_meshgrid(tree):
    # sampling on (n, 1) and (1, m) axes, as the theorem checks and the
    # validation of a Problem do, gives the values or the first error with
    # its witness of sampling on the full meshgrid
    e = _tape(tree)
    for ts, us in _LATTICES:
        tg, ug = np.meshgrid(ts, us, indexing="ij")
        want = _outcome(lambda: evaluate(e, t=tg, u=ug))
        got = _outcome(lambda: evaluate(e, t=ts[:, None], u=us[None, :]))
        assert got[0] == want[0]
        if got[0] == "value":
            np.testing.assert_array_equal(got[1], want[1], strict=True)
        else:
            assert got[1] == want[1]


def test_array_domain_checks_are_elementwise():
    e = parse("pow(t - 0.5, u) + (t - 0.5)^u")
    ts, us = np.array([0.0, 1.0, 0.2]), np.array([2.0, 0.5, -3.0])
    vec = evaluate(e, t=ts, u=us)
    # each point is valid on its own: a negative base only meets integers
    assert vec.tolist() == [evaluate(e, t=t, u=u) for t, u in zip(ts.tolist(), us.tolist())]
    with pytest.raises(ExprEvalError) as err:
        evaluate(e, t=np.array([1.0, 0.0]), u=np.array([0.5, 0.5]))
    assert err.value.sample == {"t": 0.0, "u": 0.5}
    assert "negative base with non-integer exponent in 'pow(t - 0.5, u)'" in str(err.value)


def test_domain_error_under_min_max_still_raises():
    for text, sub in (("max(ln(t), 1)", "ln(t)"), ("min(sqrt(t - 1), 0)", "sqrt(t - 1.0)")):
        with pytest.raises(ExprEvalError) as err:
            evaluate(parse(text), t=0.0)
        assert to_text(err.value.subexpr) == sub
        assert err.value.sample == {"t": 0.0}


@pytest.mark.parametrize("text, bad, message", [
    ("1/(t - u)", (0.5, 0.5), "division by zero in '1.0/(t - u)' at t=0.5, u=0.5"),
    ("ln(u) + t", (1.0, 0.0), "log of a nonpositive value in 'ln(u)' at t=1.0, u=0.0"),
    ("sqrt(t - 1)*u", (0.5, 1.0),
     "square root of a negative value in 'sqrt(t - 1.0)' at t=0.5, u=1.0"),
    ("t^0.5 + u", (-1.0, 1.0),
     "negative base with non-integer exponent in 't^0.5' at t=-1.0, u=1.0"),
    ("t^-2 + u", (0.0, 1.0), "zero base with negative exponent in 't^(-2.0)' at t=0.0, u=1.0"),
    ("t^u", (-1.0, 0.5), "negative base with non-integer exponent in 't^u' at t=-1.0, u=0.5"),
    ("pow(t, u)", (0.0, -1.0),
     "zero base with negative exponent in 'pow(t, u)' at t=0.0, u=-1.0"),
    ("exp(u) - t", (1.0, 1e4),
     "evaluation produced a non-finite value in 'exp(u) - t' at t=1.0, u=10000.0"),
    ("max(ln(t), u)", (0.0, 1.0), "log of a nonpositive value in 'ln(t)' at t=0.0, u=1.0"),
    # sin(inf) is NaN, which is not a negative base: the power passes it on
    ("sin(exp(u))^0.5 + t", (1.0, 1e3),
     "evaluation produced a non-finite value in 'sin(exp(u))^0.5 + t' at t=1.0, u=1000.0"),
    ("pow(sin(exp(u)), t)", (0.5, 1e3),
     "evaluation produced a non-finite value in 'pow(sin(exp(u)), t)' at t=0.5, u=1000.0"),
])
def test_domain_error_same_for_scalar_0d_and_array_inputs(text, bad, message):
    e = parse(text)
    good = (2.0, 3.0)
    inputs = (bad, tuple(np.asarray(v) for v in bad),
              tuple(np.array([g, b, b]) for g, b in zip(good, bad)))
    for t, u in inputs:
        with pytest.raises(ExprEvalError) as err:
            evaluate(e, t=t, u=u)
        assert str(err.value) == message
        assert err.value.sample == dict(zip("tu", bad))


@pytest.mark.parametrize("text", ["u + 10^400", "pow(10, 400)", "10^(400*t) + u"])
def test_overflowing_constant_power_is_an_eval_error(text):
    # a power of Python floats raises OverflowError where numpy returns inf
    e = parse(text)
    for t, u in ((1.0, 1.0), (np.array([1.0, 0.5]), np.array([1.0, 2.0]))):
        with pytest.raises(ExprEvalError) as err:
            evaluate(e, t=t, u=u)
        assert str(err.value).startswith("evaluation produced a non-finite value in ")
        assert err.value.sample == {"t": 1.0, "u": 1.0}


def test_compiled_form_dies_with_expression():
    e = parse("exp(-t)*sin(u)^2 + max(t, u)/2")
    assert evaluate(e, t=0.5, u=1.0) == evaluate(e, t=0.5, u=1.0)
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None


def test_evaluated_expression_pickles_and_copies():
    e = parse("0.5*t*ln(u+1)")
    value = evaluate(e, t=0.5, u=1.0)
    for clone in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
        assert clone == e and hash(clone) == hash(e)
        assert evaluate(clone, t=0.5, u=1.0) == value


def test_witness_of_a_subexpression_narrower_than_the_inputs():
    with pytest.raises(ExprEvalError) as err:
        evaluate(parse("ln(t - 2) + u"), t=0.5, u=np.array([1.0, 2.0]))
    assert err.value.sample == {"t": 0.5, "u": 1.0}


def test_long_sum_evaluates():
    # the parser builds a left-deep tree, one level per term; compiling and
    # evaluating take one stack frame per level, as the tree walk did
    e = parse(" + ".join(["u*t"] * 800))
    assert evaluate(e, t=0.5, u=2.0) == 800.0


# text at nesting n, and its value at u = 0.25
_DEEP = {
    "sum": (lambda n: "+".join(["u"] * n), lambda n: 0.25 * n),
    "minus": (lambda n: "abs(" + "-" * n + "u)", lambda n: 0.25),
    "power": (lambda n: "1^" * n + "u", lambda n: 1.0),
    "parentheses": (lambda n: "(" * n + "u" + ")" * n, lambda n: 0.25),
    "calls": (lambda n: "abs(" * n + "u" + ")" * n, lambda n: 0.25),
}


def _frames() -> int:
    """The caller's depth in stack frames."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _deepest(make):
    """Largest n at which parse accepts make(n)."""
    lo, hi = 1, 2 * exprlang.MAX_DEPTH
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parse(make(mid))
            lo = mid
        except ExprSyntaxError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_nesting_past_the_limit_is_a_syntax_error(shape):
    make, value = _DEEP[shape]
    n = _deepest(make)
    # the parser spends up to five calls on a level of parentheses or calls
    assert (exprlang.MAX_DEPTH - 5) // 5 <= n <= exprlang.MAX_DEPTH
    # the deepest accepted expression compiles, evaluates and prints, and it
    # compares, hashes, pickles and copies
    e = parse(make(n))
    assert evaluate(e, t=0.5, u=0.25) == value(n)
    # none of those but evaluating recurses: each runs within a few dozen
    # frames of its caller, whatever the expression's height
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 60)
    try:
        text, names, printed = to_text(e), variables_of(e), repr(e)
        clones = (pickle.loads(pickle.dumps(e)), copy.deepcopy(e))
        same = [(c == e, hash(c) == hash(e), repr(c) == printed) for c in clones]
        message = str(ExprEvalError("x", e))
    finally:
        sys.setrecursionlimit(limit)
    assert to_text(parse(text)) == text and names == {"u"} and message == f"x in '{text}'"
    assert same == [(True, True, True)] * 2
    for clone in clones:
        assert getattr(clone, "_compiled", None) is None
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {exprlang.MAX_DEPTH} levels"):
        parse(make(n + 1))
    for huge in (3000, 1000):
        with pytest.raises(ExprSyntaxError) as err:
            parse(make(huge))
        assert 0 < err.value.offset < len(make(huge))


def test_too_deep_names_the_offset_of_its_level():
    limit = exprlang.MAX_DEPTH
    text = "+".join(["u"] * (limit + 1))
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    # the limit-th '+' makes the tree one level too high
    assert err.value.offset == 2 * limit - 1 and text[err.value.offset] == "+"
