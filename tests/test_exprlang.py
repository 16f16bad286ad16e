"""Expression language: precedence, folding, domains, compilation."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredholm.errors import DomainError, ExprSyntaxError, UnboundVariableError
from fredholm.exprlang import (_MAX_DEPTH, FUNCTIONS, BinOp, Call, Neg, Num,
                               Var, compile_fn, parse)


def _evaluate(tree, env=None):
    """``tree`` run by ``compile_fn`` on scalar bindings."""
    env = env or {}
    return float(compile_fn(tree, env)(*map(float, env.values())))


@pytest.mark.parametrize("text,expected", [
    ("2+3*4", 14.0),
    ("2^3^2", 512.0),
    ("-2^2", -4.0),
    ("(-2)^2", 4.0),
    ("2*3^2", 18.0),
    ("(2+3)*4", 20.0),
    ("2-3-4", -5.0),
    ("16/4/2", 2.0),
    ("-2*-3", 6.0),
    ("2^-1", 0.5),
    ("1 - -1", 2.0),
    ("abs(-3)+1", 4.0),
    ("0^0", 1.0),
])
def test_precedence_and_associativity(text, expected):
    assert _evaluate(parse(text)) == expected


def test_float_arithmetic_close():
    got = _evaluate(parse("3*3.2/(3.2+0^2)^2"))
    assert math.isclose(got, 0.9375, rel_tol=1e-12)


def test_constants_fold_at_parse():
    assert parse("pi") == Num(math.pi)
    assert parse("2*e") == BinOp("*", Num(2.0), Num(math.e))
    assert compile_fn(parse("pi + x"), ("x",))(1.0) == math.pi + 1.0
    with pytest.raises(UnboundVariableError) as exc:
        compile_fn(parse("e^x"), ())
    assert str(exc.value) == "unexpected variable(s) ['x']; allowed: []"


def test_function_values():
    assert _evaluate(parse("sin(0)")) == 0.0
    assert _evaluate(parse("cos(0)")) == 1.0
    assert _evaluate(parse("tan(0)")) == 0.0
    assert _evaluate(parse("exp(1)")) == math.e
    assert _evaluate(parse("log(e)")) == 1.0
    assert _evaluate(parse("sqrt(9)")) == 3.0
    assert _evaluate(parse("abs(-2.5)")) == 2.5


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("2 +", 3),
    ("1 + * 2", 4),
    ("sin(x*", 6),
    ("(1", 2),
    ("1 2", 2),
    ("1 @ 2", 2),
    ("foo(2)", 0),
    ("sin + 2", 0),
    ("2 ** 3", 3),
])
def test_syntax_error_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert f"at offset {offset}" in str(exc.value)


def _nest(levels, value, opener, closer="", step=lambda v: v):
    """(text, value, offset of the last opener) of ``levels`` nested
    ``opener``/``closer`` pairs around x, with ``step`` applied to x as
    often."""
    for _ in range(levels):
        value = step(value)
    return (opener * levels + "x" + closer * levels, value,
            len(opener) * (levels - 1))


def _chain(levels, value, op, fold):
    """(text, value, offset of the last operator) of a chain x op x op ...
    with ``levels`` one-character operators."""
    for _ in range(levels):
        value = fold(value)
    return op.join("x" * (levels + 1)), value, 2 * levels - 1


# each deep shape at a level count, with x = 1.2
_DEEP = {
    "parentheses": lambda n: _nest(n, 1.2, "(", ")"),
    "calls": lambda n: _nest(n, 1.2, "sin(", ")", math.sin),
    "unary minus": lambda n: _nest(n, 1.2, "-", "", operator.neg),
    "power chain": lambda n: _chain(n, 1.2, "^", lambda v: 1.2 ** v),
    "sum chain": lambda n: _chain(n, 1.2, "+", lambda v: v + 1.2),
    "product chain": lambda n: _chain(n, 1.2, "*", lambda v: v * 1.2),
}


# the chains of '+ - * /' are parsed in a loop and add no level
_LOOPED = {"sum chain", "product chain"}


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_nesting_past_the_limit_is_refused_where_it_crosses(shape):
    # 197 parentheses or a 992-term sum once raised RecursionError; a
    # 1000-operator chain never crosses the limit, so it parses and runs
    levels = 1000 if shape in _LOOPED else _MAX_DEPTH
    text, value, _ = _DEEP[shape](levels)
    got = compile_fn(parse(text), ("x",))(np.array([1.2]))
    assert got == pytest.approx([value], rel=1e-12)  # numpy's sin and pow
    if shape in _LOOPED:
        return
    text, _, offset = _DEEP[shape](_MAX_DEPTH + 1)
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == (f"expression nested deeper than {_MAX_DEPTH} "
                              f"levels at offset {offset}")


@pytest.mark.parametrize("levels", [_MAX_DEPTH, _MAX_DEPTH + 1, 5000])
@pytest.mark.parametrize("node,fold", [
    (Neg, operator.neg),
    (lambda t: Call("sin", t), math.sin),
    (lambda t: BinOp("+", Num(1.0), t), lambda v: 1.0 + v),
    (lambda t: BinOp("*", t, Var("x")), lambda v: v * 0.5)],
    ids=["neg", "call", "right operand", "left operand"])
def test_a_hand_built_tree_past_the_limit_is_refused(node, fold, levels):
    # only the parser's nesting is limited: a hand-built tree of any height
    # compiles and runs (a 5000-deep chain of Neg once raised
    # RecursionError in compile_fn)
    tree, value = Var("x"), 0.5
    for _ in range(levels):
        tree, value = node(tree), fold(value)
    got = compile_fn(tree, ("x",))(np.array([0.5]))
    assert got == pytest.approx([value], rel=1e-12)


def test_nesting_counts_the_deepest_path():
    # operators add no level: 100 parentheses parse on either side of a
    # sum and around a 100-operator chain, and the 101st opener is
    # refused at its own offset wherever it stands
    deep = _DEEP["parentheses"](_MAX_DEPTH)[0]
    for text in (f"x + {deep}", f"{deep} + x",
                 "(" * _MAX_DEPTH + "x+" * _MAX_DEPTH + "x" + ")" * _MAX_DEPTH):
        parse(text)
    deeper = _DEEP["parentheses"](_MAX_DEPTH + 1)[0]
    for text, offset in ((f"x + {deeper}", 4 + _MAX_DEPTH),
                         (f"{deeper} * x", _MAX_DEPTH),
                         ("-(" * 50 + "(x)" + ")" * 50, _MAX_DEPTH)):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert exc.value.offset == offset


@pytest.mark.parametrize("text", [
    "log(0)", "log(-1)", "sqrt(-1)", "1/0", "0^-1", "(-2)^0.5",
])
def test_scalar_domain_errors(text):
    with pytest.raises(DomainError):
        _evaluate(parse(text))


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        _evaluate(parse("x + 1"))
    assert _evaluate(parse("x^2"), {"x": 3.0}) == 9.0


def test_compile_broadcasts():
    f = compile_fn(parse("x + z"), ("x", "z"))
    out = f(np.array([1.0, 2.0]), 3.0)
    assert np.array_equal(out, [4.0, 5.0])


def test_compile_rejects_missing_params():
    with pytest.raises(UnboundVariableError):
        compile_fn(parse("x + y"), ("x",))


def test_compile_domain_error_names_the_value():
    f = compile_fn(parse("log(x)"), ("x",))
    with pytest.raises(DomainError) as exc:
        f(np.array([[1.0, -1.0], [2.0, -3.0]]))
    assert str(exc.value) == "log of non-positive value -1.0"
    with pytest.raises(DomainError) as exc:
        compile_fn(parse("x^z"), ("x", "z"))(np.array([[1.0], [-2.0]]),
                                            np.array([2.0, 0.5]))
    assert str(exc.value) == ("negative base -2.0 raised to a non-integer "
                              "power 0.5")


@pytest.mark.parametrize("op", "+-*/^")
def test_binary_operators_evaluate_their_left_operand_first(op):
    # both operands are undefined at x = -1; the left one is named
    for left, right, message in (
            ("log(x)", "sqrt(x)", "log of non-positive value -1.0"),
            ("sqrt(x)", "log(x)", "sqrt of negative value -1.0")):
        f = compile_fn(parse(f"{left} {op} {right}"), ("x",))
        with pytest.raises(DomainError) as exc:
            f(np.array([2.0, -1.0]))
        assert str(exc.value) == message


# A scalar oracle on Python's math module, independent of compile_fn: its
# log, sqrt, pow and division raise ValueError or ZeroDivisionError where
# the expression language raises DomainError.
_MATH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv, "^": math.pow}
_MATH_FUNCS = {name: getattr(math, name) for name in FUNCTIONS
               if name != "abs"} | {"abs": abs}


def _math_eval(node, env, ops=_MATH_OPS, funcs=_MATH_FUNCS):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_math_eval(node.child, env, ops, funcs)
    if isinstance(node, BinOp):
        return ops[node.op](_math_eval(node.left, env, ops, funcs),
                            _math_eval(node.right, env, ops, funcs))
    return funcs[node.func](_math_eval(node.arg, env, ops, funcs))


@pytest.mark.parametrize("text", [
    "1/x", "sqrt(x)", "x^(-2)", "0^x",
])
def test_compile_domain_matches_scalar(text):
    f = compile_fn(parse(text), ("x",))
    tree = parse(text)
    for v in (-1.5, 0.0, 0.5, 2.0):
        try:
            expected = _math_eval(tree, {"x": v})
        except (ValueError, ZeroDivisionError):
            with pytest.raises(DomainError):
                f(np.array([v]))
        else:
            got = float(f(np.array([v]))[0])
            assert math.isclose(got, expected, rel_tol=1e-14, abs_tol=1e-300)


def test_compile_agrees_with_evaluate_on_lattice():
    text = "sin(x)*cos(z) + x^2/(1+z^2)"
    tree = parse(text)
    f = compile_fn(tree, ("x", "z"))
    xs = np.linspace(0.0, 2.0, 7)
    zs = np.linspace(-1.0, 1.0, 5)
    got = f(xs[:, None], zs[None, :])
    for i, x in enumerate(xs):
        for j, z in enumerate(zs):
            want = _math_eval(tree, {"x": x, "z": z})
            assert math.isclose(got[i, j], want, rel_tol=1e-14)


def render(expr):
    """Render an AST back to text with full parentheses.  The output
    reparses to a structurally identical tree."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{render(expr.child)})"
    if isinstance(expr, BinOp):
        return f"({render(expr.left)} {expr.op} {render(expr.right)})"
    return f"{expr.func}({render(expr.arg)})"


def test_render_fixed_forms():
    assert render(parse("1+2*3")) == "(1.0 + (2.0 * 3.0))"
    assert render(parse("-x^2")) == "(-(x ^ 2.0))"
    assert render(parse("sin(x)")) == "sin(x)"


_names = st.sampled_from(["x", "z", "u", "phi", "alpha_1"])
_nums = st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False).map(
                      lambda v: Num(abs(v)))


def _trees():
    return st.recursive(
        st.one_of(_nums, _names.map(Var)),
        lambda kids: st.one_of(
            kids.map(Neg),
            st.tuples(st.sampled_from("+-*/^"), kids, kids).map(
                lambda t: BinOp(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(FUNCTIONS), kids).map(
                lambda t: Call(t[0], t[1])),
        ),
        max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_trees())
def test_render_parse_round_trip(tree):
    assert parse(render(tree)) == tree


def _var_names(node):
    if isinstance(node, Num):
        return set()
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return _var_names(node.child)
    if isinstance(node, BinOp):
        return _var_names(node.left) | _var_names(node.right)
    return _var_names(node.arg)


@settings(max_examples=100, deadline=None)
@given(_trees())
def test_compile_refuses_exactly_the_unbound_names(tree):
    # each name alone, then all of them: the refusal lists every missing
    # name once, sorted, however often the tree uses it
    names = sorted(_var_names(tree))
    compile_fn(tree, names)
    for missing in [[name] for name in names] + ([names] if names else []):
        params = [n for n in names if n not in missing]
        with pytest.raises(UnboundVariableError) as exc:
            compile_fn(tree, params)
        assert str(exc.value) == (f"unexpected variable(s) {missing}; "
                                  f"allowed: {params}")


def _defined(tree, env):
    """Whether every node of ``tree`` is defined and finite under the
    scalar oracle at ``env``."""
    pending = [tree]
    while pending:
        node = pending.pop()
        try:
            if not math.isfinite(_math_eval(node, env)):
                return False
        except (ValueError, ZeroDivisionError, OverflowError):
            return False
        pending.extend(kid for kid in node if isinstance(kid, tuple))
    return True


# numpy's exp, log, tan and pow differ from the math module's in the last
# ulp at some points, and a node such as sin(332909.341796875^x) at
# x = 0.99999 carries that past any relative tolerance, so the values are
# compared on the same walk over numpy's scalar functions
_NUMPY_OPS = _MATH_OPS | {"^": np.power}
_NUMPY_FUNCS = {name: getattr(np, name) for name in FUNCTIONS}


@settings(max_examples=200, deadline=None)
@given(_trees(), st.floats(min_value=-4.0, max_value=4.0))
def test_compile_runs_any_tree_as_the_scalar_oracle(tree, value):
    # the postfix program against the tree walk: both refuse the point (an
    # undefined or overflowing node; numpy raises on the overflow the
    # oracle would carry as inf), or both give the same value, bit for bit
    names = sorted(_var_names(tree))
    env = dict.fromkeys(names, np.float64(value))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = compile_fn(tree, names)(*env.values())
            want = _math_eval(tree, env, _NUMPY_OPS, _NUMPY_FUNCS)
    except (DomainError, FloatingPointError):
        got = None
    if _defined(tree, dict.fromkeys(names, value)):
        assert got is not None and float(got) == float(want)
    else:
        assert got is None or not np.isfinite(got)
