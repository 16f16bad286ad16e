"""Expression language: precedence, folding, domains, compilation."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredholm.errors import DomainError, ExprSyntaxError, UnboundVariableError
from fredholm.exprlang import (FUNCTIONS, BinOp, Call, Neg, Num, Var,
                               compile_fn, parse)


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


# A scalar oracle on Python's math module, independent of compile_fn: its
# log, sqrt, pow and division raise ValueError or ZeroDivisionError where
# the expression language raises DomainError.
_MATH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv, "^": math.pow}
_MATH_FUNCS = {name: getattr(math, name) for name in FUNCTIONS
               if name != "abs"} | {"abs": abs}


def _math_eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_math_eval(node.child, env)
    if isinstance(node, BinOp):
        return _MATH_OPS[node.op](_math_eval(node.left, env),
                                  _math_eval(node.right, env))
    return _MATH_FUNCS[node.func](_math_eval(node.arg, env))


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
