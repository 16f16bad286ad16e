"""Small arithmetic expression language for kernels, sources and oracles.

Grammar (ASCII, no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ['^' factor]          # right-associative, so 2^3^2 = 512
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Unary minus binds looser than '^' (-2^2 == -4) and tighter than '*' and '/'.
NAME is an ASCII identifier; ``pi`` and ``e`` fold to constants at parse
time, and sin cos tan exp log sqrt abs are the callable functions (log is
the natural log).  Anything else is a free variable.

Evaluation is strict about domains: log of a non-positive value, sqrt of a
negative value, 0 raised to a negative power, a negative base raised to a
non-integer power, and division by zero all raise DomainError rather than
producing NaN or inf, with a message that names the offending value.
``compile_fn`` builds a numpy-vectorized callable and is the one
interpreter of the tree.
"""

import math
import operator
import re
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnboundVariableError

__all__ = [
    "Num", "Var", "Neg", "BinOp", "Call",
    "parse", "compile_fn",
    "FUNCTIONS", "CONSTANTS",
]

CONSTANTS = {"pi": math.pi, "e": math.e}

_NUMBER = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# The deepest an expression may nest.  Each '(' group, function call,
# unary minus and binary operator is one level above its operands; the
# parser returns each node with its height in levels.  It recurses about
# 6 frames a level, ``compile_fn`` and its callable one, so this depth
# stays far below the interpreter's recursion limit of 1000.  A tree built
# by code is measured by ``compile_fn`` without recursion and refused
# past the same depth.
_MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# AST nodes: immutable tuples.  Each type's fields hold a different kind of
# value (float, str, node), so nodes of two types never compare equal.

class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    child: object


class BinOp(NamedTuple):
    op: str
    left: object
    right: object


class Call(NamedTuple):
    func: str
    arg: object


# ---------------------------------------------------------------------------
# Tokenizer.

class _Token(NamedTuple):
    kind: str      # 'num' | 'name' | 'op' | 'end'
    text: str
    offset: int


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif m := _NUMBER.match(text, i):
            tokens.append(_Token("num", m.group(0), i))
            i = m.end()
        elif m := _NAME.match(text, i):
            tokens.append(_Token("name", m.group(0), i))
            i = m.end()
        elif c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser.

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # levels open above the operand being parsed

    def accept(self, ops):
        """The next token, consumed, if it is an operator in ops."""
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def expect_op(self, text):
        if self.accept(text) is None:
            raise ExprSyntaxError(f"expected {text!r}",
                                  self.tokens[self.pos].offset)

    def below(self, tok, parse, left=0):
        """``parse()`` as the operand one level below the construct at
        ``tok``, whose left operand, if any, is ``left`` levels high: the
        operand and the construct's height.  A construct that would nest
        past _MAX_DEPTH is refused at ``tok`` before its operand is read."""
        if self.depth + left >= _MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels",
                tok.offset)
        self.depth += 1
        node, height = parse()
        self.depth -= 1
        return node, 1 + max(left, height)

    def expr(self):
        node, height = self.term()
        while tok := self.accept("+-"):
            right, height = self.below(tok, self.term, height)
            node = BinOp(tok.text, node, right)
        return node, height

    def term(self):
        node, height = self.factor()
        while tok := self.accept("*/"):
            right, height = self.below(tok, self.factor, height)
            node = BinOp(tok.text, node, right)
        return node, height

    def factor(self):
        if tok := self.accept("-"):
            child, height = self.below(tok, self.factor)
            return Neg(child), height
        return self.power()

    def power(self):
        base, height = self.atom()
        if tok := self.accept("^"):
            # recurse through factor so the exponent may be negative and
            # chained powers associate to the right
            exponent, height = self.below(tok, self.factor, height)
            return BinOp("^", base, exponent), height
        return base, height

    def atom(self):
        tok = self.tokens[self.pos]
        if self.accept("("):
            group = self.below(tok, self.expr)
            self.expect_op(")")
            return group
        if tok.kind == "num":
            self.pos += 1
            return Num(float(tok.text)), 0
        if tok.kind == "name":
            self.pos += 1
            if self.accept("("):
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function {tok.text!r}", tok.offset)
                arg, height = self.below(tok, self.expr)
                self.expect_op(")")
                return Call(tok.text, arg), height
            if tok.text in CONSTANTS:
                return Num(CONSTANTS[tok.text]), 0
            if tok.text in FUNCTIONS:
                raise ExprSyntaxError(
                    f"function {tok.text!r} used without arguments", tok.offset)
            return Var(tok.text), 0
        raise ExprSyntaxError(
            "expected a number, name, '(' or unary '-'", tok.offset)


def parse(text):
    """Parse expression text into an AST.  Raises ExprSyntaxError with the
    byte offset of the first problem, one being a construct nested past
    _MAX_DEPTH levels."""
    parser = _Parser(_tokenize(text))
    node, _ = parser.expr()
    tail = parser.tokens[parser.pos]
    if tail.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tail.text!r}",
                              tail.offset)
    return node


# ---------------------------------------------------------------------------
# Evaluation.

def _first(a, bad):
    """The value of ``a``, broadcast to ``bad``, at the first true entry of
    ``bad``: the operand a DomainError names."""
    return float(np.broadcast_to(a, bad.shape).flat[np.argmax(bad)])


def _vec_log(a):
    a = np.asarray(a)
    bad = a <= 0.0
    if np.any(bad):
        raise DomainError(f"log of non-positive value {_first(a, bad)!r}")
    return np.log(a)


def _vec_sqrt(a):
    a = np.asarray(a)
    bad = a < 0.0
    if np.any(bad):
        raise DomainError(f"sqrt of negative value {_first(a, bad)!r}")
    return np.sqrt(a)


def _vec_div(a, b):
    b = np.asarray(b)
    if np.any(b == 0.0):
        raise DomainError("division by zero")
    return a / b


def _vec_pow(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    bad = (a == 0.0) & (b < 0.0)
    if np.any(bad):
        raise DomainError(
            f"zero raised to a negative power {_first(b, bad)!r}")
    bad = (a < 0.0) & (b != np.floor(b))
    if np.any(bad):
        raise DomainError(f"negative base {_first(a, bad)!r} raised to a "
                          f"non-integer power {_first(b, bad)!r}")
    return np.power(a, b)


_VEC_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": _vec_log, "sqrt": _vec_sqrt, "abs": np.abs,
}
FUNCTIONS = tuple(_VEC_FUNCS)  # the names the parser takes as calls
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": _vec_div, "^": _vec_pow}


def _check_height(expr):
    """Refuse a tree more than _MAX_DEPTH levels high, as ``parse``
    refuses its text, walking it with a stack instead of recursion.  A
    node's children are its fields that are nodes (tuples)."""
    stack = [(expr, 0)]
    while stack:
        node, level = stack.pop()
        kids = [kid for kid in node if isinstance(kid, tuple)]
        if kids and level >= _MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels")
        stack.extend((kid, level + 1) for kid in kids)


def compile_fn(expr, params):
    """Compile an AST into a numpy-broadcasting callable f(*arrays).

    ``params`` fixes the positional argument order.  Free variables must be
    a subset of params.  A tree more than _MAX_DEPTH levels high is
    refused with ExprSyntaxError, as ``parse`` refuses its text.  Domain
    violations raise DomainError naming the first offending value, never
    a silent NaN or inf; an overflow (exp of a large value) still gives
    inf.
    """
    _check_height(expr)
    params = tuple(params)
    extra = set()

    def build(node):
        if isinstance(node, Num):
            v = node.value
            return lambda args: v
        if isinstance(node, Var):
            if node.name not in params:
                extra.add(node.name)
                return None
            i = params.index(node.name)
            return lambda args: args[i]
        if isinstance(node, Neg):
            f = build(node.child)
            return lambda args: -f(args)
        if isinstance(node, BinOp):  # the left operand is evaluated first
            fl, fr, op = build(node.left), build(node.right), _BINARY[node.op]
            return lambda args: op(fl(args), fr(args))
        fa = build(node.arg)
        fn = _VEC_FUNCS[node.func]
        return lambda args: fn(fa(args))

    body = build(expr)
    if extra:
        raise UnboundVariableError(f"unexpected variable(s) {sorted(extra)}; "
                                   f"allowed: {list(params)}")

    def call(*args):
        return body(args)

    return call

