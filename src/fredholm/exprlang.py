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
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")

_NUMBER = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


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

    def accept(self, ops):
        """The next token's text, consumed, if it is an operator in ops."""
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.text in ops:
            self.pos += 1
            return tok.text
        return None

    def expect_op(self, text):
        if self.accept(text) is None:
            raise ExprSyntaxError(f"expected {text!r}",
                                  self.tokens[self.pos].offset)

    def expr(self):
        node = self.term()
        while op := self.accept("+-"):
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while op := self.accept("*/"):
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.accept("-"):
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.accept("^"):
            # recurse through factor so the exponent may be negative and
            # chained powers associate to the right
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        if self.accept("("):
            node = self.expr()
            self.expect_op(")")
            return node
        tok = self.tokens[self.pos]
        if tok.kind == "num":
            self.pos += 1
            return Num(float(tok.text))
        if tok.kind == "name":
            self.pos += 1
            if self.accept("("):
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function {tok.text!r}", tok.offset)
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text in CONSTANTS:
                return Num(CONSTANTS[tok.text])
            if tok.text in FUNCTIONS:
                raise ExprSyntaxError(
                    f"function {tok.text!r} used without arguments", tok.offset)
            return Var(tok.text)
        raise ExprSyntaxError(
            "expected a number, name, '(' or unary '-'", tok.offset)


def parse(text):
    """Parse expression text into an AST.  Raises ExprSyntaxError with the
    byte offset of the first problem."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
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


def compile_fn(expr, params):
    """Compile an AST into a numpy-broadcasting callable f(*arrays).

    ``params`` fixes the positional argument order.  Free variables must be
    a subset of params.  Domain violations raise DomainError naming the
    first offending value, never a silent NaN or inf; an overflow (exp of
    a large value) still gives inf.
    """
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
        if isinstance(node, BinOp):
            fl = build(node.left)
            fr = build(node.right)
            if node.op == "+":
                return lambda args: fl(args) + fr(args)
            if node.op == "-":
                return lambda args: fl(args) - fr(args)
            if node.op == "*":
                return lambda args: fl(args) * fr(args)
            if node.op == "/":
                return lambda args: _vec_div(fl(args), fr(args))
            return lambda args: _vec_pow(fl(args), fr(args))
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

