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
interpreter of the tree: it flattens the tree into a postfix program run
on a value stack, so a tree of any depth compiles and evaluates.  Only
the parser's own nesting is limited, to _MAX_DEPTH levels of groups,
calls, unary minus and exponents.
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

# The deepest the parser nests: each '(' group, function call, unary minus
# and '^' exponent is one level below the construct that opens it, while a
# '+ - * /' chain is parsed in a loop and adds none.  The parser recurses
# about 6 frames a level, so this depth stays far below the interpreter's
# recursion limit of 1000; ``compile_fn`` and its callable do not recurse.
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

    def below(self, tok, parse):
        """``parse()`` as the operand one level below the construct at
        ``tok``.  A construct that would nest past _MAX_DEPTH is refused at
        ``tok`` before its operand is read."""
        if self.depth >= _MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels",
                tok.offset)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def expr(self):
        node = self.term()
        while tok := self.accept("+-"):
            node = BinOp(tok.text, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while tok := self.accept("*/"):
            node = BinOp(tok.text, node, self.factor())
        return node

    def factor(self):
        if tok := self.accept("-"):
            return Neg(self.below(tok, self.factor))
        return self.power()

    def power(self):
        base = self.atom()
        if tok := self.accept("^"):
            # recurse through factor so the exponent may be negative and
            # chained powers associate to the right
            return BinOp("^", base, self.below(tok, self.factor))
        return base

    def atom(self):
        tok = self.tokens[self.pos]
        if self.accept("("):
            group = self.below(tok, self.expr)
            self.expect_op(")")
            return group
        if tok.kind == "num":
            self.pos += 1
            return Num(float(tok.text))
        if tok.kind == "name":
            self.pos += 1
            if self.accept("("):
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function {tok.text!r}", tok.offset)
                arg = self.below(tok, self.expr)
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
    byte offset of the first problem, one being a '(' group, function
    call, unary minus or '^' exponent nested past _MAX_DEPTH levels."""
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
FUNCTIONS = tuple(_VEC_FUNCS)  # the names the parser takes as calls
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": _vec_div, "^": _vec_pow}


def compile_fn(expr, params):
    """Compile an AST into a numpy-broadcasting callable f(*arrays).

    ``params`` fixes the positional argument order.  Free variables must be
    a subset of params.  The tree is flattened into a postfix program, each
    node after its operands and a left operand before its right one, and
    the callable runs that program on a value stack, so neither compiling
    nor calling recurses, however tall the tree.  Domain violations raise
    DomainError naming the first offending value, never a silent NaN or
    inf; an overflow (exp of a large value) still gives inf.
    """
    params = tuple(params)
    extra = set()
    # (arity, f) steps: f(args) pushes a leaf, f(*operands) a node's value.
    # They are listed in a preorder that visits right operands first, the
    # postfix order reversed; a node's operands are its fields that are
    # nodes (tuples).
    program, pending = [], [expr]
    while pending:
        node = pending.pop()
        pending.extend(kid for kid in node if isinstance(kid, tuple))
        if isinstance(node, Num):
            program.append((0, lambda args, v=node.value: v))
        elif isinstance(node, Var):
            if node.name not in params:
                extra.add(node.name)
                continue
            program.append((0, operator.itemgetter(params.index(node.name))))
        elif isinstance(node, Neg):
            program.append((1, operator.neg))
        elif isinstance(node, BinOp):
            program.append((2, _BINARY[node.op]))
        else:
            program.append((1, _VEC_FUNCS[node.func]))
    program.reverse()
    if extra:
        raise UnboundVariableError(f"unexpected variable(s) {sorted(extra)}; "
                                   f"allowed: {list(params)}")

    def call(*args):
        stack = []
        for arity, f in program:
            if arity == 0:
                stack.append(f(args))
            elif arity == 1:
                stack[-1] = f(stack[-1])
            else:
                right = stack.pop()
                stack[-1] = f(stack[-1], right)
        return stack[0]

    return call
