"""A small total expression language for scalar functions of the state.

Coefficient functions such as jump intensities and order functions are
written as infix expressions over the state vector, e.g.::

    1 + 0.5/(1 + |x|^2)
    clamp(exp(-|x|), 0.1, 1.0)

The builtin set is fixed: constants, coordinate access ``x[i]``, the
norm ``|x|``, the variable ``r`` (alias for ``|x|``, convenient for
radial coefficients), arithmetic ``+ - * / ^``, and the functions
``exp log sin cos sqrt abs min max clamp``.  There are no user-defined
functions and no recursion, so evaluation always terminates.

Parsing compiles each expression once, into nested closures that
perform the float operations a walk of the tree would, in the same
order.
Parsed expressions are immutable and safe to share across workers: an
:class:`Expr` pickles as its tree and source and is compiled again where
it is loaded.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

__all__ = ["Expr", "parse", "evaluate", "pretty"]

_FUNCTIONS = {
    "exp": 1,
    "log": 1,
    "sin": 1,
    "cos": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
    "clamp": 3,
}


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Const(Node):
    value: float


@dataclass(frozen=True)
class Coord(Node):
    index: int


@dataclass(frozen=True)
class Norm(Node):
    pass


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


@dataclass(frozen=True)
class Call(Node):
    name: str
    args: tuple


@dataclass(frozen=True)
class Expr:
    """A parsed expression; evaluate with :func:`evaluate`."""

    root: Node
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_fn", _compile(self.root))

    def __reduce__(self):
        # closures do not pickle: a copy is rebuilt from the tree
        return (Expr, (self.root, self.source))

    def __call__(self, x):
        return evaluate(self, x)

    def max_coord(self):
        """Largest zero-based coordinate index referenced, or -1 if none."""
        return max(_reads(self.root), default=-1)

    def is_constant(self):
        return not _reads(self.root)


def _reads(node):
    """The coordinates ``node`` reads: an index, or -1 for ``|x|``."""
    if isinstance(node, Coord):
        return {node.index}
    if isinstance(node, Norm):
        return {-1}
    if isinstance(node, BinOp):
        return _reads(node.left) | _reads(node.right)
    if isinstance(node, Neg):
        return _reads(node.operand)
    if isinstance(node, Call):
        return set().union(*map(_reads, node.args))
    return set()


# --- tokenizer ---------------------------------------------------------------

_PUNCT = {"+", "-", "*", "/", "^", "(", ")", ",", "[", "]", "|"}


def _tokenize(source):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number {text!r}", i, {"number"})
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        if c in _PUNCT:
            tokens.append((c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i, {"token"})
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}", tok[2], {kind}
            )
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(
                f"unexpected trailing {tok[1]!r}", tok[2], {"end"}
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return Neg(self.unary())
        if tok[0] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            # right-associative; exponent may carry its own unary minus
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        tok = self.peek()
        kind, value, offset = tok
        if kind == "num":
            self.advance()
            return Const(value)
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if kind == "|":
            self.advance()
            name = self.expect("name")
            if name[1] != "x":
                raise UnknownIdentifier(name[1], name[2])
            self.expect("|")
            return Norm()
        if kind == "name":
            self.advance()
            if value == "x":
                self.expect("[")
                idx = self.expect("num")
                if idx[1] != int(idx[1]) or idx[1] < 1:
                    raise ExprSyntaxError(
                        "coordinate index must be a positive integer",
                        idx[2],
                        {"integer"},
                    )
                self.expect("]")
                # surface syntax is 1-based (x[1] is the first coordinate)
                return Coord(int(idx[1]) - 1)
            if value == "r":
                return Norm()
            if value == "pi":
                return Const(math.pi)
            if value == "e":
                return Const(math.e)
            if value in _FUNCTIONS:
                self.expect("(")
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                arity = _FUNCTIONS[value]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{value} takes {arity} argument(s), got {len(args)}",
                        offset,
                        {"arguments"},
                    )
                return Call(value, tuple(args))
            raise UnknownIdentifier(value, offset)
        raise ExprSyntaxError(
            f"unexpected {value!r}", offset, {"number", "name", "("}
        )


def parse(source):
    """Parse an expression string into an immutable :class:`Expr`.

    Raises :class:`ExprSyntaxError` (with byte offset and expected-token
    set) on malformed input, :class:`UnknownIdentifier` for names outside
    the builtin set.
    """
    return Expr(_Parser(source).parse(), source)


# --- compilation -------------------------------------------------------------


def _compile(node):
    if isinstance(node, Const):
        value = node.value
        return lambda x: value
    if isinstance(node, Coord):
        i = node.index

        def coord(x):
            if i >= len(x):
                raise IndexError(
                    f"coordinate x[{i + 1}] out of range for d={len(x)}"
                )
            return float(x[i])

        return coord
    if isinstance(node, Norm):
        return lambda x: math.sqrt(sum([c * c for c in map(float, x)]))
    if isinstance(node, Neg):
        f = _compile(node.operand)
        return lambda x: -f(x)
    if isinstance(node, BinOp) and node.op == "/":
        f, g = _compile(node.left), _compile(node.right)

        def divide(x):
            a = f(x)
            b = g(x)
            if b == 0.0:
                raise DomainError(f"division by zero in {pretty_node(node)}")
            return a / b

        return divide
    if isinstance(node, BinOp) and node.op == "^":
        f, g = _compile(node.left), _compile(node.right)

        def power(x):
            a = f(x)
            b = g(x)
            try:
                v = a**b
            except (OverflowError, ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"invalid power {a}^{b}") from exc
            if isinstance(v, complex):
                raise DomainError(f"non-real power {a}^{b}")
            return v

        return power
    if isinstance(node, BinOp):
        op, args = _OPERATIONS[node.op], (node.left, node.right)
    else:
        op, args = _OPERATIONS[node.name], node.args
    # the arguments are evaluated left to right, then the operation
    fs = [_compile(a) for a in args]
    if len(fs) == 1:
        (f,) = fs
        return lambda x: op(f(x))
    if len(fs) == 2:
        f, g = fs
        return lambda x: op(f(x), g(x))
    f, g, h = fs
    return lambda x: op(f(x), g(x), h(x))


def _exp(v):
    try:
        return math.exp(v)
    except OverflowError as exc:
        raise DomainError(f"exp of {v} overflows") from exc


def _trig(fn):
    def guarded(v):
        try:
            return fn(v)
        except ValueError as exc:  # an infinite argument
            raise DomainError(f"{fn.__name__} of {v} is undefined") from exc
    return guarded


def _log(v):
    if v <= 0.0:
        raise DomainError(f"log of non-positive value {v}")
    return math.log(v)


def _sqrt(v):
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v}")
    return math.sqrt(v)


def _clamp(v, lo, hi):
    return min(max(v, lo), hi)


_OPERATIONS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "exp": _exp, "log": _log, "sqrt": _sqrt,
    "sin": _trig(math.sin), "cos": _trig(math.cos),
    "abs": abs, "min": min, "max": max, "clamp": _clamp,
}


def evaluate(expr, x):
    """Evaluate ``expr`` at state point ``x`` (a sequence of floats)."""
    if not hasattr(x, "__len__"):
        x = (x,)
    return expr._fn(x)


# --- pretty printing ---------------------------------------------------------


def pretty_node(node):
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Coord):
        return f"x[{node.index + 1}]"
    if isinstance(node, Norm):
        return "|x|"
    if isinstance(node, Neg):
        return f"(-{pretty_node(node.operand)})"
    if isinstance(node, BinOp):
        return f"({pretty_node(node.left)} {node.op} {pretty_node(node.right)})"
    if isinstance(node, Call):
        args = ", ".join(pretty_node(a) for a in node.args)
        return f"{node.name}({args})"
    raise AssertionError(type(node))


def pretty(expr):
    """Fully parenthesized rendering; reparses to an equal AST."""
    return pretty_node(expr.root)
