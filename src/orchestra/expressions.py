"""A small infix expression language evaluated over a state.

Expressions arrive as plain strings inside behaviour documents.  The
grammar has one canonical precedence table, lowest first (the parser
reads it from ``_LEVELS``):

    or
    and
    not
    == != < <= > >=        (non-associative, a single comparison)
    + -
    * /
    unary -
    literals, variables, ( )

Literals: integers (``42``), doubles (``4.2``, ``1e3``), strings in single
or double quotes, ``true``/``false``.  A literal must be a value: an
integer past 64 bits, a double that overflows (``1e400``) or a string
holding a lone surrogate does not parse.  Evaluation is strict and total over
the four value variants; errors surface as named faults:

* ``UndefinedVariable``  reading an unbound variable
* ``DivisionByZero``     dividing by integer 0 or double 0.0
* ``TypeFault``          operand variant mismatch, 64-bit overflow, or a
                         double result that is not finite

Integer division truncates toward zero.  ``+`` concatenates two strings.
``==``/``!=`` never fault: values of different variants are simply unequal.

Every tree node compiles itself once, when it is built (that is, when the
behaviour is parsed), into nested closures; ``evaluate`` runs them and
walks no tree.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from math import isfinite
from typing import Callable

from .errors import DIVISION_BY_ZERO, TYPE_FAULT, UNDEFINED_VARIABLE, Fault, ParseError
from .state import INT64_MAX, INT64_MIN, State, Value, is_text


# A compiled expression: a function of a state's bindings.
Compiled = Callable[[dict], Value]


@dataclass(frozen=True)
class Lit:
    value: Value
    run: Compiled = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        value = self.value
        object.__setattr__(self, "run", lambda b: value)


@dataclass(frozen=True)
class Var:
    name: str
    run: Compiled = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        name = self.name

        def run(b):
            try:
                return b[name]
            except KeyError:
                raise Fault(UNDEFINED_VARIABLE, name) from None

        object.__setattr__(self, "run", run)


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"
    run: Compiled = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "run", _UNARY[self.op](self.operand.run))


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    run: Compiled = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "run", _BINARY[self.op](self.left.run, self.right.run))


Expr = Lit | Var | Unary | Binary

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*")
  | (?P<op>==|!=|<=|>=|[<>+\-*/()])
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"'}

_KEYWORDS = {"true", "false", "and", "or", "not"}
_COMPARISONS = ("==", "!=", "<=", ">=", "<", ">")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"bad character {text[pos]!r} at offset {pos} in {text!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group()))
    return tokens


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body):
                raise ParseError(f"dangling escape in string literal {raw!r}")
            out.append(_ESCAPES.get(body[i], body[i]))
        else:
            out.append(ch)
        i += 1
    return "".join(out)


# The precedence table of docs/expressions.md, loosest binding first: the
# operators of each level and how they combine.  ``left`` chains
# left-associatively, ``single`` takes at most one operator, ``prefix``
# applies to an operand of its own level.  Past the last level come the
# literals, variables and parentheses of ``primary``.
_LEVELS = (
    ({"or"}, "left"),
    ({"and"}, "left"),
    ({"not"}, "prefix"),
    (set(_COMPARISONS), "single"),
    ({"+", "-"}, "left"),
    ({"*", "/"}, "left"),
    ({"-"}, "prefix"),
)

# Closes every token list, so the parser never reads past the end.
_END = ("end", "")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text) + [_END]
        self.pos = 0

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        if tok is _END:
            raise ParseError(f"unexpected end of expression: {self.text!r}")
        self.pos += 1
        return tok

    def take_op(self, ops: set[str]) -> str | None:
        """The next token's text, taken, when it is one of ``ops``.  Operators
        and keywords are the only tokens whose text can be in ``ops``."""
        text = self.tokens[self.pos][1]
        if text in ops:
            self.pos += 1
            return text
        return None

    def parse(self) -> Expr:
        node = self.level(0)
        if self.tokens[self.pos] is not _END:
            raise ParseError(f"trailing input {self.tokens[self.pos][1]!r} in {self.text!r}")
        return node

    def level(self, i: int) -> Expr:
        if i == len(_LEVELS):
            return self.primary()
        ops, how = _LEVELS[i]
        if how == "prefix":
            op = self.take_op(ops)
            return Unary(op, self.level(i)) if op else self.level(i + 1)
        node = self.level(i + 1)
        while op := self.take_op(ops):
            node = Binary(op, node, self.level(i + 1))
            if how == "single":
                break
        return node

    def primary(self) -> Expr:
        kind, text = self.take()
        if kind == "number":
            if "." in text or "e" in text or "E" in text:
                value = float(text)
                if not isfinite(value):
                    raise ParseError(f"double literal out of range: {text}")
                return Lit(value)
            n = int(text)
            if n > INT64_MAX:
                raise ParseError(f"integer literal out of range: {text}")
            return Lit(n)
        if kind == "string":
            value = _unquote(text)
            if not is_text(value):
                raise ParseError(f"string literal does not encode as UTF-8: {text!r}")
            return Lit(value)
        if kind == "name":
            if text == "true":
                return Lit(True)
            if text == "false":
                return Lit(False)
            if text in _KEYWORDS:
                raise ParseError(f"keyword {text!r} used as a value in {self.text!r}")
            return Var(text)
        if (kind, text) == ("op", "("):
            node = self.level(0)
            if self.take() != ("op", ")"):
                raise ParseError(f"expected ')' in {self.text!r}")
            return node
        raise ParseError(f"unexpected token {text!r} in {self.text!r}")


def parse(text: str) -> Expr:
    """Parse an expression string into its tree form."""
    if not isinstance(text, str):
        raise ParseError(f"expression must be a string, got {type(text).__name__}")
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ParseError(f"expression nested too deeply: {text[:40]!r}...") from None


# The closures each operator node compiles to, from its operands' closures.
# Every one runs its left operand, then its right, then applies the rules
# of the module docstring.


def _int64(r: int) -> int:
    if INT64_MIN <= r <= INT64_MAX:
        return r
    raise Fault(TYPE_FAULT, "integer overflow past 64 bits")


def _finite(r: float) -> float:
    if isfinite(r):
        return r
    raise Fault(TYPE_FAULT, "double result is not finite")


def _arith(op: str, apply, strings: bool = False):
    """``+``, ``-``, ``*``: two ints or two doubles, or two strings when
    ``strings`` (``+`` concatenates)."""
    def make(left: Compiled, right: Compiled) -> Compiled:
        def run(b):
            x = left(b)
            y = right(b)
            t = type(x)
            if t is type(y):
                if t is int:
                    return _int64(apply(x, y))
                if t is float:
                    return _finite(apply(x, y))
                if strings and t is str:
                    return x + y
            raise Fault(TYPE_FAULT, f"{op} needs two ints or two doubles, got {x!r} and {y!r}")
        return run
    return make


def _divide(left: Compiled, right: Compiled) -> Compiled:
    def run(b):
        x = left(b)
        y = right(b)
        t = type(x)
        if t is not type(y) or (t is not int and t is not float):
            raise Fault(TYPE_FAULT, f"/ needs two ints or two doubles, got {x!r} and {y!r}")
        if y == 0:
            raise Fault(DIVISION_BY_ZERO)
        if t is float:
            return _finite(x / y)
        q = x // y
        if q < 0 and q * y != x:  # truncate toward zero
            q += 1
        return _int64(q)
    return run


def _order(op: str, apply):
    def make(left: Compiled, right: Compiled) -> Compiled:
        def run(b):
            x = left(b)
            y = right(b)
            t = type(x)
            if t is type(y) and t is not bool:
                return apply(x, y)
            raise Fault(TYPE_FAULT,
                        f"{op} needs two ints, doubles, or strings, got {x!r} and {y!r}")
        return run
    return make


def _logic(op: str, apply):
    def make(left: Compiled, right: Compiled) -> Compiled:
        def run(b):
            x = left(b)
            y = right(b)
            if type(x) is bool and type(y) is bool:
                return apply(x, y)
            raise Fault(TYPE_FAULT, f"{op} needs two booleans, got {x!r} and {y!r}")
        return run
    return make


def _equal(left: Compiled, right: Compiled) -> Compiled:
    def run(b):
        x = left(b)
        y = right(b)
        return type(x) is type(y) and x == y
    return run


def _unequal(left: Compiled, right: Compiled) -> Compiled:
    def run(b):
        x = left(b)
        y = right(b)
        return type(x) is not type(y) or x != y
    return run


def _not(operand: Compiled) -> Compiled:
    def run(b):
        v = operand(b)
        if type(v) is bool:
            return not v
        raise Fault(TYPE_FAULT, f"not needs a boolean, got {v!r}")
    return run


def _negate(operand: Compiled) -> Compiled:
    def run(b):
        v = operand(b)
        t = type(v)
        if t is int:
            return _int64(-v)
        if t is float:
            return -v
        raise Fault(TYPE_FAULT, f"unary - needs a number, got {v!r}")
    return run


_UNARY = {"not": _not, "-": _negate}

_BINARY = {
    "or": _logic("or", operator.or_),
    "and": _logic("and", operator.and_),
    "==": _equal,
    "!=": _unequal,
    "<": _order("<", operator.lt),
    "<=": _order("<=", operator.le),
    ">": _order(">", operator.gt),
    ">=": _order(">=", operator.ge),
    "+": _arith("+", operator.add, strings=True),
    "-": _arith("-", operator.sub),
    "*": _arith("*", operator.mul),
    "/": _divide,
}


def evaluate(expr: Expr | str, s: State) -> Value:
    """Strictly evaluate an expression over a state.  The result is always a
    value: ints stay in 64 bits, doubles stay finite, and a string is built
    only from strings that encode as UTF-8."""
    if type(expr) is str:
        expr = parse(expr)
    return expr.run(s._bindings)


def evaluate_bool(expr: Expr, s: State) -> bool:
    """Evaluate a condition; a non-boolean result is a TypeFault."""
    v = evaluate(expr, s)
    if type(v) is not bool:
        raise Fault(TYPE_FAULT, f"condition is not a boolean: {v!r}")
    return v
