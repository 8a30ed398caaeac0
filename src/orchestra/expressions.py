"""A small infix expression language evaluated over a state.

Expressions arrive as plain strings inside behaviour documents.  The
grammar has one canonical precedence table, lowest first:

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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import DIVISION_BY_ZERO, TYPE_FAULT, UNDEFINED_VARIABLE, Fault, ParseError
from .state import INT64_MAX, INT64_MIN, State, UNDEFINED, Value, is_text, values_equal


@dataclass(frozen=True)
class Lit:
    value: Value


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of expression: {self.text!r}")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, got {tok[1]!r} in {self.text!r}")

    def at_op(self, *ops: str) -> str | None:
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] in ops:
            return tok[1]
        return None

    def at_keyword(self, word: str) -> bool:
        return self.peek() == ("name", word)

    def parse(self) -> Expr:
        node = self.or_expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()[1]!r} in {self.text!r}")
        return node

    def or_expr(self) -> Expr:
        node = self.and_expr()
        while self.at_keyword("or"):
            self.take()
            node = Binary("or", node, self.and_expr())
        return node

    def and_expr(self) -> Expr:
        node = self.not_expr()
        while self.at_keyword("and"):
            self.take()
            node = Binary("and", node, self.not_expr())
        return node

    def not_expr(self) -> Expr:
        if self.at_keyword("not"):
            self.take()
            return Unary("not", self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        node = self.additive()
        op = self.at_op(*_COMPARISONS)
        if op is not None:
            self.take()
            node = Binary(op, node, self.additive())
        return node

    def additive(self) -> Expr:
        node = self.multiplicative()
        while True:
            op = self.at_op("+", "-")
            if op is None:
                return node
            self.take()
            node = Binary(op, node, self.multiplicative())

    def multiplicative(self) -> Expr:
        node = self.unary()
        while True:
            op = self.at_op("*", "/")
            if op is None:
                return node
            self.take()
            node = Binary(op, node, self.unary())

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.take()
            return Unary("-", self.unary())
        return self.primary()

    def primary(self) -> Expr:
        kind, text = self.take()
        if kind == "number":
            if "." in text or "e" in text or "E" in text:
                value = float(text)
                if not math.isfinite(value):
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
            node = self.or_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r} in {self.text!r}")


def parse(text: str) -> Expr:
    """Parse an expression string into its tree form."""
    if not isinstance(text, str):
        raise ParseError(f"expression must be a string, got {type(text).__name__}")
    return _Parser(text).parse()


def _check_int64(n: int) -> int:
    if not (INT64_MIN <= n <= INT64_MAX):
        raise Fault(TYPE_FAULT, "integer overflow past 64 bits")
    return n


def _check_double(x: float) -> float:
    if not math.isfinite(x):
        raise Fault(TYPE_FAULT, "double result is not finite")
    return x


def _trunc_div(a: int, b: int) -> int:
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _numeric_pair(op: str, a: Value, b: Value) -> str:
    ta, tb = type(a), type(b)
    if ta is int and tb is int:
        return "int"
    if ta is float and tb is float:
        return "double"
    raise Fault(TYPE_FAULT, f"{op} needs two ints or two doubles, got {a!r} and {b!r}")


def _eval_binary(op: str, a: Value, b: Value) -> Value:
    if op == "==":
        return values_equal(a, b)
    if op == "!=":
        return not values_equal(a, b)
    if op in ("and", "or"):
        if type(a) is not bool or type(b) is not bool:
            raise Fault(TYPE_FAULT, f"{op} needs two booleans, got {a!r} and {b!r}")
        return (a and b) if op == "and" else (a or b)
    if op == "+":
        if type(a) is str and type(b) is str:
            return a + b
        kind = _numeric_pair(op, a, b)
        return _check_int64(a + b) if kind == "int" else _check_double(a + b)
    if op in ("-", "*"):
        kind = _numeric_pair(op, a, b)
        r = a - b if op == "-" else a * b
        return _check_int64(r) if kind == "int" else _check_double(r)
    if op == "/":
        kind = _numeric_pair(op, a, b)
        if b == 0:
            raise Fault(DIVISION_BY_ZERO)
        if kind == "int":
            return _check_int64(_trunc_div(a, b))
        return _check_double(a / b)
    if op in _COMPARISONS:
        ta, tb = type(a), type(b)
        if ta is not tb or ta is bool:
            raise Fault(TYPE_FAULT, f"{op} needs two ints, doubles, or strings, got {a!r} and {b!r}")
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        return a >= b
    raise AssertionError(f"unknown operator {op}")


def evaluate(expr: Expr | str, s: State) -> Value:
    """Strictly evaluate an expression over a state."""
    if isinstance(expr, str):
        expr = parse(expr)
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        v = s.lookup(expr.name)
        if v is UNDEFINED:
            raise Fault(UNDEFINED_VARIABLE, expr.name)
        return v
    if isinstance(expr, Unary):
        v = evaluate(expr.operand, s)
        if expr.op == "not":
            if type(v) is not bool:
                raise Fault(TYPE_FAULT, f"not needs a boolean, got {v!r}")
            return not v
        if type(v) is int:
            return _check_int64(-v)
        if type(v) is float:
            return -v
        raise Fault(TYPE_FAULT, f"unary - needs a number, got {v!r}")
    if isinstance(expr, Binary):
        return _eval_binary(expr.op, evaluate(expr.left, s), evaluate(expr.right, s))
    raise AssertionError(f"not an expression node: {expr!r}")


def evaluate_bool(expr: Expr, s: State) -> bool:
    """Evaluate a condition; a non-boolean result is a TypeFault."""
    v = evaluate(expr, s)
    if type(v) is not bool:
        raise Fault(TYPE_FAULT, f"condition is not a boolean: {v!r}")
    return v
