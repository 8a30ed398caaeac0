"""The state algebra: flat, immutable variable-to-value mappings.

A state maps variable names to scalar values.  Four value variants exist:
strings that encode as UTF-8 (so no lone surrogates), signed 64-bit
integers, finite IEEE-754 doubles, and booleans: exactly what a frame can
carry.
Equality is exact per variant: the integer ``1`` and the double ``1.0``
never compare equal, and neither compares equal to ``True``.

Looking up an unbound variable yields the distinguished result
:data:`UNDEFINED`, which is not itself a value and can never be stored.

States are immutable; every operation returns a fresh state, so they are
safe to share between threads and to embed in messages.

A state's bindings are valid by construction.  ``State(...)`` and
``update`` check what a caller hands them; ``bind`` checks nothing, for
names and values that were checked where they entered (see "Where values
are checked" in ``docs/formats.md``).
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Iterator

from .errors import EncodeError, ValidationError

Value = str | int | float | bool

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_name_match = _NAME_RE.fullmatch


class _Undefined:
    """Singleton lookup result for unbound variables."""

    _instance: "_Undefined | None" = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()


def is_valid_var_name(name: Any) -> bool:
    return isinstance(name, str) and _name_match(name) is not None


def check_var_name(name: Any) -> str:
    if not (isinstance(name, str) and _name_match(name)):
        raise ValidationError(f"invalid variable name: {name!r}")
    return name


def value_kind(v: Value) -> str:
    """Variant tag of a value. Checks bool before int: bool is not int here."""
    t = type(v)
    if t is bool:
        return "bool"
    if t is int:
        return "int"
    if t is float:
        return "double"
    if t is str:
        return "string"
    raise ValidationError(f"not a value: {v!r} ({t.__name__})")


def is_text(s: str) -> bool:
    """Whether ``s`` encodes as UTF-8: true unless it holds a lone surrogate."""
    if s.isascii():
        return True
    try:
        s.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def check_value(v: Any) -> Value:
    """Validate a raw Python object as a storable value."""
    t = type(v)
    if t is str:
        if not is_text(v):
            raise ValidationError(f"string does not encode as UTF-8: {v!r}")
    elif t is int:
        if not (INT64_MIN <= v <= INT64_MAX):
            raise ValidationError(f"integer out of 64-bit range: {v}")
    elif t is float:
        if not math.isfinite(v):
            raise ValidationError(f"double is not finite: {v}")
    elif t is not bool:
        raise ValidationError(f"not a value: {v!r} ({t.__name__})")
    return v


def values_equal(a: Value, b: Value) -> bool:
    """Exact per-variant equality; cross-variant comparison is always false."""
    if type(a) is not type(b):
        return False
    return a == b


class State:
    """An immutable finite mapping from variable names to values."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: dict[str, Value] | None = None, *, _trusted: bool = False):
        if bindings is None:
            self._bindings: dict[str, Value] = {}
        elif _trusted:
            self._bindings = bindings
        else:
            checked = {}
            for name, value in bindings.items():
                checked[check_var_name(name)] = check_value(value)
            self._bindings = checked

    def lookup(self, name: str) -> Value | _Undefined:
        """The bound value, or UNDEFINED when the variable is not bound."""
        return self._bindings.get(name, UNDEFINED)

    def update(self, name: str, value: Value) -> "State":
        """A new state with ``name`` bound to ``value``; other bindings kept."""
        fresh = dict(self._bindings)
        fresh[check_var_name(name)] = check_value(value)
        return State(fresh, _trusted=True)

    def bind(self, bindings: dict[str, Value]) -> "State":
        """A new state with ``bindings`` added, replacing those of the same
        name.  Nothing is checked again: every caller binds names and values
        that were checked where they entered, in a decoded frame, a parsed
        behaviour or an evaluation."""
        fresh = dict(self._bindings)
        fresh.update(bindings)
        return State(fresh, _trusted=True)

    def compose(self, other: "State") -> "State":
        """Left-biased union: this state's bindings win on shared names."""
        if not other._bindings:
            return self
        fresh = dict(other._bindings)
        fresh.update(self._bindings)
        return State(fresh, _trusted=True)

    def names(self) -> frozenset[str]:
        return frozenset(self._bindings)

    def project(self, names) -> "State":
        """Restriction of this state to the given variable names."""
        keep = {n: v for n, v in self._bindings.items() if n in names}
        return State(keep, _trusted=True)

    def items(self):
        return self._bindings.items()

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __iter__(self) -> Iterator[str]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        if self._bindings.keys() != other._bindings.keys():
            return False
        return all(values_equal(v, other._bindings[n]) for n, v in self._bindings.items())

    def __hash__(self) -> int:
        return hash(frozenset((n, value_kind(v), v) for n, v in self._bindings.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in sorted(self._bindings.items()))
        return f"State({inner})"


EMPTY = State()


def compose(left: State, right: State) -> State:
    return left.compose(right)


def equals(left: State, right: State) -> bool:
    return left == right


def lookup(s: State, name: str) -> Value | _Undefined:
    return s.lookup(name)


def update(s: State, name: str, value: Value) -> State:
    return s.update(name, value)


def to_json_obj(s: State) -> dict[str, Value]:
    """Plain JSON object form, keys sorted for a canonical encoding."""
    return dict(sorted(s._bindings.items()))


def from_json_obj(obj: Any) -> State:
    """Parse the JSON object form. Integers and doubles stay distinct."""
    if not isinstance(obj, dict):
        raise ValidationError(f"state must be a JSON object, got {type(obj).__name__}")
    try:
        return State(obj)
    except ValidationError as e:
        raise ValidationError(f"bad state object: {e}") from e


def encode(s: State) -> str:
    """Canonical JSON text of a state. Doubles keep their fraction marker."""
    try:
        return json.dumps(to_json_obj(s), separators=(",", ":"), ensure_ascii=False, allow_nan=False)
    except ValueError as e:
        raise EncodeError(str(e)) from e


def decode(text: str) -> State:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"bad state JSON: {e}") from e
    return from_json_obj(obj)
