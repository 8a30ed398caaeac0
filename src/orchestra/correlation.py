"""Correlation-set routing: which session does a message belong to.

Each input operation may declare a correlation function mapping message
field names to state variable names.  A message matches a session when
every correlated field either equals the session's bound value or the
session has not bound that variable yet.  The correlation set of a service
is the union of all declared function codomains, computed rather than
written by hand.

Matching a message against a session with unbound correlation variables
binds them, so the session's identity solidifies on first contact.  When
several sessions match, one is picked pseudo-randomly from the given seed;
deliberately under-programmed correlation keeps that residual
nondeterminism.

``CorrelationIndex`` keeps, per correlation variable, the sessions that
bound it by value and those that have not bound it, so a router can hand
``select_session`` a short superset of the matches instead of every
session.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple

from .errors import ValidationError
from .state import EMPTY, State, UNDEFINED, Value, check_var_name, values_equal


class Message(NamedTuple):
    """An operation invocation in flight: name, flat payload, addressing."""

    operation: str
    payload: State = EMPTY
    channel_id: Any = None
    request_id: str = ""


class CorrelationFunction:
    """Injective map from message field names to state variable names."""

    __slots__ = ("_mapping", "pairs")

    def __init__(self, mapping: dict[str, str] | None = None):
        mapping = dict(mapping or {})
        seen_vars: dict[str, str] = {}
        for field_name, var_name in mapping.items():
            check_var_name(field_name)
            check_var_name(var_name)
            if var_name in seen_vars.values():
                raise ValidationError(
                    f"correlation function is not injective: two fields map to {var_name!r}"
                )
            seen_vars[field_name] = var_name
        self._mapping = mapping
        # (field, variable) pairs in field name order
        self.pairs = tuple(sorted(mapping.items()))

    def codomain(self) -> frozenset[str]:
        return frozenset(self._mapping.values())

    def __len__(self) -> int:
        return len(self._mapping)

    def __eq__(self, other) -> bool:
        return isinstance(other, CorrelationFunction) and self._mapping == other._mapping

    def __repr__(self) -> str:
        return f"CorrelationFunction({self._mapping!r})"


_EMPTY_FUNCTION = CorrelationFunction()


@dataclass(frozen=True)
class CorrelationConfig:
    """Per-operation correlation functions plus the derived correlation set."""

    functions: dict[str, CorrelationFunction] = field(default_factory=dict)

    @property
    def cset(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for f in self.functions.values():
            out |= f.codomain()
        return out

    def function_for(self, op: str) -> CorrelationFunction:
        return self.functions.get(op, _EMPTY_FUNCTION)

    @classmethod
    def from_json_obj(cls, obj) -> "CorrelationConfig":
        """Parse ``{opName: {messageField: stateVar, ...}, ...}``."""
        if obj is None:
            return cls({})
        if not isinstance(obj, dict):
            raise ValidationError("correlation config must be an object")
        functions = {}
        for op, mapping in obj.items():
            if not isinstance(op, str) or not op:
                raise ValidationError(f"bad operation name in correlation config: {op!r}")
            if not isinstance(mapping, dict):
                raise ValidationError(f"correlation for {op!r} must be an object")
            functions[op] = CorrelationFunction(mapping)
        return cls(functions)


def correlates(message: Message, cfun: CorrelationFunction, s: State) -> bool:
    """Routing predicate: may this message be routed to a session in state s?

    True iff every payload field the function correlates maps to a state
    variable that is either unbound or bound to exactly the field's value.
    """
    payload = message.payload
    for field_name, var in cfun.pairs:
        bound = s.lookup(var)
        if bound is UNDEFINED:
            continue
        value = payload.lookup(field_name)
        if value is not UNDEFINED and not values_equal(bound, value):
            return False
    return True


def bind_correlation(message: Message, cfun: CorrelationFunction, s: State) -> State:
    """Bind still-undefined correlation variables from the message's fields.

    Callers must have checked ``correlates`` first; bound variables are
    left untouched and non-correlated fields never bind anything.  The
    values bound were checked where the message entered, so they are bound
    in one unchecked ``State.bind``.
    """
    payload = message.payload
    fresh = {}
    for field_name, var in cfun.pairs:
        value = payload.lookup(field_name)
        if value is not UNDEFINED and s.lookup(var) is UNDEFINED:
            fresh[var] = value
    return s.bind(fresh) if fresh else s


def select_session(
    message: Message,
    candidates: Iterable[tuple[Any, State]],
    config: CorrelationConfig,
    seed: int,
) -> Any | None:
    """Pick the session a message is routed to, or None when none matches.

    Candidates are (session id, state) pairs.  All matching candidates are
    equally eligible; ties are broken pseudo-randomly from the seed over
    the matches sorted by session id, so a fixed seed picks the same
    session every time.  A lone match is neither sorted nor drawn for.
    """
    cfun = config.functions.get(message.operation, _EMPTY_FUNCTION)
    matched = [sid for sid, st in candidates if correlates(message, cfun, st)]
    if not matched:
        return None
    if len(matched) == 1:
        return matched[0]
    matched.sort()
    return matched[random.Random(seed).randrange(len(matched))]


def _key(v: Value) -> tuple[type, Value]:
    """Index key of a bound value.  Values that ``values_equal`` calls equal
    get equal keys, so a lookup never misses a match: ``0.0`` meets
    ``-0.0``, while ``1``, ``1.0`` and ``True`` stay apart."""
    return type(v), v


class CorrelationIndex:
    """Sessions by the value each has bound to each correlation variable.

    ``bound[var][key(v)]`` holds the sessions whose ``var`` is ``v``;
    ``unbound[var]`` holds those whose ``var`` is still unbound.  A message
    can match only sessions that sit, for every correlated field, in the
    field's value slot or in the variable's unbound set, so intersecting
    those gives a superset of the matches.  Callers keep it in step with
    every change to a session's state.
    """

    def __init__(self, cset: frozenset[str]):
        self._bound: dict[str, dict[tuple[type, Value], set]] = {var: {} for var in cset}
        self._unbound: dict[str, set] = {var: set() for var in cset}

    def add(self, sid: Any, s: State) -> None:
        for var in self._bound:
            self._put(sid, var, s.lookup(var))

    def remove(self, sid: Any, s: State) -> None:
        for var in self._bound:
            self._drop(sid, var, s.lookup(var))

    def rebind(self, sid: Any, var: str, old, new) -> None:
        """Variable ``var`` of session ``sid`` changed from ``old`` to ``new``
        (either may be ``UNDEFINED``)."""
        if var not in self._bound or (old is not UNDEFINED and values_equal(old, new)):
            return
        self._drop(sid, var, old)
        self._put(sid, var, new)

    def update(self, sid: Any, old: State, new: State) -> None:
        """Session ``sid``'s state went from ``old`` to ``new``."""
        for var in self._bound:
            self.rebind(sid, var, old.lookup(var), new.lookup(var))

    def candidates(self, message: Message, cfun: CorrelationFunction) -> set | None:
        """Sessions that may match ``message``; None when it correlates no
        field, so that every session may match."""
        slots = []
        for field_name, var in cfun.pairs:
            value = message.payload.lookup(field_name)
            if value is UNDEFINED:
                continue
            bound = self._bound[var].get(_key(value), ())
            slots.append((bound, self._unbound[var]))
        if not slots:
            return None
        slots.sort(key=lambda slot: len(slot[0]) + len(slot[1]))
        bound, unbound = slots[0]
        out = set(bound) | unbound
        for bound, unbound in slots[1:]:
            out = {sid for sid in out if sid in bound or sid in unbound}
        return out

    def _put(self, sid: Any, var: str, v) -> None:
        if v is UNDEFINED:
            self._unbound[var].add(sid)
        else:
            self._bound[var].setdefault(_key(v), set()).add(sid)

    def _drop(self, sid: Any, var: str, v) -> None:
        if v is UNDEFINED:
            self._unbound[var].discard(sid)
            return
        slot = self._bound[var]
        key = _key(v)
        sids = slot.get(key)
        if sids is not None:
            sids.discard(sid)
            if not sids:
                del slot[key]
