"""Activity trees: what a service does, as data.

A behaviour is a tree of activities of three families: communication
(receive, reply, notify, solicit), functional (assign, plus the control
skeleton of sequence/parallel/if/while), and fault handling (throw, scope
with its handlers, compensate).  The JSON document form uses one spelling
per node kind; see ``parse_behaviour``.

Incoming message fields are written into the local state as
``<prefix>_<field>`` (plain ``<field>`` when the prefix is empty) so that
the flat variable-name grammar is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import expressions
from .errors import ParseError, ValidationError
from .expressions import Expr
from .state import is_text, is_valid_var_name


@dataclass(frozen=True)
class Nil:
    pass


@dataclass(frozen=True)
class Assign:
    var: str
    expr: Expr


@dataclass(frozen=True)
class Sequence:
    children: tuple["Activity", ...]


@dataclass(frozen=True)
class Parallel:
    children: tuple["Activity", ...]


@dataclass(frozen=True)
class If:
    cond: Expr
    then: "Activity"
    orelse: "Activity" = Nil()


@dataclass(frozen=True)
class While:
    cond: Expr
    body: "Activity"


@dataclass(frozen=True)
class Receive:
    op: str
    into: str = ""


@dataclass(frozen=True)
class Reply:
    op: str
    fields: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class Notify:
    port: str
    op: str
    payload: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class Solicit:
    port: str
    op: str
    payload: tuple[tuple[str, Expr], ...]
    into: str = ""


@dataclass(frozen=True)
class Throw:
    fault: str


@dataclass(frozen=True)
class Scope:
    name: str
    body: "Activity"
    fault_handlers: tuple[tuple[str, "Activity"], ...] = ()
    on_terminate: "Activity | None" = None
    on_compensate: "Activity | None" = None

    def handler_for(self, fault_name: str) -> "Activity | None":
        for name, handler in self.fault_handlers:
            if name == fault_name:
                return handler
        return None


@dataclass(frozen=True)
class Compensate:
    target: str


Activity = (
    Nil | Assign | Sequence | Parallel | If | While
    | Receive | Reply | Notify | Solicit | Throw | Scope | Compensate
)


@dataclass(frozen=True)
class BehaviourDef:
    root: Activity
    initiators: frozenset[str] = frozenset()
    firing: bool = False

    @cached_property
    def uses(self) -> "Uses":
        """What the activity tree uses, from one walk, made once."""
        return _survey(self.root)


def check_object(doc, where: str, required: frozenset[str] = frozenset(),
                 optional: frozenset[str] = frozenset()) -> dict:
    """``doc`` when it is an object holding every ``required`` key and no key
    outside ``required | optional``: the shape rule of every object in a
    document, so that nothing in a loaded document is silently ignored."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got {doc!r}")
    missing = required.difference(doc)
    if missing:
        raise ParseError(f"{where}: missing {sorted(missing)}")
    unknown = doc.keys() - required - optional
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    return doc


def check_list(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected a list, got {raw!r}")
    return raw


def check_name(raw, where: str) -> str:
    """``raw`` when it is a name: a non-empty string that encodes as UTF-8,
    as every name that travels in a frame must."""
    if not isinstance(raw, str) or not raw or not is_text(raw):
        raise ParseError(f"{where}: expected a non-empty UTF-8 string, got {raw!r}")
    return raw


def check_names(raw, where: str) -> list[str]:
    return [check_name(name, where) for name in check_list(raw, where)]


def _parse_expr(raw, where: str) -> Expr:
    if not isinstance(raw, str):
        raise ParseError(f"{where}: expression must be a string, got {raw!r}")
    return expressions.parse(raw)


def _parse_expr_map(raw, where: str) -> tuple[tuple[str, Expr], ...]:
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object of field expressions")
    out = []
    for name in raw:
        if not is_valid_var_name(name):
            raise ParseError(f"{where}: bad field name {name!r}")
        out.append((name, _parse_expr(raw[name], f"{where}.{name}")))
    return tuple(out)


def _parse_prefix(raw, where: str) -> str:
    if raw != "" and not is_valid_var_name(raw):
        raise ParseError(f"{where}: bad prefix {raw!r}")
    return raw


def _parse_handlers(raw, where: str) -> tuple[tuple[str, "Activity"], ...]:
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object of fault handlers")
    return tuple((check_name(name, where), parse_activity(handler, f"{where}.{name}"))
                 for name, handler in raw.items())


def _parse_list(raw, where: str) -> tuple["Activity", ...]:
    return tuple(parse_activity(child, where) for child in check_list(raw, where))


def _parse_assign(body) -> Assign:
    if not (isinstance(body, list) and len(body) == 2):
        raise ParseError(f"assign: expected [var, expression], got {body!r}")
    var, expr = body
    if not is_valid_var_name(var):
        raise ParseError(f"assign: bad variable name {var!r}")
    return Assign(var, _parse_expr(expr, "assign"))


def parse_activity(doc, where: str = "activity") -> Activity:
    """Parse one activity node from its JSON document form."""
    if doc == "nil":
        return Nil()
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ParseError(f"{where}: activity must be 'nil' or a single-key object, got {doc!r}")
    [(kind, body)] = doc.items()
    node = _NODES.get(kind)
    if node is None:
        reader = _READERS.get(kind)
        if reader is None:
            raise ParseError(f"{where}: unknown activity kind {kind!r}")
        return reader(body)
    cls, required, optional = node
    check_object(body, kind, required, optional)
    fields = {}
    for key, raw in body.items():
        field, read = _KEYS[key]
        fields[field] = read(raw, f"{kind}.{key}")
    return cls(**fields)


# Each document key means one thing in every node: the node field it fills
# and the reader that parses its value.
_KEYS = {
    "cond": ("cond", _parse_expr),
    "then": ("then", parse_activity),
    "else": ("orelse", parse_activity),
    "body": ("body", parse_activity),
    "onTerminate": ("on_terminate", parse_activity),
    "onCompensate": ("on_compensate", parse_activity),
    "op": ("op", check_name),
    "port": ("port", check_name),
    "name": ("name", check_name),
    "into": ("into", _parse_prefix),
    "from": ("fields", _parse_expr_map),
    "payload": ("payload", _parse_expr_map),
    "faults": ("fault_handlers", _parse_handlers),
}

# Each node kind whose body is an object: its class, its required keys and
# its optional keys.
_NODES = {
    "if": (If, frozenset({"cond", "then"}), frozenset({"else"})),
    "while": (While, frozenset({"cond", "body"}), frozenset()),
    "receive": (Receive, frozenset({"op"}), frozenset({"into"})),
    "reply": (Reply, frozenset({"op", "from"}), frozenset()),
    "notify": (Notify, frozenset({"port", "op", "payload"}), frozenset()),
    "solicit": (Solicit, frozenset({"port", "op", "payload"}), frozenset({"into"})),
    "scope": (Scope, frozenset({"name", "body"}),
              frozenset({"faults", "onTerminate", "onCompensate"})),
}

# The other node kinds, one reader each.
_READERS = {
    "seq": lambda body: Sequence(_parse_list(body, "seq")),
    "par": lambda body: Parallel(_parse_list(body, "par")),
    "assign": _parse_assign,
    "throw": lambda body: Throw(check_name(body, "throw")),
    "compensate": lambda body: Compensate(check_name(body, "compensate")),
}


def _children(act: Activity) -> tuple[Activity, ...]:
    """The activities directly under ``act``: a scope's body, then its
    fault handlers, then ``onTerminate``, then ``onCompensate``."""
    if isinstance(act, (Sequence, Parallel)):
        return act.children
    if isinstance(act, If):
        return (act.then, act.orelse)
    if isinstance(act, While):
        return (act.body,)
    if isinstance(act, Scope):
        return (act.body, *(h for _, h in act.fault_handlers),
                *(h for h in (act.on_terminate, act.on_compensate) if h is not None))
    return ()


@dataclass(frozen=True)
class Uses:
    """What an activity tree uses and the rule breaks in it, from one walk.

    ``reused_scopes`` holds each scope name reused on a nested path, and
    ``double_receives`` each operation received a second time before its
    reply in one flat ``seq`` (scope handlers included), both in walk order.
    Only plainly sequential bodies count: anything hidden behind loops,
    branches or parallel joins is left to the runtime, which answers it
    with a ``ProtocolFault``."""

    receives: frozenset[str]
    replies: frozenset[str]
    output_ports: frozenset[tuple[str, str]]  # (port, operation) of notify and solicit
    reused_scopes: tuple[str, ...]
    double_receives: tuple[str, ...]


def _survey(root: Activity) -> Uses:
    receives: set[str] = set()
    replies: set[str] = set()
    ports: set[tuple[str, str]] = set()
    reused: list[str] = []
    doubles: list[str] = []

    def visit(act: Activity, path: frozenset[str]) -> None:
        kind = type(act)
        if kind is Receive:
            receives.add(act.op)
        elif kind is Reply:
            replies.add(act.op)
        elif kind is Notify or kind is Solicit:
            ports.add((act.port, act.op))
        elif kind is Scope:
            if act.name in path:
                reused.append(act.name)
            path = path | {act.name}
        if kind is Sequence:
            open_ops: set[str] = set()
            for c in act.children:
                if type(c) is Receive:
                    if c.op in open_ops:
                        doubles.append(c.op)
                    open_ops.add(c.op)
                elif type(c) is Reply:
                    open_ops.discard(c.op)
                visit(c, path)
        else:
            for c in _children(act):
                visit(c, path)

    visit(root, frozenset())
    return Uses(frozenset(receives), frozenset(replies), frozenset(ports),
                tuple(reused), tuple(doubles))


def validate_behaviour(b: BehaviourDef) -> BehaviourDef:
    if not b.firing and not b.initiators:
        raise ValidationError("behaviour is not firing and declares no initiator operations")
    uses = b.uses
    unasked = sorted(uses.replies - uses.receives)
    if unasked:
        raise ValidationError(f"reply on {unasked[0]!r} has no receive for that operation")
    if uses.reused_scopes:
        raise ValidationError(f"scope name {uses.reused_scopes[0]!r} reused on a nested path")
    doubles = [op for op in uses.double_receives if op in uses.replies]
    if doubles:
        raise ValidationError(f"second receive on {doubles[0]!r} before its reply")
    return b


def parse_behaviour(doc) -> BehaviourDef:
    """Parse a behaviour document.

    Accepts either a bare activity node (a firing behaviour with no
    initiators) or an object ``{"root": ..., "firing": bool,
    "initiators": [...]}``.
    """
    if isinstance(doc, dict) and not _BEHAVIOUR_KEYS.isdisjoint(doc):
        check_object(doc, "behaviour", frozenset({"root"}), _BEHAVIOUR_KEYS)
        firing = doc.get("firing", False)
        if not isinstance(firing, bool):
            raise ParseError(f"firing must be a boolean, got {firing!r}")
        initiators = frozenset(check_names(doc.get("initiators", []), "initiators"))
        root = doc["root"]
    else:
        firing, initiators, root = True, frozenset(), doc
    try:
        return validate_behaviour(BehaviourDef(parse_activity(root), initiators, firing))
    except RecursionError:
        raise ParseError("behaviour nested too deeply") from None


_BEHAVIOUR_KEYS = frozenset({"root", "firing", "initiators"})
