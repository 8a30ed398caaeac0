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
    orelse: "Activity"


@dataclass(frozen=True)
class While:
    cond: Expr
    body: "Activity"


@dataclass(frozen=True)
class Receive:
    op: str
    into: str


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
    into: str


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


def join_prefix(prefix: str, field_name: str) -> str:
    """Variable name for a message field landed under an input prefix."""
    return f"{prefix}_{field_name}" if prefix else field_name


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


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing {key!r}")
    return doc[key]


def parse_activity(doc) -> Activity:
    """Parse one activity node from its JSON document form."""
    if doc == "nil":
        return Nil()
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ParseError(f"activity must be 'nil' or a single-key object, got {doc!r}")
    kind, body = next(iter(doc.items()))
    if kind == "seq":
        if not isinstance(body, list):
            raise ParseError("seq: expected a list of activities")
        return Sequence(tuple(parse_activity(c) for c in body))
    if kind == "par":
        if not isinstance(body, list):
            raise ParseError("par: expected a list of activities")
        return Parallel(tuple(parse_activity(c) for c in body))
    if kind == "if":
        cond = _parse_expr(_require(body, "cond", "if"), "if.cond")
        then = parse_activity(_require(body, "then", "if"))
        orelse = parse_activity(body["else"]) if "else" in body else Nil()
        return If(cond, then, orelse)
    if kind == "while":
        return While(
            _parse_expr(_require(body, "cond", "while"), "while.cond"),
            parse_activity(_require(body, "body", "while")),
        )
    if kind == "assign":
        if not (isinstance(body, list) and len(body) == 2):
            raise ParseError(f"assign: expected [var, expression], got {body!r}")
        if not is_valid_var_name(body[0]):
            raise ParseError(f"assign: bad variable name {body[0]!r}")
        return Assign(body[0], _parse_expr(body[1], "assign"))
    if kind == "receive":
        into = body.get("into", "") if isinstance(body, dict) else None
        if not isinstance(body, dict) or not isinstance(into, str):
            raise ParseError(f"receive: expected {{op, into}}, got {body!r}")
        if into and not is_valid_var_name(into):
            raise ParseError(f"receive: bad into prefix {into!r}")
        return Receive(_op_name(_require(body, "op", "receive")), into)
    if kind == "reply":
        return Reply(
            _op_name(_require(body, "op", "reply")),
            _parse_expr_map(_require(body, "from", "reply"), "reply.from"),
        )
    if kind == "notify":
        return Notify(
            _port_name(_require(body, "port", "notify")),
            _op_name(_require(body, "op", "notify")),
            _parse_expr_map(_require(body, "payload", "notify"), "notify.payload"),
        )
    if kind == "solicit":
        into = body.get("into", "")
        if into and not is_valid_var_name(into):
            raise ParseError(f"solicit: bad into prefix {into!r}")
        return Solicit(
            _port_name(_require(body, "port", "solicit")),
            _op_name(_require(body, "op", "solicit")),
            _parse_expr_map(_require(body, "payload", "solicit"), "solicit.payload"),
            into,
        )
    if kind == "throw":
        # the name travels in fault frames, so it must encode as UTF-8
        if not isinstance(body, str) or not body or not is_text(body):
            raise ParseError(f"throw: fault name must be a non-empty UTF-8 string, got {body!r}")
        return Throw(body)
    if kind == "scope":
        name = _require(body, "name", "scope")
        if not isinstance(name, str) or not name:
            raise ParseError("scope: name must be a non-empty string")
        handlers = []
        for fault_name, handler_doc in (body.get("faults") or {}).items():
            if not isinstance(fault_name, str) or not fault_name:
                raise ParseError("scope.faults: fault names must be non-empty strings")
            handlers.append((fault_name, parse_activity(handler_doc)))
        return Scope(
            name=name,
            body=parse_activity(_require(body, "body", "scope")),
            fault_handlers=tuple(handlers),
            on_terminate=parse_activity(body["onTerminate"]) if "onTerminate" in body else None,
            on_compensate=parse_activity(body["onCompensate"]) if "onCompensate" in body else None,
        )
    if kind == "compensate":
        if not isinstance(body, str) or not body:
            raise ParseError(f"compensate: scope name must be a non-empty string, got {body!r}")
        return Compensate(body)
    raise ParseError(f"unknown activity kind {kind!r}")


def _op_name(raw) -> str:
    if not isinstance(raw, str) or not raw or not is_text(raw):
        raise ParseError(f"operation name must be a non-empty UTF-8 string, got {raw!r}")
    return raw


def _port_name(raw) -> str:
    if not isinstance(raw, str) or not raw:
        raise ParseError(f"port name must be a non-empty string, got {raw!r}")
    return raw


def _walk(act: Activity):
    yield act
    if isinstance(act, (Sequence, Parallel)):
        for c in act.children:
            yield from _walk(c)
    elif isinstance(act, If):
        yield from _walk(act.then)
        yield from _walk(act.orelse)
    elif isinstance(act, While):
        yield from _walk(act.body)
    elif isinstance(act, Scope):
        yield from _walk(act.body)
        for _, h in act.fault_handlers:
            yield from _walk(h)
        if act.on_terminate is not None:
            yield from _walk(act.on_terminate)
        if act.on_compensate is not None:
            yield from _walk(act.on_compensate)


def receive_ops(act: Activity) -> set[str]:
    return {a.op for a in _walk(act) if isinstance(a, Receive)}


def reply_ops(act: Activity) -> set[str]:
    return {a.op for a in _walk(act) if isinstance(a, Reply)}


def referenced_output_ports(act: Activity) -> set[tuple[str, str]]:
    """(port, operation) pairs used by notify and solicit nodes."""
    out = set()
    for a in _walk(act):
        if isinstance(a, (Notify, Solicit)):
            out.add((a.port, a.op))
    return out


def _check_scope_names(act: Activity, path: frozenset[str]) -> None:
    if isinstance(act, Scope):
        if act.name in path:
            raise ValidationError(f"scope name {act.name!r} reused on a nested path")
        inner = path | {act.name}
        _check_scope_names(act.body, inner)
        for _, h in act.fault_handlers:
            _check_scope_names(h, inner)
        if act.on_terminate is not None:
            _check_scope_names(act.on_terminate, inner)
        if act.on_compensate is not None:
            _check_scope_names(act.on_compensate, inner)
        return
    if isinstance(act, (Sequence, Parallel)):
        for c in act.children:
            _check_scope_names(c, path)
    elif isinstance(act, If):
        _check_scope_names(act.then, path)
        _check_scope_names(act.orelse, path)
    elif isinstance(act, While):
        _check_scope_names(act.body, path)


def _check_flat_double_receive(act: Activity, rr_ops: set[str]) -> None:
    """Reject a second receive before a reply when visible in one flat seq.

    Only plainly sequential bodies are checked; anything hidden behind
    loops, branches, or parallel joins is left to the runtime, which
    answers with a ProtocolFault instead.
    """
    if isinstance(act, Sequence):
        open_ops: set[str] = set()
        for c in act.children:
            if isinstance(c, Receive) and c.op in rr_ops:
                if c.op in open_ops:
                    raise ValidationError(
                        f"second receive on {c.op!r} before its reply"
                    )
                open_ops.add(c.op)
            elif isinstance(c, Reply):
                open_ops.discard(c.op)
            else:
                _check_flat_double_receive(c, rr_ops)
    elif isinstance(act, (Parallel,)):
        for c in act.children:
            _check_flat_double_receive(c, rr_ops)
    elif isinstance(act, If):
        _check_flat_double_receive(act.then, rr_ops)
        _check_flat_double_receive(act.orelse, rr_ops)
    elif isinstance(act, While):
        _check_flat_double_receive(act.body, rr_ops)
    elif isinstance(act, Scope):
        _check_flat_double_receive(act.body, rr_ops)


def validate_behaviour(b: BehaviourDef) -> BehaviourDef:
    if not b.firing and not b.initiators:
        raise ValidationError("behaviour is not firing and declares no initiator operations")
    received = receive_ops(b.root)
    for op in sorted(reply_ops(b.root)):
        if op not in received:
            raise ValidationError(f"reply on {op!r} has no receive for that operation")
    _check_scope_names(b.root, frozenset())
    _check_flat_double_receive(b.root, reply_ops(b.root))
    return b


def parse_behaviour(doc) -> BehaviourDef:
    """Parse a behaviour document.

    Accepts either a bare activity node (a firing behaviour with no
    initiators) or an object ``{"root": ..., "firing": bool,
    "initiators": [...]}``.
    """
    if isinstance(doc, dict) and ("root" in doc or "firing" in doc or "initiators" in doc):
        root = parse_activity(_require(doc, "root", "behaviour"))
        firing = doc.get("firing", False)
        initiators = doc.get("initiators", [])
        if not isinstance(firing, bool):
            raise ParseError("behaviour: firing must be a boolean")
        if not isinstance(initiators, list) or not all(isinstance(o, str) and o for o in initiators):
            raise ParseError("behaviour: initiators must be a list of operation names")
        extra = set(doc) - {"root", "firing", "initiators"}
        if extra:
            raise ParseError(f"behaviour: unknown keys {sorted(extra)}")
        b = BehaviourDef(root, frozenset(initiators), firing)
    else:
        b = BehaviourDef(parse_activity(doc), frozenset(), True)
    return validate_behaviour(b)
