"""Interfaces and ports: binding operations to locations and protocols.

The functional interface of a service declares each operation's name,
kind, and message types.  Input ports expose input-kind operations
(One-Way, Request-Response) at a location; output ports bind output-kind
operations (Notification, Solicit-Response) to the location of the
service they invoke.

One protocol is built in, ``frame/1`` (see ``frames``), usable over TCP
sockets and over in-container local channels.  Output ports keep a single
connection per target and multiplex calls on it by frame id; responses
are matched back to their callers no matter the order they arrive in.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable

from . import frames
from .errors import (
    DecodeError, Fault, IO_FAULT, PROTOCOL_FAULT, StartupError, TYPE_FAULT,
    UNKNOWN_OPERATION, ValidationError,
)
from .frames import Frame
from .interpreter import CallResult
from .state import State, value_kind

ONE_WAY = "OneWay"
REQUEST_RESPONSE = "RequestResponse"
NOTIFICATION = "Notification"
SOLICIT_RESPONSE = "SolicitResponse"

INPUT_KINDS = (ONE_WAY, REQUEST_RESPONSE)
OUTPUT_KINDS = (NOTIFICATION, SOLICIT_RESPONSE)

PROTOCOL_ID = "frame/1"

_FIELD_TYPES = ("string", "int", "double", "bool", "any")


@dataclass(frozen=True)
class MessageType:
    """Declared payload shape: field name to variant, or ``any``."""

    fields: tuple[tuple[str, str], ...] = ()

    @classmethod
    def from_json_obj(cls, obj) -> "MessageType":
        if obj is None:
            return cls()
        if not isinstance(obj, dict):
            raise ValidationError("message type must be an object")
        out = []
        for name, tag in obj.items():
            if tag not in _FIELD_TYPES:
                raise ValidationError(f"unknown field type {tag!r} for {name!r}")
            out.append((name, tag))
        return cls(tuple(out))

    def to_json_obj(self) -> dict:
        return dict(self.fields)

    def check(self, payload: State, where: str) -> None:
        for name, tag in self.fields:
            if tag == "any":
                continue
            if name not in payload:
                raise Fault(TYPE_FAULT, f"{where}: missing field {name!r}")
            got = value_kind(payload.lookup(name))
            if got != tag:
                raise Fault(TYPE_FAULT, f"{where}: field {name!r} is {got}, wants {tag}")


@dataclass(frozen=True)
class OperationDecl:
    name: str
    kind: str
    request: MessageType = MessageType()
    response: MessageType | None = None

    def __post_init__(self):
        if self.kind not in INPUT_KINDS + OUTPUT_KINDS:
            raise ValidationError(f"unknown operation kind {self.kind!r}")
        has_response = self.kind in (REQUEST_RESPONSE, SOLICIT_RESPONSE)
        if has_response and self.response is None:
            object.__setattr__(self, "response", MessageType())
        if not has_response and self.response is not None:
            raise ValidationError(f"{self.kind} operation {self.name!r} cannot declare a response")

    def to_json_obj(self) -> dict:
        out: dict = {"kind": self.kind, "request": self.request.to_json_obj()}
        if self.response is not None:
            out["response"] = self.response.to_json_obj()
        return out


class Interface:
    """Named, unique operation declarations."""

    def __init__(self, operations: dict[str, OperationDecl] | None = None):
        self.operations: dict[str, OperationDecl] = dict(operations or {})
        for name, decl in self.operations.items():
            if decl.name != name:
                raise ValidationError(f"operation {decl.name!r} filed under {name!r}")

    @classmethod
    def from_json_obj(cls, obj) -> "Interface":
        if obj is None:
            return cls()
        if not isinstance(obj, dict):
            raise ValidationError("interface must be an object of operation declarations")
        ops = {}
        for name, body in obj.items():
            if not isinstance(body, dict) or "kind" not in body:
                raise ValidationError(f"operation {name!r} needs a kind")
            ops[name] = OperationDecl(
                name=name,
                kind=body["kind"],
                request=MessageType.from_json_obj(body.get("request")),
                response=MessageType.from_json_obj(body["response"]) if "response" in body else None,
            )
        return cls(ops)

    def to_json_obj(self) -> dict:
        return {name: decl.to_json_obj() for name, decl in sorted(self.operations.items())}

    def get(self, op: str) -> OperationDecl | None:
        return self.operations.get(op)

    def kind_of(self, op: str) -> str | None:
        decl = self.operations.get(op)
        return decl.kind if decl else None

    def restrict(self, names) -> "Interface":
        missing = [n for n in names if n not in self.operations]
        if missing:
            raise ValidationError(f"port references undeclared operations {missing}")
        return Interface({n: self.operations[n] for n in names})

    def __contains__(self, op: str) -> bool:
        return op in self.operations

    def __eq__(self, other) -> bool:
        return isinstance(other, Interface) and self.to_json_obj() == other.to_json_obj()


@dataclass(frozen=True)
class SocketLocation:
    host: str
    port: int

    def __str__(self) -> str:
        return f"socket://{self.host}:{self.port}"


@dataclass(frozen=True)
class LocalLocation:
    name: str

    def __str__(self) -> str:
        return f"local://{self.name}"


Location = SocketLocation | LocalLocation


def parse_location(text: str) -> Location:
    if not isinstance(text, str):
        raise ValidationError(f"location must be a string, got {text!r}")
    if text.startswith("local://"):
        name = text[len("local://"):]
        if not name:
            raise ValidationError("local location needs a name")
        return LocalLocation(name)
    if text.startswith("socket://"):
        rest = text[len("socket://"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not host:
            raise ValidationError(f"socket location needs host:port, got {text!r}")
        try:
            return SocketLocation(host, int(port))
        except ValueError:
            raise ValidationError(f"bad port in location {text!r}") from None
    raise ValidationError(f"unknown location scheme in {text!r}")


@dataclass(frozen=True)
class InputPort:
    name: str
    location: Location
    interface: Interface
    protocol: str = PROTOCOL_ID

    def __post_init__(self):
        for decl in self.interface.operations.values():
            if decl.kind not in INPUT_KINDS:
                raise ValidationError(
                    f"input port {self.name!r} exposes {decl.kind} operation {decl.name!r}"
                )


@dataclass(frozen=True)
class OutputPort:
    name: str
    location: Location
    interface: Interface
    protocol: str = PROTOCOL_ID
    resource: str = ""

    def __post_init__(self):
        for decl in self.interface.operations.values():
            if decl.kind not in OUTPUT_KINDS:
                raise ValidationError(
                    f"output port {self.name!r} binds {decl.kind} operation {decl.name!r}"
                )


# A connector opens a channel to a location; a binder listens at one.
Connector = Callable[[Location], object]
Binder = Callable[[Location, Callable], object]


class Connection:
    """One channel multiplexing many calls, matched by frame id."""

    def __init__(self, channel):
        self.channel = channel
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._waiters: dict[str, Callable[[CallResult], None]] = {}
        self.dead = False
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def send_request(
        self,
        operation: str,
        payload: State,
        resource: str = "",
        on_result: Callable[[CallResult], None] | None = None,
    ) -> str:
        with self._lock:
            if self.dead:
                raise Fault(IO_FAULT, "connection closed")
            frame_id = str(next(self._ids))
            if on_result is not None:
                self._waiters[frame_id] = on_result
        try:
            self.channel.send(frames.encode_frame(frames.request_frame(frame_id, operation, payload, resource)))
        except OSError as e:
            with self._lock:
                self._waiters.pop(frame_id, None)
            raise Fault(IO_FAULT, str(e)) from e
        return frame_id

    def _read_loop(self) -> None:
        while True:
            try:
                line = self.channel.recv_line()
            except OSError:
                line = None
            if line is None:
                break
            try:
                frame = frames.decode_frame(line)
            except DecodeError:
                continue
            if frame.type == frames.REQUEST:
                continue  # requests never arrive on an outbound connection
            with self._lock:
                waiter = self._waiters.pop(frame.id, None)
            if waiter is None:
                continue
            if frame.type == frames.RESPONSE:
                waiter(CallResult(payload=frame.payload))
            else:
                waiter(CallResult(fault=frame.fault))
        self._fail_all()

    def _fail_all(self) -> None:
        with self._lock:
            self.dead = True
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for w in waiters:
            w(CallResult(fault=IO_FAULT))

    def close(self) -> None:
        self.channel.close()


def sync_request(conn: Connection, op: str, payload: State, resource: str = "",
                 timeout: float | None = 10.0) -> CallResult:
    """One blocking call over an existing connection; resource set per call."""
    done = threading.Event()
    slot: list[CallResult] = []

    def on_result(result: CallResult) -> None:
        slot.append(result)
        done.set()

    conn.send_request(op, payload, resource, on_result)
    if not done.wait(timeout):
        raise Fault(IO_FAULT, f"no response to {op!r} within {timeout}s")
    return slot[0]


class OutputPortRuntime:
    """A deployed output port: lazy connection, notify and solicit."""

    def __init__(self, port: OutputPort, connector: Connector):
        self.port = port
        self._connector = connector
        self._conn: Connection | None = None
        self._conn_lock = threading.Lock()

    def _decl(self, op: str, want_kind: str) -> OperationDecl:
        decl = self.port.interface.get(op)
        if decl is None:
            raise Fault(IO_FAULT, f"operation {op!r} not bound on port {self.port.name!r}")
        if decl.kind != want_kind:
            raise Fault(IO_FAULT, f"operation {op!r} is {decl.kind}, not {want_kind}")
        return decl

    def _connection(self) -> Connection:
        with self._conn_lock:
            if self._conn is None or self._conn.dead:
                try:
                    channel = self._connector(self.port.location)
                except OSError as e:
                    raise Fault(IO_FAULT, f"cannot reach {self.port.location}: {e}") from e
                self._conn = Connection(channel)
            return self._conn

    def notify(self, op: str, payload: State) -> None:
        """Send a request frame and move on; no response is awaited."""
        decl = self._decl(op, NOTIFICATION)
        decl.request.check(payload, f"notify {op}")
        self._connection().send_request(op, payload, self.port.resource)

    def solicit_begin(self, op: str, payload: State, on_result: Callable[[CallResult], None]) -> str:
        """Send a request frame; the callback fires when its answer arrives."""
        decl = self._decl(op, SOLICIT_RESPONSE)
        decl.request.check(payload, f"solicit {op}")
        return self._connection().send_request(op, payload, self.port.resource, on_result)

    def solicit(self, op: str, payload: State, timeout: float | None = 10.0) -> State:
        """Blocking solicit; re-raises a remote fault under its own name."""
        decl = self._decl(op, SOLICIT_RESPONSE)
        decl.request.check(payload, f"solicit {op}")
        result = sync_request(self._connection(), op, payload, self.port.resource, timeout)
        if result.fault is not None:
            raise Fault(result.fault)
        return result.payload

    def close(self) -> None:
        with self._conn_lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


class ReplyHandle:
    """Where a request came from: enough to answer it later, id-matched."""

    def __init__(self, channel):
        self.channel = channel
        self._lock = threading.Lock()

    def send_response(self, frame_id: str, operation: str, payload: State) -> None:
        self._send(frames.response_frame(frame_id, operation, payload))

    def send_fault(self, frame_id: str, operation: str, fault_name: str) -> None:
        self._send(frames.fault_frame(frame_id, operation, fault_name))

    def _send(self, frame: Frame) -> None:
        try:
            with self._lock:
                self.channel.send(frames.encode_frame(frame))
        except OSError:
            pass  # peer is gone; nothing left to answer


def serve_frames(on_request: Callable[[Frame, ReplyHandle], None]) -> Callable:
    """A channel acceptor that hands each request frame to ``on_request``.

    Each accepted channel gets its own daemon thread and ``ReplyHandle``.
    Whitespace-only lines are skipped; any other line that is not a request
    frame is answered with ``ProtocolFault`` under the id salvaged from it,
    and the channel stays open.
    """

    def serve(channel) -> None:
        handle = ReplyHandle(channel)
        while True:
            try:
                line = channel.recv_line()
            except OSError:
                return
            if line is None:
                return
            if not line.strip():
                continue
            try:
                frame = frames.decode_frame(line)
                if frame.type != frames.REQUEST:
                    raise DecodeError(f"expected a request frame, got {frame.type}")
            except DecodeError:
                handle.send_fault(frames.salvage_request_id(line), "", PROTOCOL_FAULT)
                continue
            on_request(frame, handle)

    def accept(channel) -> None:
        threading.Thread(target=serve, args=(channel,), daemon=True).start()

    return accept


class InputPortListener:
    """A served input port feeding decoded messages into an engine."""

    def __init__(self, port: InputPort, sink, binder: Binder, message_factory):
        self.port = port
        self._sink = sink
        self._message_factory = message_factory
        try:
            self._listener = binder(port.location, serve_frames(self._handle_request))
        except StartupError:
            raise
        except OSError as e:
            raise StartupError(f"cannot serve {port.location}: {e}") from e

    @property
    def bound_location(self):
        inner = getattr(self._listener, "port", None)
        if inner is not None and isinstance(self.port.location, SocketLocation):
            return SocketLocation(self.port.location.host, inner)
        return self.port.location

    def _handle_request(self, frame: Frame, handle: ReplyHandle) -> None:
        decl = self.port.interface.get(frame.operation)
        if decl is None:
            handle.send_fault(frame.id, frame.operation, UNKNOWN_OPERATION)
            return
        try:
            decl.request.check(frame.payload, f"request {frame.operation}")
        except Fault as f:
            handle.send_fault(frame.id, frame.operation, f.name)
            return
        msg = self._message_factory(
            operation=frame.operation,
            payload=frame.payload,
            resource=frame.resource,
            channel_id=handle,
            request_id=frame.id,
        )
        outcome = self._sink(msg)
        if getattr(outcome, "kind", None) == "rejected" and decl.kind == REQUEST_RESPONSE:
            handle.send_fault(frame.id, frame.operation, outcome.fault)

    def close(self) -> None:
        self._listener.close()
