"""Interfaces and ports: binding operations to locations and protocols.

The functional interface of a service declares each operation's name,
kind, and message types.  Input ports expose input-kind operations
(One-Way, Request-Response) at a location; output ports bind output-kind
operations (Notification, Solicit-Response) to the location of the
service they invoke.

One protocol is built in, ``frame/1`` (see ``frames``), usable over TCP
sockets and over in-container local channels; a port naming any other
protocol is rejected.  Output ports keep a single connection per target
and multiplex calls on it by frame id; responses are matched back to
their callers no matter the order they arrive in.

Each rule of the wire has one home here, shared by the serving and the
calling end and by the container gateway:

* ``Connection._on_line``: how an answer finds its caller;
* ``FrameEndpoint._serve_line``: how a served line becomes a request, or
  a ``ProtocolFault`` answer;
* ``reconnect``: when a connection is reused and when a new one opens;
* ``bound_location``: where a listener bound to port 0 answers.

Threads: a ``FrameEndpoint`` serves every channel it accepts on one
``transport.Loop``, the container's, and starts no thread of its own.  A
``Connection`` given a loop is read by that loop; one without (a caller
outside any container: the CLI, a test, a benchmark client) is read by
the threads that wait on it, as ``Connection`` tells.  Closing an
endpoint also closes the channels it still serves, so their peers see
EOF and reconnect instead of talking to a stopped service.  Both ends
close a channel once they read EOF on it.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable

from . import frames
from .behaviour import check_object
from .correlation import Message
from .errors import (
    DecodeError, Fault, IO_FAULT, LineTooLong, PROTOCOL_FAULT, TYPE_FAULT, UNKNOWN_OPERATION,
    ValidationError,
)
from .frames import Frame
from .interpreter import CallResult
from .state import State, UNDEFINED, check_var_name, value_kind
from .transport import Loop

ONE_WAY = "OneWay"
REQUEST_RESPONSE = "RequestResponse"
NOTIFICATION = "Notification"
SOLICIT_RESPONSE = "SolicitResponse"

INPUT_KINDS = (ONE_WAY, REQUEST_RESPONSE)
OUTPUT_KINDS = (NOTIFICATION, SOLICIT_RESPONSE)

PROTOCOL_ID = "frame/1"

# Each field type but ``any``: the Python type of its values.
_VARIANTS = {"string": str, "int": int, "double": float, "bool": bool}
_FIELD_TYPES = (*_VARIANTS, "any")


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
        for name, tag in obj.items():
            check_var_name(name)
            if tag not in _FIELD_TYPES:
                raise ValidationError(f"unknown field type {tag!r} for {name!r}")
        return cls(tuple(sorted(obj.items())))

    def check(self, payload: State, where: str) -> None:
        for name, tag in self.fields:
            if tag == "any":
                continue
            v = payload.lookup(name)
            if v is UNDEFINED:
                raise Fault(TYPE_FAULT, f"{where}: missing field {name!r}")
            if type(v) is not _VARIANTS[tag]:
                raise Fault(TYPE_FAULT, f"{where}: field {name!r} is {value_kind(v)}, wants {tag}")


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
            check_object(body, f"operation {name!r}", frozenset({"kind"}),
                         frozenset({"request", "response"}))
            ops[name] = OperationDecl(
                name=name,
                kind=body["kind"],
                request=MessageType.from_json_obj(body.get("request")),
                response=MessageType.from_json_obj(body["response"]) if "response" in body else None,
            )
        return cls(ops)

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
        return isinstance(other, Interface) and self.operations == other.operations


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


def _check_protocol(side: str, name: str, protocol: str) -> None:
    if protocol != PROTOCOL_ID:
        raise ValidationError(
            f"{side} port {name!r} speaks {protocol!r}; only {PROTOCOL_ID!r} is built in")


@dataclass(frozen=True)
class InputPort:
    name: str
    location: Location
    interface: Interface
    protocol: str = PROTOCOL_ID

    def __post_init__(self):
        _check_protocol("input", self.name, self.protocol)
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
        _check_protocol("output", self.name, self.protocol)
        for decl in self.interface.operations.values():
            if decl.kind not in OUTPUT_KINDS:
                raise ValidationError(
                    f"output port {self.name!r} binds {decl.kind} operation {decl.name!r}"
                )


# A connector opens a channel to a location; a binder listens at one.
Connector = Callable[[Location], object]
Binder = Callable[[Location, Callable], object]


def _frame_of(line: bytes) -> Frame | None:
    """The frame a line carries, or None when it does not decode."""
    try:
        return frames.decode_frame(line)
    except DecodeError:
        return None


def bound_location(location: Location, listener) -> Location:
    """Where ``listener``, bound at ``location``, answers: a socket bound to
    port 0 answers at the port the system picked."""
    if isinstance(location, SocketLocation):
        return SocketLocation(location.host, listener.port)
    return location


class Connection:
    """One channel multiplexing many calls, matched by frame id.

    On a ``loop`` the loop reads its answers.  Without one, the threads
    that wait for answers read them, one at a time: a caller blocked in
    ``call`` reads the channel itself while no other thread does, handing
    each answer it reads to its waiter, until its own arrives; a call that
    no caller blocks on (``send_request`` with ``on_result``) gets a reader
    thread, which reads while any call waits.  So a lone caller's answer
    wakes no thread but the caller.  One more thread per connection sleeps
    until the peer hangs up, then reads what is left, so the channel
    closes at EOF even while no call waits.  Every answer goes through
    ``_on_line``, the one response rule.
    """

    def __init__(self, channel, loop: Loop | None = None):
        self.channel = channel
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        # notified when an answer is handed over, when the channel is free
        # to read, and when the connection dies
        self._turn = threading.Condition(self._lock)
        self._waiters: dict[str, Callable[[CallResult], None]] = {}
        self._reading = loop is not None  # a thread is reading the channel
        self._callers = 0  # threads blocked in ``call``, each ready to read
        self.dead = False
        if loop is None:
            threading.Thread(target=self._read_at_hangup, args=(channel.watch_hangup(),),
                             daemon=True, name=f"hangup-{channel.name}").start()
        else:
            channel.attach(loop, self._on_line, self._on_end)

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
            # before the send: the answer may arrive before send returns
            if on_result is not None:
                self._waiters[frame_id] = on_result
        try:
            self.channel.send(frames.encode_frame(frames.request_frame(frame_id, operation, payload, resource)))
        except OSError as e:
            with self._lock:
                self._waiters.pop(frame_id, None)
            raise Fault(IO_FAULT, str(e)) from e
        if on_result is not None:
            self._start_reader()
        return frame_id

    def call(self, operation: str, payload: State, resource: str = "",
             timeout: float | None = 10.0) -> CallResult:
        """One blocking call; see ``sync_request``."""
        slot: list[CallResult] = []
        with self._lock:
            self._callers += 1
        try:
            frame_id = self.send_request(operation, payload, resource, slot.append)
            if not self._read_until(slot, None if timeout is None else max(timeout, 0)):
                self.forget(frame_id)
                raise Fault(IO_FAULT, f"no response to {operation!r} within {timeout}s")
        finally:
            with self._lock:
                self._callers -= 1
            self._start_reader()  # for the calls left that no caller reads for
        return slot[0]

    def forget(self, frame_id: str) -> None:
        """Stop waiting for the answer to ``frame_id``; a late one is dropped."""
        with self._lock:
            self._waiters.pop(frame_id, None)

    def _read_until(self, slot: list, timeout: float | None) -> bool:
        """Wait until ``slot`` fills, reading the channel whenever no other
        thread does; False when ``timeout`` passes first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                while self._reading and not slot:
                    left = None if deadline is None else deadline - time.monotonic()
                    if left is not None and left <= 0:
                        return False
                    self._turn.wait(left)
                if slot:
                    return True
                self._reading = True
            try:
                left = None if deadline is None else deadline - time.monotonic()
                if left is not None and left <= 0 or not self._read_line(left):
                    return bool(slot)
            except TimeoutError:
                return False
            finally:
                with self._lock:
                    self._reading = False
                    self._turn.notify_all()

    def _read_at_hangup(self, wait_hangup: Callable[[], None]) -> None:
        """Once the peer hangs up, read what is left up to EOF."""
        wait_hangup()
        with self._lock:
            while self._reading:
                self._turn.wait()
            self._reading = True
        while self._read_line(None):
            pass

    def _start_reader(self) -> None:
        """Start a reader thread when calls wait that no thread reads for."""
        with self._lock:
            if self._reading or self._callers or self.dead or not self._waiters:
                return
            self._reading = True
        threading.Thread(target=self._read_for_waiters, daemon=True,
                         name=f"reader-{self.channel.name}").start()

    def _read_for_waiters(self) -> None:
        """The reader thread: read while any call waits."""
        while True:
            with self._lock:
                if self.dead or not self._waiters:
                    self._reading = False
                    self._turn.notify_all()
                    return
            if not self._read_line(None):
                return

    def _read_line(self, timeout: float | None) -> bool:
        """Read one line and hand it over; False once the channel has
        ended.  Raises ``TimeoutError`` when none comes within ``timeout``."""
        try:
            line = self.channel.recv_line(timeout)
        except TimeoutError:  # an OSError, but the channel lives on
            raise
        except (OSError, LineTooLong):
            line = None
        if line is None:
            self._on_end(False)
            return False
        self._on_line(line)
        return True

    def _on_line(self, line: bytes) -> None:
        # blank lines, undecodable lines and requests (which never belong
        # on an outbound connection) are dropped
        if not line.strip():
            return
        frame = _frame_of(line)
        if frame is None or frame.type == frames.REQUEST:
            return
        with self._lock:
            waiter = self._waiters.pop(frame.id, None)
        if waiter is None:
            return
        if frame.type == frames.RESPONSE:
            waiter(CallResult(payload=frame.payload))
        else:
            waiter(CallResult(fault=frame.fault))
        with self._lock:
            self._turn.notify_all()

    def _on_end(self, overflow: bool) -> None:
        self.close()

    def _fail_all(self) -> None:
        with self._lock:
            self.dead = True
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for w in waiters:
            w(CallResult(fault=IO_FAULT))
        with self._lock:
            self._turn.notify_all()

    def close(self) -> None:
        """Close the channel; every call still waiting gets ``IOFault``."""
        self.channel.close()
        self._fail_all()


def reconnect(conn: Connection | None, connector: Connector, location: Location,
              loop: Loop) -> Connection:
    """``conn`` while it lives, otherwise a new connection to ``location``,
    read on ``loop``; a failed connect is ``IOFault``.  The caller holds
    the lock guarding where it keeps the connection."""
    if conn is not None and not conn.dead:
        return conn
    try:
        channel = connector(location)
    except OSError as e:
        raise Fault(IO_FAULT, f"cannot reach {location}: {e}") from e
    return Connection(channel, loop)


def sync_request(conn: Connection, op: str, payload: State, resource: str = "",
                 timeout: float | None = 10.0) -> CallResult:
    """One blocking call over an existing connection; resource set per call.
    A caller of a connection without a loop reads the channel itself while
    it waits; one of a connection read on a loop waits for the loop, so it
    must not run on that loop.  A ``timeout`` of None waits for ever; a
    negative one does not wait."""
    return conn.call(op, payload, resource, timeout)


def _checked_response(decl: OperationDecl, result: CallResult) -> CallResult:
    """``result``, or a ``TypeFault`` in its place when its payload does not
    conform to the response ``decl`` declares."""
    if result.fault is None:
        try:
            decl.response.check(result.payload, f"solicit {decl.name} response")
        except Fault as f:
            return CallResult(fault=f.name)
    return result


class OutputPortRuntime:
    """A deployed output port: lazy connection, notify and solicit.

    The connection is read on ``loop``, whose lock guards it: a step on the
    loop and a blocking solicit from another thread take the same lock."""

    def __init__(self, port: OutputPort, connector: Connector, loop: Loop):
        self.port = port
        self._connector = connector
        self._loop = loop
        self._conn: Connection | None = None

    def _decl(self, op: str, want_kind: str) -> OperationDecl:
        decl = self.port.interface.get(op)
        if decl is None:
            raise Fault(IO_FAULT, f"operation {op!r} not bound on port {self.port.name!r}")
        if decl.kind != want_kind:
            raise Fault(IO_FAULT, f"operation {op!r} is {decl.kind}, not {want_kind}")
        return decl

    def _connection(self) -> Connection:
        with self._loop.lock:
            self._conn = reconnect(self._conn, self._connector, self.port.location, self._loop)
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
        return self._connection().send_request(
            op, payload, self.port.resource,
            lambda result: on_result(_checked_response(decl, result)))

    def solicit(self, op: str, payload: State, timeout: float | None = 10.0) -> State:
        """Blocking solicit; re-raises a remote fault under its own name."""
        decl = self._decl(op, SOLICIT_RESPONSE)
        decl.request.check(payload, f"solicit {op}")
        result = _checked_response(decl, sync_request(
            self._connection(), op, payload, self.port.resource, timeout))
        if result.fault is not None:
            raise Fault(result.fault)
        return result.payload

    def close(self) -> None:
        with self._loop.lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


class ReplyHandle:
    """Where a request came from: enough to answer it later, id-matched."""

    def __init__(self, channel):
        self.channel = channel

    def send_response(self, frame_id: str, operation: str, payload: State) -> None:
        self._send(frames.response_frame(frame_id, operation, payload))

    def send_fault(self, frame_id: str, operation: str, fault_name: str) -> None:
        self._send(frames.fault_frame(frame_id, operation, fault_name))

    def _send(self, frame: Frame) -> None:
        try:
            self.channel.send(frames.encode_frame(frame))
        except OSError:
            pass  # peer is gone; nothing left to answer


class FrameEndpoint:
    """A location served on ``loop`` by handing each request frame to
    ``on_request``.

    Each accepted channel is attached to the loop with its own
    ``ReplyHandle``.  A line that is not a request frame is answered with
    ``ProtocolFault`` under the id salvaged from it, and the channel stays
    open.  A line longer than ``transport.MAX_LINE`` is answered with
    ``ProtocolFault`` under no id, unparsed, and its channel is closed.  At
    EOF the channel is closed, which frees its socket at once: a caller
    keeps its write side open until its answers arrive.  ``close`` stops
    listening and closes every channel still served.
    """

    def __init__(self, location: Location, bind: Binder,
                 on_request: Callable[[Frame, ReplyHandle], None], loop: Loop):
        self._on_request = on_request
        self._loop = loop
        self._lock = threading.Lock()
        self._channels: set = set()
        self._closed = False
        self.listener = bind(location, self._accept)

    def _accept(self, channel) -> None:
        with self._lock:
            if self._closed:
                channel.close()
                return
            self._channels.add(channel)
        handle = ReplyHandle(channel)
        channel.attach(self._loop, lambda line: self._serve_line(handle, line),
                       lambda overflow: self._end(handle, overflow))

    def _serve_line(self, handle: ReplyHandle, line: bytes) -> None:
        if not line.strip():
            return
        frame = _frame_of(line)
        if frame is None or frame.type != frames.REQUEST:
            handle.send_fault(frames.salvage_request_id(line), "", PROTOCOL_FAULT)
        else:
            self._on_request(frame, handle)

    def _end(self, handle: ReplyHandle, overflow: bool) -> None:
        if overflow:
            handle.send_fault("", "", PROTOCOL_FAULT)
        handle.channel.close()
        with self._lock:
            self._channels.discard(handle.channel)

    def close(self) -> None:
        self.listener.close()
        with self._lock:
            self._closed = True
            channels, self._channels = self._channels, set()
        for channel in channels:
            channel.close()


class InputPortListener:
    """A served input port feeding decoded messages into ``sink``, an
    engine's ``submit``."""

    def __init__(self, port: InputPort, sink, binder: Binder, loop: Loop):
        self.port = port
        self._sink = sink
        self._endpoint = FrameEndpoint(port.location, binder, self._handle_request, loop)

    @property
    def bound_location(self) -> Location:
        return bound_location(self.port.location, self._endpoint.listener)

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
        outcome = self._sink(Message(
            operation=frame.operation,
            payload=frame.payload,
            channel_id=handle,
            request_id=frame.id,
        ))
        if outcome.kind == "rejected" and decl.kind == REQUEST_RESPONSE:
            handle.send_fault(frame.id, frame.operation, outcome.fault)

    def close(self) -> None:
        self._endpoint.close()
