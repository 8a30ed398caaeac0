"""Containers and the ways services compose inside and across them.

A container runs one or more services.  Composition comes in four shapes:

* simple: containers on the network calling each other's socket ports;
* embedding: services co-located in one container, talking over local
  channels that never touch a socket;
* redirecting: a gateway endpoint forwarding frames addressed by resource
  name to member services, relaying answers back id-correctly;
* aggregation: the gateway publishes one merged interface and routes by
  operation name, hiding the members entirely.

All four can change at runtime.  Every container also serves a private
control port (``local://_control``) with embed / unembed / setRedirect
operations, so behaviours themselves can re-compose the system they run
in; that is what makes service mobility expressible as plain messages
carrying a service definition as data.
"""

from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass
from typing import Any

from . import frames
from .behaviour import BehaviourDef, parse_activity, validate_behaviour
from .correlation import CorrelationConfig, Message
from .deployment import (
    Connection, INPUT_KINDS, Interface, InputPort, InputPortListener,
    LocalLocation, Location, OperationDecl, OutputPort, OutputPortRuntime,
    ReplyHandle, SocketLocation, parse_location, serve_frames,
)
from .engine import CONCURRENT, Engine, SEQUENTIAL
from .errors import (
    Fault, InterfaceClash, NAME_CLASH_FAULT, NameClash, StartupError,
    UNKNOWN_OPERATION, UNKNOWN_RESOURCE, UNKNOWN_SERVICE_FAULT, UnknownService,
    ValidationError,
)
from .state import State
from .transport import LocalRegistry, TcpListener, connect_socket

CONTROL_LOCATION = "_control"

NO_FIRING_WARNING = "NoFiringSession"


def loads_strict(text: str):
    """JSON parse that rejects duplicate object keys instead of collapsing."""

    def hook(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValidationError(f"duplicate key {key!r} in configuration")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=hook)
    except json.JSONDecodeError as e:
        raise ValidationError(f"bad JSON: {e}") from e


@dataclass
class ServiceDef:
    """Everything one service is: interface, behaviour, engine, ports."""

    name: str
    interface: Interface
    behaviour: BehaviourDef
    behaviour_doc: Any
    correlation: CorrelationConfig
    mode: str
    storage: str | None
    input_ports: tuple[InputPort, ...]
    output_ports: tuple[OutputPort, ...]

    @classmethod
    def from_json_obj(cls, doc) -> "ServiceDef":
        if not isinstance(doc, dict):
            raise ValidationError("service definition must be an object")
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise ValidationError("service needs a non-empty name")
        interface = Interface.from_json_obj(doc.get("interface"))
        engine_doc = doc.get("engine") or {}
        if not isinstance(engine_doc, dict):
            raise ValidationError(f"service {name!r}: engine section must be an object")
        mode = engine_doc.get("mode", CONCURRENT)
        if mode not in (SEQUENTIAL, CONCURRENT):
            raise ValidationError(f"service {name!r}: unknown mode {mode!r}")
        firing = engine_doc.get("firing", False)
        initiators = engine_doc.get("initiators", [])
        if not isinstance(firing, bool) or not isinstance(initiators, list):
            raise ValidationError(f"service {name!r}: bad firing/initiators")
        storage = engine_doc.get("storage")
        behaviour_doc = doc.get("behaviour", "nil")
        behaviour = validate_behaviour(
            BehaviourDef(parse_activity(behaviour_doc), frozenset(initiators), firing)
        )
        correlation = CorrelationConfig.from_json_obj(doc.get("correlation"))
        input_ports = tuple(
            _parse_input_port(p, interface, name) for p in doc.get("inputPorts", [])
        )
        output_ports = tuple(
            _parse_output_port(p, name) for p in doc.get("outputPorts", [])
        )
        svc = cls(name, interface, behaviour, behaviour_doc, correlation,
                  mode, storage, input_ports, output_ports)
        svc.validate()
        return svc

    def validate(self) -> None:
        from .behaviour import receive_ops, referenced_output_ports, reply_ops

        for op in sorted(self.behaviour.initiators):
            if self.interface.kind_of(op) not in INPUT_KINDS:
                raise ValidationError(
                    f"service {self.name!r}: initiator {op!r} is not a declared input operation")
        for op in sorted(receive_ops(self.behaviour.root) | reply_ops(self.behaviour.root)):
            if self.interface.kind_of(op) not in INPUT_KINDS:
                raise ValidationError(
                    f"service {self.name!r}: behaviour receives {op!r}, not a declared input operation")
        for op in self.correlation.functions:
            if self.interface.kind_of(op) not in INPUT_KINDS:
                raise ValidationError(
                    f"service {self.name!r}: correlation on undeclared input operation {op!r}")
        by_name = {p.name: p for p in self.output_ports}
        if len(by_name) != len(self.output_ports):
            raise ValidationError(f"service {self.name!r}: duplicate output port names")
        for port_name, op in sorted(referenced_output_ports(self.behaviour.root)):
            port = by_name.get(port_name)
            if port is None:
                raise ValidationError(
                    f"service {self.name!r}: behaviour uses unknown output port {port_name!r}")
            if op not in port.interface:
                raise ValidationError(
                    f"service {self.name!r}: operation {op!r} not bound on port {port_name!r}")

    def to_json_obj(self) -> dict:
        engine_doc: dict = {
            "mode": self.mode,
            "firing": self.behaviour.firing,
            "initiators": sorted(self.behaviour.initiators),
        }
        if self.storage:
            engine_doc["storage"] = self.storage
        doc: dict = {
            "name": self.name,
            "interface": self.interface.to_json_obj(),
            "behaviour": self.behaviour_doc,
            "engine": engine_doc,
        }
        if self.correlation.functions:
            doc["correlation"] = self.correlation.to_json_obj()
        if self.input_ports:
            doc["inputPorts"] = [_input_port_obj(p) for p in self.input_ports]
        if self.output_ports:
            doc["outputPorts"] = [_output_port_obj(p) for p in self.output_ports]
        return doc

    def __eq__(self, other) -> bool:
        return isinstance(other, ServiceDef) and self.to_json_obj() == other.to_json_obj()


def _parse_input_port(doc, interface: Interface, service: str) -> InputPort:
    if not isinstance(doc, dict):
        raise ValidationError(f"service {service!r}: input port must be an object")
    ops = doc.get("interface", [])
    return InputPort(
        name=doc.get("name", "in"),
        location=parse_location(doc.get("location", "")),
        interface=interface.restrict(ops),
        protocol=doc.get("protocol", "frame/1"),
    )


def _parse_output_port(doc, service: str) -> OutputPort:
    if not isinstance(doc, dict):
        raise ValidationError(f"service {service!r}: output port must be an object")
    ops_doc = doc.get("interface", {})
    if isinstance(ops_doc, list):
        raise ValidationError(
            f"service {service!r}: output port interface must declare operation kinds")
    ops = {}
    for op_name, body in (ops_doc or {}).items():
        from .deployment import MessageType
        ops[op_name] = OperationDecl(
            name=op_name,
            kind=body.get("kind", "SolicitResponse") if isinstance(body, dict) else body,
            request=MessageType.from_json_obj(body.get("request") if isinstance(body, dict) else None),
            response=(MessageType.from_json_obj(body.get("response"))
                      if isinstance(body, dict) and "response" in body else None),
        )
    return OutputPort(
        name=doc.get("name", "out"),
        location=parse_location(doc.get("location", "")),
        interface=Interface(ops),
        protocol=doc.get("protocol", "frame/1"),
        resource=doc.get("resource", ""),
    )


def _input_port_obj(p: InputPort) -> dict:
    return {"name": p.name, "location": str(p.location), "protocol": p.protocol,
            "interface": sorted(p.interface.operations)}


def _output_port_obj(p: OutputPort) -> dict:
    obj = {"name": p.name, "location": str(p.location), "protocol": p.protocol,
           "interface": p.interface.to_json_obj()}
    if p.resource:
        obj["resource"] = p.resource
    return obj


def serialize_service(svc: ServiceDef) -> str:
    """A service definition as one JSON document: the unit of mobility."""
    return json.dumps(svc.to_json_obj(), separators=(",", ":"), sort_keys=True)


def parse_service(text: str) -> ServiceDef:
    return ServiceDef.from_json_obj(loads_strict(text))


def merge_interfaces(parts: list[Interface]) -> Interface:
    """Union of operation maps; one name with two unequal declarations clashes."""
    merged: dict[str, OperationDecl] = {}
    for part in parts:
        for name, decl in part.operations.items():
            known = merged.get(name)
            if known is None:
                merged[name] = decl
            elif known.to_json_obj() != decl.to_json_obj():
                raise InterfaceClash(f"operation {name!r} declared twice, differently")
    return Interface(merged)


class RunningService:
    def __init__(self, definition: ServiceDef, engine: Engine,
                 listeners: list[InputPortListener],
                 outputs: dict[str, OutputPortRuntime]):
        self.definition = definition
        self.engine = engine
        self.listeners = listeners
        self.outputs = outputs

    def input_location(self) -> Location:
        if not self.listeners:
            raise ValidationError(
                f"service {self.definition.name!r} has no input port to route to")
        return self.listeners[0].bound_location

    def stop(self) -> None:
        for listener in self.listeners:
            listener.close()
        for runtime in self.outputs.values():
            runtime.close()
        self.engine.stop()


class _Relay:
    """Forwards request frames to targets, relaying answers id-correctly.

    Each client keeps its own frame ids; the relay multiplexes onto one
    upstream connection per target with fresh ids and maps the answers
    back.  This is also the seam where a protocol transformation would
    plug in if a second wire protocol existed.
    """

    def __init__(self, connector):
        self._connector = connector
        self._lock = threading.Lock()
        self._connections: dict[str, Connection] = {}

    def forward(self, target: Location, frame: frames.Frame, handle: ReplyHandle,
                resource: str = "") -> None:
        key = str(target)
        try:
            with self._lock:
                conn = self._connections.get(key)
                if conn is None or conn.dead:
                    conn = Connection(self._connector(target))
                    self._connections[key] = conn

            def on_result(result):
                if result.fault is not None:
                    handle.send_fault(frame.id, frame.operation, result.fault)
                else:
                    handle.send_response(frame.id, frame.operation, result.payload)

            conn.send_request(frame.operation, frame.payload, resource, on_result)
        except (OSError, Fault):
            handle.send_fault(frame.id, frame.operation, "IOFault")

    def close(self) -> None:
        with self._lock:
            for conn in self._connections.values():
                conn.close()
            self._connections.clear()


class Container:
    """An application executing one or more services, composable four ways."""

    def __init__(self, *, seed: int = 0, event_sink=None, watchdog_grace: float = 0.5,
                 name: str = "container"):
        self.name = name
        self.seed = seed
        self.registry = LocalRegistry()
        self.services: dict[str, RunningService] = {}
        self.embedded: set[str] = set()
        self.redirects: dict[str, Location] = {}
        self.aggregation: tuple[Interface, dict[str, str]] | None = None
        self.warnings: list[str] = []
        self._event_sink = event_sink
        self._watchdog_grace = watchdog_grace
        self._table_lock = threading.Lock()
        self._gateway_listener = None
        self._relay = _Relay(self.connect)
        self._control_listener = None
        self._stopped = False

    # Wiring ---------------------------------------------------------------

    def connect(self, location: Location):
        if isinstance(location, LocalLocation):
            return self.registry.connect(location.name)
        return connect_socket(location.host, location.port)

    def bind(self, location: Location, on_channel):
        if isinstance(location, LocalLocation):
            registry = self.registry
            registry.bind(location.name, on_channel)

            class _LocalListener:
                port = None

                def close(self) -> None:
                    registry.unbind(location.name)

            return _LocalListener()
        return TcpListener(location.host, location.port, on_channel)

    def _engine_seed(self, service_name: str) -> int:
        return (self.seed * 1_000_003 + zlib.crc32(service_name.encode())) & 0x7FFFFFFF

    def _service_sink(self, service_name: str):
        if self._event_sink is None:
            return None
        sink = self._event_sink

        def wrapped(record: dict) -> None:
            sink({**record, "detail": {**record["detail"], "service": service_name}})

        return wrapped

    # Service lifecycle ------------------------------------------------------

    def start_service(self, definition: ServiceDef, *, embedded: bool = False) -> RunningService:
        if definition.name in self.services:
            raise NameClash(f"service name {definition.name!r} already in use")
        if definition.name.startswith("_"):
            raise ValidationError("service names starting with '_' are reserved")
        if embedded:
            for port in definition.input_ports:
                if not isinstance(port.location, LocalLocation):
                    raise ValidationError(
                        f"embedded service {definition.name!r} binds a socket port {port.location}")
        for port in definition.input_ports:
            if isinstance(port.location, LocalLocation) and port.location.name.startswith("_"):
                raise ValidationError("local locations starting with '_' are reserved")
        outputs = {
            port.name: OutputPortRuntime(port, self.connect)
            for port in definition.output_ports
        }
        engine = Engine(
            behaviour=definition.behaviour,
            interface=definition.interface,
            correlation=definition.correlation,
            mode=definition.mode,
            seed=self._engine_seed(definition.name),
            storage_path=definition.storage,
            outputs=outputs,
            name=definition.name,
            event_sink=self._service_sink(definition.name),
            watchdog_grace=self._watchdog_grace,
        )
        listeners: list[InputPortListener] = []
        try:
            # listeners first: a firing session must not race its own ports
            for port in definition.input_ports:
                listeners.append(InputPortListener(port, engine.submit, self.bind, Message))
            engine.start()
        except Exception:
            for listener in listeners:
                listener.close()
            engine.stop()
            raise
        running = RunningService(definition, engine, listeners, outputs)
        self.services[definition.name] = running
        if embedded:
            self.embedded.add(definition.name)
        return running

    def embed(self, mobile: "ServiceDef | str | dict", as_name: str | None = None) -> str:
        """Run a service definition inside this container, local ports only."""
        if isinstance(mobile, str):
            definition = parse_service(mobile)
        elif isinstance(mobile, dict):
            definition = ServiceDef.from_json_obj(mobile)
        else:
            definition = mobile
        if as_name is not None and as_name != definition.name:
            raise ValidationError(
                f"embed name {as_name!r} does not match the definition's name {definition.name!r}")
        self.start_service(definition, embedded=True)
        return definition.name

    def unembed(self, name: str) -> None:
        """Stop an embedded service and release its local locations."""
        if name not in self.embedded:
            raise UnknownService(f"no embedded service named {name!r}")
        running = self.services.pop(name)
        self.embedded.discard(name)
        running.stop()

    # Gateway tables -----------------------------------------------------------

    def set_redirect(self, resource: str, target: str | Location) -> None:
        location = parse_location(target) if isinstance(target, str) else target
        with self._table_lock:
            self.redirects[resource] = location

    def drop_redirect(self, resource: str) -> None:
        with self._table_lock:
            self.redirects.pop(resource, None)

    def set_aggregation(self, publish: list[str], mapping: dict[str, str]) -> None:
        for op in publish:
            if op not in mapping:
                raise ValidationError(f"aggregation map misses published operation {op!r}")
        parts = []
        for op, service_name in sorted(mapping.items()):
            running = self.services.get(service_name)
            if running is None:
                raise UnknownService(f"aggregation maps {op!r} to unknown service {service_name!r}")
            if op not in running.definition.interface:
                raise ValidationError(
                    f"aggregation maps {op!r} to {service_name!r}, which does not declare it")
            parts.append(Interface({op: running.definition.interface.get(op)}))
        published = merge_interfaces(parts).restrict(publish)
        with self._table_lock:
            self.aggregation = (published, dict(mapping))

    # Gateway serving ---------------------------------------------------------

    def serve_gateway(self, location: str | Location) -> None:
        if self._gateway_listener is not None:
            raise StartupError("gateway already served")
        loc = parse_location(location) if isinstance(location, str) else location
        self._gateway_listener = self.bind(loc, serve_frames(self.dispatch_gateway_frame))
        bound_port = getattr(self._gateway_listener, "port", None)
        if isinstance(loc, SocketLocation) and bound_port is not None:
            loc = SocketLocation(loc.host, bound_port)
        self._gateway_loc: Location | None = loc

    @property
    def gateway_location(self) -> Location | None:
        return getattr(self, "_gateway_loc", None)

    def dispatch_gateway_frame(self, frame: frames.Frame, handle: ReplyHandle) -> None:
        """Route one gateway frame by resource name, else by aggregation."""
        if frame.resource:
            with self._table_lock:
                target = self.redirects.get(frame.resource)
            if target is None:
                handle.send_fault(frame.id, frame.operation, UNKNOWN_RESOURCE)
                return
            self._relay.forward(target, frame, handle)
            return
        with self._table_lock:
            aggregation = self.aggregation
        if aggregation is None:
            handle.send_fault(frame.id, frame.operation, UNKNOWN_RESOURCE)
            return
        published, mapping = aggregation
        if frame.operation not in published:
            handle.send_fault(frame.id, frame.operation, UNKNOWN_OPERATION)
            return
        running = self.services.get(mapping[frame.operation])
        if running is None:
            handle.send_fault(frame.id, frame.operation, UNKNOWN_SERVICE_FAULT)
            return
        self._relay.forward(running.input_location(), frame, handle)

    # Control service ----------------------------------------------------------

    def serve_control(self) -> None:
        if self._control_listener is None:
            self._control_listener = self.bind(LocalLocation(CONTROL_LOCATION),
                                               serve_frames(self._control_request))

    def _control_request(self, frame: frames.Frame, handle: ReplyHandle) -> None:
        payload = frame.payload
        try:
            if frame.operation == "embed":
                document = payload.lookup("service")
                if not isinstance(document, str):
                    raise ValidationError("embed needs a 'service' field holding a definition")
                name = self.embed(document)
                handle.send_response(frame.id, frame.operation, State({"ok": True, "name": name}))
            elif frame.operation == "unembed":
                name = payload.lookup("name")
                if not isinstance(name, str):
                    raise ValidationError("unembed needs a 'name' field")
                self.unembed(name)
                handle.send_response(frame.id, frame.operation, State({"ok": True}))
            elif frame.operation == "setRedirect":
                resource, target = payload.lookup("resource"), payload.lookup("target")
                if not isinstance(resource, str) or not isinstance(target, str):
                    raise ValidationError("setRedirect needs 'resource' and 'target' fields")
                self.set_redirect(resource, target)
                handle.send_response(frame.id, frame.operation, State({"ok": True}))
            else:
                handle.send_fault(frame.id, frame.operation, UNKNOWN_OPERATION)
        except NameClash:
            handle.send_fault(frame.id, frame.operation, NAME_CLASH_FAULT)
        except UnknownService:
            handle.send_fault(frame.id, frame.operation, UNKNOWN_SERVICE_FAULT)
        except (ValidationError, StartupError, Fault):
            handle.send_fault(frame.id, frame.operation, "ValidationError")

    # Lifecycle ------------------------------------------------------------------

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for listener in (self._gateway_listener, self._control_listener):
            if listener is not None:
                listener.close()
        self._relay.close()
        for running in list(self.services.values()):
            running.stop()

    def wait_quiescent(self, timeout: float = 10.0) -> bool:
        import time as _time
        deadline = _time.monotonic() + timeout
        for running in self.services.values():
            remaining = max(0.0, deadline - _time.monotonic())
            if not running.engine.wait_all_finished(remaining):
                return False
        return True

    def has_socket_listeners(self) -> bool:
        for running in self.services.values():
            for listener in running.listeners:
                if isinstance(listener.port.location, SocketLocation):
                    return True
        return isinstance(self.gateway_location, SocketLocation)


def load_container(config, *, seed: int = 0, event_sink=None,
                   watchdog_grace: float = 0.5, name: str = "container") -> Container:
    """Build and start a container from its configuration document."""
    if isinstance(config, str):
        config = loads_strict(config)
    if not isinstance(config, dict):
        raise ValidationError("container configuration must be an object")
    unknown = set(config) - {"name", "services", "embed", "gateway", "redirects", "aggregate"}
    if unknown:
        raise ValidationError(f"unknown container configuration keys {sorted(unknown)}")
    container = Container(seed=seed, event_sink=event_sink, watchdog_grace=watchdog_grace,
                          name=config.get("name", name))
    try:
        definitions = [ServiceDef.from_json_obj(d) for d in config.get("services", [])]
        embed_names = config.get("embed", [])
        if not isinstance(embed_names, list):
            raise ValidationError("embed must be a list of service names")
        known = {d.name for d in definitions}
        for embed_name in embed_names:
            if embed_name not in known:
                raise ValidationError(f"embed lists unknown service {embed_name!r}")
        redirects = config.get("redirects", {})
        if not isinstance(redirects, dict):
            raise ValidationError("redirects must be an object")
        aggregate = config.get("aggregate")
        if (redirects or aggregate) and "gateway" not in config:
            raise ValidationError("redirects/aggregate need a gateway location")
        container.serve_control()
        for definition in definitions:
            container.start_service(definition, embedded=definition.name in embed_names)
        for resource, target in redirects.items():
            container.set_redirect(resource, target)
        if aggregate is not None:
            if not isinstance(aggregate, dict):
                raise ValidationError("aggregate must be an object")
            container.set_aggregation(aggregate.get("publish", []),
                                      aggregate.get("map", {}))
        if "gateway" in config:
            container.serve_gateway(config["gateway"])
        if not any(d.behaviour.firing for d in definitions):
            container.warnings.append(NO_FIRING_WARNING)
    except Exception:
        container.stop()
        raise
    return container
