"""Containers and the ways services compose inside and across them.

A container runs one or more services.  Composition comes in four shapes:

* simple: containers on the network calling each other's socket ports;
* embedding: services co-located in one container, talking over local
  channels that never touch a socket;
* redirecting: a gateway endpoint forwarding frames addressed by resource
  name to member services, relaying answers back id-correctly;
* aggregation: the gateway publishes one merged interface and routes by
  operation name to the first input port of a member that exposes the
  operation, hiding the members entirely.

The gateway relays over one upstream connection per target, reused and
reopened by ``deployment.reconnect`` like an output port's.  Stopping a
service closes the channels its input ports accepted, so the gateway and
output ports reach a service re-embedded at the same location on their
next call.

Threads: a container runs one thread, its ``transport.Loop``.  The loop
accepts on every socket listener, reads every channel the container
serves (input ports, the gateway, the control port) and every upstream
connection (the gateway's and the output ports'), decodes, routes, and
between polls steps every engine through ``Engine.run_ready``.  A reply
leaves in the step that makes it, by a send that does not block.  No
thread is started per service, listener, channel or connection.  Calls
from other threads (``start_service``, ``embed``, ``stop``, ...) take the
loop's lock, so they never run beside a loop round; the control port's
embed and unembed run on the loop itself and wait for nothing.

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

from . import frames
from .behaviour import (
    BehaviourDef, check_list, check_name, check_names, check_object, parse_behaviour,
)
from .correlation import CorrelationConfig
from .deployment import (
    Connection, FrameEndpoint, INPUT_KINDS, Interface, InputPort, InputPortListener,
    LocalLocation, Location, OperationDecl, OutputPort, OutputPortRuntime,
    PROTOCOL_ID, ReplyHandle, SocketLocation, bound_location, parse_location, reconnect,
)
from .engine import CONCURRENT, Engine, SEQUENTIAL
from .errors import (
    Fault, InterfaceClash, NAME_CLASH_FAULT, NameClash, OrchestraError, StartupError,
    UNKNOWN_OPERATION, UNKNOWN_RESOURCE, UNKNOWN_SERVICE_FAULT, UnknownService,
    ValidationError,
)
from .state import State
from .transport import LocalRegistry, Loop, TcpListener, connect_socket

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
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValidationError(f"bad JSON: {e}") from e


@dataclass
class ServiceDef:
    """Everything one service is: interface, behaviour, engine, ports.

    ``doc`` is the document the definition was parsed from, kept as given:
    it is what ``serialize_service`` ships and what equality compares.
    """

    name: str
    interface: Interface
    behaviour: BehaviourDef
    correlation: CorrelationConfig
    mode: str
    storage: str | None
    input_ports: tuple[InputPort, ...]
    output_ports: tuple[OutputPort, ...]
    doc: dict

    @classmethod
    def from_json_obj(cls, doc) -> "ServiceDef":
        where = f"service {doc.get('name')!r}" if isinstance(doc, dict) else "service"
        check_object(doc, where, frozenset({"name"}), _SERVICE_KEYS)
        name = check_name(doc["name"], f"{where}: name")
        interface = Interface.from_json_obj(doc.get("interface"))
        engine_doc = check_object(doc.get("engine", {}), f"{where}: engine",
                                  optional=_ENGINE_KEYS)
        mode = engine_doc.get("mode", CONCURRENT)
        if mode not in (SEQUENTIAL, CONCURRENT):
            raise ValidationError(f"{where}: unknown mode {mode!r}")
        storage = (check_name(engine_doc["storage"], f"{where}: engine.storage")
                   if "storage" in engine_doc else None)
        behaviour = parse_behaviour({"root": doc.get("behaviour", "nil"),
                                     "firing": engine_doc.get("firing", False),
                                     "initiators": engine_doc.get("initiators", [])})
        correlation = CorrelationConfig.from_json_obj(doc.get("correlation"))
        input_ports = tuple(
            _parse_input_port(p, interface, name)
            for p in check_list(doc.get("inputPorts", []), f"{where}: inputPorts")
        )
        output_ports = tuple(
            _parse_output_port(p, name)
            for p in check_list(doc.get("outputPorts", []), f"{where}: outputPorts")
        )
        svc = cls(name, interface, behaviour, correlation, mode, storage,
                  input_ports, output_ports, doc)
        svc.validate()
        return svc

    def validate(self) -> None:
        for op in sorted(self.behaviour.initiators):
            if self.interface.kind_of(op) not in INPUT_KINDS:
                raise ValidationError(
                    f"service {self.name!r}: initiator {op!r} is not a declared input operation")
        uses = self.behaviour.uses
        for op in sorted(uses.receives | uses.replies):
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
        for port_name, op in sorted(uses.output_ports):
            port = by_name.get(port_name)
            if port is None:
                raise ValidationError(
                    f"service {self.name!r}: behaviour uses unknown output port {port_name!r}")
            if op not in port.interface:
                raise ValidationError(
                    f"service {self.name!r}: operation {op!r} not bound on port {port_name!r}")

    def __eq__(self, other) -> bool:
        return isinstance(other, ServiceDef) and self.doc == other.doc


_SERVICE_KEYS = frozenset(
    {"name", "interface", "behaviour", "engine", "correlation", "inputPorts", "outputPorts"})
_ENGINE_KEYS = frozenset({"mode", "firing", "initiators", "storage"})
_INPUT_PORT_KEYS = frozenset({"name", "location", "interface", "protocol"})
_OUTPUT_PORT_KEYS = _INPUT_PORT_KEYS | {"resource"}
_CONTAINER_KEYS = frozenset({"name", "services", "embed", "gateway", "redirects", "aggregate"})
_AGGREGATE_KEYS = frozenset({"publish", "map"})


def _parse_input_port(doc, interface: Interface, service: str) -> InputPort:
    where = f"service {service!r}: input port"
    check_object(doc, where, optional=_INPUT_PORT_KEYS)
    return InputPort(
        name=check_name(doc.get("name", "in"), f"{where} name"),
        location=parse_location(doc.get("location", "")),
        interface=interface.restrict(check_names(doc.get("interface", []), f"{where} interface")),
        protocol=doc.get("protocol", PROTOCOL_ID),
    )


def _parse_output_port(doc, service: str) -> OutputPort:
    where = f"service {service!r}: output port"
    check_object(doc, where, optional=_OUTPUT_PORT_KEYS)
    resource = doc.get("resource", "")
    if resource != "":
        check_name(resource, f"{where} resource")
    return OutputPort(
        name=check_name(doc.get("name", "out"), f"{where} name"),
        location=parse_location(doc.get("location", "")),
        interface=Interface.from_json_obj(doc.get("interface")),
        protocol=doc.get("protocol", PROTOCOL_ID),
        resource=resource,
    )


def serialize_service(svc: ServiceDef) -> str:
    """A service definition as one JSON document, the document it was
    parsed from: the unit of mobility."""
    return json.dumps(svc.doc, separators=(",", ":"), sort_keys=True)


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
            elif known != decl:
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

    def location_of(self, op: str) -> Location | None:
        """Where the first input port exposing ``op`` answers, if one does."""
        for listener in self.listeners:
            if op in listener.port.interface:
                return listener.bound_location
        return None

    def stop(self) -> None:
        """Engine first, so the faults owed to callers still reach them and
        termination handlers still have their output ports; then the input
        ports with the channels they serve; then the output ports."""
        self.engine.stop()
        for listener in self.listeners:
            listener.close()
        for runtime in self.outputs.values():
            runtime.close()


class Container:
    """An application executing one or more services, composable four ways."""

    def __init__(self, *, seed: int = 0, event_sink=None, name: str = "container"):
        self.name = name
        self.seed = seed
        self.registry = LocalRegistry()
        self.services: dict[str, RunningService] = {}
        self.embedded: set[str] = set()
        self.redirects: dict[str, Location] = {}
        self.aggregation: tuple[Interface, dict[str, str]] | None = None
        self.warnings: list[str] = []
        self._event_sink = event_sink
        self._table_lock = threading.Lock()
        self.loop = Loop(name=f"container-{name}")
        self._gateway: FrameEndpoint | None = None
        self._gateway_loc: Location | None = None
        # one upstream connection per gateway target, under the loop's lock
        self._upstream: dict[Location, Connection] = {}
        self._control: FrameEndpoint | None = None
        self._stopped = False

    # Wiring ---------------------------------------------------------------

    def connect(self, location: Location):
        if isinstance(location, LocalLocation):
            return self.registry.connect(location.name)
        return connect_socket(location.host, location.port)

    def bind(self, location: Location, on_channel):
        if isinstance(location, LocalLocation):
            return self.registry.bind(location.name, on_channel)
        return TcpListener(location.host, location.port, on_channel, self.loop)

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
        with self.loop.lock:
            return self._start_service(definition, embedded)

    def _start_service(self, definition: ServiceDef, embedded: bool) -> RunningService:
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
            port.name: OutputPortRuntime(port, self.connect, self.loop)
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
            loop=self.loop,
        )
        listeners: list[InputPortListener] = []
        try:
            # listeners first: a firing session must not race its own ports
            for port in definition.input_ports:
                listeners.append(InputPortListener(port, engine.submit, self.bind, self.loop))
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

    def embed(self, mobile: "ServiceDef | str | dict") -> str:
        """Run a service definition inside this container, local ports only."""
        if isinstance(mobile, str):
            definition = parse_service(mobile)
        elif isinstance(mobile, dict):
            definition = ServiceDef.from_json_obj(mobile)
        else:
            definition = mobile
        self.start_service(definition, embedded=True)
        return definition.name

    def unembed(self, name: str) -> None:
        """Stop an embedded service and release its local locations."""
        with self.loop.lock:
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

    def set_aggregation(self, publish: list[str], mapping: dict[str, str]) -> None:
        for op in publish:
            if op not in mapping:
                raise ValidationError(f"aggregation map misses published operation {op!r}")
        parts = []
        for op, service_name in sorted(mapping.items()):
            running = self.services.get(service_name)
            if running is None:
                raise UnknownService(f"aggregation maps {op!r} to unknown service {service_name!r}")
            if running.location_of(op) is None:
                raise ValidationError(
                    f"aggregation maps {op!r} to {service_name!r}, whose input ports lack it")
            parts.append(Interface({op: running.definition.interface.get(op)}))
        published = merge_interfaces(parts).restrict(publish)
        with self._table_lock:
            self.aggregation = (published, dict(mapping))

    # Gateway serving ---------------------------------------------------------

    def serve_gateway(self, location: str | Location) -> None:
        if self._gateway is not None:
            raise StartupError("gateway already served")
        loc = parse_location(location) if isinstance(location, str) else location
        self._gateway = FrameEndpoint(loc, self.bind, self.dispatch_gateway_frame, self.loop)
        self._gateway_loc = bound_location(loc, self._gateway.listener)

    @property
    def gateway_location(self) -> Location | None:
        return self._gateway_loc

    def dispatch_gateway_frame(self, frame: frames.Frame, handle: ReplyHandle) -> None:
        """Route one gateway frame by resource name, else by aggregation."""
        if frame.resource:
            with self._table_lock:
                target = self.redirects.get(frame.resource)
            if target is None:
                handle.send_fault(frame.id, frame.operation, UNKNOWN_RESOURCE)
                return
            self._forward(target, frame, handle)
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
        target = running.location_of(frame.operation)
        if target is None:
            handle.send_fault(frame.id, frame.operation, UNKNOWN_OPERATION)
            return
        self._forward(target, frame, handle)

    def _forward(self, target: Location, frame: frames.Frame, handle: ReplyHandle) -> None:
        """Relay a request upstream under a fresh id; its answer goes back
        under the client's id."""

        def on_result(result) -> None:
            if result.fault is not None:
                handle.send_fault(frame.id, frame.operation, result.fault)
            else:
                handle.send_response(frame.id, frame.operation, result.payload)

        try:
            with self.loop.lock:
                conn = self._upstream[target] = reconnect(
                    self._upstream.get(target), self.connect, target, self.loop)
            conn.send_request(frame.operation, frame.payload, "", on_result)
        except Fault as f:
            handle.send_fault(frame.id, frame.operation, f.name)

    # Control service ----------------------------------------------------------

    def serve_control(self) -> None:
        if self._control is None:
            self._control = FrameEndpoint(LocalLocation(CONTROL_LOCATION), self.bind,
                                          self._control_request, self.loop)

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
        except OrchestraError:
            handle.send_fault(frame.id, frame.operation, "ValidationError")

    # Lifecycle ------------------------------------------------------------------

    def stop(self) -> None:
        """Close the gateway and control ports, the upstream connections and
        every service, then end the loop's thread."""
        with self.loop.lock:
            if self._stopped:
                return
            self._stopped = True
            for endpoint in (self._gateway, self._control):
                if endpoint is not None:
                    endpoint.close()
            for conn in self._upstream.values():
                conn.close()
            self._upstream.clear()
            for running in list(self.services.values()):
                running.stop()
        self.loop.close()

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
                   name: str = "container") -> Container:
    """Build and start a container from its configuration document."""
    if isinstance(config, str):
        config = loads_strict(config)
    check_object(config, "container configuration", optional=_CONTAINER_KEYS)
    container = Container(seed=seed, event_sink=event_sink, name=config.get("name", name))
    try:
        definitions = [ServiceDef.from_json_obj(d)
                       for d in check_list(config.get("services", []), "services")]
        embed_names = check_names(config.get("embed", []), "embed")
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
            check_object(aggregate, "aggregate", optional=_AGGREGATE_KEYS)
            mapping = aggregate.get("map", {})
            if not isinstance(mapping, dict):
                raise ValidationError("aggregate.map must be an object")
            container.set_aggregation(check_names(aggregate.get("publish", []), "aggregate.publish"),
                                      {op: check_name(target, f"aggregate.map.{op}")
                                       for op, target in mapping.items()})
        if "gateway" in config:
            container.serve_gateway(parse_location(config["gateway"]))
        if not any(d.behaviour.firing for d in definitions):
            container.warnings.append(NO_FIRING_WARNING)
    except Exception:
        container.stop()
        raise
    return container
