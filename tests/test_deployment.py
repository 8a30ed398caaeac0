"""Ports and the wire: serving, invoking, multiplexing, fault answers."""

import threading
import time

import pytest

from orchestra import frames
from orchestra.behaviour import parse_behaviour
from orchestra.correlation import CorrelationConfig, CorrelationFunction, Message
from orchestra.deployment import (
    Interface, InputPort, InputPortListener, LocalLocation, MessageType,
    OperationDecl, OutputPort, OutputPortRuntime, SocketLocation, parse_location,
)
from orchestra.engine import Engine
from orchestra.errors import Fault, ValidationError
from orchestra.state import EMPTY, State
from orchestra.transport import LocalRegistry, TcpListener, connect_socket


ECHO_IFACE = Interface({
    "echo": OperationDecl("echo", "RequestResponse",
                          MessageType((("v", "int"),)), MessageType()),
    "drop": OperationDecl("drop", "OneWay", MessageType()),
    "boom": OperationDecl("boom", "RequestResponse", MessageType(), MessageType()),
})

ECHO_DOC = {"root": {"seq": [
    {"receive": {"op": "echo", "into": "m"}},
    {"reply": {"op": "echo", "from": {"v": "m_v", "plus": "m_v + 1"}}},
]}, "firing": False, "initiators": ["echo", "drop", "boom"]}


def out_iface(**kinds):
    return Interface({name: OperationDecl(name, kind,
                                          MessageType(), MessageType() if kind == "SolicitResponse" else None)
                      for name, kind in kinds.items()})


@pytest.fixture
def rig():
    """A served echo engine on a local location plus client plumbing."""
    registry = LocalRegistry()
    engines, listeners, ports = [], [], []

    def serve(doc, interface, location_name, correlation=None, **engine_kw):
        engine = Engine(behaviour=parse_behaviour(doc), interface=interface,
                        correlation=correlation, **engine_kw).start()
        engines.append(engine)
        port = InputPort(name="in", location=LocalLocation(location_name),
                         interface=interface.restrict(
                             [n for n, d in interface.operations.items()
                              if d.kind in ("OneWay", "RequestResponse")]))

        def binder(location, on_channel):
            registry.bind(location.name, on_channel)

            class _L:
                def close(self_inner):
                    registry.unbind(location.name)
            return _L()

        listeners.append(InputPortListener(port, engine.submit, binder, Message))
        return engine

    def client(location_name, **kinds):
        port = OutputPort(name="out", location=LocalLocation(location_name),
                          interface=out_iface(**kinds))
        runtime = OutputPortRuntime(port, lambda loc: registry.connect(loc.name))
        ports.append(runtime)
        return runtime

    yield serve, client, registry
    for p in ports:
        p.close()
    for listener in listeners:
        listener.close()
    for e in engines:
        e.stop()


def test_request_response_round_trip(rig):
    serve, client, _ = rig
    serve(ECHO_DOC, ECHO_IFACE, "echo")
    out = client("echo", echo="SolicitResponse")
    got = out.solicit("echo", State({"v": 41}))
    assert got == State({"v": 41, "plus": 42})


def test_echo_payload_equals_request_payload(rig):
    serve, client, _ = rig
    doc = {"root": {"seq": [{"receive": {"op": "echo", "into": "m"}},
                            {"reply": {"op": "echo", "from": {"v": "m_v"}}}]},
           "firing": False, "initiators": ["echo"]}
    serve(doc, ECHO_IFACE, "mirror")
    out = client("mirror", echo="SolicitResponse")
    payload = State({"v": 7})
    assert out.solicit("echo", payload) == payload


def test_one_way_no_response_frame(rig):
    serve, client, registry = rig
    doc = {"root": {"receive": {"op": "drop", "into": ""}},
           "firing": False, "initiators": ["drop"]}
    engine = serve(doc, ECHO_IFACE, "sink")
    channel = registry.connect("sink")
    channel.send(frames.encode_frame(frames.request_frame("1", "drop")))
    engine.wait_all_finished(2.0)
    # a second request proves the connection is alive and nothing was answered
    channel.send(frames.encode_frame(frames.request_frame("2", "drop")))
    time.sleep(0.1)
    assert channel.bytes_in == 0


def test_remote_fault_reraised_locally(rig):
    serve, client, _ = rig
    doc = {"root": {"seq": [{"receive": {"op": "boom", "into": ""}},
                            {"throw": "Kaput"}]},
           "firing": False, "initiators": ["boom"]}
    serve(doc, ECHO_IFACE, "bomb")
    out = client("bomb", boom="SolicitResponse")
    with pytest.raises(Fault) as err:
        out.solicit("boom", EMPTY)
    assert err.value.name == "Kaput"


def test_type_violation_rejected_before_engine(rig):
    serve, client, registry = rig
    engine = serve(ECHO_DOC, ECHO_IFACE, "typed")
    channel = registry.connect("typed")
    bad = frames.request_frame("7", "echo", State({"v": "not an int"}))
    channel.send(frames.encode_frame(bad))
    answer = frames.decode_frame(channel.recv_line())
    assert answer.type == "fault"
    assert answer.fault == "TypeFault"
    assert answer.id == "7"
    assert engine.session_ids() == []  # nothing reached the engine


def test_client_side_type_check_before_io(rig):
    serve, client, _ = rig
    port = OutputPort(name="out", location=LocalLocation("nowhere"),
                      interface=Interface({
                          "tell": OperationDecl("tell", "Notification",
                                                MessageType((("n", "int"),)))}))
    runtime = OutputPortRuntime(port, lambda loc: (_ for _ in ()).throw(OSError("no")))
    with pytest.raises(Fault) as err:
        runtime.notify("tell", State({"n": "oops"}))
    assert err.value.name == "TypeFault"  # raised before any connect attempt


def test_unreachable_target_is_io_fault(rig):
    serve, client, _ = rig
    out = client("missing-location", echo="SolicitResponse")
    with pytest.raises(Fault) as err:
        out.solicit("echo", State({"v": 1}))
    assert err.value.name == "IOFault"


def test_malformed_line_answers_protocol_fault_and_connection_survives(rig):
    serve, client, registry = rig
    serve(ECHO_DOC, ECHO_IFACE, "robust")
    channel = registry.connect("robust")
    channel.send(b'{"id":"55","type":"nonsense"}\n')
    answer = frames.decode_frame(channel.recv_line())
    assert answer.type == "fault" and answer.fault == "ProtocolFault"
    assert answer.id == "55"
    channel.send(frames.encode_frame(frames.request_frame("56", "echo", State({"v": 1}))))
    answer = frames.decode_frame(channel.recv_line())
    assert answer.type == "response"
    assert answer.id == "56"


def test_unknown_operation_fault(rig):
    serve, client, registry = rig
    serve(ECHO_DOC, ECHO_IFACE, "strict")
    channel = registry.connect("strict")
    channel.send(frames.encode_frame(frames.request_frame("9", "nosuch")))
    answer = frames.decode_frame(channel.recv_line())
    assert answer.fault == "UnknownOperation"


def test_rejected_request_response_answers_fault(rig):
    serve, client, registry = rig
    doc = {"root": {"seq": [{"receive": {"op": "echo", "into": "m"}},
                            {"reply": {"op": "echo", "from": {}}}]},
           "firing": False, "initiators": []}
    # no initiators wanted: craft behaviour firing so validation passes, and
    # submit a message that matches no session and cannot create one
    doc["firing"] = True
    serve(doc, ECHO_IFACE, "closed",
          correlation=CorrelationConfig({"echo": CorrelationFunction({"v": "bound"})}))
    channel = registry.connect("closed")
    # the firing session matches v->bound (unbound), so bind it away first
    channel.send(frames.encode_frame(frames.request_frame("1", "echo", State({"v": 1}))))
    first = frames.decode_frame(channel.recv_line())
    assert first.type == "response"
    channel.send(frames.encode_frame(frames.request_frame("2", "echo", State({"v": 2}))))
    answer = frames.decode_frame(channel.recv_line())
    assert answer.type == "fault"
    assert answer.fault == "CorrelationError"
    assert answer.id == "2"


def test_out_of_order_responses_matched_by_id(rig):
    serve, client, _ = rig
    # correlate on the distinct v field so each concurrent call gets its own
    # session; without that, later calls would vacuously match the first
    # still-live session and starve
    serve(ECHO_DOC, ECHO_IFACE, "pair",
          correlation=CorrelationConfig({"echo": CorrelationFunction({"v": "rid"})}))
    out = client("pair", echo="SolicitResponse")
    results = {}

    def call(v):
        results[v] = out.solicit("echo", State({"v": v}))

    threads = [threading.Thread(target=call, args=(v,)) for v in (1, 2, 3, 4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for v in (1, 2, 3, 4):
        assert results[v] == State({"v": v, "plus": v + 1})


def test_solicits_share_one_connection(rig):
    serve, client, registry = rig
    serve(ECHO_DOC, ECHO_IFACE, "shared")
    out = client("shared", echo="SolicitResponse")
    for v in range(5):
        out.solicit("echo", State({"v": v}))
    conn_first = out._conn
    assert conn_first is not None
    out.solicit("echo", State({"v": 9}))
    assert out._conn is conn_first


def test_over_real_sockets():
    interface = ECHO_IFACE
    engine = Engine(behaviour=parse_behaviour(ECHO_DOC), interface=interface).start()
    port = InputPort(name="in", location=SocketLocation("127.0.0.1", 0),
                     interface=interface.restrict(["echo", "drop", "boom"]))
    listener = InputPortListener(
        port, engine.submit,
        lambda loc, cb: TcpListener(loc.host, loc.port, cb), Message)
    bound = listener.bound_location
    out_port = OutputPort(name="out", location=bound, interface=out_iface(echo="SolicitResponse"))
    runtime = OutputPortRuntime(out_port, lambda loc: connect_socket(loc.host, loc.port))
    try:
        assert runtime.solicit("echo", State({"v": 10})) == State({"v": 10, "plus": 11})
    finally:
        runtime.close()
        listener.close()
        engine.stop()


def test_notify_writes_exactly_one_frame(rig):
    serve, client, registry = rig
    port = OutputPort(name="out", location=LocalLocation("onewire"),
                      interface=Interface({
                          "tell": OperationDecl("tell", "Notification",
                                                MessageType((("n", "int"),)))}))
    got: list[bytes] = []

    def acceptor(channel):
        def pump():
            while True:
                line = channel.recv_line()
                if line is None:
                    return
                got.append(line)
        threading.Thread(target=pump, daemon=True).start()

    registry.bind("onewire", acceptor)
    runtime = OutputPortRuntime(port, lambda loc: registry.connect(loc.name))
    runtime.notify("tell", State({"n": 1}))
    time.sleep(0.1)
    assert len(got) == 1
    assert frames.decode_frame(got[0]).operation == "tell"
    runtime.close()


def test_finished_session_receives_no_more_messages(rig):
    serve, client, _ = rig
    doc = {"root": {"receive": {"op": "drop", "into": ""}},
           "firing": False, "initiators": ["drop"]}
    engine = serve(doc, ECHO_IFACE, "short",
                   correlation=CorrelationConfig(
                       {"drop": CorrelationFunction({"v": "tok"})}))
    first = engine.submit(Message("drop", State({"v": 1})))
    assert first.kind == "created"
    engine.wait_all_finished(2.0)
    again = engine.submit(Message("drop", State({"v": 1})))
    assert again.kind == "created"
    assert again.session_id != first.session_id


def test_parse_location():
    assert parse_location("socket://h:9") == SocketLocation("h", 9)
    assert parse_location("local://x") == LocalLocation("x")
    with pytest.raises(ValidationError):
        parse_location("socket://nohost")
    with pytest.raises(ValidationError):
        parse_location("ftp://x")


def test_port_kind_discipline():
    with pytest.raises(ValidationError):
        InputPort(name="in", location=LocalLocation("x"),
                  interface=out_iface(tell="Notification"))
    with pytest.raises(ValidationError):
        OutputPort(name="out", location=LocalLocation("x"),
                   interface=ECHO_IFACE.restrict(["echo"]))
