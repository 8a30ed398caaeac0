"""Ports and the wire: serving, invoking, multiplexing, fault answers."""

import socket
import sys
import threading
import time

import pytest

from orchestra import frames
from orchestra.behaviour import parse_behaviour
from orchestra.correlation import CorrelationConfig, CorrelationFunction, Message
from orchestra.deployment import (
    Connection, FrameEndpoint, Interface, InputPort, InputPortListener, LocalLocation,
    MessageType,
    OperationDecl, OutputPort, OutputPortRuntime, SocketLocation, parse_location,
    sync_request,
)
from orchestra.engine import Engine
from orchestra.errors import Fault, ValidationError
from orchestra.state import EMPTY, State
from orchestra.transport import (
    LocalRegistry, Loop, SocketChannel, TcpListener, connect_socket, memory_pair,
)


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
def loop():
    """A loop to serve endpoints on, closed after the test."""
    serving = Loop()
    yield serving
    serving.close()


@pytest.fixture
def rig(loop):
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
        listeners.append(InputPortListener(
            port, engine.submit, lambda loc, on_channel: registry.bind(loc.name, on_channel), loop))
        return engine

    def client(location_name, **kinds):
        port = OutputPort(name="out", location=LocalLocation(location_name),
                          interface=out_iface(**kinds))
        runtime = OutputPortRuntime(port, lambda loc: registry.connect(loc.name), loop)
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


def test_client_side_type_check_before_io(rig, loop):
    serve, client, _ = rig
    port = OutputPort(name="out", location=LocalLocation("nowhere"),
                      interface=Interface({
                          "tell": OperationDecl("tell", "Notification",
                                                MessageType((("n", "int"),)))}))
    runtime = OutputPortRuntime(port, lambda loc: (_ for _ in ()).throw(OSError("no")), loop)
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


def test_over_real_sockets(loop):
    interface = ECHO_IFACE
    engine = Engine(behaviour=parse_behaviour(ECHO_DOC), interface=interface).start()
    port = InputPort(name="in", location=SocketLocation("127.0.0.1", 0),
                     interface=interface.restrict(["echo", "drop", "boom"]))
    listener = InputPortListener(
        port, engine.submit,
        lambda loc, cb: TcpListener(loc.host, loc.port, cb, loop), loop)
    bound = listener.bound_location
    out_port = OutputPort(name="out", location=bound, interface=out_iface(echo="SolicitResponse"))
    runtime = OutputPortRuntime(out_port, lambda loc: connect_socket(loc.host, loc.port), loop)
    try:
        assert runtime.solicit("echo", State({"v": 10})) == State({"v": 10, "plus": 11})
    finally:
        runtime.close()
        listener.close()
        engine.stop()


def test_a_line_nested_too_deeply_is_answered_and_the_connection_survives(loop):
    engine = Engine(behaviour=parse_behaviour(ECHO_DOC), interface=ECHO_IFACE).start()
    port = InputPort(name="in", location=SocketLocation("127.0.0.1", 0),
                     interface=ECHO_IFACE.restrict(["echo", "drop", "boom"]))
    listener = InputPortListener(port, engine.submit,
                                 lambda loc, cb: TcpListener(loc.host, loc.port, cb, loop), loop)
    bound = listener.bound_location
    channel = connect_socket(bound.host, bound.port)
    try:
        channel.send(b"[" * 100_000 + b"\n")
        answer = _read_answer(channel)
        assert (answer.id, answer.type, answer.fault) == ("", "fault", "ProtocolFault")
        channel.send(frames.encode_frame(frames.request_frame("2", "echo", State({"v": 4}))))
        answer = _read_answer(channel)
        assert (answer.id, answer.type, answer.payload) == ("2", "response",
                                                            State({"v": 4, "plus": 5}))
    finally:
        channel.close()
        listener.close()
        engine.stop()


def test_notify_writes_exactly_one_frame(rig, loop):
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
    runtime = OutputPortRuntime(port, lambda loc: registry.connect(loc.name), loop)
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


def _answer(channel, request, payload) -> None:
    channel.send(frames.encode_frame(frames.response_frame(request.id, request.operation, payload)))


def test_a_lone_blocking_caller_reads_its_own_answers():
    client_end, server_end = memory_pair("lone")

    def serve():
        for line in iter(server_end.recv_line, None):
            request = frames.decode_frame(line)
            _answer(server_end, request, request.payload)

    server = threading.Thread(target=serve)
    server.start()
    conn = Connection(client_end)
    try:
        for v in range(20):
            assert sync_request(conn, "echo", State({"v": v}), timeout=5.0).payload == \
                State({"v": v})
        assert not [t.name for t in threading.enumerate() if t.name.startswith("reader-")]
    finally:
        conn.close()
        server.join(5.0)
        server_end.close()


def test_an_answer_left_when_a_blocking_caller_returns_still_arrives():
    """A call no caller blocks on, sent while one reads, gets a reader
    thread once that caller has its answer and goes."""
    client_end, server_end = memory_pair("leftover")
    blocking_returned = threading.Event()
    results = []

    def serve():
        requests = {}
        for _ in range(2):
            request = frames.decode_frame(server_end.recv_line())
            requests[request.operation] = request
        _answer(server_end, requests["block"], State({"for": "blocking"}))
        blocking_returned.wait(5.0)
        _answer(server_end, requests["back"], State({"for": "callback"}))

    server = threading.Thread(target=serve)
    server.start()
    conn = Connection(client_end)

    def blocking():
        results.append(sync_request(conn, "block", EMPTY, timeout=5.0).payload)
        blocking_returned.set()

    caller = threading.Thread(target=blocking)
    caller.start()
    try:
        deadline = time.monotonic() + 5.0
        while not conn._callers and time.monotonic() < deadline:
            time.sleep(0.001)
        called_back = threading.Event()
        conn.send_request("back", EMPTY, on_result=lambda r: (results.append(r.payload),
                                                              called_back.set()))
        assert called_back.wait(5.0)
        caller.join(5.0)
        assert results == [State({"for": "blocking"}), State({"for": "callback"})]
    finally:
        conn.close()
        server.join(5.0)
        server_end.close()


def _pair(kind):
    if kind == "memory":
        return memory_pair("shared")
    a, b = socket.socketpair()
    return SocketChannel(a, "shared.client"), SocketChannel(b, "shared.server")


@pytest.mark.parametrize("kind", ["memory", "socket"])
def test_many_callers_share_one_connection_without_losing_an_answer(kind):
    """Blocking callers and callbacks on one connection without a loop,
    with thread switches forced often: each gets its own answer."""
    client_end, server_end = _pair(kind)

    def serve():
        for line in iter(server_end.recv_line, None):
            request = frames.decode_frame(line)
            _answer(server_end, request, request.payload)

    server = threading.Thread(target=serve)
    server.start()
    conn = Connection(client_end)
    wrong, called_back = [], []

    def caller(k):
        for i in range(100):
            v = k * 1000 + i
            if i % 10 == 0:
                conn.send_request("echo", State({"v": v}), on_result=lambda r, v=v:
                                  called_back.append(r.payload == State({"v": v})))
            elif sync_request(conn, "echo", State({"v": v}), timeout=10.0).payload != \
                    State({"v": v}):
                wrong.append(v)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(30.0)
        assert not any(t.is_alive() for t in callers)
        deadline = time.monotonic() + 10.0
        while len(called_back) < 60 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert wrong == []
        assert called_back == [True] * 60
    finally:
        sys.setswitchinterval(switch)
        conn.close()
        server.join(5.0)
        server_end.close()


def test_sync_request_timeout_forgets_its_waiter():
    client_end, server_end = memory_pair("silent")  # nobody answers on server_end
    conn = Connection(client_end)
    try:
        with pytest.raises(Fault) as err:
            sync_request(conn, "echo", State({"v": 1}), timeout=0.05)
        assert err.value.name == "IOFault"
        assert conn._waiters == {}
    finally:
        conn.close()
        server_end.close()


@pytest.mark.parametrize("timeout", [-1, -0.5])
def test_sync_request_negative_timeout_faults_at_once(timeout):
    client_end, server_end = memory_pair("silent-negative")
    conn = Connection(client_end)
    try:
        t0 = time.monotonic()
        with pytest.raises(Fault) as err:
            sync_request(conn, "echo", State({"v": 1}), timeout=timeout)
        assert err.value.name == "IOFault"
        assert time.monotonic() - t0 < 1.0
        assert conn._waiters == {}
    finally:
        conn.close()
        server_end.close()


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


# Values a frame cannot carry: every case must get an answer, and the
# service must keep answering after it.

ECHO_ANY_IFACE = Interface({
    "echo": OperationDecl("echo", "RequestResponse", MessageType(), MessageType()),
})
ECHO_ANY_DOC = {"root": {"seq": [
    {"receive": {"op": "echo", "into": "m"}},
    {"reply": {"op": "echo", "from": {"v": "m_v"}}},
]}, "firing": False, "initiators": ["echo"]}
SCALE_IFACE = Interface({
    "scale": OperationDecl("scale", "RequestResponse", MessageType((("x", "double"),)),
                           MessageType()),
})
SCALE_DOC = {"root": {"seq": [
    {"receive": {"op": "scale", "into": "m"}},
    {"reply": {"op": "scale", "from": {"r": "m_x * 10.0"}}},
]}, "firing": False, "initiators": ["scale"]}


def _by_rid(op):
    return CorrelationConfig({op: CorrelationFunction({"rid": "rid"})})


def _read_answer(channel, timeout=5.0):
    got = []
    reader = threading.Thread(target=lambda: got.append(channel.recv_line()), daemon=True)
    reader.start()
    reader.join(timeout)
    assert got and got[0], "the endpoint sent no answer"
    return frames.decode_frame(got[0])


def test_a_lone_surrogate_in_a_payload_is_a_protocol_fault(rig):
    serve, client, registry = rig
    serve(ECHO_ANY_DOC, ECHO_ANY_IFACE, "echoany", correlation=_by_rid("echo"))
    channel = registry.connect("echoany")
    channel.send(b'{"id":"1","type":"request","operation":"echo","resource":"",'
                 b'"payload":{"rid":"r1","v":"\\ud800"}}\n')
    answer = _read_answer(channel)
    channel.close()
    assert (answer.id, answer.type, answer.fault) == ("1", "fault", "ProtocolFault")
    out = client("echoany", echo="SolicitResponse")
    assert out.solicit("echo", State({"rid": "r2", "v": "ok"}), timeout=5.0).lookup("v") == "ok"


def test_a_double_result_that_is_not_finite_faults_the_call(rig):
    serve, client, _ = rig
    serve(SCALE_DOC, SCALE_IFACE, "scale", correlation=_by_rid("scale"))
    out = client("scale", scale="SolicitResponse")
    with pytest.raises(Fault) as err:
        out.solicit("scale", State({"rid": "r1", "x": 1e308}), timeout=5.0)
    assert err.value.name == "TypeFault"
    assert out.solicit("scale", State({"rid": "r2", "x": 1.5}), timeout=5.0).lookup("r") == 15.0


def test_lone_surrogates_in_frame_strings_are_protocol_faults(rig):
    serve, _, registry = rig
    serve(ECHO_ANY_DOC, ECHO_ANY_IFACE, "echostr", correlation=_by_rid("echo"))
    channel = registry.connect("echostr")
    channel.send(b'{"id":"9","type":"request","operation":"\\ud800","resource":"","payload":{}}\n')
    bad_operation = _read_answer(channel)
    channel.send(b'{"id":"\\udfff","type":"request","operation":"echo","resource":"",'
                 b'"payload":1}\n')
    bad_id = _read_answer(channel)
    channel.send(frames.encode_frame(frames.request_frame(
        "10", "echo", State({"rid": "r1", "v": "still here"}))))
    answer = _read_answer(channel)
    channel.close()
    assert (bad_operation.id, bad_operation.fault) == ("9", "ProtocolFault")
    assert (bad_id.id, bad_id.fault) == ("", "ProtocolFault")
    assert (answer.id, answer.type, answer.payload.lookup("v")) == ("10", "response", "still here")


def test_closing_an_endpoint_ends_every_channel_it_accepted(loop):
    registry = LocalRegistry()
    acceptors = []

    def bind(loc, accept):
        acceptors.append(accept)
        return registry.bind(loc.name, accept)

    endpoint = FrameEndpoint(LocalLocation("busy"), bind, lambda frame, handle: None, loop)
    early = registry.connect("busy")
    endpoint.close()
    with pytest.raises(ConnectionRefusedError):
        registry.connect("busy")
    # a connect that found the acceptor just before close hands its channel over after it
    late, late_server = memory_pair("late")
    acceptors[0](late_server)
    ends = []
    reader = threading.Thread(target=lambda: ends.extend(c.recv_line() for c in (early, late)),
                              daemon=True)
    reader.start()
    reader.join(5.0)
    assert ends == [None, None]
