"""Containers: loading, embedding, redirecting, aggregation, mobility."""

import json
import threading
import time

import pytest

from orchestra import frames
from orchestra.composition import (
    Container, ServiceDef, load_container, merge_interfaces, parse_service,
    serialize_service,
)
from orchestra.demos import calculator_def, free_port
from orchestra.deployment import (
    Connection, Interface, LocalLocation, MessageType, OperationDecl, OutputPort,
    OutputPortRuntime, sync_request,
)
from orchestra.errors import (
    Fault, InterfaceClash, NameClash, UnknownService, ValidationError,
)
from orchestra.interpreter import CallResult
from orchestra.state import State
from orchestra.transport import SOCKET_BYTES, connect_socket


def calc_payload(op, a, b, rid):
    return State({"op": op, "a": a, "b": b, "rid": rid})


@pytest.fixture
def containers():
    alive = []

    def load(config, **kw):
        c = load_container(config, **kw)
        alive.append(c)
        return c

    def track(c):
        alive.append(c)
        return c

    yield load, track
    for c in alive:
        c.stop()


def test_simple_composition_over_sockets(containers):
    load, _ = containers
    port = free_port()
    server = load({"services": [calculator_def(f"socket://127.0.0.1:{port}", "calc")]})
    client_def = {
        "name": "probe",
        "interface": {},
        "behaviour": {"seq": [{"solicit": {
            "port": "toCalc", "op": "calc",
            "payload": {"op": "'sum'", "a": "20", "b": "22", "rid": "1"},
            "into": "got"}}]},
        "engine": {"mode": "concurrent", "firing": True, "initiators": []},
        "outputPorts": [{"name": "toCalc", "location": f"socket://127.0.0.1:{port}",
                         "interface": {"calc": {"kind": "SolicitResponse"}}}],
    }
    client = load({"services": [client_def]})
    engine = client.services["probe"].engine
    assert engine.wait_all_finished(5.0)
    _, completion, local = engine.session_view(1)
    assert completion.kind == "success"
    assert local.lookup("got_r") == 42


def test_a_solicit_response_must_conform_to_the_declared_response(containers):
    """The output port declares ``r`` a string; the calculator answers an int."""
    load, _ = containers
    declared = {"calc": {"kind": "SolicitResponse", "response": {"r": "string"}}}
    probe = {
        "name": "probe",
        "interface": {},
        "behaviour": {"scope": {
            "name": "s",
            "body": {"solicit": {"port": "toCalc", "op": "calc",
                                 "payload": {"op": "'sum'", "a": "1", "b": "2", "rid": "1"},
                                 "into": "got"}},
            "faults": {"TypeFault": {"assign": ["caught", "true"]}}}},
        "engine": {"mode": "concurrent", "firing": True, "initiators": []},
        "outputPorts": [{"name": "toCalc", "location": "local://calc", "interface": declared}],
    }
    c = load({"services": [calculator_def("local://calc", "calc"), probe]})
    engine = c.services["probe"].engine
    assert engine.wait_all_finished(5.0)
    _, completion, local = engine.session_view(1)
    assert completion.kind == "success"
    assert local.lookup("caught") is True
    assert "got_r" not in local

    port = OutputPortRuntime(
        OutputPort("toCalc", LocalLocation("calc"), Interface.from_json_obj(declared)),
        c.connect, c.loop)
    try:
        with pytest.raises(Fault) as e:
            port.solicit("calc", calc_payload("sum", 1, 2, "2"), timeout=5.0)
    finally:
        port.close()
    assert e.value.name == "TypeFault"


def test_no_firing_session_warning(containers):
    load, _ = containers
    c = load({"services": [calculator_def("local://calc", "calc")]})
    assert "NoFiringSession" in c.warnings


def test_firing_present_no_warning(containers):
    load, _ = containers
    c = load({"services": [{
        "name": "starter", "interface": {},
        "behaviour": {"assign": ["a", "1"]},
        "engine": {"mode": "concurrent", "firing": True, "initiators": []},
    }]})
    assert c.warnings == []


def test_duplicate_redirect_resource_rejected():
    text = json.dumps({"services": [], "gateway": "local://gw",
                       "redirects": {"A": "local://x"}})
    # splice a duplicate key, which json.dumps alone cannot produce
    broken = text.replace('"A": "local://x"', '"A": "local://x", "A": "local://y"')
    with pytest.raises(ValidationError):
        load_container(broken)


def test_unknown_config_key_rejected():
    with pytest.raises(ValidationError):
        load_container({"services": [], "surprise": 1})


def test_embedded_service_stays_off_the_network(containers):
    load, _ = containers
    c = load({"services": [calculator_def("local://calc", "calc")],
              "embed": ["calc"]})
    before = SOCKET_BYTES.value
    conn = Connection(c.registry.connect("calc"))
    result = sync_request(conn, "calc", calc_payload("sum", 2, 3, "r1"))
    conn.close()
    assert result.payload.lookup("r") == 5
    assert SOCKET_BYTES.value == before


def test_embedded_service_with_socket_port_rejected(containers):
    load, _ = containers
    with pytest.raises(ValidationError):
        load({"services": [calculator_def("socket://127.0.0.1:0", "calc")],
              "embed": ["calc"]})


def test_dynamic_embed_update_cycle(containers):
    _, track = containers
    c = track(Container())
    c.embed(calculator_def("local://calc", "calc"))
    conn = Connection(c.registry.connect("calc"))
    first = sync_request(conn, "calc", calc_payload("sum", 2, 3, "r1"))
    assert first.payload.lookup("r") == 5
    conn.close()

    c.unembed("calc")
    with pytest.raises(Exception):
        c.registry.connect("calc")

    doubled = calculator_def("local://calc", "calc")
    doubled["behaviour"] = {"seq": [
        {"receive": {"op": "calc", "into": "m"}},
        {"reply": {"op": "calc", "from": {"r": "(m_a + m_b) * 2"}}},
    ]}
    c.embed(doubled)
    conn = Connection(c.registry.connect("calc"))
    second = sync_request(conn, "calc", calc_payload("sum", 2, 3, "r2"))
    conn.close()
    assert second.payload.lookup("r") == 10  # the updated definition answers


def test_embed_name_clash(containers):
    _, track = containers
    c = track(Container())
    c.embed(calculator_def("local://calc", "calc"))
    with pytest.raises(NameClash):
        c.embed(calculator_def("local://calc2", "calc"))


def test_the_control_port_answers_every_failed_embed(containers, tmp_path):
    """A failed embed is answered and the connection keeps serving."""
    _, track = containers
    c = track(Container())
    c.serve_control()
    bad_storage = calculator_def("local://a", "a")
    bad_storage["engine"]["storage"] = str(tmp_path)  # a directory, not a store
    bad_expression = calculator_def("local://b", "b")
    bad_expression["behaviour"] = {"assign": ["x", "1 +"]}
    documents = [json.dumps(bad_storage), json.dumps(bad_expression), "[" * 100_000,
                 json.dumps(calculator_def("local://c", "c"))]
    conn = Connection(c.registry.connect("_control"))
    try:
        answers = [sync_request(conn, "embed", State({"service": doc}), timeout=3.0)
                   for doc in documents]
    finally:
        conn.close()
    assert [a.fault for a in answers] == ["ValidationError"] * 3 + [None]
    assert answers[3].payload.lookup("name") == "c"


def test_unembed_unknown_service(containers):
    _, track = containers
    c = track(Container())
    with pytest.raises(UnknownService):
        c.unembed("ghost")


def test_storage_survives_unembed_and_reembed(containers, tmp_path):
    _, track = containers
    store = str(tmp_path / "kept.json")
    c = track(Container())
    definition = calculator_def("local://calc", "calc")
    definition["engine"]["storage"] = store
    c.embed(definition)
    c.services["calc"].engine.storage.put("sticky", 7)
    c.unembed("calc")
    c.embed(definition)
    assert c.services["calc"].engine.storage.get("sticky") == 7


def test_redirect_routes_by_resource(containers):
    _, track = containers
    c = track(Container())
    c.embed(calculator_def("local://calcA", "calcA"))
    doubled = calculator_def("local://calcB", "calcB")
    doubled["behaviour"] = {"seq": [
        {"receive": {"op": "calc", "into": "m"}},
        {"reply": {"op": "calc", "from": {"r": "(m_a + m_b) * 10"}}},
    ]}
    c.embed(doubled)
    c.set_redirect("A", "local://calcA")
    c.set_redirect("B", "local://calcB")
    c.serve_gateway("local://gw")
    conn = Connection(c.registry.connect("gw"))
    to_a = sync_request(conn, "calc", calc_payload("sum", 1, 2, "r1"), resource="A")
    to_b = sync_request(conn, "calc", calc_payload("sum", 1, 2, "r2"), resource="B")
    missing = sync_request(conn, "calc", calc_payload("sum", 1, 2, "r3"), resource="C")
    conn.close()
    assert to_a.payload.lookup("r") == 3
    assert to_b.payload.lookup("r") == 30
    assert missing.fault == "UnknownResource"


def test_redirect_overwrite_moves_new_calls(containers):
    _, track = containers
    c = track(Container())
    c.embed(calculator_def("local://old", "old"))
    spare = calculator_def("local://spare", "spare")
    spare["behaviour"] = {"seq": [
        {"receive": {"op": "calc", "into": "m"}},
        {"reply": {"op": "calc", "from": {"r": "m_a + m_b + 1000"}}},
    ]}
    c.embed(spare)
    c.set_redirect("R", "local://old")
    c.serve_gateway("local://gw2")
    conn = Connection(c.registry.connect("gw2"))
    first = sync_request(conn, "calc", calc_payload("sum", 1, 1, "a"), resource="R")
    c.set_redirect("R", "local://spare")
    second = sync_request(conn, "calc", calc_payload("sum", 1, 1, "b"), resource="R")
    conn.close()
    assert first.payload.lookup("r") == 2
    assert second.payload.lookup("r") == 1002


def test_gateway_relays_a_member_fault_under_the_client_frame_id(containers):
    _, track = containers
    c = track(Container())
    failing = calculator_def("local://failing", "failing")
    failing["behaviour"] = {"seq": [{"receive": {"op": "calc", "into": "m"}},
                                    {"throw": "Boom"}]}
    c.embed(failing)
    c.set_redirect("F", "local://failing")
    c.serve_gateway("local://gw")
    channel = c.registry.connect("gw")
    channel.send(frames.encode_frame(
        frames.request_frame("client-7", "calc", calc_payload("sum", 1, 2, "f"), "F")))
    answer = _read_answer(channel)
    channel.close()
    assert (answer.id, answer.type, answer.operation, answer.fault) == (
        "client-7", "fault", "calc", "Boom")


@pytest.mark.parametrize("target", ["local://nowhere", "socket://127.0.0.1:{port}"])
def test_redirect_to_an_unreachable_target_answers_io_fault(containers, target):
    _, track = containers
    c = track(Container())
    c.set_redirect("gone", target.format(port=free_port()))
    c.serve_gateway("local://gw")
    conn = Connection(c.registry.connect("gw"))
    result = sync_request(conn, "calc", calc_payload("sum", 1, 2, "g"), resource="gone")
    conn.close()
    assert result.fault == "IOFault"


def _op(name, kind="OneWay", **fields):
    return OperationDecl(name, kind, MessageType(tuple(fields.items())))


def test_merge_interfaces_union():
    a = Interface({"op1": _op("op1")})
    b = Interface({"op2": _op("op2"), "op3": _op("op3")})
    merged = merge_interfaces([a, b])
    assert set(merged.operations) == {"op1", "op2", "op3"}


def test_merge_interfaces_identical_collapse():
    a = Interface({"op1": _op("op1", v="int")})
    b = Interface({"op1": _op("op1", v="int")})
    assert set(merge_interfaces([a, b]).operations) == {"op1"}


def test_merge_interfaces_clash():
    a = Interface({"op1": _op("op1")})
    b = Interface({"op1": _op("op1", kind="RequestResponse")})
    with pytest.raises(InterfaceClash):
        merge_interfaces([a, b])


def _echo_def(name, op, location, marker):
    return {
        "name": name,
        "interface": {op: {"kind": "RequestResponse", "request": {"rid": "any"},
                           "response": {"who": "string"}}},
        "behaviour": {"seq": [{"receive": {"op": op, "into": "m"}},
                              {"reply": {"op": op, "from": {"who": f"'{marker}'"}}}]},
        "engine": {"mode": "concurrent", "firing": False, "initiators": [op]},
        "correlation": {op: {"rid": "rid"}},
        "inputPorts": [{"name": "in", "location": location, "interface": [op]}],
    }


def test_aggregation_routes_by_operation(containers):
    load, _ = containers
    c = load({
        "services": [_echo_def("svcA", "op1", "local://svcA", "A"),
                     _echo_def("svcB", "op2", "local://svcB", "B")],
        "embed": ["svcA", "svcB"],
        "gateway": "local://agg",
        "aggregate": {"publish": ["op1", "op2"],
                      "map": {"op1": "svcA", "op2": "svcB"}},
    })
    conn = Connection(c.registry.connect("agg"))
    r1 = sync_request(conn, "op1", State({"rid": "x"}))
    r2 = sync_request(conn, "op2", State({"rid": "y"}))
    r1b = sync_request(conn, "op1", State({"rid": "z"}))
    unknown = sync_request(conn, "op3", State({"rid": "w"}))
    conn.close()
    assert r1.payload.lookup("who") == "A"
    assert r2.payload.lookup("who") == "B"
    assert r1b.payload.lookup("who") == "A"  # the map is a function
    assert unknown.fault == "UnknownOperation"


def test_aggregation_map_must_cover_published(containers):
    load, _ = containers
    with pytest.raises(ValidationError):
        load({
            "services": [_echo_def("svcA", "op1", "local://a1", "A")],
            "gateway": "local://g",
            "aggregate": {"publish": ["op1", "op2"], "map": {"op1": "svcA"}},
        })


def test_mobile_service_roundtrip():
    definition = ServiceDef.from_json_obj(calculator_def())
    text = serialize_service(definition)
    assert parse_service(text) == definition
    assert parse_service(serialize_service(parse_service(text))) == definition


def test_serialize_service_returns_the_document_as_given():
    doc = calculator_def()  # no port names its protocol: nothing is filled in
    text = serialize_service(ServiceDef.from_json_obj(doc))
    assert text == json.dumps(doc, separators=(",", ":"), sort_keys=True)


def _typo_service_key(doc):
    doc["inputport"] = doc.pop("inputPorts")


def _typo_correlation_key(doc):
    doc["corelation"] = doc.pop("correlation")


def _typo_engine_key(doc):
    doc["engine"]["mod"] = "sequential"


def _typo_input_port_key(doc):
    doc["inputPorts"][0]["protocl"] = "frame/1"


def _typo_output_port_key(doc):
    doc["outputPorts"] = [{"name": "o", "location": "local://elsewhere", "resorce": "R",
                           "interface": {"tell": {"kind": "Notification"}}}]


def _typo_operation_key(doc):
    doc["interface"]["calc"]["respone"] = doc["interface"]["calc"].pop("response")


@pytest.mark.parametrize("typo", [
    _typo_service_key, _typo_correlation_key, _typo_engine_key,
    _typo_input_port_key, _typo_output_port_key, _typo_operation_key,
])
def test_unknown_keys_in_a_service_document_are_rejected(typo):
    doc = calculator_def()
    typo(doc)
    with pytest.raises(ValidationError, match="unknown keys"):
        ServiceDef.from_json_obj(doc)


@pytest.mark.parametrize("path, value, match", [
    (("services", 0, "engine", "storage"), 5, "storage"),
    (("services", 0, "engine", "storage"), "", "storage"),
    (("services", 0, "engine"), [], "engine"),
    (("services", 0, "engine"), 0, "engine"),
    (("services", 0, "engine"), False, "engine"),
    (("services", 0, "engine"), "", "engine"),
    (("services", 0, "engine"), None, "engine"),
    (("services", 0, "inputPorts"), 5, "inputPorts"),
    (("services", 0, "inputPorts", 0, "name"), 7, "name"),
    (("services", 0, "inputPorts", 0, "interface"), 5, "interface"),
    (("services", 0, "outputPorts"), 5, "outputPorts"),
    (("services", 0, "outputPorts"),
     [{"name": 7, "location": "local://x", "interface": {"tell": {"kind": "Notification"}}}],
     "name"),
    (("services", 0, "outputPorts"),
     [{"name": "o", "location": "local://x", "resource": 5,
       "interface": {"tell": {"kind": "Notification"}}}],
     "resource"),
    (("services",), 5, "services"),
    (("gateway",), 5, "location"),
    (("aggregate",), {"publish": 5, "map": {}}, "publish"),
    (("aggregate",), {"publsh": ["calc"], "map": {"calc": "calcsvc"}}, "unknown keys"),
    (("aggregate",), {"publish": [], "map": []}, "map"),
])
def test_document_values_of_the_wrong_type_are_rejected(containers, path, value, match):
    load, _ = containers
    config = {"services": [calculator_def()], "gateway": "local://gw"}
    *parents, last = path
    target = config
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ValidationError, match=match):
        load(config)


def test_message_type_field_names_are_variable_names():
    doc = calculator_def()
    doc["interface"]["calc"]["request"]["a-b"] = "int"
    with pytest.raises(ValidationError):
        ServiceDef.from_json_obj(doc)


def test_field_order_does_not_change_a_declaration():
    ab = Interface.from_json_obj({"op": {"kind": "OneWay", "request": {"a": "int", "b": "int"}}})
    ba = Interface.from_json_obj({"op": {"kind": "OneWay", "request": {"b": "int", "a": "int"}}})
    assert ab == ba
    assert set(merge_interfaces([ab, ba]).operations) == {"op"}


def _wait_closed(channels, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(c._sock.fileno() == -1 for c in channels):
            return True
        time.sleep(0.01)
    return False


def test_a_channel_is_closed_when_its_peer_hangs_up():
    """Each end closes its channel at EOF, so no socket waits for garbage
    collection (a leaked one is a ResourceWarning, an error here)."""
    accepted = []

    class Recording(Container):
        def bind(self, location, on_channel):
            return super().bind(location, lambda ch: (accepted.append(ch), on_channel(ch)))

    container = Recording()
    try:
        running = container.start_service(
            ServiceDef.from_json_obj(calculator_def("socket://127.0.0.1:0", "calc")))
        location = running.location_of("calc")
        for i in range(5):  # the client closes first
            conn = Connection(connect_socket(location.host, location.port))
            result = sync_request(conn, "calc", calc_payload("sum", i, 1, str(i)))
            assert result.payload.lookup("r") == i + 1
            conn.close()
        assert len(accepted) == 5
        assert _wait_closed(accepted)
        # the server stops first
        conn = Connection(connect_socket(location.host, location.port))
        assert sync_request(conn, "calc", calc_payload("sum", 1, 1, "x")).payload.lookup("r") == 2
    finally:
        container.stop()
    assert _wait_closed([conn.channel])


def test_service_def_cross_validation():
    bad = calculator_def()
    bad["engine"]["initiators"] = ["nonexistent"]
    with pytest.raises(ValidationError):
        ServiceDef.from_json_obj(bad)

    bad2 = calculator_def()
    bad2["behaviour"] = {"notify": {"port": "ghost", "op": "x", "payload": {}}}
    bad2["engine"]["initiators"] = []
    bad2["engine"]["firing"] = True
    with pytest.raises(ValidationError):
        ServiceDef.from_json_obj(bad2)


def test_dynamic_embed_is_atomic_per_location(containers):
    _, track = containers
    c = track(Container())
    outcomes = []

    def try_embed(n):
        definition = calculator_def("local://shared", f"inst{n}")
        try:
            c.embed(definition)
            outcomes.append("ok")
        except Exception as e:
            outcomes.append(type(e).__name__)

    threads = [threading.Thread(target=try_embed, args=(n,)) for n in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert outcomes.count("ok") == 1  # one winner ever answers local://shared
    conn = Connection(c.registry.connect("shared"))
    result = sync_request(conn, "calc", calc_payload("sum", 1, 1, "r"))
    conn.close()
    assert result.payload.lookup("r") == 2


def test_reserved_names_rejected(containers):
    _, track = containers
    c = track(Container())
    underscore = calculator_def("local://calc", "_sneaky")
    with pytest.raises(ValidationError):
        c.embed(underscore)
    hidden_port = calculator_def("local://_mine", "fine")
    with pytest.raises(ValidationError):
        c.embed(hidden_port)


def _read_answer(channel, timeout=5.0):
    got = []
    reader = threading.Thread(target=lambda: got.append(channel.recv_line()), daemon=True)
    reader.start()
    reader.join(timeout)
    assert got and got[0], "the endpoint sent no answer"
    return frames.decode_frame(got[0])


@pytest.mark.parametrize("endpoint, request_frame", [
    ("calc", frames.request_frame("7", "calc", calc_payload("sum", 1, 2, "p"))),
    ("gw", frames.request_frame("7", "calc", calc_payload("sum", 1, 2, "p"), "R")),
    ("_control", frames.request_frame(
        "7", "setRedirect", State({"resource": "S", "target": "local://calc"}))),
], ids=["input-port", "gateway", "control"])
def test_serving_endpoints_share_the_line_rule(containers, endpoint, request_frame):
    _, track = containers
    c = track(Container())
    c.serve_control()
    c.embed(calculator_def("local://calc", "calc"))
    c.set_redirect("R", "local://calc")
    c.serve_gateway("local://gw")
    channel = c.registry.connect(endpoint)
    channel.send(b"\n")
    channel.send(b" \t\n")
    channel.send(b'{"id":"55","type":"nonsense"}\n')
    # had a blank line been answered, its id-less fault would arrive first
    nonsense = _read_answer(channel)
    assert (nonsense.id, nonsense.type, nonsense.fault) == ("55", "fault", "ProtocolFault")
    channel.send(frames.encode_frame(frames.response_frame("56", "calc")))
    stray = _read_answer(channel)
    assert (stray.id, stray.type, stray.fault) == ("56", "fault", "ProtocolFault")
    channel.send(frames.encode_frame(request_frame))
    answer = _read_answer(channel)
    channel.close()
    assert (answer.id, answer.type) == ("7", "response")


def _caller_def(target):
    return {
        "name": "caller", "interface": {}, "behaviour": "nil",
        "engine": {"mode": "concurrent", "firing": True, "initiators": []},
        "outputPorts": [{"name": "toCalc", "location": target,
                         "interface": {"calc": {"kind": "SolicitResponse"}}}],
    }


@pytest.mark.parametrize("ports, build", [
    ("inputPorts", lambda: calculator_def("local://calc", "calc")),
    ("outputPorts", lambda: _caller_def("local://calc")),
])
def test_a_port_declaring_another_protocol_does_not_load(ports, build):
    definition = build()
    definition[ports][0]["protocol"] = "soap/1.1"
    with pytest.raises(ValidationError):
        ServiceDef.from_json_obj(definition)
    definition[ports][0]["protocol"] = "frame/1"
    ServiceDef.from_json_obj(definition)


@pytest.mark.parametrize("route", ["gateway-redirect", "output-port"])
def test_a_re_embedded_service_is_reached_again(containers, route):
    _, track = containers
    c = track(Container())
    c.embed(calculator_def("local://calc", "calc"))
    if route == "gateway-redirect":
        c.set_redirect("R", "local://calc")
        c.serve_gateway("local://gw")
        conn = Connection(c.registry.connect("gw"))

        def call(n):
            return sync_request(conn, "calc", calc_payload("sum", n, 1, f"r{n}"),
                                resource="R", timeout=5.0)
    else:
        c.embed(_caller_def("local://calc"))
        out = c.services["caller"].outputs["toCalc"]

        def call(n):
            try:
                return CallResult(payload=out.solicit(
                    "calc", calc_payload("sum", n, 1, f"r{n}"), timeout=5.0))
            except Fault as f:
                return CallResult(fault=f.name)

    assert call(1).payload.lookup("r") == 2
    c.unembed("calc")
    c.embed(calculator_def("local://calc", "calc"))
    # the first call may still meet the old connection before its EOF lands
    for n in range(2, 7):
        result = call(n)
        if result.fault is None:
            break
        assert result.fault == "IOFault"
        time.sleep(0.05)
    assert result.fault is None and result.payload.lookup("r") == n + 1


def test_aggregation_needs_a_port_that_exposes_the_operation(containers):
    _, track = containers
    c = track(Container())
    portless = _echo_def("portless", "op1", "local://unused", "P")
    del portless["inputPorts"]
    c.embed(portless)
    with pytest.raises(ValidationError):
        c.set_aggregation(["op1"], {"op1": "portless"})


def test_aggregation_forwards_to_the_port_that_exposes_the_operation(containers):
    _, track = containers
    c = track(Container())
    two_ports = _echo_def("two", "op1", "local://second", "T")
    two_ports["interface"]["op0"] = {"kind": "OneWay"}
    two_ports["inputPorts"].insert(0, {"name": "first", "location": "local://first",
                                       "interface": ["op0"]})
    c.embed(two_ports)
    c.set_aggregation(["op1"], {"op1": "two"})
    c.serve_gateway("local://agg")
    conn = Connection(c.registry.connect("agg"))
    found = sync_request(conn, "op1", State({"rid": "x"}), timeout=5.0)
    # re-embedded without a port for op1: the gateway has nowhere to send it
    c.unembed("two")
    del two_ports["inputPorts"][1]
    c.embed(two_ports)
    gone = sync_request(conn, "op1", State({"rid": "y"}), timeout=5.0)
    conn.close()
    assert found.payload.lookup("who") == "T"
    assert gone.fault == "UnknownOperation"
