"""Containers: loading, embedding, redirecting, aggregation, mobility."""

import json
import threading

import pytest

from orchestra import frames
from orchestra.composition import (
    Container, ServiceDef, load_container, merge_interfaces, parse_service,
    serialize_service,
)
from orchestra.demos import calculator_def, free_port
from orchestra.deployment import (
    Connection, Interface, MessageType, OperationDecl, sync_request,
)
from orchestra.errors import (
    InterfaceClash, NameClash, UnknownService, ValidationError,
)
from orchestra.state import State
from orchestra.transport import SOCKET_BYTES


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
