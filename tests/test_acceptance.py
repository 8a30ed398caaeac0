"""Acceptance suite: one test per criterion, each printing its verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Everything is seeded and desk-scale; the whole module stays well under a
minute.
"""

import random
import time

import pytest

from orchestra import state
from orchestra.behaviour import parse_behaviour
from orchestra.composition import load_container
from orchestra.correlation import (
    CorrelationConfig, CorrelationFunction, Message, correlates,
)
from orchestra.demos import _deadlock_system, calculator_def, free_port, run_demo
from orchestra.deployment import Connection, sync_request
from orchestra.engine import Engine
from orchestra.frames import decode_frame, encode_frame
from orchestra.harness import (
    ScriptedContext, enumerate_interleavings, memnet_pair, oracle_correlates,
    random_oracle_triple,
)
from orchestra.interpreter import run_session
from orchestra.state import EMPTY, State, UNDEFINED
from orchestra.transport import SOCKET_BYTES, start_tracing, stop_tracing

from test_frames import random_frame


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_routing_formula_oracle_equivalence():
    rng = random.Random(0xC0FFEE)
    disagreements = 0
    for _ in range(10_000):
        payload, cfun_map, session_map = random_oracle_triple(rng)
        implementation = correlates(Message("op", State(payload)),
                                    CorrelationFunction(cfun_map), State(session_map))
        oracle = oracle_correlates(payload, cfun_map, session_map)
        if implementation != oracle:
            disagreements += 1
    assert disagreements == 0
    _report(1, "correlates agrees with the independent oracle on 10000 random triples")


def _random_state(rng: random.Random) -> State:
    names = ["a", "b", "c", "d"]
    values = [1, 2, 1.0, "x", True]
    return State({n: rng.choice(values) for n in names if rng.random() < 0.6})


def test_criterion_2_state_algebra_properties():
    rng = random.Random(515)
    triples = [(_random_state(rng), _random_state(rng), _random_state(rng))
               for _ in range(1_000)]
    for a, b, c in triples:
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        assert a.compose(a) == a
        assert EMPTY.compose(a) == a and a.compose(EMPTY) == a
        for name in ("a", "b", "c", "d"):
            joined = a.compose(b)
            if name in a:
                assert joined.lookup(name) == a.lookup(name)
        # equivalence relation
        assert a == a
        assert (a == b) == (b == a)
        if a == b and b == c:
            assert a == c
    _report(2, "compose/equality properties hold on 1000 random state triples")


def test_criterion_3_session_identification():
    # equal correlation projections are indistinguishable
    config = CorrelationConfig({"put": CorrelationFunction({"token": "tok"})})
    s1 = State({"tok": "t", "noise": 1})
    s2 = State({"tok": "t", "other": 2.5})
    assert s1.project(config.cset) == s2.project(config.cset)
    rng = random.Random(33)
    for _ in range(10):
        probe = Message("put", State({"token": rng.choice(["t", "u", "v"]),
                                      "extra": rng.randrange(5)}))
        f = config.function_for("put")
        assert correlates(probe, f, s1) == correlates(probe, f, s2)

    # after binding distinct tokens, routing is pinned per token
    doc = {"root": {"seq": [{"receive": {"op": "open", "into": ""}},
                            {"while": {"cond": "true",
                                       "body": {"receive": {"op": "put", "into": "p"}}}}]},
           "firing": False, "initiators": ["open"]}
    from orchestra.deployment import Interface, OperationDecl, MessageType
    interface = Interface({
        "open": OperationDecl("open", "OneWay", MessageType()),
        "put": OperationDecl("put", "OneWay", MessageType()),
    })
    engine = Engine(behaviour=parse_behaviour(doc), interface=interface,
                    correlation=CorrelationConfig({
                        "open": CorrelationFunction({"token": "tok"}),
                        "put": CorrelationFunction({"token": "tok"}),
                    }), seed=7).start()
    try:
        a = engine.submit(Message("open", State({"token": "a"})))
        b = engine.submit(Message("open", State({"token": "b"})))
        assert a.kind == b.kind == "created"
        bound = {"a": a.session_id, "b": b.session_id}
        rng = random.Random(101)
        tokens = ["a", "b"] * 50
        rng.shuffle(tokens)
        for i, token in enumerate(tokens):
            outcome = engine.submit(Message("put", State({"token": token, "n": i})))
            assert outcome.kind == "delivered"
            assert outcome.session_id == bound[token], (token, outcome)
    finally:
        engine.stop()
    _report(3, "indistinguishable projections and 100 token-pinned deliveries")


def test_criterion_4_engine_state_lifetimes(tmp_path):
    store = str(tmp_path / "lifetimes.json")
    doc = {"root": {"seq": [{"receive": {"op": "open", "into": ""}},
                            {"assign": ["mine", "tok * 2"]}]},
           "firing": False, "initiators": ["open"]}
    from orchestra.deployment import Interface, OperationDecl, MessageType
    interface = Interface({"open": OperationDecl("open", "OneWay", MessageType())})
    correlation = CorrelationConfig({"open": CorrelationFunction({"token": "tok"})})

    engine = Engine(behaviour=parse_behaviour(doc), interface=interface,
                    correlation=correlation, storage_path=store).start()
    a = engine.submit(Message("open", State({"token": 1})))
    b = engine.submit(Message("open", State({"token": 2})))
    assert engine.wait_all_finished(5.0)
    _, _, local_a = engine.session_view(a.session_id)
    _, _, local_b = engine.session_view(b.session_id)
    # local tier: private per session
    assert local_a.lookup("mine") == 2 and local_b.lookup("mine") == 4
    assert local_a.lookup("tok") == 1 and local_b.lookup("tok") == 2

    # global tier: shared across sessions, dead after stop
    engine.global_write("g", 9)
    assert engine.global_read("g") == 9
    engine.storage.put("k", 3.5)
    engine.stop()
    assert engine.global_read("g") is UNDEFINED

    # storage tier: bit-exact across a fresh engine on the same path
    engine2 = Engine(behaviour=parse_behaviour(doc), interface=interface,
                     correlation=correlation, storage_path=store).start()
    try:
        assert engine2.global_read("g") is UNDEFINED
        got = engine2.storage.get("k")
        assert type(got) is float and got == 3.5
    finally:
        engine2.stop()
    _report(4, "local private, global engine-lifetime, storage restart-durable")


def test_criterion_5_sequential_deadlock_vs_concurrent():
    repetitions = 20
    for rep in range(repetitions):
        c_a, c_b = _deadlock_system("sequential", seed=rep)
        try:
            engine = c_a.services["alpha"].engine
            began = time.monotonic()
            assert engine.wait_deadlock(5.0), f"repetition {rep}: no deadlock report"
            waited = time.monotonic() - began
            assert waited < 4.0
            assert engine.deadlock_reports[0]["queued"]
        finally:
            c_a.stop()
            c_b.stop()
    for rep in range(repetitions):
        began = time.monotonic()
        c_a, c_b = _deadlock_system("concurrent", seed=rep)
        try:
            engine = c_a.services["alpha"].engine
            assert engine.wait_all_finished(2.0), f"repetition {rep}: did not finish"
            assert time.monotonic() - began < 2.0
            _, completion, local = engine.session_view(engine.session_ids()[0])
            assert completion.kind == "success"
            assert local.lookup("got") is True
        finally:
            c_a.stop()
            c_b.stop()
    _report(5, f"deadlock flagged sequentially and resolved concurrently, {repetitions}x each")


def _check_id_discipline(traces) -> int:
    by_channel: dict[str, list] = {}
    for channel, _direction, line in traces:
        by_channel.setdefault(channel, []).append(line)
    checked = 0
    for channel, lines in by_channel.items():
        request_ids: set[str] = set()
        answered: set[str] = set()
        for line in lines:
            frame = decode_frame(line + b"\n" if not line.endswith(b"\n") else line)
            if frame.type == "request":
                request_ids.add(frame.id)
            else:
                assert frame.id in request_ids, f"{channel}: answer to unknown id {frame.id}"
                assert frame.id not in answered, f"{channel}: id {frame.id} answered twice"
                answered.add(frame.id)
        checked += 1
    return checked


def test_criterion_6_wire_protocol():
    rng = random.Random(77)
    for _ in range(10_000):
        f = random_frame(rng)
        assert decode_frame(encode_frame(f)) == f

    # id discipline over real demo traffic
    start_tracing()
    try:
        run_demo("web", seed=5)
        run_demo("sos", seed=5)
    finally:
        traces = stop_tracing()
    assert traces
    channels = _check_id_discipline(traces)
    assert channels >= 2

    # out-of-order responses: a hand-driven server answers in reverse order
    client_end, server_end = memnet_pair("ooo")
    conn = Connection(client_end)
    results: dict[str, object] = {}

    def call(tag):
        conn.send_request("job", State({"tag": tag}),
                          on_result=lambda res, t=tag: results.__setitem__(t, res))

    call("first")
    call("second")
    req1 = decode_frame(server_end.recv_line())
    req2 = decode_frame(server_end.recv_line())
    # answer the second request first
    from orchestra.frames import response_frame
    server_end.send(encode_frame(response_frame(req2.id, "job",
                                                State({"for": req2.payload.lookup("tag")}))))
    server_end.send(encode_frame(response_frame(req1.id, "job",
                                                State({"for": req1.payload.lookup("tag")}))))
    deadline = time.monotonic() + 5.0
    while len(results) < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert results["first"].payload.lookup("for") == "first"
    assert results["second"].payload.lookup("for") == "second"
    conn.close()
    _report(6, f"10000 frame round-trips, id discipline on {channels} demo channels, "
               "out-of-order matching")


CLIENT_SCRIPT = [("sum", 2, 3), ("sub", 10, 4), ("mul", 6, 7), ("div", 9, 2),
                 ("sum", -1, 1), ("div", -7, 2)]


def _run_script(conn: Connection, resource: str = "") -> list[bytes]:
    out = []
    for i, (op, a, b) in enumerate(CLIENT_SCRIPT):
        result = sync_request(conn, "calc",
                              State({"op": op, "a": a, "b": b, "rid": f"r{i}"}),
                              resource=resource)
        assert result.fault is None, (op, result.fault)
        out.append(state.encode(result.payload).encode("utf-8"))
    return out


def test_criterion_7_composition_transparency():
    sequences = {}

    # (a) simple composition over a socket
    port = free_port()
    c = load_container({"services": [calculator_sock := calculator_def(
        f"socket://127.0.0.1:{port}", "calc")]})
    try:
        conn = Connection(c.connect(c.services["calc"].listeners[0].bound_location))
        sequences["simple"] = _run_script(conn)
        conn.close()
    finally:
        c.stop()

    # (b) embedded, zero socket traffic for the embedded exchange
    c = load_container({"services": [calculator_def("local://calc", "calc")],
                        "embed": ["calc"]})
    try:
        before = SOCKET_BYTES.value
        conn = Connection(c.registry.connect("calc"))
        sequences["embedded"] = _run_script(conn)
        conn.close()
        assert SOCKET_BYTES.value == before, "embedded pair touched the network"
    finally:
        c.stop()

    # (c) behind a redirect resource
    gw = free_port()
    c = load_container({"services": [calculator_def("local://calc", "calc")],
                        "gateway": f"socket://127.0.0.1:{gw}",
                        "redirects": {"CALC": "local://calc"}})
    try:
        conn = Connection(c.connect(c.gateway_location))
        sequences["redirect"] = _run_script(conn, resource="CALC")
        conn.close()
    finally:
        c.stop()

    # (d) behind aggregation
    gw = free_port()
    c = load_container({"services": [calculator_def("local://calc", "calc")],
                        "gateway": f"socket://127.0.0.1:{gw}",
                        "aggregate": {"publish": ["calc"], "map": {"calc": "calc"}}})
    try:
        conn = Connection(c.connect(c.gateway_location))
        sequences["aggregate"] = _run_script(conn)
        conn.close()
    finally:
        c.stop()

    assert sequences["simple"] == sequences["embedded"] == sequences["redirect"] \
        == sequences["aggregate"]
    _report(7, "byte-identical response sequences across all four deployments, "
               "embedded pair off the network")


@pytest.mark.parametrize("name", ["rr-vs-callback", "web", "slave-mobility",
                                  "master-mobility", "sos"])
def test_criterion_8_pattern_demos(name):
    for seed in (1, 7, 23):
        transcript = run_demo(name, seed=seed)
        assert transcript, f"{name} produced no transcript at seed {seed}"
    _report(8, f"demo {name} passed its asserted transcript under three seeds")


FAULT_BEHAVIOURS = {
    "handled-scope": {"scope": {"name": "s", "body": {"throw": "F"},
                                "faults": {"F": {"assign": ["h", "1"]}}}},
    "parallel-fault-termination": {"scope": {
        "name": "outer",
        "body": {"par": [{"throw": "F"},
                         {"while": {"cond": "true", "body": "nil"}}]},
        "faults": {"F": {"assign": ["h", "1"]}}}},
    # the worker may or may not have started when the fault lands, so the
    # enumerated set legitimately holds both t=0 and t=1 finals
    "termination-handler": {"scope": {
        "name": "outer",
        "body": {"par": [
            {"throw": "F"},
            {"scope": {"name": "w",
                       "body": {"while": {"cond": "true", "body": "nil"}},
                       "onTerminate": {"assign": ["t", "1"]}}},
        ]},
        "faults": {"F": "nil"}}},
    "compensation-chain": {"seq": [
        {"scope": {"name": "s", "body": {"assign": ["x1", "1"]},
                   "onCompensate": {"assign": ["log", "log + '1'"]}}},
        {"scope": {"name": "s", "body": {"assign": ["x2", "1"]},
                   "onCompensate": {"assign": ["log", "log + '2'"]}}},
        {"scope": {"name": "s", "body": {"assign": ["x3", "1"]},
                   "onCompensate": {"assign": ["log", "log + '3'"]}}},
        {"compensate": "s"},
    ]},
}

FAULT_LOCALS = {
    "termination-handler": {"t": 0},
    "compensation-chain": {"log": ""},
}


def test_criterion_9_fault_semantics_against_enumeration():
    for name, doc in FAULT_BEHAVIOURS.items():
        behaviour = parse_behaviour(doc)
        base = FAULT_LOCALS.get(name, {})
        enumerated = {
            (o.state, o.completion)
            for o in enumerate_interleavings(behaviour, local=State(base), max_steps=30)
        }
        assert enumerated, name
        for seed in range(30):
            ctx = ScriptedContext(State(base))
            completion = run_session(behaviour, ctx, seed=seed)
            assert (ctx.local, completion) in enumerated, (name, seed, ctx.local)

    # compensation order is reverse completion order on the 3-scope chain
    behaviour = parse_behaviour(FAULT_BEHAVIOURS["compensation-chain"])
    ctx = ScriptedContext(State({"log": ""}))
    assert run_session(behaviour, ctx).kind == "success"
    assert ctx.local.lookup("log") == "321"
    _report(9, "seeded runs always land in the enumerated outcome set; "
               "compensation runs newest first")

