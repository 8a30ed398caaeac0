"""The container loop: one thread accepts, reads, routes, steps and answers.

Each test here pins one property of serving every channel of a container
from one ``transport.Loop``: the line cap, the threads a container runs,
when a reply reaches the kernel, and the hazards of doing everything on
one thread (no blocking send under an engine lock, no waiting on the loop
from the loop, connects from a step, ordering, determinism).
"""

import json
import random
import socket
import threading
import time

import pytest

from orchestra import frames
from orchestra.behaviour import parse_behaviour
from orchestra.composition import Container, ServiceDef, load_container
from orchestra.demos import calculator_def, free_port
from orchestra.deployment import Connection, Interface, sync_request
from orchestra.engine import Engine
from orchestra.errors import LineTooLong
from orchestra.interpreter import SessionRunner
from orchestra.state import State
from orchestra.transport import MAX_LINE, LineParser, Loop, memory_pair, start_tracing, \
    stop_tracing


def calc_payload(op, a, b, rid):
    return State({"op": op, "a": a, "b": b, "rid": rid})


def _call_line(rid: str) -> bytes:
    return frames.encode_frame(frames.request_frame(rid, "calc", calc_payload("sum", 1, 2, rid)))


def _read_line(sock: socket.socket) -> bytes:
    """One LF-terminated line read from a blocking socket, or what came before EOF."""
    buf = b""
    while not buf.endswith(b"\n"):
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        buf += chunk
    return buf


def _raw_client(location) -> socket.socket:
    sock = socket.create_connection((location.host, location.port), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


# The line parser ---------------------------------------------------------------

def test_the_parser_splits_lines_across_chunks_and_keeps_the_rest():
    parser = LineParser()
    assert parser.feed(b"one\ntw") == [b"one\n"]
    assert parser.feed(b"") == []
    assert parser.feed(b"o\nthree\nre") == [b"two\n", b"three\n"]
    assert parser.flush() == b"re"
    assert parser.flush() == b""


def test_the_parser_takes_a_line_of_the_cap_and_refuses_a_longer_one():
    parser = LineParser()
    chunk = b"x" * 65536
    for _ in range(MAX_LINE // len(chunk)):
        assert parser.feed(chunk) == []
    assert parser.feed(b"\nnext\n") == [chunk * (MAX_LINE // len(chunk)) + b"\n", b"next\n"]
    assert not parser.too_long
    # a whole line one byte over the cap, behind a good line in the same chunk
    assert parser.feed(b"ok\n" + b"y" * (MAX_LINE + 1) + b"\nlater\n") == [b"ok\n"]
    assert parser.too_long
    assert parser.feed(b"more\n") == []  # nothing after an overlong line is parsed
    # an unfinished line is refused as soon as it outgrows the cap
    parser = LineParser()
    assert parser.feed(b"z" * MAX_LINE) == []
    assert not parser.too_long
    assert parser.feed(b"z") == []
    assert parser.too_long


def test_a_blocking_reader_raises_once_a_line_outgrows_the_cap():
    a, b = memory_pair("cap")
    try:
        a.send(b"first\n" + b"x" * (MAX_LINE + 1))
        assert b.recv_line() == b"first\n"
        with pytest.raises(LineTooLong):
            b.recv_line()
    finally:
        a.close()


# Threads and listeners ---------------------------------------------------------

def test_a_stopped_container_refuses_its_port_and_leaves_no_thread():
    baseline = threading.active_count()
    c = load_container({"services": [calculator_def("socket://127.0.0.1:0", "calc")]})
    location = c.services["calc"].location_of("calc")
    with _raw_client(location) as sock:
        sock.sendall(_call_line("1"))
        assert frames.decode_frame(_read_line(sock)).payload == State({"r": 3})
    c.stop()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((location.host, location.port), timeout=5.0).close()
    assert threading.active_count() == baseline


def test_threads_per_container_do_not_grow_with_clients():
    c = load_container({"services": [calculator_def("socket://127.0.0.1:0", "calc")]})
    clients = []
    try:
        location = c.services["calc"].location_of("calc")

        def serve_each():
            for i, sock in enumerate(clients):
                sock.sendall(_call_line(f"{len(clients)}-{i}"))
                assert frames.decode_frame(_read_line(sock)).payload == State({"r": 3})
            return threading.active_count()

        clients.append(_raw_client(location))
        with_one = serve_each()
        clients.extend(_raw_client(location) for _ in range(7))
        with_eight = serve_each()
        assert with_eight == with_one
    finally:
        for sock in clients:
            sock.close()
        c.stop()


def test_an_oversized_line_is_answered_with_a_protocol_fault_and_its_channel_closes():
    c = load_container({"services": [calculator_def("socket://127.0.0.1:0", "calc")]})
    try:
        location = c.services["calc"].location_of("calc")
        with _raw_client(location) as sock:
            def flood():
                try:
                    sock.sendall(b"x" * (MAX_LINE + 4096) + b"\n")
                except OSError:
                    pass  # the server closed the channel before reading it all
            writer = threading.Thread(target=flood)
            writer.start()
            answer = frames.decode_frame(_read_line(sock))
            assert (answer.id, answer.type, answer.fault) == ("", "fault", "ProtocolFault")
            assert _read_line(sock) == b""  # then the channel is closed
            writer.join(5.0)
            assert not writer.is_alive()
        conn = Connection(c.connect(location))
        try:
            assert sync_request(conn, "calc", calc_payload("sum", 2, 2, "after"),
                                timeout=5.0).payload == State({"r": 4})
        finally:
            conn.close()
    finally:
        c.stop()


def test_a_session_that_never_stops_stepping_holds_up_no_caller():
    spinner = {
        "name": "spinner",
        "interface": {},
        "behaviour": {"while": {"cond": "true", "body": "nil"}},
        "engine": {"mode": "concurrent", "firing": True, "initiators": []},
    }
    c = load_container({"services": [spinner, calculator_def("socket://127.0.0.1:0", "calc")]})
    try:
        started = time.monotonic()
        conn = Connection(c.connect(c.services["calc"].location_of("calc")))
        try:
            for i in range(5):
                assert sync_request(conn, "calc", calc_payload("sum", i, 1, str(i)),
                                    timeout=5.0).payload == State({"r": i + 1})
            # the caller shares the GIL with the spinning loop, and still gets it
            assert time.monotonic() - started < 2.0
        finally:
            conn.close()
    finally:
        c.stop()


# Closing a memory channel ---------------------------------------------------------

def test_a_loop_read_end_gets_what_its_peer_sent_before_closing():
    loop = Loop()
    try:
        client, server = memory_pair("closing")
        lines, ends = [], []
        server.attach(loop, lines.append, ends.append)
        with loop.lock:  # the loop reads nothing until both sends and the close are done
            client.send(b"first\n")
            client.send(b"last\n")
            client.close()
        deadline = time.monotonic() + 5.0
        while not ends and time.monotonic() < deadline:
            time.sleep(0.005)
        assert lines == [b"first\n", b"last\n"]
        assert ends == [False]
        with pytest.raises(BrokenPipeError):
            server.send(b"to nobody\n")
    finally:
        loop.close()


def test_a_termination_handler_notify_reaches_a_co_located_service_on_unembed():
    leaving = {
        "name": "leaving",
        "interface": {"never": {"kind": "OneWay"}},
        "behaviour": {"scope": {
            "name": "s",
            "body": {"receive": {"op": "never", "into": ""}},
            "onTerminate": {"notify": {"port": "out", "op": "bye",
                                       "payload": {"who": "'leaving'"}}}}},
        "engine": {"mode": "concurrent", "firing": True, "initiators": []},
        "outputPorts": [{"name": "out", "location": "local://staying",
                         "interface": {"bye": {"kind": "Notification",
                                               "request": {"who": "string"}}}}],
    }
    staying = {
        "name": "staying",
        "interface": {"bye": {"kind": "OneWay", "request": {"who": "string"}}},
        "behaviour": {"receive": {"op": "bye", "into": "m"}},
        "engine": {"mode": "concurrent", "firing": False, "initiators": ["bye"]},
        "inputPorts": [{"name": "in", "location": "local://staying", "interface": ["bye"]}],
    }
    c = load_container({"services": [staying, leaving], "embed": ["leaving"]})
    try:
        deadline = time.monotonic() + 5.0  # until the scope, and so its handler, is entered
        while (c.services["leaving"].engine.session_view(1)[0] != "blocked"
               and time.monotonic() < deadline):
            time.sleep(0.005)
        c.unembed("leaving")
        engine = c.services["staying"].engine
        deadline = time.monotonic() + 5.0
        while not engine.session_ids() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert engine.wait_all_finished(5.0)
        (sid,) = engine.session_ids()
        _, completion, local = engine.session_view(sid)
        assert completion.kind == "success"
        assert local.lookup("m_who") == "leaving"
    finally:
        c.stop()


# When a reply leaves --------------------------------------------------------------

class _SpySocket:
    """A socket that records, in ``records``, each time bytes go to the kernel."""

    def __init__(self, sock, records):
        self._sock = sock
        self._records = records

    def send(self, data):
        self._records.append({"event": "sent"})
        return self._sock.send(data)

    def sendall(self, data):
        self._records.append({"event": "sent"})
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _steps_before_the_reply_is_sent(behaviour) -> tuple[int, int]:
    """(step records before the first send to the caller, step records in all)."""
    records = []

    class Spying(Container):
        def bind(self, location, on_channel):
            def spy(channel):
                channel._sock = _SpySocket(channel._sock, records)
                on_channel(channel)
            return super().bind(location, spy)

    definition = calculator_def("socket://127.0.0.1:0", "svc")
    definition["behaviour"] = behaviour
    c = Spying(event_sink=records.append)
    try:
        running = c.start_service(ServiceDef.from_json_obj(definition))
        running.engine.log_steps = True
        with _raw_client(running.location_of("calc")) as sock:
            sock.sendall(_call_line("1"))
            assert frames.decode_frame(_read_line(sock)).payload == State({"r": 1})
        assert running.engine.wait_all_finished(5.0)
    finally:
        c.stop()
    kinds = [r["event"] for r in records]
    sent = kinds.index("sent")
    return kinds[:sent].count("step"), kinds.count("step")


def test_a_reply_reaches_the_kernel_in_the_step_that_makes_it():
    """Counted, not timed: when the reply's bytes go to the kernel, the
    engine has logged no step after the replying one."""
    head = [{"receive": {"op": "calc", "into": "m"}},
            {"reply": {"op": "calc", "from": {"r": "1"}}}]
    reply_steps, total = _steps_before_the_reply_is_sent({"seq": head})
    assert reply_steps == total  # nothing follows the reply here
    tail = [{"assign": [f"v{i}", f"{i}"]} for i in range(20)]
    before, total = _steps_before_the_reply_is_sent({"seq": head + tail})
    assert before == reply_steps
    assert total >= reply_steps + 20


# Hazards of one thread -------------------------------------------------------------

ECHO_DEF = {
    "name": "echo",
    "interface": {"echo": {"kind": "RequestResponse", "request": {"rid": "string"}}},
    "behaviour": {"seq": [{"receive": {"op": "echo", "into": "m"}},
                          {"reply": {"op": "echo", "from": {"blob": "m_blob"}}}]},
    "engine": {"mode": "concurrent", "firing": False, "initiators": ["echo"]},
    "correlation": {"echo": {"rid": "rid"}},
    "inputPorts": [{"name": "in", "location": "socket://127.0.0.1:0", "interface": ["echo"]}],
}


def test_a_caller_that_never_reads_holds_up_no_other_caller():
    """Replies to a caller whose socket is full wait in a buffer: the step
    that sends them, and the engine lock it may hold, never block."""
    c = load_container({"services": [ECHO_DEF]})
    try:
        location = c.services["echo"].location_of("echo")
        blob = "b" * (256 * 1024)
        stuck = _raw_client(location)

        def flood():
            try:
                for i in range(64):  # 16 MB of answers, more than the kernel buffers
                    stuck.sendall(frames.encode_frame(frames.request_frame(
                        str(i), "echo", State({"rid": f"s{i}", "blob": blob}))))
            except OSError:
                pass
        writer = threading.Thread(target=flood)
        writer.start()
        writer.join(30.0)
        assert not writer.is_alive()
        conn = Connection(c.connect(location))
        try:
            started = time.monotonic()
            result = sync_request(conn, "echo", State({"rid": "other", "blob": "x"}), timeout=5.0)
            assert result.payload == State({"blob": "x"})
            assert time.monotonic() - started < 2.0
        finally:
            conn.close()
        started = time.monotonic()
        c.stop()
        assert time.monotonic() - started < 5.0
    finally:
        c.stop()
        stuck.close()


def test_an_unembed_from_a_behaviour_runs_on_the_loop_and_waits_for_nothing():
    boss = {
        "name": "boss",
        "interface": {},
        "behaviour": {"solicit": {"port": "ctl", "op": "unembed",
                                  "payload": {"name": "'calc'"}, "into": "got"}},
        "engine": {"mode": "concurrent", "firing": True, "initiators": []},
        "outputPorts": [{"name": "ctl", "location": "local://_control",
                         "interface": {"unembed": {"kind": "SolicitResponse"}}}],
    }
    c = load_container({"services": [calculator_def("local://calc", "calc"), boss],
                        "embed": ["calc", "boss"]})
    try:
        engine = c.services["boss"].engine
        assert engine.wait_all_finished(5.0)
        _, completion, local = engine.session_view(1)
        assert completion.kind == "success"
        assert local.lookup("got_ok") is True
        assert "calc" not in c.services
        c.embed(calculator_def("local://calc", "calc"))
        conn = Connection(c.registry.connect("calc"))
        try:
            assert sync_request(conn, "calc", calc_payload("sum", 1, 1, "r"),
                                timeout=5.0).payload == State({"r": 2})
        finally:
            conn.close()
    finally:
        c.stop()


def test_a_refused_connect_from_a_step_is_an_io_fault_and_the_loop_serves_on():
    probe = {
        "name": "probe",
        "interface": {},
        "behaviour": {"scope": {
            "name": "s",
            "body": {"solicit": {"port": "gone", "op": "calc",
                                 "payload": {"op": "'sum'", "a": "1", "b": "2", "rid": "1"},
                                 "into": "got"}},
            "faults": {"IOFault": {"assign": ["caught", "true"]}}}},
        "engine": {"mode": "concurrent", "firing": True, "initiators": []},
        "outputPorts": [{"name": "gone", "location": f"socket://127.0.0.1:{free_port()}",
                         "interface": {"calc": {"kind": "SolicitResponse"}}}],
    }
    started = time.monotonic()
    c = load_container({"services": [calculator_def("local://calc", "calc"), probe]})
    try:
        engine = c.services["probe"].engine
        assert engine.wait_all_finished(5.0)
        assert time.monotonic() - started < 2.0
        assert engine.session_view(1)[2].lookup("caught") is True
        conn = Connection(c.registry.connect("calc"))
        try:
            assert sync_request(conn, "calc", calc_payload("mul", 3, 4, "r"),
                                timeout=5.0).payload == State({"r": 12})
        finally:
            conn.close()
    finally:
        c.stop()


class _InstantPeer:
    """A channel whose peer answers each request before ``send`` returns."""

    def __init__(self):
        self.on_line = None

    def attach(self, loop, on_line, on_end):
        self.on_line = on_line

    def send(self, data):
        request = frames.decode_frame(data)
        self.on_line(frames.encode_frame(frames.response_frame(
            request.id, request.operation, State({"echo": request.id}))))

    def close(self):
        pass


def test_an_answer_that_beats_send_request_finds_its_waiter():
    conn = Connection(_InstantPeer(), loop=object())
    got = []
    frame_id = conn.send_request("op", State({}), on_result=got.append)
    assert [r.payload for r in got] == [State({"echo": frame_id})]
    assert conn._waiters == {}


def test_each_line_is_traced_out_before_its_peer_traces_it_in():
    c = load_container({"services": [calculator_def("local://calc", "calc")],
                        "embed": ["calc"]})
    try:
        conn = Connection(c.registry.connect("calc"))
        start_tracing()
        try:
            for i in range(20):
                sync_request(conn, "calc", calc_payload("sum", i, 1, str(i)), timeout=5.0)
        finally:
            traces = stop_tracing()
        conn.close()
    finally:
        c.stop()
    seen_out = set()
    for _, direction, line in traces:
        key = line.rstrip(b"\n")
        if direction == "out":
            seen_out.add(key)
        else:
            assert key in seen_out, f"{key!r} traced in before it was traced out"
    assert len(traces) == 80


def _racing_behaviour():
    return parse_behaviour({"root": {"par": [
        {"seq": [{"assign": [f"{branch}{i}", f"{i}"]} for i in range(6)]}
        for branch in ("a", "b", "c")]}, "firing": True, "initiators": []})


def _logs_on_one_loop(order: list[str]) -> tuple[dict, dict]:
    """Run two engines on one loop, registered in ``order``; each engine's
    log without timestamps, and the draws from each generator."""
    draws = {}

    class Counting(random.Random):
        def __init__(self, name, seed):
            super().__init__(seed)
            self._name = name
            draws[name] = 0

        def randrange(self, *args):
            draws[self._name] += 1
            return super().randrange(*args)

    loop = Loop()
    engines = {}
    try:
        for name in order:
            engine = Engine(behaviour=_racing_behaviour(), interface=Interface({}), seed=11,
                            name=name, log_steps=True, loop=loop, watchdog_grace=3600.0)
            engine._rng = Counting(name, 11)
            engines[name] = engine
        with loop.lock:  # both start before the loop takes a step of either
            for name in order:
                engines[name].start()
        for engine in engines.values():
            assert engine.wait_all_finished(5.0)
            engine.stop()
    finally:
        loop.close()
    logs = {name: [json.dumps([r["session"], r["event"], r["detail"]], sort_keys=True)
                   for r in e.events] for name, e in engines.items()}
    return logs, draws


def test_the_order_the_loop_visits_engines_in_changes_no_draw(monkeypatch):
    steps = {"n": 0}
    real_step = SessionRunner.step

    def counted(runner, strand):
        steps["n"] += 1
        return real_step(runner, strand)

    monkeypatch.setattr(SessionRunner, "step", counted)
    forward, forward_draws = _logs_on_one_loop(["first", "second"])
    backward, backward_draws = _logs_on_one_loop(["second", "first"])
    assert forward == backward
    assert forward_draws == backward_draws
    # one draw per step and nothing else: the loop itself never draws
    assert sum(forward_draws.values()) + sum(backward_draws.values()) == steps["n"]
