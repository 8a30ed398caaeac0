"""Engine behaviour: routing, state tiers, modes, watchdog, lifecycle."""

import gc
import os
import random
import sys
import threading
import time
import weakref
from collections import Counter

import pytest

from orchestra import correlation, frames, state
from orchestra.behaviour import parse_behaviour
from orchestra.correlation import CorrelationConfig, CorrelationFunction, Message
from orchestra.deployment import Interface, MessageType, OperationDecl
from orchestra.engine import EVENTS_KEPT, FINISHED_KEPT, Engine, SEQUENTIAL, Session
from orchestra.errors import EncodeError, Fault
from orchestra.interpreter import SessionRunner, fault_completion
from orchestra.state import EMPTY, State, UNDEFINED
from orchestra.transport import Loop


def iface(**ops) -> Interface:
    decls = {}
    for name, kind in ops.items():
        decls[name] = OperationDecl(name=name, kind=kind)
    return Interface(decls)


def corr(**functions) -> CorrelationConfig:
    return CorrelationConfig({op: CorrelationFunction(m) for op, m in functions.items()})


@pytest.fixture
def engines():
    started = []

    def make(**kw) -> Engine:
        kw.setdefault("interface", iface())
        e = Engine(**kw)
        started.append(e)
        return e.start()

    yield make
    for e in started:
        if e.final_report is None:
            e.stop()


def test_firing_session_runs_without_input(engines):
    b = parse_behaviour({"assign": ["a", "1"]})
    e = engines(behaviour=b)
    assert e.wait_all_finished(2.0)
    sid = e.session_ids()[0]
    status, completion, local = e.session_view(sid)
    assert completion.kind == "success"
    assert local == State({"a": 1})


def test_no_sessions_until_initiator_message(engines):
    b = parse_behaviour({"root": {"receive": {"op": "open", "into": ""}},
                         "firing": False, "initiators": ["open"]})
    e = engines(behaviour=b, interface=iface(open="OneWay"))
    assert e.session_ids() == []
    out = e.submit(Message("open", State({"id": 7})))
    assert out.kind == "created"
    assert e.wait_all_finished(2.0)


def test_create_binds_correlation_into_fresh_local(engines):
    b = parse_behaviour({"root": {"receive": {"op": "open", "into": "m"}},
                         "firing": False, "initiators": ["open"]})
    e = engines(behaviour=b, interface=iface(open="OneWay"),
                correlation=corr(open={"id": "sid"}))
    out = e.submit(Message("open", State({"id": 7})))
    assert out.kind == "created"
    e.wait_all_finished(2.0)
    _, completion, local = e.session_view(out.session_id)
    assert local.lookup("sid") == 7
    assert local.lookup("m_id") == 7


def test_followup_routed_to_bound_session(engines):
    doc = {"root": {"seq": [{"receive": {"op": "open", "into": ""}},
                            {"receive": {"op": "put", "into": "p"}}]},
           "firing": False, "initiators": ["open"]}
    e = engines(behaviour=parse_behaviour(doc),
                interface=iface(open="OneWay", put="OneWay"),
                correlation=corr(open={"id": "sid"}, put={"id": "sid"}))
    first = e.submit(Message("open", State({"id": 7})))
    assert first.kind == "created"
    second = e.submit(Message("put", State({"id": 7, "v": 1})))
    assert second.kind == "delivered"
    assert second.session_id == first.session_id
    assert e.wait_all_finished(2.0)


def test_unmatched_non_initiator_rejected(engines):
    b = parse_behaviour({"root": {"receive": {"op": "open", "into": ""}},
                         "firing": False, "initiators": ["open"]})
    e = engines(behaviour=b, interface=iface(open="OneWay", put="OneWay"),
                correlation=corr(open={"id": "sid"}, put={"id": "sid"}))
    out = e.submit(Message("put", State({"id": 9})))
    assert out.kind == "rejected"
    assert out.fault == "CorrelationError"


def test_undeclared_operation_rejected(engines):
    b = parse_behaviour({"assign": ["a", "1"]})
    e = engines(behaviour=b)
    out = e.submit(Message("mystery", EMPTY))
    assert out.kind == "rejected"
    assert out.fault == "UnknownOperation"


def test_sequential_firing_runs_before_queued_initiators(engines):
    doc = {"root": {"seq": [{"receive": {"op": "open", "into": ""}},
                            {"assign": ["w", "3"]},
                            {"while": {"cond": "w > 0", "body": {"assign": ["w", "w - 1"]}}}]},
           "firing": True, "initiators": ["open"]}
    e = engines(behaviour=parse_behaviour(doc), interface=iface(open="OneWay"),
                correlation=corr(open={"id": "sid"}), mode=SEQUENTIAL, log_steps=True)
    # correlation binds on delivery, so the firing session takes id=1 and the
    # other two messages must create sessions that wait behind it
    o1 = e.submit(Message("open", State({"id": 1})))
    o2 = e.submit(Message("open", State({"id": 2})))
    o3 = e.submit(Message("open", State({"id": 3})))
    assert o1.kind == "delivered"
    assert o2.kind == o3.kind == "created"
    assert e.wait_all_finished(5.0)
    starts = [r["session"] for r in e.events if r["event"] == "session_started"]
    assert starts == [1, o2.session_id, o3.session_id]
    finishes = [r["session"] for r in e.events if r["event"] == "session_finished"]
    order = [r for r in e.events if r["event"] in ("session_started", "session_finished")]
    first_finish = next(i for i, r in enumerate(order) if r["event"] == "session_finished")
    later_starts = [r for r in order[:first_finish] if r["event"] == "session_started"]
    assert [r["session"] for r in later_starts] == [1]
    assert finishes[0] == 1


def test_sequential_steps_never_interleave(engines):
    doc = {"root": {"seq": [{"assign": ["a", "1"]}, {"assign": ["b", "2"]},
                            {"assign": ["c", "a + b"]}]},
           "firing": False, "initiators": ["kick"]}
    e = engines(behaviour=parse_behaviour(doc),
                interface=iface(kick="OneWay"), mode=SEQUENTIAL, log_steps=True)
    for i in range(4):
        e.submit(Message("kick", State({"n": i})))
    assert e.wait_all_finished(5.0)
    step_sessions = [r["session"] for r in e.events if r["event"] == "step"]
    seen_done = set()
    current = None
    for sid in step_sessions:
        if sid != current:
            assert sid not in seen_done, "a session stepped again after another ran"
            if current is not None:
                seen_done.add(current)
            current = sid


def test_queued_outcome_for_created_but_not_started(engines):
    doc = {"root": {"seq": [{"receive": {"op": "open", "into": ""}},
                            {"receive": {"op": "put", "into": ""}}]},
           "firing": True, "initiators": ["open"]}
    # firing session blocks forever on receive(open) with no message sent to
    # it: hold the engine by never submitting a matching open for it
    e = engines(behaviour=parse_behaviour(doc),
                interface=iface(open="OneWay", put="OneWay"),
                correlation=corr(open={"id": "sid"}, put={"id": "sid"}),
                mode=SEQUENTIAL)
    # the firing session is active and blocked; a new session is created
    # behind it and messages routed to that session report "queued"
    created = e.submit(Message("open", State({"id": 1})))
    assert created.kind == "delivered"  # firing session matched (sid unbound)
    created2 = e.submit(Message("open", State({"id": 2})))
    assert created2.kind == "created"
    followup = e.submit(Message("put", State({"id": 2})))
    assert followup.kind == "queued"
    assert followup.session_id == created2.session_id


def test_global_state_shared_and_atomic(engines):
    e = engines(behaviour=parse_behaviour({"assign": ["a", "1"]}))
    assert e.global_read("x") is UNDEFINED
    e.global_write("x", 5)
    assert e.global_read("x") == 5

    threads = [threading.Thread(target=lambda: [e.global_add("counter", 1) for _ in range(10)])
               for _ in range(10)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    sequential_sum = sum(1 for _ in range(100))
    assert e.global_read("counter") == sequential_sum


def test_global_add_type_fault(engines):
    e = engines(behaviour=parse_behaviour({"assign": ["a", "1"]}))
    e.global_write("s", "text")
    with pytest.raises(Fault) as err:
        e.global_add("s", 1)
    assert err.value.name == "TypeFault"


def test_state_tier_lifetimes(engines, tmp_path):
    store = str(tmp_path / "tier.json")
    b = parse_behaviour({"assign": ["a", "1"]})
    e1 = engines(behaviour=b, storage_path=store)
    e1.global_write("g", 1)
    e1.storage.put("k", 41)
    e1.storage.put("k", 42)
    e1.stop()
    assert e1.global_read("g") is UNDEFINED  # global dies with the engine

    e2 = engines(behaviour=b, storage_path=store)
    assert e2.global_read("g") is UNDEFINED
    assert e2.storage.get("k") == 42  # storage survives restart


def test_session_privacy(engines):
    doc = {"root": {"seq": [{"receive": {"op": "open", "into": ""}},
                            {"assign": ["secret", "sid * 10"]}]},
           "firing": False, "initiators": ["open"]}
    e = engines(behaviour=parse_behaviour(doc), interface=iface(open="OneWay"),
                correlation=corr(open={"id": "sid"}))
    a = e.submit(Message("open", State({"id": 1})))
    b = e.submit(Message("open", State({"id": 2})))
    assert e.wait_all_finished(2.0)
    _, _, local_a = e.session_view(a.session_id)
    _, _, local_b = e.session_view(b.session_id)
    assert local_a.lookup("secret") == 10
    assert local_b.lookup("secret") == 20
    assert local_a.lookup("sid") == 1 and local_b.lookup("sid") == 2


def test_stop_terminates_blocked_sessions(engines):
    b = parse_behaviour({"root": {"receive": {"op": "never", "into": ""}},
                         "firing": True, "initiators": ["never"]})
    e = engines(behaviour=b, interface=iface(never="OneWay"))
    report = e.stop()
    assert len(report) == 1
    assert list(report.values())[0].kind == "terminated"


def test_stop_runs_termination_handlers(engines):
    doc = {"scope": {"name": "s",
                     "body": {"receive": {"op": "never", "into": ""}},
                     "onTerminate": {"assign": ["cleaned", "1"]}}}
    b = parse_behaviour({"root": doc, "firing": True, "initiators": ["never"]})
    e = engines(behaviour=b, interface=iface(never="OneWay"))
    _wait_blocked(e, 1)  # in its scope, so the scope's handler is armed
    e.stop()
    sid = e.session_ids()[0]
    _, completion, local = e.session_view(sid)
    assert completion.kind == "terminated"
    assert local.lookup("cleaned") == 1


def test_message_conservation_random_traces(engines):
    doc = {"root": {"seq": [{"receive": {"op": "open", "into": ""}},
                            {"receive": {"op": "put", "into": ""}}]},
           "firing": False, "initiators": ["open"]}
    rng = random.Random(11)
    e = engines(behaviour=parse_behaviour(doc),
                interface=iface(open="OneWay", put="OneWay"),
                correlation=corr(open={"id": "sid"}, put={"id": "sid"}),
                seed=5)
    counts = {"delivered": 0, "created": 0, "queued": 0, "rejected": 0}
    n = 200
    for _ in range(n):
        op = rng.choice(["open", "put"])
        out = e.submit(Message(op, State({"id": rng.randrange(6)})))
        counts[out.kind] += 1
    assert sum(counts.values()) == n
    assert counts["created"] >= 1
    routed_events = [r for r in e.events
                     if r["event"] in ("message_routed", "message_rejected")]
    assert len(routed_events) == n


def test_rr_double_receive_is_protocol_fault(engines):
    doc = {"root": {"seq": [{"receive": {"op": "ask", "into": "a"}},
                            {"while": {"cond": "a_n == 1", "body": {"receive": {"op": "ask", "into": "b"}}}},
                            {"reply": {"op": "ask", "from": {}}}]},
           "firing": False, "initiators": ["ask"]}
    e = engines(behaviour=parse_behaviour(doc),
                interface=Interface({"ask": OperationDecl("ask", "RequestResponse",
                                                          MessageType(), MessageType())}))
    out = e.submit(Message("ask", State({"n": 1})))
    e.submit(Message("ask", State({"n": 1})))
    e.wait_all_finished(2.0)
    _, completion, _ = e.session_view(out.session_id)
    assert completion.kind == "fault"
    assert completion.fault == "ProtocolFault"


class _SilentPort:
    """An output port whose solicits never answer, for watchdog tests."""

    def solicit_begin(self, op, payload, on_result):
        return "1"

    def notify(self, op, payload):
        pass


def test_watchdog_reports_sequential_deadlock(engines):
    doc = {"root": {"seq": [{"solicit": {"port": "out", "op": "hang",
                                         "payload": {}, "into": ""}}]},
           "firing": True, "initiators": ["open"]}
    e = engines(behaviour=parse_behaviour(doc), interface=iface(open="OneWay"),
                correlation=corr(open={"id": "sid"}),
                mode=SEQUENTIAL, outputs={"out": _SilentPort()},
                watchdog_grace=0.1)
    d1 = e.submit(Message("open", State({"id": 1})))  # binds the firing session
    d2 = e.submit(Message("open", State({"id": 2})))  # stuck behind it
    assert d1.kind == "delivered"
    assert d2.kind == "created"
    assert e.wait_deadlock(3.0)
    report = e.deadlock_reports[0]
    assert report["queued"] == [d2.session_id], report


def test_no_deadlock_report_when_idle_and_finished(engines):
    b = parse_behaviour({"assign": ["a", "1"]})
    e = engines(behaviour=b, watchdog_grace=0.05)
    e.wait_all_finished(2.0)
    import time
    time.sleep(0.3)
    assert e.deadlock_reports == []


def test_binding_during_an_assign_loop_is_not_lost(engines):
    """Messages binding correlation variables of a session that assigns in
    a tight loop: every binding must survive into the final local state."""
    tags = 40
    doc = {"root": {"seq": [{"assign": ["i", "0"]},
                            {"while": {"cond": "i < 3000",
                                       "body": {"assign": ["i", "i + 1"]}}}]},
           "firing": True, "initiators": []}
    tag_corr = corr(tag={f"k{j}": f"v{j}" for j in range(tags)})
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(5):
            e = engines(behaviour=parse_behaviour(doc), interface=iface(tag="OneWay"),
                        correlation=tag_corr, seed=seed)
            bound = [j for j in range(tags)
                     if e.submit(Message("tag", State({f"k{j}": j}))).kind == "delivered"]
            assert e.wait_all_finished(20.0)
            _, _, local = e.session_view(1)
            assert [j for j in bound if local.lookup(f"v{j}") != j] == [], f"seed {seed}"
            e.stop()
    finally:
        sys.setswitchinterval(previous)


def _wait_blocked(e: Engine, count: int) -> None:
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        statuses = [e.session_view(sid)[0] for sid in e.session_ids()]
        if statuses == ["blocked"] * count:
            return
        time.sleep(0.005)
    raise AssertionError(f"sessions never blocked: {statuses}")


def test_stop_ends_termination_handlers_that_never_end(engines):
    doc = {"root": {"seq": [
        {"receive": {"op": "open", "into": ""}},
        {"scope": {"name": "s",
                   "body": {"receive": {"op": "never", "into": ""}},
                   "onTerminate": {"while": {"cond": "0 == 0", "body": "nil"}}}},
    ]}, "firing": False, "initiators": ["open"]}
    e = engines(behaviour=parse_behaviour(doc), interface=iface(open="OneWay", never="OneWay"),
                correlation=corr(open={"id": "sid"}))
    for ident in range(3):
        assert e.submit(Message("open", State({"id": ident}))).kind == "created"
    _wait_blocked(e, 3)
    started = time.monotonic()
    report = e.stop()
    assert time.monotonic() - started < 5.0
    assert not e._loop._thread.is_alive()
    assert sorted(report) == [1, 2, 3]
    assert all(c is not None and c.kind == "terminated" for c in report.values()), report


class _Handle:
    """A reply handle that records every answer it is asked to send."""

    def __init__(self):
        self.answers = []

    def send_response(self, request_id, op, payload):
        self.answers.append((request_id, "response"))

    def send_fault(self, request_id, op, fault_name):
        self.answers.append((request_id, fault_name))


def test_request_left_in_a_finished_sessions_mailbox_gets_a_fault(engines):
    doc = {"root": {"seq": [{"receive": {"op": "calc", "into": "m"}},
                            {"reply": {"op": "calc", "from": {"r": "m_a + m_b"}}}]},
           "firing": False, "initiators": ["calc"]}
    e = engines(behaviour=parse_behaviour(doc),
                interface=Interface({"calc": OperationDecl("calc", "RequestResponse",
                                                           MessageType(), MessageType())}))
    handle = _Handle()
    # Holding the engine lock keeps the loop from stepping between the two
    # calls, so the second one (no correlation function: it matches any live
    # session) lands in the first session's mailbox.
    with e._lock:
        first = e.submit(Message("calc", State({"a": 1, "b": 2}), channel_id=handle, request_id="1"))
        second = e.submit(Message("calc", State({"a": 3, "b": 4}), channel_id=handle, request_id="2"))
    assert (first.kind, second.kind) == ("created", "delivered")
    assert second.session_id == first.session_id
    assert e.wait_all_finished(2.0)
    assert handle.answers == [("1", "response"), ("2", "SessionEnded")]


def test_finished_sessions_leave_the_live_tables(engines):
    doc = {"root": {"receive": {"op": "open", "into": ""}},
           "firing": False, "initiators": ["open"]}
    e = engines(behaviour=parse_behaviour(doc), interface=iface(open="OneWay"),
                correlation=corr(open={"id": "rid"}))
    n = FINISHED_KEPT + 50
    for ident in range(n):
        assert e.submit(Message("open", State({"id": ident}))).kind == "created"
    assert e.wait_all_finished(10.0)
    assert e.live_session_count() == 0
    ids = e.session_ids()  # the last FINISHED_KEPT to finish, in whatever order they did
    assert len(ids) == FINISHED_KEPT and set(ids) <= set(range(1, n + 1))
    status, completion, local = e.session_view(ids[-1])
    assert (status, completion.kind, local.lookup("rid")) == ("finished", "success", ids[-1] - 1)
    report = e.stop()
    assert sorted(report) == e.session_ids()
    assert len(e.events) == EVENTS_KEPT
    assert e.events[-1]["event"] == "engine_stopped"


def test_sink_records_form_one_order(engines):
    """A slow sink on the submitting thread must not let the loop's
    records overtake it: each record is written under the loop's lock."""
    doc = {"root": {"receive": {"op": "open", "into": ""}},
           "firing": False, "initiators": ["open"]}
    sink = []

    def slow_sink(record):
        if record["event"] == "message_routed":
            time.sleep(0.2)
        sink.append(record)

    e = engines(behaviour=parse_behaviour(doc), interface=iface(open="OneWay"),
                correlation=corr(open={"id": "rid"}), event_sink=slow_sink)
    sids = [e.submit(Message("open", State({"id": ident}))).session_id for ident in range(3)]
    assert e.wait_all_finished(5.0)
    e.stop()
    assert not e.events  # the sink replaces the ring
    assert [r["event"] for r in (sink[0], sink[-1])] == ["engine_started", "engine_stopped"]
    for sid in sids:
        mine = [r["event"] for r in sink if r["session"] == sid]
        assert mine.index("message_routed") < mine.index("session_finished"), mine
    stamps = [r["ts"] for r in sink]
    assert stamps == sorted(stamps)


def _per_post_costs(monkeypatch, live: int, posts: int = 20) -> tuple[float, float]:
    """``correlates`` calls per post and ``SessionRunner.ready`` calls per
    step, over posts to ``live`` open sessions."""
    counts = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(correlation, "correlates", counting("correlates", correlation.correlates))
    monkeypatch.setattr(SessionRunner, "ready", counting("ready", SessionRunner.ready))
    monkeypatch.setattr(SessionRunner, "step", counting("step", SessionRunner.step))
    doc = {"root": {"seq": [
        {"receive": {"op": "open", "into": ""}},
        {"assign": ["n", "0"]},
        {"while": {"cond": "n >= 0", "body": {"seq": [{"receive": {"op": "post", "into": ""}},
                                                      {"assign": ["n", "n + 1"]}]}}},
    ]}, "firing": False, "initiators": ["open"]}
    e = Engine(behaviour=parse_behaviour(doc), interface=iface(open="OneWay", post="OneWay"),
               correlation=corr(open={"token": "tok"}, post={"token": "tok"}),
               watchdog_grace=3600.0).start()

    def wait_idle():
        # idle: no session is waiting to have its ready strands recomputed,
        # and none has a ready strand
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            with e._lock:
                if not e._dirty and not e._ready:
                    return
            time.sleep(0.002)
        raise AssertionError("engine never went idle")

    try:
        for token in range(live):
            e.submit(Message("open", State({"token": token})))
        wait_idle()
        counts.clear()
        for k in range(posts):
            out = e.submit(Message("post", State({"token": k * live // posts})))
            assert out.kind == "delivered"
            wait_idle()
        return counts["correlates"] / posts, counts["ready"] / counts["step"]
    finally:
        e.stop()


def test_per_post_work_does_not_grow_with_live_sessions(monkeypatch):
    small = _per_post_costs(monkeypatch, 100)
    large = _per_post_costs(monkeypatch, 3000)
    assert small == large
    assert small[0] == 1.0


class _StubPort:
    """An output port whose notify raises ``error`` for a payload with
    ``v == 1`` and records every other call."""

    def __init__(self, error):
        self.error = error
        self.sent = []

    def notify(self, op, payload):
        if payload.lookup("v") == 1:
            raise self.error
        self.sent.append((op, payload))


_TELL_DOC = {"root": {"seq": [
    {"receive": {"op": "go", "into": "m"}},
    {"scope": {"name": "s", "body": {"notify": {"port": "out", "op": "tell",
                                                "payload": {"v": "m_v"}}},
               "faults": {"IOFault": {"assign": ["caught", "true"]}}}},
    {"notify": {"port": "out", "op": "tell", "payload": {"v": "m_v"}}},
]}, "firing": False, "initiators": ["go"]}


def test_a_frame_that_cannot_be_encoded_is_an_io_fault_in_the_behaviour(engines):
    port = _StubPort(EncodeError("frame resource must be a string"))
    e = engines(behaviour=parse_behaviour(_TELL_DOC), interface=iface(go="OneWay"),
                correlation=corr(go={"v": "key"}), outputs={"out": port})
    bad = e.submit(Message("go", State({"v": 1})))
    good = e.submit(Message("go", State({"v": 2})))
    assert e.wait_all_finished(5.0)
    _, completion, local = e.session_view(bad.session_id)
    assert completion == fault_completion("IOFault")
    assert local.lookup("caught") is True  # the scope's handler saw it first
    assert e.session_view(good.session_id)[1].kind == "success"
    assert port.sent == [("tell", State({"v": 2}))] * 2


def test_an_error_in_a_step_ends_only_its_session(engines):
    doc = {"root": {"seq": [{"receive": {"op": "ask", "into": "m"}},
                            {"notify": {"port": "out", "op": "tell", "payload": {"v": "m_v"}}},
                            {"reply": {"op": "ask", "from": {}}}]},
           "firing": False, "initiators": ["ask"]}
    port = _StubPort(RuntimeError("bug in a port"))
    e = engines(behaviour=parse_behaviour(doc), outputs={"out": port},
                correlation=corr(ask={"v": "key"}),
                interface=Interface({"ask": OperationDecl("ask", "RequestResponse",
                                                          MessageType(), MessageType())}))
    handle = _Handle()
    bad = e.submit(Message("ask", State({"v": 1}), channel_id=handle, request_id="1"))
    good = e.submit(Message("ask", State({"v": 2}), channel_id=handle, request_id="2"))
    assert e.wait_all_finished(5.0)
    assert e._loop._thread.is_alive()
    assert e.session_view(bad.session_id)[1] == fault_completion("IOFault")
    assert e.session_view(good.session_id)[1].kind == "success"
    assert sorted(handle.answers) == [("1", "IOFault"), ("2", "response")]
    [failed] = [r for r in e.events if r["event"] == "step_failed"]
    assert failed["session"] == bad.session_id
    assert "bug in a port" in failed["detail"]["error"]


def test_a_reply_that_cannot_be_encoded_is_still_owed(engines):
    class Unencodable(_Handle):
        def send_response(self, request_id, op, payload):
            raise EncodeError("cannot encode")

    doc = {"root": {"seq": [{"receive": {"op": "ask", "into": ""}},
                            {"reply": {"op": "ask", "from": {}}}]},
           "firing": False, "initiators": ["ask"]}
    e = engines(behaviour=parse_behaviour(doc),
                interface=Interface({"ask": OperationDecl("ask", "RequestResponse",
                                                          MessageType(), MessageType())}))
    handle = Unencodable()
    out = e.submit(Message("ask", EMPTY, channel_id=handle, request_id="1"))
    assert e.wait_all_finished(5.0)
    assert e.session_view(out.session_id)[1] == fault_completion("IOFault")
    assert handle.answers == [("1", "IOFault")]  # the session's end answered it


def _record_checked_states(monkeypatch) -> list[dict]:
    """From now on, record the bindings of every state built with checks:
    by ``State(...)`` from a mapping, not by a trusted bind."""
    built = []
    real_init = State.__init__

    def init(self, bindings=None, *, _trusted=False):
        if bindings is not None and not _trusted:
            built.append(dict(bindings))
        real_init(self, bindings, _trusted=_trusted)

    monkeypatch.setattr(State, "__init__", init)
    return built


def test_a_receive_binds_its_fields_in_one_locked_update_without_checks(monkeypatch):
    """The four fields of a delivered message land in one update, made by
    the loop's thread while it holds the loop's lock, and nothing checks a
    name or a value again: the payload was checked when it was built."""
    e = Engine(behaviour=parse_behaviour({"receive": {"op": "data", "into": "m"}}),
               interface=iface(data="OneWay"), watchdog_grace=3600.0)
    binds = []
    real_bind = Session.bind

    def bind(session, bindings):
        held = e._loop.lock._is_owned() and threading.current_thread() is e._loop._thread
        real_bind(session, bindings)
        binds.append((sorted(bindings), held))

    monkeypatch.setattr(Session, "bind", bind)
    payload = State({"a": 1, "b": 2.0, "c": "x", "d": True})
    checks = Counter()
    for name in ("check_var_name", "check_value", "check_bindings"):
        original = getattr(state, name)
        monkeypatch.setattr(state, name, lambda *a, _n=name, _f=original: (
            checks.update([_n]), _f(*a))[1])
    checked_states = _record_checked_states(monkeypatch)
    e.start()
    try:
        assert e.submit(Message("data", payload)).kind == "delivered"
        assert e.wait_all_finished(5.0)
    finally:
        e.stop()
    monkeypatch.undo()
    assert binds == [(["m_a", "m_b", "m_c", "m_d"], True)]
    assert not checks
    assert checked_states == []
    assert e.session_view(1)[2] == State({"m_a": 1, "m_b": 2.0, "m_c": "x", "m_d": True})


def test_routing_a_decoded_message_checks_no_value_again(monkeypatch):
    """The decoder checked every name and value of a message's payload, so
    routing binds its correlation variables in one unchecked
    ``State.bind``: into a live session that has not bound them yet, and
    into a new session."""
    doc = {"root": {"receive": {"op": "post", "into": "p"}}, "firing": True,
           "initiators": ["post"]}
    e = Engine(behaviour=parse_behaviour(doc), interface=iface(post="OneWay"),
               correlation=corr(post={"token": "sid", "n": "n"}), watchdog_grace=3600.0)

    def decoded(token: str) -> Message:
        line = frames.encode_frame(frames.request_frame(
            "1", "post", State({"token": token, "n": 2**63 - 1, "x": -0.0, "s": "\u00e9"})))
        return Message("post", frames.decode_frame(line).payload)

    def refuse(*args):
        raise AssertionError(f"checked again: {args!r}")

    first, second = decoded("a"), decoded("b")
    binds = []
    real_bind = State.bind
    monkeypatch.setattr(State, "bind", lambda s, b: (binds.append(dict(b)), real_bind(s, b))[1])
    for name in ("check_value", "check_var_name", "check_bindings"):
        monkeypatch.setattr(state, name, refuse)
    checked_states = _record_checked_states(monkeypatch)
    try:
        with e._loop.lock:  # hold the steps off: the firing session stays unbound
            e.start()
            assert e.submit(first) == ("delivered", 1, None)
            assert e.submit(second).kind == "created"
            routing_binds = list(binds)
            routing_checked = list(checked_states)
    finally:
        e.stop()
    assert routing_binds == [{"n": 2**63 - 1, "sid": "a"}, {"n": 2**63 - 1, "sid": "b"}]
    assert routing_checked == []


def test_a_session_end_wakes_a_host_only_when_one_waits(engines, monkeypatch):
    """The engine notifies its condition only while a host thread waits on
    it: sessions that end while nobody waits notify nobody."""
    doc = {"root": {"receive": {"op": "go", "into": "m"}}, "initiators": ["go"]}
    e = engines(behaviour=parse_behaviour(doc), interface=iface(go="OneWay"),
                correlation=corr(go={"k": "k"}))
    notified = []
    monkeypatch.setattr(e._cond, "notify_all", lambda: notified.append(1))
    monkeypatch.setattr(e._cond, "notify", lambda n=1: notified.append(n))
    for k in range(3):
        assert e.submit(Message("go", State({"k": k}))).kind == "created"
    deadline = time.monotonic() + 5.0
    while e.live_session_count() and time.monotonic() < deadline:
        time.sleep(0.001)
    assert e.live_session_count() == 0
    assert notified == []


def test_every_pick_draws_one_randrange(engines, monkeypatch):
    """One ``randrange(len(pairs))`` per step, also when only one
    pair is ready: the seeded schedule depends on every draw."""
    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    steps = Counter()
    real_step = SessionRunner.step
    monkeypatch.setattr(SessionRunner, "step",
                        lambda runner, strand: (steps.update(["step"]), real_step(runner, strand)))
    doc = {"seq": [{"assign": ["a", "1"]},
                   {"par": [{"assign": ["b", "2"]}, {"assign": ["c", "3"]}, "nil"]},
                   {"assign": ["d", "a + b + c"]}]}
    e = Engine(behaviour=parse_behaviour(doc), interface=iface(), seed=3)
    e._rng = CountingRandom(3)
    e.start()
    try:
        assert e.wait_all_finished(5.0)
    finally:
        e.stop()
    assert len(draws) == steps["step"] > 0
    assert {n for (n,) in draws} == {1, 2, 3}  # one, two and three ready pairs


# One loop, one lock ----------------------------------------------------------------

_COUNTING_DOC = {"seq": [{"assign": ["i", "0"]},
                         {"par": [{"while": {"cond": "i < 200", "body": {"assign": ["i", "i + 1"]}}},
                                  {"assign": ["j", "1"]}]}]}


def test_the_engine_lock_is_its_loops_lock():
    loop = Loop()
    own = Engine(behaviour=parse_behaviour(_COUNTING_DOC), interface=iface())
    shared = Engine(behaviour=parse_behaviour(_COUNTING_DOC), interface=iface(), loop=loop)
    try:
        assert own._lock is own._loop.lock
        assert shared._lock is shared._loop.lock is loop.lock
    finally:
        own.stop()
        shared.stop()
        loop.close()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_standalone_engine_runs_on_one_thread_and_leaves_nothing_behind(monkeypatch):
    stepped = set()
    real_step = SessionRunner.step

    def step(runner, strand):
        stepped.add(threading.current_thread())
        return real_step(runner, strand)

    monkeypatch.setattr(SessionRunner, "step", step)
    threads, fds = set(threading.enumerate()), _open_fds()
    e = Engine(behaviour=parse_behaviour(_COUNTING_DOC), interface=iface(), seed=3).start()
    try:
        assert set(threading.enumerate()) - threads == {e._loop._thread}
        assert e.wait_all_finished(5.0)
    finally:
        e.stop()
    assert stepped == {e._loop._thread}
    assert not e._loop._thread.is_alive()
    assert set(threading.enumerate()) <= threads and _open_fds() <= fds

    never = Engine(behaviour=parse_behaviour(_COUNTING_DOC), interface=iface())
    assert never.stop() == {}
    assert not never._loop._thread.is_alive()
    assert set(threading.enumerate()) <= threads and _open_fds() <= fds


def test_a_host_wait_gives_up_every_level_of_the_loop_lock():
    """``wait_all_finished``, called by a thread holding the loop's lock
    twice while a session still has every step to take, returns once the
    loop has stepped that session to its end."""
    e = Engine(behaviour=parse_behaviour(_COUNTING_DOC), interface=iface())
    try:
        with e._lock, e._lock:
            e.start()  # the loop can take no step before the wait
            assert e.session_view(1)[0] == "running"
            assert e.wait_all_finished(5.0)
            _, completion, local = e.session_view(1)
            assert (completion.kind, local.lookup("i"), local.lookup("j")) == ("success", 200, 1)
    finally:
        e.stop()


def test_a_finished_session_is_freed_by_reference_counting():
    doc = {"root": {"seq": [{"receive": {"op": "open", "into": "m"}},
                            {"par": [{"assign": ["a", "m_id"]}, "nil"]}]},
           "firing": False, "initiators": ["open"]}
    e = Engine(behaviour=parse_behaviour(doc), interface=iface(open="OneWay"),
               correlation=corr(open={"id": "sid"}))
    gc.disable()
    try:
        e.start()
        with e._lock:  # the session cannot end before the reference is taken
            out = e.submit(Message("open", State({"id": 1})))
            session = weakref.ref(e._sessions[out.session_id])
        assert e.wait_all_finished(5.0)
        assert session() is None
        assert e.session_view(out.session_id)[2].lookup("a") == 1
    finally:
        gc.enable()
        e.stop()
