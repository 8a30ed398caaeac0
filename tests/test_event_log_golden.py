"""The seeded event log of one fixed scenario, pinned against a recording.

A fixed seed fixes every scheduling choice, so for a fixed input the event
log (timestamps aside) and each session's final view must not change when
the engine is refactored.  The scenario covers a ``par``, a termination
handler that assigns and then throws, a compensated scope, a correlated
receive, and in sequential mode a queued session that ``stop()`` ends.
"""

import json
import time

import pytest

from orchestra.behaviour import parse_behaviour
from orchestra.correlation import CorrelationConfig, CorrelationFunction, Message
from orchestra.deployment import Interface, OperationDecl
from orchestra.engine import CONCURRENT, SEQUENTIAL, Engine
from orchestra.state import State, to_json_obj
from orchestra.transport import Loop

BEHAVIOUR = {
    "root": {"seq": [
        {"scope": {"name": "c",
                   "body": {"assign": ["x", "1"]},
                   "onCompensate": {"assign": ["undone", "x + 1"]}}},
        {"par": [
            {"seq": [{"receive": {"op": "open", "into": "m"}},
                     {"assign": ["got", "m_id"]}]},
            {"seq": [{"assign": ["a", "1"]}, {"assign": ["b", "a + 1"]}]},
        ]},
        {"compensate": "c"},
        {"scope": {"name": "t",
                   "body": {"receive": {"op": "never", "into": ""}},
                   "onTerminate": {"seq": [{"assign": ["cleaned", "1"]},
                                           {"throw": "Boom"}]}}},
    ]},
    "firing": True,
    "initiators": ["open"],
}


def _engine(mode: str, seed: int, loop: Loop | None) -> Engine:
    interface = Interface({op: OperationDecl(name=op, kind="OneWay") for op in ("open", "never")})
    correlation = CorrelationConfig({"open": CorrelationFunction({"id": "sid"})})
    return Engine(behaviour=parse_behaviour(BEHAVIOUR), interface=interface,
                  correlation=correlation, mode=mode, seed=seed, log_steps=True,
                  watchdog_grace=3600.0, loop=loop)


def _wait_quiet(engine: Engine) -> None:
    """Wait until no session can step: each is blocked or still queued."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        statuses = [engine.session_view(sid)[0] for sid in engine.session_ids()]
        if "blocked" in statuses and set(statuses) <= {"blocked", "created"}:
            return
        time.sleep(0.005)
    raise AssertionError(f"engine never went quiet: {statuses}")


def _run(mode: str, seed: int, loop: Loop | None = None):
    engine = _engine(mode, seed, loop).start()
    try:
        for ident in (7, 8):
            _wait_quiet(engine)
            engine.submit(Message("open", State({"id": ident})))
        _wait_quiet(engine)
    finally:
        engine.stop()
    events = [f'{r["session"]} {r["event"]} {json.dumps(r["detail"], sort_keys=True)}'
              for r in engine.events]
    views = {}
    for sid in engine.session_ids():
        status, completion, local = engine.session_view(sid)
        views[sid] = f"{status} {completion!r} {json.dumps(to_json_obj(local), sort_keys=True)}"
    return events, views


# Recorded from a run of ``_run``.  A change that alters it changes the seeded
# log, which is a bug unless the change sets out to do so.
GOLDEN = {
    ('concurrent', 1): (
        [
            'None engine_started {"mode": "concurrent"}', '1 session_created {"firing": true}',
            '1 session_started {}', '1 step {"strand": 0}', '1 step {"strand": 0}',
            '1 step {"strand": 2}', '1 step {"strand": 1}', '1 step {"strand": 2}',
            '1 step {"strand": 2}',
            '1 message_routed {"fault": null, "op": "open", "outcome": "delivered"}',
            '1 step {"strand": 1}', '1 step {"strand": 1}', '1 step {"strand": 0}',
            '1 step {"strand": 0}', '1 step {"strand": 0}', '2 session_created {"firing": false}',
            '2 session_started {}',
            '2 message_routed {"fault": null, "op": "open", "outcome": "created"}',
            '2 step {"strand": 0}', '2 step {"strand": 0}', '2 step {"strand": 1}',
            '2 step {"strand": 2}', '2 step {"strand": 2}', '2 step {"strand": 1}',
            '2 step {"strand": 1}', '2 step {"strand": 2}', '2 step {"strand": 0}',
            '2 step {"strand": 0}', '2 step {"strand": 0}',
            '1 session_finished {"completion": "terminated"}',
            '2 session_finished {"completion": "terminated"}',
            'None engine_stopped {"report": {"1": "terminated", "2": "terminated"}}',
        ],
        {
            1: 'finished terminated {"a": 1, "b": 2, "cleaned": 1, "got": 7, "m_id": 7, "sid": 7, "undone": 2, "x": 1}',
            2: 'finished terminated {"a": 1, "b": 2, "cleaned": 1, "got": 8, "m_id": 8, "sid": 8, "undone": 2, "x": 1}',
        },
    ),
    ('concurrent', 2): (
        [
            'None engine_started {"mode": "concurrent"}', '1 session_created {"firing": true}',
            '1 session_started {}', '1 step {"strand": 0}', '1 step {"strand": 0}',
            '1 step {"strand": 1}', '1 step {"strand": 2}', '1 step {"strand": 2}',
            '1 step {"strand": 2}',
            '1 message_routed {"fault": null, "op": "open", "outcome": "delivered"}',
            '1 step {"strand": 1}', '1 step {"strand": 1}', '1 step {"strand": 0}',
            '1 step {"strand": 0}', '1 step {"strand": 0}', '2 session_created {"firing": false}',
            '2 session_started {}',
            '2 message_routed {"fault": null, "op": "open", "outcome": "created"}',
            '2 step {"strand": 0}', '2 step {"strand": 0}', '2 step {"strand": 2}',
            '2 step {"strand": 1}', '2 step {"strand": 1}', '2 step {"strand": 2}',
            '2 step {"strand": 2}', '2 step {"strand": 1}', '2 step {"strand": 0}',
            '2 step {"strand": 0}', '2 step {"strand": 0}',
            '1 session_finished {"completion": "terminated"}',
            '2 session_finished {"completion": "terminated"}',
            'None engine_stopped {"report": {"1": "terminated", "2": "terminated"}}',
        ],
        {
            1: 'finished terminated {"a": 1, "b": 2, "cleaned": 1, "got": 7, "m_id": 7, "sid": 7, "undone": 2, "x": 1}',
            2: 'finished terminated {"a": 1, "b": 2, "cleaned": 1, "got": 8, "m_id": 8, "sid": 8, "undone": 2, "x": 1}',
        },
    ),
    ('concurrent', 3): (
        [
            'None engine_started {"mode": "concurrent"}', '1 session_created {"firing": true}',
            '1 session_started {}', '1 step {"strand": 0}', '1 step {"strand": 0}',
            '1 step {"strand": 2}', '1 step {"strand": 2}', '1 step {"strand": 1}',
            '1 step {"strand": 2}',
            '1 message_routed {"fault": null, "op": "open", "outcome": "delivered"}',
            '1 step {"strand": 1}', '1 step {"strand": 1}', '1 step {"strand": 0}',
            '1 step {"strand": 0}', '1 step {"strand": 0}', '2 session_created {"firing": false}',
            '2 session_started {}',
            '2 message_routed {"fault": null, "op": "open", "outcome": "created"}',
            '2 step {"strand": 0}', '2 step {"strand": 0}', '2 step {"strand": 1}',
            '2 step {"strand": 1}', '2 step {"strand": 1}', '2 step {"strand": 2}',
            '2 step {"strand": 2}', '2 step {"strand": 2}', '2 step {"strand": 0}',
            '2 step {"strand": 0}', '2 step {"strand": 0}',
            '1 session_finished {"completion": "terminated"}',
            '2 session_finished {"completion": "terminated"}',
            'None engine_stopped {"report": {"1": "terminated", "2": "terminated"}}',
        ],
        {
            1: 'finished terminated {"a": 1, "b": 2, "cleaned": 1, "got": 7, "m_id": 7, "sid": 7, "undone": 2, "x": 1}',
            2: 'finished terminated {"a": 1, "b": 2, "cleaned": 1, "got": 8, "m_id": 8, "sid": 8, "undone": 2, "x": 1}',
        },
    ),
    ('sequential', 1): (
        [
            'None engine_started {"mode": "sequential"}', '1 session_created {"firing": true}',
            '1 session_started {}', '1 step {"strand": 0}', '1 step {"strand": 0}',
            '1 step {"strand": 2}', '1 step {"strand": 1}', '1 step {"strand": 2}',
            '1 step {"strand": 2}',
            '1 message_routed {"fault": null, "op": "open", "outcome": "delivered"}',
            '1 step {"strand": 1}', '1 step {"strand": 1}', '1 step {"strand": 0}',
            '1 step {"strand": 0}', '1 step {"strand": 0}', '2 session_created {"firing": false}',
            '2 message_routed {"fault": null, "op": "open", "outcome": "created"}',
            '2 session_finished {"completion": "terminated"}',
            '1 session_finished {"completion": "terminated"}',
            'None engine_stopped {"report": {"1": "terminated", "2": "terminated"}}',
        ],
        {
            1: 'finished terminated {"a": 1, "b": 2, "cleaned": 1, "got": 7, "m_id": 7, "sid": 7, "undone": 2, "x": 1}',
            2: 'finished terminated {"sid": 8}',
        },
    ),
    ('sequential', 2): (
        [
            'None engine_started {"mode": "sequential"}', '1 session_created {"firing": true}',
            '1 session_started {}', '1 step {"strand": 0}', '1 step {"strand": 0}',
            '1 step {"strand": 1}', '1 step {"strand": 2}', '1 step {"strand": 2}',
            '1 step {"strand": 2}',
            '1 message_routed {"fault": null, "op": "open", "outcome": "delivered"}',
            '1 step {"strand": 1}', '1 step {"strand": 1}', '1 step {"strand": 0}',
            '1 step {"strand": 0}', '1 step {"strand": 0}', '2 session_created {"firing": false}',
            '2 message_routed {"fault": null, "op": "open", "outcome": "created"}',
            '2 session_finished {"completion": "terminated"}',
            '1 session_finished {"completion": "terminated"}',
            'None engine_stopped {"report": {"1": "terminated", "2": "terminated"}}',
        ],
        {
            1: 'finished terminated {"a": 1, "b": 2, "cleaned": 1, "got": 7, "m_id": 7, "sid": 7, "undone": 2, "x": 1}',
            2: 'finished terminated {"sid": 8}',
        },
    ),
    ('sequential', 3): (
        [
            'None engine_started {"mode": "sequential"}', '1 session_created {"firing": true}',
            '1 session_started {}', '1 step {"strand": 0}', '1 step {"strand": 0}',
            '1 step {"strand": 2}', '1 step {"strand": 2}', '1 step {"strand": 1}',
            '1 step {"strand": 2}',
            '1 message_routed {"fault": null, "op": "open", "outcome": "delivered"}',
            '1 step {"strand": 1}', '1 step {"strand": 1}', '1 step {"strand": 0}',
            '1 step {"strand": 0}', '1 step {"strand": 0}', '2 session_created {"firing": false}',
            '2 message_routed {"fault": null, "op": "open", "outcome": "created"}',
            '2 session_finished {"completion": "terminated"}',
            '1 session_finished {"completion": "terminated"}',
            'None engine_stopped {"report": {"1": "terminated", "2": "terminated"}}',
        ],
        {
            1: 'finished terminated {"a": 1, "b": 2, "cleaned": 1, "got": 7, "m_id": 7, "sid": 7, "undone": 2, "x": 1}',
            2: 'finished terminated {"sid": 8}',
        },
    ),
}


@pytest.mark.parametrize("mode", [CONCURRENT, SEQUENTIAL])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_event_log_matches_recording(mode, seed):
    events, views = _run(mode, seed)
    expected_events, expected_views = GOLDEN[(mode, seed)]
    assert events == expected_events
    assert views == expected_views


@pytest.mark.parametrize("mode", [CONCURRENT, SEQUENTIAL])
def test_an_engine_on_a_given_loop_logs_as_one_on_its_own_loop(mode):
    loop = Loop()
    try:
        events, views = _run(mode, 2, loop)
    finally:
        loop.close()
    assert (events, views) == GOLDEN[(mode, 2)]
