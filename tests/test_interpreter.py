"""Session interpretation: scheduling, faults, termination, compensation."""

import pytest

from orchestra.behaviour import parse_behaviour
from orchestra.correlation import Message
from orchestra.errors import BudgetExceeded
from orchestra.harness import ScriptedContext, enumerate_interleavings
from orchestra.interpreter import SessionRunner, run_session
from orchestra.state import State


def run(doc, *, local=None, trace=(), seed=0):
    ctx = ScriptedContext(State(local or {}), trace=list(trace))
    completion = run_session(parse_behaviour(doc), ctx, seed=seed)
    return completion, ctx


def test_sequence_assigns():
    c, ctx = run({"seq": [{"assign": ["a", "2"]}, {"assign": ["b", "a + 1"]}]})
    assert c.kind == "success"
    assert ctx.local == State({"a": 2, "b": 3})


def test_scope_fault_handler_runs():
    c, ctx = run({"scope": {"name": "s", "body": {"throw": "F"},
                            "faults": {"F": {"assign": ["h", "1"]}}}})
    assert c.kind == "success"
    assert ctx.local.lookup("h") == 1


def test_unhandled_fault_reaches_root():
    c, _ = run({"seq": [{"throw": "Boom"}]})
    assert c.kind == "fault" and c.fault == "Boom"


def test_fault_skips_rest_of_sequence():
    c, ctx = run({"seq": [{"throw": "F"}, {"assign": ["never", "1"]}]})
    assert c.kind == "fault"
    assert "never" not in ctx.local


def test_handler_fault_propagates_to_outer_scope():
    doc = {"scope": {"name": "outer",
                     "body": {"scope": {"name": "inner", "body": {"throw": "F"},
                                        "faults": {"F": {"throw": "G"}}}},
                     "faults": {"G": {"assign": ["g", "1"]}}}}
    c, ctx = run(doc)
    assert c.kind == "success" and ctx.local.lookup("g") == 1


def test_parallel_interleavings_both_orders_reachable():
    doc = {"par": [{"assign": ["a", "1"]}, {"assign": ["a", "2"]}]}
    finals = set()
    for seed in range(32):
        _, ctx = run(doc, seed=seed)
        finals.add(ctx.local.lookup("a"))
    assert finals == {1, 2}


def test_parallel_fault_terminates_looping_sibling():
    doc = {"scope": {"name": "outer",
                     "body": {"par": [{"throw": "F"},
                                      {"while": {"cond": "true", "body": "nil"}}]},
                     "faults": {"F": {"assign": ["h", "1"]}}}}
    for seed in range(20):
        c, ctx = run(doc, seed=seed)
        assert c.kind == "success", (seed, c)
        assert ctx.local.lookup("h") == 1


def test_termination_handler_runs_exactly_once():
    # branch one spins until the worker scope has demonstrably started, so
    # the worker is "currently executing" when the fault arrives
    doc = {"scope": {"name": "outer",
                     "body": {"par": [
                         {"seq": [{"while": {"cond": "go == 0", "body": "nil"}},
                                  {"throw": "F"}]},
                         {"scope": {"name": "worker",
                                    "body": {"seq": [{"assign": ["go", "1"]},
                                                     {"while": {"cond": "true", "body": "nil"}}]},
                                    "onTerminate": {"assign": ["t", "t + 1"]}}},
                     ]},
                     "faults": {"F": "nil"}}}
    for seed in range(20):
        c, ctx = run(doc, local={"t": 0, "go": 0}, seed=seed)
        assert c.kind == "success"
        assert ctx.local.lookup("t") == 1, f"seed {seed}: {ctx.local!r}"


def test_never_started_scope_skips_termination_handler():
    # the throwing branch runs first under this forced ordering: by the time
    # the sibling scope would start, it is already terminated and its
    # handler must not run
    doc = {"scope": {"name": "outer",
                     "body": {"par": [
                         {"throw": "F"},
                         {"seq": [{"while": {"cond": "hold == 1", "body": "nil"}},
                                  {"scope": {"name": "w", "body": "nil",
                                             "onTerminate": {"assign": ["t", "t + 1"]}}}]},
                     ]},
                     "faults": {"F": "nil"}}}
    saw_skip = False
    for seed in range(20):
        c, ctx = run(doc, local={"t": 0, "hold": 1}, seed=seed)
        assert c.kind == "success"
        assert ctx.local.lookup("t") == 0
        saw_skip = True
    assert saw_skip


def test_nested_scopes_terminate_innermost_first():
    doc = {"scope": {"name": "root",
                     "body": {"par": [
                         {"seq": [{"while": {"cond": "go == 0", "body": "nil"}},
                                  {"throw": "F"}]},
                         {"scope": {"name": "outerw",
                                    "body": {"scope": {"name": "innerw",
                                                       "body": {"seq": [{"assign": ["go", "1"]},
                                                                        {"while": {"cond": "true", "body": "nil"}}]},
                                                       "onTerminate": {"assign": ["log", "log + 'i'"]}}},
                                    "onTerminate": {"assign": ["log", "log + 'o'"]}}},
                     ]},
                     "faults": {"F": "nil"}}}
    for seed in range(20):
        c, ctx = run(doc, local={"log": "", "go": 0}, seed=seed)
        assert c.kind == "success"
        assert ctx.local.lookup("log") == "io", f"seed {seed}: {ctx.local!r}"


def test_termination_reaches_scopes_inside_a_nested_par():
    """``Boom`` beside a scope ``o`` whose body is a ``par`` holding scope
    ``i``: terminating ``o`` must reach through its ``par`` to ``i``, and
    ``i``'s handler runs before ``o``'s.  A scope the scheduler never
    entered stays silent, so ``''`` and ``'o'`` are reachable too."""
    wait = {"receive": {"op": "never", "into": ""}}
    doc = {"par": [
        {"throw": "Boom"},
        {"scope": {"name": "o",
                   "body": {"par": [
                       {"scope": {"name": "i", "body": wait,
                                  "onTerminate": {"assign": ["log", "log + 'i'"]}}},
                       wait,
                   ]},
                   "onTerminate": {"assign": ["log", "log + 'o'"]}}},
    ]}
    outcomes = enumerate_interleavings(parse_behaviour(doc), local=State({"log": ""}))
    finals = {(o.state.lookup("log"), repr(o.completion)) for o in outcomes}
    assert finals == {("", "fault(Boom)"), ("o", "fault(Boom)"), ("io", "fault(Boom)")}


def test_faulting_termination_handler_surfaces_handler_fault():
    doc = {"scope": {"name": "outer",
                     "body": {"par": [
                         {"seq": [{"while": {"cond": "go == 0", "body": "nil"}},
                                  {"throw": "F"}]},
                         {"scope": {"name": "w",
                                    "body": {"seq": [{"assign": ["go", "1"]},
                                                     {"while": {"cond": "true", "body": "nil"}}]},
                                    "onTerminate": {"throw": "Oops"}}},
                     ]},
                     "faults": {"F": {"assign": ["f", "1"]},
                                "HandlerFault": {"assign": ["hf", "1"]}}}}
    for seed in range(20):
        c, ctx = run(doc, local={"go": 0}, seed=seed)
        assert c.kind == "success"
        assert ctx.local.lookup("hf") == 1
        assert "f" not in ctx.local


def test_compensation_reverse_completion_order():
    doc = {"seq": [
        {"scope": {"name": "s", "body": "nil", "onCompensate": {"assign": ["log", "log + '1'"]}}},
        {"scope": {"name": "s", "body": "nil", "onCompensate": {"assign": ["log", "log + '2'"]}}},
        {"scope": {"name": "s", "body": "nil", "onCompensate": {"assign": ["log", "log + '3'"]}}},
        {"compensate": "s"},
    ]}
    c, ctx = run(doc, local={"log": ""})
    assert c.kind == "success"
    assert ctx.local.lookup("log") == "321"


def test_never_completed_scope_not_compensated():
    doc = {"seq": [
        {"scope": {"name": "outer", "body": {"seq": [
            {"scope": {"name": "s", "body": "nil", "onCompensate": {"assign": ["log", "log + 'a'"]}}},
            {"scope": {"name": "s", "body": {"throw": "F"},
                       "onCompensate": {"assign": ["log", "log + 'b'"]}}},
        ]}, "faults": {"F": "nil"}}},
        {"compensate": "s"},
    ]}
    c, ctx = run(doc, local={"log": ""})
    assert c.kind == "success"
    assert ctx.local.lookup("log") == "a"


def test_compensation_handlers_are_consumed():
    doc = {"seq": [
        {"scope": {"name": "s", "body": "nil", "onCompensate": {"assign": ["n", "n + 1"]}}},
        {"compensate": "s"},
        {"compensate": "s"},
    ]}
    c, ctx = run(doc, local={"n": 0})
    assert ctx.local.lookup("n") == 1


def test_compensation_armed_only_after_success():
    # handler installed by a successful body is runnable later in the session
    doc = {"seq": [
        {"scope": {"name": "s", "body": {"assign": ["x", "1"]},
                   "onCompensate": {"assign": ["x", "x + 10"]}}},
        {"compensate": "s"},
    ]}
    c, ctx = run(doc)
    assert ctx.local.lookup("x") == 11


def test_receive_lands_fields_under_prefix():
    trace = [Message("ask", State({"id": 7, "q": "hi"}))]
    doc = {"root": {"receive": {"op": "ask", "into": "m"}},
           "firing": False, "initiators": ["ask"]}
    c, ctx = run(doc, trace=trace)
    assert c.kind == "success"
    assert ctx.local == State({"m_id": 7, "m_q": "hi"})


def test_receive_with_empty_prefix_lands_bare():
    trace = [Message("ask", State({"id": 7}))]
    doc = {"root": {"receive": {"op": "ask", "into": ""}},
           "firing": False, "initiators": ["ask"]}
    _, ctx = run(doc, trace=trace)
    assert ctx.local == State({"id": 7})


def test_notify_records_payload():
    doc = {"notify": {"port": "out", "op": "tell", "payload": {"v": "1 + 1"}}}
    c, ctx = run(doc)
    assert c.kind == "success"
    assert ctx.sent == [("out", "tell", State({"v": 2}))]


def test_determinism_same_seed_same_final_state():
    doc = {"par": [
        {"seq": [{"assign": ["a", "1"]}, {"assign": ["b", "a + 1"]}]},
        {"seq": [{"assign": ["a", "10"]}, {"assign": ["c", "a * 2"]}]},
    ]}
    for seed in range(8):
        (_, ctx1), (_, ctx2) = run(doc, seed=seed), run(doc, seed=seed)
        assert ctx1.local == ctx2.local


def test_run_budget():
    with pytest.raises(BudgetExceeded):
        run_session(parse_behaviour({"while": {"cond": "true", "body": "nil"}}),
                    ScriptedContext(), max_steps=50)


def test_blocked_session_raises():
    doc = {"root": {"receive": {"op": "never", "into": ""}},
           "firing": False, "initiators": ["never"]}
    with pytest.raises(RuntimeError):
        run_session(parse_behaviour(doc), ScriptedContext())


def test_finished_strands_leave_the_runner():
    doc = {"seq": [{"assign": ["i", "0"]},
                   {"while": {"cond": "i < 5000", "body": {"seq": [
                       {"assign": ["i", "i + 1"]},
                       {"par": [{"assign": ["a", "i"]}, {"assign": ["b", "i"]}]},
                   ]}}}]}
    runner = SessionRunner(parse_behaviour(doc).root, ScriptedContext())
    longest = 0
    while runner.completion is None:
        runner.step(runner.ready()[0])
        longest = max(longest, len(runner._strands))
    assert runner.completion.kind == "success"
    assert runner.ctx.local.lookup("a") == 5000
    assert longest <= 3  # the root strand and one round's two children
