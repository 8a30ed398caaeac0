"""The service engine: session creation, routing, state tiers, execution.

An engine owns a table of sessions, each an interpreter over the shared
behaviour with its own private local state.  Incoming messages are routed
one at a time: first try to match a live session through the correlation
predicate (binding any still-open correlation variables), otherwise start
a new session if the operation is a session initiator, otherwise reject.

Three data tiers:

* local state lives and dies with its session and is reachable only
  through it;
* global state lives as long as the engine and is discarded when it
  stops;
* storage state lives in a file and survives engine restarts.

No activity reads or writes the global or storage tier: behaviour
documents reach only local state.  The host program reaches the other two
through ``Engine.global_read``, ``global_write``, ``global_add`` and
``engine.storage``.

Every engine runs on a ``transport.Loop``: a container's engines on the
container's loop, on the thread that also reads and answers the
container's channels, and an engine built without one on a loop of its
own, which ``stop()`` closes.  The engine's lock is that loop's lock.
Between polls the loop calls ``run_ready``, which, under that lock,
repeatedly picks one ready (session, strand) pair with a seeded
generator, steps it and does its bookkeeping (the session is touched,
and ended if the step ended it), so a fixed seed fixes every scheduling
choice.  A step that raises an error other than a fault ends only its
own session, as ``fault(IOFault)``.  A host thread that submits a
message or reads a session takes the same lock, so it waits for the
loop's current round; only the loop steps an engine, and nothing but
``run_ready`` and ``submit`` draws from its generator.  An engine with
output ports is built on the loop that reads their connections, as a
container builds its engines: a step holds the loop's lock while it
sends, and an answer read on another loop would take that lock from
there, the reverse order.

In sequential mode only the oldest live session runs and the younger ones
wait for it to finish, which is exactly what lets call cycles deadlock; a
watchdog reports that quiescence instead of hanging silently.  Between
events the loop sleeps until the watchdog's next deadline.

Every event record is built once and handed to one sink under the loop's
lock, so the records of all threads form one order and their ``ts`` never
decreases.  The sink is ``event_sink`` when one is given, and otherwise
the ring ``events``, which keeps the last ``EVENTS_KEPT`` records.

The cost of one message does not grow with the number of sessions:

* routing asks a ``CorrelationIndex`` for the sessions that may match and
  hands only those to ``select_session``, which still makes the final
  choice, so the pick is the one a scan of every live session would make;
* the engine keeps the ready (session, strand) pairs of the started
  sessions in one list, in session id order and then spawn order, which
  is the order a scan of every session would give.  It recomputes one
  session's pairs only after an event that can change them: a step of
  that session, a message delivered to it, a solicit response posted to
  it, its start, or its end;
* a finished session leaves the session table, the index and the ready
  pairs.  Its completion and final local state stay readable for the
  last ``FINISHED_KEPT`` finished sessions.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
import traceback
from bisect import bisect_left, bisect_right
from collections import OrderedDict, deque
from operator import itemgetter
from typing import NamedTuple

from .behaviour import BehaviourDef
from .correlation import (
    CorrelationConfig, CorrelationIndex, Message, bind_correlation, select_session,
)
from .deployment import Interface, INPUT_KINDS, OutputPortRuntime, REQUEST_RESPONSE
from .errors import (
    CORRELATION_ERROR, EncodeError, Fault, IO_FAULT, PROTOCOL_FAULT, SESSION_ENDED,
    StartupError, TERMINATED_FAULT, TYPE_FAULT, UNKNOWN_OPERATION,
)
from .interpreter import (
    CallResult, Completion, SessionContext, SessionRunner, Strand, TERMINATED,
    fault_completion,
)
from .state import EMPTY, State, UNDEFINED, Value
from .storage import Storage
from .transport import Loop

SEQUENTIAL = "sequential"
CONCURRENT = "concurrent"

# Finished sessions whose completion and final local state stay readable
# through session_ids, session_view and stop()'s report.
FINISHED_KEPT = 256
# Event records kept in Engine.events.
EVENTS_KEPT = 1024
# Steps stop() spends on termination handlers before it ends the sessions
# still running as terminated.
STOP_STEP_BUDGET = 100_000

_pair_sid = itemgetter(0)

# How a session ends when one of its steps raises an error that is not a
# fault: the error is no part of the behaviour, so no handler sees it.
_STEP_FAILED = fault_completion(IO_FAULT)


class RoutingOutcome(NamedTuple):
    kind: str  # "delivered" | "created" | "queued" | "rejected"
    session_id: int | None = None
    fault: str | None = None


class Session(SessionContext):
    """One running (or waiting) instance of the service behaviour.

    A session is also the context its own interpreter runs against: its
    local state, mailbox, pending replies and solicit responses, guarded
    by the engine's lock, which every caller of its methods holds: a step,
    the routing of a message, and ``stop()``.
    """

    def __init__(self, engine: "Engine", sid: int, local: State):
        super().__init__(local)
        self._engine = engine
        self.sid = sid
        self.mailbox: deque[Message] = deque()
        self.pending_replies: dict[str, tuple[object, str]] = {}
        self.responses: dict[int, CallResult] = {}
        self.started = False
        self.completion: Completion | None = None
        self.runner = SessionRunner(engine._behaviour.root, self)

    def status(self) -> str:
        """The state of a live session."""
        if not self.started:
            return "created"
        if self.runner.ready():
            return "running"
        return "blocked"

    def bind(self, bindings: dict[str, Value]) -> None:
        """Bind local variables in one update, under the lock the step
        holds: no message binds a correlation variable of this session
        meanwhile, and the routing index stays in step with ``local``."""
        old = self.local
        self.local = new = old.bind(bindings)
        self._engine._index.update(self.sid, old, new)

    def has_message(self, op: str) -> bool:
        return any(m.operation == op for m in self.mailbox)

    def take_message(self, op: str):
        box = self.mailbox
        for i, m in enumerate(box):
            if m.operation == op:
                del box[i]
                return m
        return None

    def note_request(self, msg: Message) -> None:
        if self._engine._interface.kind_of(msg.operation) != REQUEST_RESPONSE:
            return
        if msg.operation in self.pending_replies:
            raise Fault(PROTOCOL_FAULT, f"second receive on {msg.operation!r} before its reply")
        self.pending_replies[msg.operation] = (msg.channel_id, msg.request_id)

    def send_reply(self, op: str, payload: State) -> None:
        """Answer the pending request; one that came with no channel has
        nobody to answer, so its reply is dropped."""
        pending = self.pending_replies.pop(op, None)
        if pending is None:
            raise Fault(PROTOCOL_FAULT, f"reply on {op!r} with no pending request")
        decl = self._engine._interface.get(op)
        if decl is not None and decl.response is not None:
            decl.response.check(payload, f"reply {op}")
        handle, request_id = pending
        if handle is not None:
            try:
                handle.send_response(request_id, op, payload)
            except EncodeError as e:
                self.pending_replies[op] = pending  # not answered: still owed
                raise Fault(IO_FAULT, str(e)) from e

    def notify(self, port: str, op: str, payload: State) -> None:
        try:
            self._engine._output(port).notify(op, payload)
        except EncodeError as e:
            raise Fault(IO_FAULT, str(e)) from e

    def begin_solicit(self, port: str, op: str, payload: State) -> int:
        engine = self._engine
        token = next(engine._tokens)
        try:
            engine._output(port).solicit_begin(
                op, payload, lambda result: engine._post_response(self, token, result)
            )
        except EncodeError as e:
            raise Fault(IO_FAULT, str(e)) from e
        return token

    def response_ready(self, token: int) -> bool:
        return token in self.responses

    def take_response(self, token: int) -> CallResult:
        return self.responses.pop(token)


class Engine:
    def __init__(
        self,
        *,
        behaviour: BehaviourDef,
        interface: Interface,
        correlation: CorrelationConfig | None = None,
        mode: str = CONCURRENT,
        seed: int = 0,
        storage_path: str | None = None,
        outputs: dict[str, OutputPortRuntime] | None = None,
        name: str = "service",
        event_sink=None,
        watchdog_grace: float = 0.5,
        log_steps: bool = False,
        loop: Loop | None = None,
    ):
        if mode not in (SEQUENTIAL, CONCURRENT):
            raise StartupError(f"unknown execution mode {mode!r}")
        self.name = name
        self.mode = mode
        self._behaviour = behaviour
        self._interface = interface
        self._correlation = correlation or CorrelationConfig()
        self._outputs_map = outputs or {}
        self._rng = random.Random(seed)
        self._owns_loop = loop is None
        self._loop = Loop(name=f"engine-{name}") if loop is None else loop
        self._lock = self._loop.lock
        # notified when a session ends and when the watchdog reports
        self._cond = threading.Condition(self._lock)
        self._sessions: dict[int, Session] = {}  # live sessions, in sid order
        self._finished: OrderedDict[int, tuple[Completion, State]] = OrderedDict()
        self._index = CorrelationIndex(self._correlation.cset)
        # Every ready (sid, strand) pair of the started sessions, by sid and
        # then spawn order; _dirty holds the sids whose pairs may be stale.
        self._ready: list[tuple[int, Strand]] = []
        self._dirty: set[int] = set()
        self._next_sid = 0
        self._tokens = itertools.count(1)
        self._globals: dict[str, Value] = {}
        self._globals_lock = threading.Lock()
        self.storage = Storage(storage_path) if storage_path else None
        self.events: deque[dict] = deque(maxlen=EVENTS_KEPT)
        self._event_sink = event_sink or self.events.append
        self.watchdog_grace = watchdog_grace
        self.log_steps = log_steps
        self.deadlock_reports: list[dict] = []
        self._deadlock_flagged = False
        self._last_activity = time.monotonic()
        self._started = threading.Event()
        self._stop_requested = False
        self.final_report: dict[int, Completion] | None = None

    # Lifecycle -----------------------------------------------------------

    def start(self) -> "Engine":
        """Begin serving: the firing session, if any, is created (and in
        sequential mode started) before the loop can take a step or a
        message, as if no message had come first."""
        with self._lock:
            if self._started.is_set():
                raise StartupError("engine already started")
            self._emit("engine_started", mode=self.mode)
            if self._behaviour.firing:
                session = self._create_session_locked(EMPTY, firing=True)
                if not session.started:
                    self._start_session_locked(session)
            self._loop.add_worker(self.run_ready)
            self._started.set()
        return self

    def stop(self) -> dict[int, Completion]:
        """Terminate running sessions, discard global state, keep storage,
        and close the engine's own loop if it has one.

        The termination runs on the calling thread under the loop's lock,
        which keeps the loop from stepping this engine meanwhile and, taken
        on the loop itself, waits for nothing."""
        with self._lock:
            if self._started.is_set():
                self._loop.remove_worker(self.run_ready)
                self._stop_requested = True
                self._terminate_all_sessions()
                with self._globals_lock:
                    self._globals.clear()
                report = {sid: completion for sid, (completion, _) in self._finished.items()}
                report.update((sid, s.completion) for sid, s in self._sessions.items())
                report = dict(sorted(report.items()))
                self._emit("engine_stopped", report={k: repr(v) for k, v in report.items()})
            else:
                report = {}
            self.final_report = report
        if self._owns_loop:
            self._loop.close()
        return report

    # Intake --------------------------------------------------------------

    def submit(self, m: Message) -> RoutingOutcome:
        """Route one message: deliver, create, queue, or reject it.

        A message may beat the engine's own start by a moment when
        listeners come up first; wait out that window instead of failing.
        """
        started = self._started
        if not started.is_set() and not started.wait(timeout=5.0):
            raise StartupError("engine not started")
        if self._stop_requested:
            return RoutingOutcome("rejected", fault=IO_FAULT)
        kind = self._interface.kind_of(m.operation)
        if kind not in INPUT_KINDS:
            self._emit("message_rejected", op=m.operation, fault=UNKNOWN_OPERATION)
            return RoutingOutcome("rejected", fault=UNKNOWN_OPERATION)
        cfun = self._correlation.function_for(m.operation)
        with self._lock:
            self._touch_locked()
            sids = self._index.candidates(m, cfun)
            sessions = self._sessions
            candidates = ([(sid, s.local) for sid, s in sessions.items()] if sids is None
                          else [(sid, sessions[sid].local) for sid in sids])
            target = select_session(m, candidates, self._correlation, self._rng.getrandbits(32))
            if target is not None:
                session = sessions[target]
                old = session.local
                session.local = bind_correlation(m, cfun, old)
                self._index.update(target, old, session.local)
                session.mailbox.append(m)
                self._dirty.add(target)
                outcome = RoutingOutcome("delivered" if session.started else "queued", target)
            elif m.operation in self._behaviour.initiators:
                session = self._create_session_locked(bind_correlation(m, cfun, EMPTY))
                session.mailbox.append(m)
                outcome = RoutingOutcome("created", session.sid)
            else:
                outcome = RoutingOutcome("rejected", fault=CORRELATION_ERROR)
            self._emit("message_routed", session=outcome.session_id, op=m.operation,
                       outcome=outcome.kind, fault=outcome.fault)
        self._loop.wake()
        return outcome

    def _create_session_locked(self, local: State, firing: bool = False) -> Session:
        self._next_sid += 1
        session = Session(self, self._next_sid, local)
        self._sessions[session.sid] = session
        self._index.add(session.sid, local)
        self._emit("session_created", session=session.sid, firing=firing)
        if self.mode == CONCURRENT:
            self._start_session_locked(session)
        return session

    def _start_session_locked(self, session: Session) -> None:
        session.started = True
        self._dirty.add(session.sid)
        self._emit("session_started", session=session.sid)

    # Stepping ------------------------------------------------------------

    def run_ready(self, budget: int) -> float | None:
        """On the loop, under its lock: take up to ``budget`` steps, each
        picked, taken and booked in turn.  Returns 0 when steps are left,
        else how long until the watchdog is due (None: only a new event can
        give this engine work)."""
        rng = self._rng
        while not self._stop_requested:
            pairs = self._ready_pairs_locked()
            if not pairs:
                return self._check_deadlock_locked()
            if budget <= 0:
                return 0.0
            budget -= 1
            sid, strand = pairs[rng.randrange(len(pairs))]
            session = self._sessions[sid]
            if self.log_steps:
                self._emit("step", session=sid, strand=strand.sid)
            completion = self._step(session, strand)
            self._touch_locked()
            self._dirty.add(sid)
            if completion is not None:
                self._finish_session_locked(session, completion)
        return None

    def _step(self, session: Session, strand: Strand) -> Completion | None:
        """Step ``strand`` of ``session``: the session's completion once the
        step has ended it.  An error that is not a fault is recorded with
        its traceback and ends only this session, as ``fault(IOFault)``, so
        the others keep running."""
        try:
            session.runner.step(strand)
        except Exception as e:
            self._emit("step_failed", session=session.sid, error=repr(e),
                       traceback=traceback.format_exc())
            return _STEP_FAILED
        return session.runner.completion

    def _ready_pairs_locked(self) -> list[tuple[int, Strand]]:
        """Every ready (session, strand) pair of the started sessions, in
        sid order and then spawn order.  In sequential mode the one started
        session is the oldest live one: before ``stop()`` only ``run_ready``
        ends sessions, and it steps only started ones, so when the oldest
        has finished the next oldest starts."""
        if self.mode == SEQUENTIAL:
            oldest = next(iter(self._sessions.values()), None)
            if oldest is not None and not oldest.started:
                self._start_session_locked(oldest)
        pairs = self._ready
        for sid in self._dirty:
            session = self._sessions.get(sid)
            strands = session.runner.ready() if session is not None and session.started else []
            lo = bisect_left(pairs, sid, key=_pair_sid)
            pairs[lo:bisect_right(pairs, sid, lo, key=_pair_sid)] = [(sid, s) for s in strands]
        self._dirty.clear()
        return pairs

    def _finish_session_locked(self, session: Session, completion: Completion) -> None:
        """The one way a session ends.  It must not leave a request hanging
        forever, so every reply it still owes is answered with a fault, and
        so is every request-response message still in its mailbox.  The
        session then leaves the live tables; its completion and final local
        state are kept among the last ``FINISHED_KEPT``.  It lets go of its
        runner, which refers back to it, so reference counting frees it."""
        session.completion = completion
        self._emit("session_finished", session=session.sid, completion=repr(completion))
        if completion.kind == "fault":
            fault_name = completion.fault
        elif completion.kind == "terminated":
            fault_name = TERMINATED_FAULT
        else:
            fault_name = PROTOCOL_FAULT
        for op, (handle, request_id) in session.pending_replies.items():
            if handle is not None:
                handle.send_fault(request_id, op, fault_name)
        session.pending_replies.clear()
        for m in session.mailbox:
            if m.channel_id is not None and self._interface.kind_of(m.operation) == REQUEST_RESPONSE:
                m.channel_id.send_fault(m.request_id, m.operation, SESSION_ENDED)
        session.mailbox.clear()
        sid = session.sid
        del self._sessions[sid]
        self._index.remove(sid, session.local)
        self._dirty.add(sid)
        session.runner = None
        self._finished[sid] = (completion, session.local)
        if len(self._finished) > FINISHED_KEPT:
            self._finished.popitem(last=False)
        self._cond.notify_all()

    def _terminate_all_sessions(self) -> None:
        sessions = list(self._sessions.values())
        for session in sessions:
            if session.completion is None:
                session.started = True
                session.runner.terminate()
        budget = STOP_STEP_BUDGET
        while budget > 0:
            stepped = False
            for session in sessions:
                if session.completion is not None:
                    continue
                ready = session.runner.ready()
                completion = session.runner.completion
                if ready and budget > 0:
                    completion = self._step(session, ready[0])
                    stepped = True
                    budget -= 1
                if completion is not None:
                    self._finish_session_locked(session, completion)
            if not stepped:
                break
        for session in sessions:
            if session.completion is None:
                self._finish_session_locked(session, TERMINATED)

    def _check_deadlock_locked(self) -> float | None:
        """Flag quiescence that cannot resolve itself: blocked solicits or
        sessions waiting behind the oldest in sequential mode, with nothing
        running.

        Returns how long the idle loop may sleep before the check is due,
        or None when only a new event (which notifies) can change its answer.
        """
        if self._deadlock_flagged:
            return None
        due = self._last_activity + self.watchdog_grace - time.monotonic()
        if due > 0:
            return due
        live = list(self._sessions.values())
        stuck_behind_queue = any(not s.started for s in live)
        awaiting_response = any(
            s.started and s.runner.waiting_on_response() for s in live
        )
        if not (stuck_behind_queue or awaiting_response):
            return None
        self._deadlock_flagged = True
        report = {
            "sessions": {s.sid: s.status() for s in live},
            "queued": [s.sid for s in live if not s.started],
        }
        self.deadlock_reports.append(report)
        self._emit("deadlock", detail_sessions=report["sessions"])
        self._cond.notify_all()
        return None

    def _touch_locked(self) -> None:
        self._last_activity = time.monotonic()
        self._deadlock_flagged = False

    # Shared state tiers ----------------------------------------------------

    def global_read(self, name: str):
        with self._globals_lock:
            return self._globals.get(name, UNDEFINED)

    def global_write(self, name: str, value: Value) -> None:
        with self._globals_lock:
            self._globals[name] = value

    def global_add(self, name: str, delta: Value):
        """Atomic read-modify-write; an unbound variable counts as 0."""
        if type(delta) not in (int, float):
            raise Fault(TYPE_FAULT, f"add needs a number, got {delta!r}")
        with self._globals_lock:
            current = self._globals.get(name)
            if current is None:
                current = 0 if type(delta) is int else 0.0
            if type(current) is not type(delta):
                raise Fault(TYPE_FAULT, f"add {type(delta).__name__} over {current!r}")
            self._globals[name] = current + delta
            return self._globals[name]

    # Plumbing ---------------------------------------------------------------

    def _output(self, port: str) -> OutputPortRuntime:
        runtime = self._outputs_map.get(port)
        if runtime is None:
            raise Fault(IO_FAULT, f"no output port named {port!r}")
        return runtime

    def _post_response(self, session: Session, token: int, result: CallResult) -> None:
        with self._lock:
            if session.completion is not None:
                return
            session.responses[token] = result
            self._dirty.add(session.sid)
            self._touch_locked()
        self._loop.wake()

    def _emit(self, event: str, session: int | None = None, **detail) -> None:
        with self._lock:
            self._event_sink({"ts": time.time(), "session": session, "event": event,
                              "detail": detail})

    # Observation -------------------------------------------------------------

    def session_ids(self) -> list[int]:
        """Live sessions and the last ``FINISHED_KEPT`` finished ones."""
        with self._lock:
            return sorted([*self._finished, *self._sessions])

    def session_view(self, sid: int) -> tuple[str, Completion | None, State]:
        with self._lock:
            s = self._sessions.get(sid)
            if s is not None:
                return s.status(), s.completion, s.local
            completion, local = self._finished[sid]
            return "finished", completion, local

    def live_session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def wait_all_finished(self, timeout: float = 10.0) -> bool:
        """Block until every session so far has finished.  A host call: the
        wait gives up the loop's lock, every level the caller holds, so the
        loop steps on meanwhile; on the loop itself it would wait for
        nothing but its own timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: not self._sessions, timeout)

    def wait_deadlock(self, timeout: float = 5.0) -> bool:
        """Block until the watchdog reports; a host call, as
        ``wait_all_finished`` is."""
        with self._cond:
            return self._cond.wait_for(lambda: bool(self.deadlock_reports), timeout)
