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

Sessions execute on a single driver thread that repeatedly picks one
ready (session, strand) pair with a seeded generator, so a fixed seed
fixes every scheduling choice.  In sequential mode only one session is
active at a time and the rest wait in a FIFO queue, which is exactly what
lets call cycles deadlock; a watchdog reports that quiescence instead of
hanging silently.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from dataclasses import dataclass

from .behaviour import BehaviourDef
from .correlation import CorrelationConfig, Message, bind_correlation, select_session
from .deployment import Interface, INPUT_KINDS, OutputPortRuntime, REQUEST_RESPONSE
from .errors import (
    CORRELATION_ERROR, Fault, IO_FAULT, PROTOCOL_FAULT, StartupError,
    TERMINATED_FAULT, TYPE_FAULT, UNKNOWN_OPERATION,
)
from .interpreter import CallResult, Completion, SessionContext, SessionRunner, TERMINATED
from .state import EMPTY, State, UNDEFINED, Value
from .storage import Storage

SEQUENTIAL = "sequential"
CONCURRENT = "concurrent"


@dataclass(frozen=True)
class RoutingOutcome:
    kind: str  # "delivered" | "created" | "queued" | "rejected"
    session_id: int | None = None
    fault: str | None = None


class Session(SessionContext):
    """One running (or waiting) instance of the service behaviour.

    A session is also the context its own interpreter runs against: its
    local state, mailbox, pending replies and solicit responses, guarded
    by the owning engine's lock.
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
        if self.completion is not None:
            return "finished"
        if not self.started:
            return "created"
        if self.runner.ready():
            return "running"
        return "blocked"

    def has_message(self, op: str) -> bool:
        with self._engine._lock:
            return any(m.operation == op for m in self.mailbox)

    def take_message(self, op: str):
        with self._engine._lock:
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
            handle.send_response(request_id, op, payload)

    def notify(self, port: str, op: str, payload: State) -> None:
        self._engine._output(port).notify(op, payload)

    def begin_solicit(self, port: str, op: str, payload: State) -> int:
        engine = self._engine
        token = next(engine._tokens)
        engine._output(port).solicit_begin(
            op, payload, lambda result: engine._post_response(self, token, result)
        )
        return token

    def response_ready(self, token: int) -> bool:
        with self._engine._lock:
            return token in self.responses

    def take_response(self, token: int) -> CallResult:
        with self._engine._lock:
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
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._sessions: dict[int, Session] = {}
        self._next_sid = 0
        self._tokens = itertools.count(1)
        self._ready_queue: deque[int] = deque()
        self._active_sid: int | None = None
        self._globals: dict[str, Value] = {}
        self._globals_lock = threading.Lock()
        self.storage = Storage(storage_path) if storage_path else None
        self.events: list[dict] = []
        self._event_sink = event_sink
        self.watchdog_grace = watchdog_grace
        self.log_steps = log_steps
        self.deadlock_reports: list[dict] = []
        self._deadlock_flagged = False
        self._last_activity = time.monotonic()
        self._started = False
        self._started_event = threading.Event()
        self._stop_requested = False
        self._driver: threading.Thread | None = None
        self.final_report: dict[int, Completion] | None = None

    # Lifecycle -----------------------------------------------------------

    def start(self) -> "Engine":
        if self._started:
            raise StartupError("engine already started")
        for op in sorted(self._behaviour.initiators):
            kind = self._interface.kind_of(op)
            if kind not in INPUT_KINDS:
                raise StartupError(f"initiator {op!r} is not a declared input operation")
        for op in self._correlation.functions:
            if self._interface.kind_of(op) not in INPUT_KINDS:
                raise StartupError(f"correlation declared for non-input operation {op!r}")
        self._started = True
        self._emit("engine_started", mode=self.mode)
        if self._behaviour.firing:
            with self._lock:
                self._create_session_locked(EMPTY, firing=True)
        self._driver = threading.Thread(target=self._drive, daemon=True, name=f"engine-{self.name}")
        self._driver.start()
        self._started_event.set()
        return self

    def stop(self) -> dict[int, Completion]:
        """Terminate running sessions, discard global state, keep storage."""
        if not self._started:
            self.final_report = {}
            return {}
        with self._cond:
            self._stop_requested = True
            self._cond.notify_all()
        self._driver.join(timeout=10.0)
        with self._globals_lock:
            self._globals.clear()
        report = {sid: s.completion for sid, s in self._sessions.items()}
        self.final_report = report
        self._emit("engine_stopped", report={k: repr(v) for k, v in report.items()})
        return report

    # Intake --------------------------------------------------------------

    def submit(self, m: Message) -> RoutingOutcome:
        """Route one message: deliver, create, queue, or reject it.

        A message may beat the engine's own start by a moment when
        listeners come up first; wait out that window instead of failing.
        """
        if not self._started_event.wait(timeout=5.0):
            raise StartupError("engine not started")
        if self._stop_requested:
            return RoutingOutcome("rejected", fault=IO_FAULT)
        kind = self._interface.kind_of(m.operation)
        if kind not in INPUT_KINDS:
            self._emit("message_rejected", op=m.operation, fault=UNKNOWN_OPERATION)
            return RoutingOutcome("rejected", fault=UNKNOWN_OPERATION)
        cfun = self._correlation.function_for(m.operation)
        with self._cond:
            self._touch_locked()
            live = [
                (sid, s.local)
                for sid, s in self._sessions.items()
                if s.completion is None
            ]
            target = select_session(m, live, self._correlation, self._rng.getrandbits(32))
            if target is not None:
                session = self._sessions[target]
                session.local = bind_correlation(m, cfun, session.local)
                session.mailbox.append(m)
                outcome = RoutingOutcome("delivered" if session.started else "queued", target)
            elif m.operation in self._behaviour.initiators:
                session = self._create_session_locked(bind_correlation(m, cfun, EMPTY))
                session.mailbox.append(m)
                outcome = RoutingOutcome("created", session.sid)
            else:
                outcome = RoutingOutcome("rejected", fault=CORRELATION_ERROR)
            self._cond.notify_all()
        self._emit("message_routed", session=outcome.session_id, op=m.operation,
                   outcome=outcome.kind, fault=outcome.fault)
        return outcome

    def _create_session_locked(self, local: State, firing: bool = False) -> Session:
        self._next_sid += 1
        session = Session(self, self._next_sid, local)
        self._sessions[session.sid] = session
        self._emit("session_created", session=session.sid, firing=firing)
        if self.mode == SEQUENTIAL:
            self._ready_queue.append(session.sid)
        else:
            session.started = True
            self._emit("session_started", session=session.sid)
        return session

    # Driver --------------------------------------------------------------

    def _drive(self) -> None:
        while True:
            with self._cond:
                if self._stop_requested:
                    break
                pairs = self._ready_pairs_locked()
                if not pairs:
                    self._check_deadlock_locked()
                    self._cond.wait(timeout=0.02)
                    continue
                sid, strand = pairs[self._rng.randrange(len(pairs))]
                session = self._sessions[sid]
            if self.log_steps:
                self._emit("step", session=sid, strand=strand.sid)
            session.runner.step(strand)
            with self._cond:
                self._touch_locked()
                if session.runner.completion is not None and session.completion is None:
                    self._finish_session_locked(session, session.runner.completion)
        self._terminate_all_sessions()

    def _ready_pairs_locked(self) -> list[tuple[int, object]]:
        if self.mode == SEQUENTIAL:
            active = self._active_sid
            if active is None or self._sessions[active].completion is not None:
                active = None
                while self._ready_queue:
                    sid = self._ready_queue.popleft()
                    if self._sessions[sid].completion is None:
                        active = sid
                        break
                self._active_sid = active
                if active is not None:
                    self._sessions[active].started = True
                    self._emit("session_started", session=active)
            if active is None:
                return []
            return [(active, s) for s in self._sessions[active].runner.ready()]
        pairs = []
        for sid, session in self._sessions.items():
            if session.completion is None and session.started:
                pairs.extend((sid, s) for s in session.runner.ready())
        return pairs

    def _finish_session_locked(self, session: Session, completion: Completion) -> None:
        """The one way a session ends.  It must not leave a request hanging
        forever, so every reply it still owes is answered with a fault."""
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
        self._cond.notify_all()

    def _terminate_all_sessions(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            if session.completion is None:
                session.started = True
                session.runner.terminate()
        budget = 100_000
        while budget:
            stepped = False
            for session in sessions:
                if session.completion is not None:
                    continue
                ready = session.runner.ready()
                if ready:
                    session.runner.step(ready[0])
                    stepped = True
                    budget -= 1
                if session.runner.completion is not None:
                    with self._lock:
                        self._finish_session_locked(session, session.runner.completion)
            if not stepped:
                break
        with self._lock:
            for session in sessions:
                if session.completion is None:
                    self._finish_session_locked(session, TERMINATED)

    def _check_deadlock_locked(self) -> None:
        """Flag quiescence that cannot resolve itself: blocked solicits or
        sessions stuck behind a sequential queue, with nothing running."""
        if self._deadlock_flagged:
            return
        if time.monotonic() - self._last_activity < self.watchdog_grace:
            return
        live = [s for s in self._sessions.values() if s.completion is None]
        if not live:
            return
        stuck_behind_queue = any(not s.started for s in live)
        awaiting_response = any(
            s.started and s.runner.waiting_on_response() for s in live
        )
        if not (stuck_behind_queue or awaiting_response):
            return
        self._deadlock_flagged = True
        report = {
            "sessions": {s.sid: s.status() for s in live},
            "queued": [s.sid for s in live if not s.started],
        }
        self.deadlock_reports.append(report)
        self._emit("deadlock", detail_sessions=report["sessions"])
        self._cond.notify_all()

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
        with self._cond:
            if session.completion is not None:
                return
            session.responses[token] = result
            self._touch_locked()
            self._cond.notify_all()

    def _emit(self, event: str, session: int | None = None, **detail) -> None:
        record = {"ts": time.time(), "session": session, "event": event, "detail": detail}
        self.events.append(record)
        if self._event_sink is not None:
            self._event_sink(record)

    # Observation -------------------------------------------------------------

    def session_ids(self) -> list[int]:
        with self._lock:
            return sorted(self._sessions)

    def session_view(self, sid: int) -> tuple[str, Completion | None, State]:
        with self._lock:
            s = self._sessions[sid]
            return s.status(), s.completion, s.local

    def live_session_count(self) -> int:
        with self._lock:
            return sum(1 for s in self._sessions.values() if s.completion is None)

    def wait_all_finished(self, timeout: float = 10.0) -> bool:
        """Block until every session so far has finished."""
        with self._cond:
            return self._cond.wait_for(
                lambda: all(s.completion is not None for s in self._sessions.values()), timeout)

    def wait_deadlock(self, timeout: float = 5.0) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: bool(self.deadlock_reports), timeout)
