"""Per-session interpretation of activity trees.

One session runs as a set of *strands*: cooperative execution units built
on generators.  A strand advances one small step at a time; a scheduler
(seeded, so reproducible) picks which ready strand steps next.  Parallel
activities spawn child strands and join on all of them.

Fault discipline:

* a fault raised in a scope runs that scope's matching handler, after
  which the scope ends quietly (its compensation handler is not armed);
* with no matching handler the fault propagates to the enclosing scope,
  but only after running siblings inside a parallel have been terminated.
  Each scope that actually started executing runs its termination handler
  exactly once, innermost first; a scope the scheduler never reached is
  simply not performed, so its handler stays silent;
* a scope whose body completes successfully records its compensation
  handler; ``compensate`` replays recorded handlers of that scope name in
  reverse completion order and consumes them;
* a fault escaping a termination handler is surfaced as the fault
  ``HandlerFault`` in place of whatever was propagating.

Every session run yields exactly one completion: success, fault, or
terminated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from . import expressions
from .behaviour import (
    Activity, Assign, BehaviourDef, Compensate, If, Nil, Notify, Parallel,
    Receive, Reply, Scope, Sequence, Solicit, Throw, While, join_prefix,
)
from .errors import (
    BudgetExceeded, Fault, HANDLER_FAULT, IO_FAULT, PROTOCOL_FAULT,
)
from .state import EMPTY, State


@dataclass(frozen=True)
class Completion:
    kind: str  # "success" | "fault" | "terminated"
    fault: str | None = None

    def __repr__(self) -> str:
        return f"fault({self.fault})" if self.kind == "fault" else self.kind


SUCCESS = Completion("success")
TERMINATED = Completion("terminated")


def fault_completion(name: str) -> Completion:
    return Completion("fault", name)


@dataclass(frozen=True)
class CallResult:
    """Outcome of a solicit: a response payload or a remote fault name."""

    payload: State | None = None
    fault: str | None = None


class _Terminate(Exception):
    """Internal signal: unwind a strand, running termination handlers."""

    def __init__(self) -> None:
        super().__init__()
        self.handler_fault = False


_STEP = object()


@dataclass(frozen=True)
class _WaitMessage:
    op: str


@dataclass(frozen=True)
class _WaitResponse:
    token: int


@dataclass(frozen=True)
class _SpawnPar:
    children: tuple[Activity, ...]


class SessionContext:
    """What a running session can touch: local state, messages, I/O.

    This base class implements the local-state and compensation ledger
    plumbing; communication methods fail by default and are overridden by
    the engine (real transports) or by test harness contexts.
    """

    def __init__(self, local: State = EMPTY):
        self.local = local
        self._completed_scopes: list[tuple[str, Activity | None]] = []

    def set_var(self, name: str, value) -> None:
        self.local = self.local.update(name, value)

    def scope_completed(self, name: str, on_compensate: Activity | None) -> None:
        self._completed_scopes.append((name, on_compensate))

    def pop_compensations(self, name: str) -> list[Activity]:
        """Handlers of completed instances of ``name``, newest first; consumed."""
        kept: list[tuple[str, Activity | None]] = []
        popped: list[Activity | None] = []
        for scope_name, handler in self._completed_scopes:
            if scope_name == name:
                popped.append(handler)
            else:
                kept.append((scope_name, handler))
        self._completed_scopes = kept
        return [h for h in reversed(popped) if h is not None]

    # Communication surface, overridden by real contexts.

    def has_message(self, op: str) -> bool:
        return False

    def take_message(self, op: str):
        return None

    def note_request(self, msg) -> None:
        """Bookkeeping hook when a receive consumes a message."""

    def send_reply(self, op: str, payload: State) -> None:
        raise Fault(PROTOCOL_FAULT, f"no pending request for {op!r}")

    def notify(self, port: str, op: str, payload: State) -> None:
        raise Fault(IO_FAULT, f"no output port {port!r}")

    def begin_solicit(self, port: str, op: str, payload: State) -> int:
        raise Fault(IO_FAULT, f"no output port {port!r}")

    def response_ready(self, token: int) -> bool:
        return False

    def take_response(self, token: int) -> CallResult:
        raise Fault(IO_FAULT, "no response pending")


def _interp_nil(act: Nil, ctx: SessionContext):
    yield from ()


def _interp_assign(act: Assign, ctx: SessionContext):
    yield _STEP
    ctx.set_var(act.var, expressions.evaluate(act.expr, ctx.local))


def _interp_sequence(act: Sequence, ctx: SessionContext):
    for child in act.children:
        yield from _interp(child, ctx)


def _interp_parallel(act: Parallel, ctx: SessionContext):
    if not act.children:
        return
    yield _SpawnPar(act.children)


def _interp_if(act: If, ctx: SessionContext):
    yield _STEP
    if expressions.evaluate_bool(act.cond, ctx.local):
        yield from _interp(act.then, ctx)
    else:
        yield from _interp(act.orelse, ctx)


def _interp_while(act: While, ctx: SessionContext):
    while True:
        yield _STEP
        if not expressions.evaluate_bool(act.cond, ctx.local):
            return
        yield from _interp(act.body, ctx)


def _interp_receive(act: Receive, ctx: SessionContext):
    msg = yield _WaitMessage(act.op)
    ctx.note_request(msg)
    for field in sorted(msg.payload.names()):
        ctx.set_var(join_prefix(act.into, field), msg.payload.lookup(field))


def _interp_reply(act: Reply, ctx: SessionContext):
    yield _STEP
    payload = State({name: expressions.evaluate(e, ctx.local) for name, e in act.fields})
    ctx.send_reply(act.op, payload)


def _interp_notify(act: Notify, ctx: SessionContext):
    yield _STEP
    payload = State({name: expressions.evaluate(e, ctx.local) for name, e in act.payload})
    ctx.notify(act.port, act.op, payload)


def _interp_solicit(act: Solicit, ctx: SessionContext):
    yield _STEP
    payload = State({name: expressions.evaluate(e, ctx.local) for name, e in act.payload})
    token = ctx.begin_solicit(act.port, act.op, payload)
    result = yield _WaitResponse(token)
    if result.fault is not None:
        raise Fault(result.fault)
    for field in sorted(result.payload.names()):
        ctx.set_var(join_prefix(act.into, field), result.payload.lookup(field))


def _interp_throw(act: Throw, ctx: SessionContext):
    yield _STEP
    raise Fault(act.fault)


def _interp_scope(act: Scope, ctx: SessionContext):
    try:
        yield from _interp(act.body, ctx)
    except Fault as f:
        handler = act.handler_for(f.name)
        if handler is None:
            raise
        yield from _interp(handler, ctx)
    except _Terminate as t:
        if act.on_terminate is not None:
            try:
                yield from _interp(act.on_terminate, ctx)
            except Fault:
                t.handler_fault = True
            except _Terminate:
                pass
        raise t
    else:
        ctx.scope_completed(act.name, act.on_compensate)


def _interp_compensate(act: Compensate, ctx: SessionContext):
    yield _STEP
    for handler in ctx.pop_compensations(act.target):
        yield from _interp(handler, ctx)


_DISPATCH = {
    Nil: _interp_nil,
    Assign: _interp_assign,
    Sequence: _interp_sequence,
    Parallel: _interp_parallel,
    If: _interp_if,
    While: _interp_while,
    Receive: _interp_receive,
    Reply: _interp_reply,
    Notify: _interp_notify,
    Solicit: _interp_solicit,
    Throw: _interp_throw,
    Scope: _interp_scope,
    Compensate: _interp_compensate,
}


def _interp(act: Activity, ctx: SessionContext):
    return _DISPATCH[type(act)](act, ctx)


class _Join:
    __slots__ = ("owner", "pending", "fault", "terminating")

    def __init__(self, owner: "Strand"):
        self.owner = owner
        self.pending: set[Strand] = set()
        self.fault: str | None = None
        self.terminating = False


class Strand:
    """One schedulable unit of a session."""

    __slots__ = ("sid", "gen", "waiting", "terminating", "terminate_delivered",
                 "done", "parent_join")

    def __init__(self, sid: int, gen, parent_join: _Join | None):
        self.sid = sid
        self.gen = gen
        self.waiting: Any = None
        self.terminating = False
        self.terminate_delivered = False
        self.done: Completion | None = None
        self.parent_join = parent_join

    def __repr__(self) -> str:
        return f"Strand({self.sid})"


class SessionRunner:
    """Step machine for one session over an activity tree."""

    def __init__(self, root: Activity, ctx: SessionContext):
        self.ctx = ctx
        self._strands: list[Strand] = []
        self._next_sid = 0
        self.completion: Completion | None = None
        self._spawn(_interp(root, ctx), None)

    def _spawn(self, gen, parent_join: _Join | None) -> Strand:
        strand = Strand(self._next_sid, gen, parent_join)
        self._next_sid += 1
        self._strands.append(strand)
        return strand

    def ready(self) -> list[Strand]:
        """Ready strands, in stable spawn order."""
        out = []
        for s in self._strands:
            if s.done is None and self._is_ready(s):
                out.append(s)
        return out

    def _is_ready(self, s: Strand) -> bool:
        w = s.waiting
        if isinstance(w, _Join):
            return not w.pending
        if s.terminating and not s.terminate_delivered:
            return True
        if isinstance(w, _WaitMessage):
            return self.ctx.has_message(w.op)
        if isinstance(w, _WaitResponse):
            return self.ctx.response_ready(w.token)
        return True

    def waiting_on_response(self) -> bool:
        """True when some live strand awaits a solicited response."""
        return any(
            isinstance(s.waiting, _WaitResponse) for s in self._strands if s.done is None
        )

    def step(self, strand: Strand) -> None:
        """Advance one strand by one step.  No-op if its wait is unmet."""
        if strand.done is not None:
            return
        w = strand.waiting
        throw: BaseException | None = None
        send_value: Any = None
        if isinstance(w, _Join):
            if w.pending:
                return
            if strand.terminating and not strand.terminate_delivered:
                strand.terminate_delivered = True
                throw = _Terminate()
            elif w.fault is not None:
                throw = Fault(w.fault)
        elif strand.terminating and not strand.terminate_delivered:
            strand.terminate_delivered = True
            throw = _Terminate()
        elif isinstance(w, _WaitMessage):
            msg = self.ctx.take_message(w.op)
            if msg is None:
                return
            send_value = msg
        elif isinstance(w, _WaitResponse):
            if not self.ctx.response_ready(w.token):
                return
            send_value = self.ctx.take_response(w.token)
        strand.waiting = None
        try:
            if throw is not None:
                yielded = strand.gen.throw(throw)
            else:
                yielded = strand.gen.send(send_value)
        except StopIteration:
            self._finish(strand, TERMINATED if strand.terminating else SUCCESS)
            return
        except Fault as f:
            if strand.terminating:
                self._finish(strand, TERMINATED, handler_fault=True)
            else:
                self._finish(strand, fault_completion(f.name))
            return
        except _Terminate as t:
            self._finish(strand, TERMINATED, handler_fault=t.handler_fault)
            return
        if yielded is _STEP:
            return
        if isinstance(yielded, (_WaitMessage, _WaitResponse)):
            strand.waiting = yielded
            return
        if isinstance(yielded, _SpawnPar):
            join = _Join(strand)
            for child in yielded.children:
                join.pending.add(self._spawn(_interp(child, self.ctx), join))
            strand.waiting = join
            return
        raise AssertionError(f"unexpected yield from strand: {yielded!r}")

    def _finish(self, strand: Strand, completion: Completion, handler_fault: bool = False) -> None:
        strand.done = completion
        strand.waiting = None
        join = strand.parent_join
        if join is None:
            self.completion = completion
            return
        join.pending.discard(strand)
        if handler_fault:
            join.fault = HANDLER_FAULT
        elif completion.kind == "fault" and join.fault is None and not join.terminating:
            join.fault = completion.fault
            join.terminating = True
            for sibling in list(join.pending):
                self._mark_terminating(sibling)

    def _mark_terminating(self, strand: Strand) -> None:
        if strand.done is not None or strand.terminating:
            return
        strand.terminating = True
        if isinstance(strand.waiting, _Join):
            strand.waiting.terminating = True
            for child in list(strand.waiting.pending):
                self._mark_terminating(child)

    def terminate(self) -> None:
        """Begin terminating every live strand (engine stop, or discard)."""
        for strand in self._strands:
            if strand.done is None:
                self._mark_terminating(strand)


def run_session(
    behaviour: BehaviourDef,
    ctx: SessionContext,
    seed: int = 0,
    max_steps: int = 100_000,
) -> Completion:
    """Run one session to completion with a seeded scheduler.

    The context must be able to satisfy every wait the behaviour performs;
    a run that blocks with no pending input raises RuntimeError.
    """
    runner = SessionRunner(behaviour.root, ctx)
    rng = random.Random(seed)
    steps = 0
    while runner.completion is None:
        ready = runner.ready()
        if not ready:
            raise RuntimeError("session blocked: every strand awaits input that cannot arrive")
        runner.step(ready[rng.randrange(len(ready))])
        steps += 1
        if steps > max_steps:
            raise BudgetExceeded(f"session still running after {max_steps} steps")
    return runner.completion
