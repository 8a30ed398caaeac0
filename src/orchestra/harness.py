"""Independent test oracles and deterministic test plumbing.

The routing oracle below is a direct, standalone transcription of the
quantified routing condition over plain dictionaries.  It deliberately
imports nothing from the routing implementation so the two can disagree:
a message may be routed to a session exactly when, for every message
variable the correlation function maps, the session state either binds
the mapped variable to the same value or leaves it undefined.

``enumerate_interleavings`` explores every scheduler choice of a small
behaviour by replaying prefixes, giving the exact set of reachable
(final state, completion) outcomes that a seeded run must land in.
Schedules longer than the per-path step budget are treated as divergent
and contribute no outcome; the whole exploration aborts with
BudgetExceeded if it outgrows its global step budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .behaviour import BehaviourDef
from .errors import BudgetExceeded
from .interpreter import Completion, SessionContext, SessionRunner
from .state import EMPTY, State, Value
from .transport import MemoryChannel, memory_pair


@dataclass(frozen=True)
class OracleConfig:
    """Bounds small enough that exhaustive checks finish within a second."""

    var_pool: tuple[str, ...] = ("a", "b", "c", "d")
    value_pool: tuple[Value, ...] = (1, 2)
    max_sessions: int = 5
    max_operations: int = 3


def oracle_correlates(
    payload: dict[str, Value],
    cfun: dict[str, str],
    session_state: dict[str, Value],
) -> bool:
    """Quantified routing condition, evaluated by explicit iteration."""
    for x in payload:
        if x not in cfun:
            continue
        target = cfun[x]
        if target not in session_state:
            continue
        bound = session_state[target]
        if type(bound) is type(payload[x]) and bound == payload[x]:
            continue
        return False
    return True


def random_oracle_triple(rng: random.Random, cfg: OracleConfig = OracleConfig()):
    """One random (payload, correlation function, session state) triple."""
    payload = {
        v: rng.choice(cfg.value_pool)
        for v in cfg.var_pool
        if rng.random() < 0.6
    }
    cfun = {
        v: rng.choice(cfg.var_pool)
        for v in cfg.var_pool
        if rng.random() < 0.6
    }
    # keep the function injective: drop later fields mapping to a used variable
    seen: set[str] = set()
    injective = {}
    for f, t in cfun.items():
        if t not in seen:
            injective[f] = t
            seen.add(t)
    session_state = {
        v: rng.choice(cfg.value_pool)
        for v in cfg.var_pool
        if rng.random() < 0.5
    }
    return payload, injective, session_state


class ScriptedContext(SessionContext):
    """A session context fed from a fixed message trace, for oracles."""

    def __init__(self, local: State = EMPTY, trace=()):
        super().__init__(local)
        self.mailbox = list(trace)
        self.sent: list[tuple[str, str, State]] = []
        self.replies: list[tuple[str, State]] = []

    def has_message(self, op: str) -> bool:
        return any(m.operation == op for m in self.mailbox)

    def take_message(self, op: str):
        for i, m in enumerate(self.mailbox):
            if m.operation == op:
                return self.mailbox.pop(i)
        return None

    def send_reply(self, op: str, payload: State) -> None:
        self.replies.append((op, payload))

    def notify(self, port: str, op: str, payload: State) -> None:
        self.sent.append((port, op, payload))


@dataclass(frozen=True)
class RunOutcome:
    state: State
    completion: Completion


def _replay(behaviour: BehaviourDef, trace, choices: list[int]):
    """Re-run from scratch following a choice prefix; report what is next."""
    ctx = ScriptedContext(trace=list(trace))
    runner = SessionRunner(behaviour.root, ctx)
    for choice in choices:
        ready = runner.ready()
        runner.step(ready[choice])
        if runner.completion is not None:
            break
    if runner.completion is not None:
        return RunOutcome(ctx.local, runner.completion), 0
    ready = runner.ready()
    if not ready:
        raise ValueError("behaviour blocked: the trace leaves a strand waiting forever")
    return None, len(ready)


def enumerate_interleavings(
    behaviour: BehaviourDef,
    trace=(),
    max_steps: int = 64,
    total_budget: int = 500_000,
) -> set[RunOutcome]:
    """All reachable (final state, completion) pairs over scheduler choices.

    The whole message trace is available from the start.  Paths that have
    not finished after ``max_steps`` choices count as divergent schedules
    and are dropped; exceeding ``total_budget`` replayed steps raises
    BudgetExceeded.
    """
    outcomes: set[RunOutcome] = set()
    stack: list[list[int]] = [[]]
    spent = 0
    while stack:
        prefix = stack.pop()
        spent += max(len(prefix), 1)
        if spent > total_budget:
            raise BudgetExceeded(f"interleaving exploration passed {total_budget} steps")
        outcome, width = _replay(behaviour, trace, prefix)
        if outcome is not None:
            outcomes.add(outcome)
            continue
        if len(prefix) >= max_steps:
            continue  # divergent schedule
        for choice in range(width):
            stack.append(prefix + [choice])
    return outcomes


def memnet_pair(name: str = "memnet") -> tuple[MemoryChannel, MemoryChannel]:
    """An in-memory duplex byte channel pair with per-direction counters.

    Interchangeable with the socket transport for everything above the
    byte level, which keeps protocol tests off the network entirely.
    """
    return memory_pair(name)
