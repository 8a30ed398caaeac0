"""Span tracing around the program's layer boundaries, from outside ``src/``.

``Tracer.wrap`` replaces a function or method with a wrapper that opens a
span, calls through and closes it.  Each span has a name, a start, an end
and its parent span; a thread-local stack of open spans gives every layer
its self time (its duration minus the time its child spans cover).
Per-name aggregates are kept for every call, and the first ``max_spans``
spans are kept in memory as records and written out when the run ends.
Everything is keyed by the tracer's current phase ("setup", "measure",
"check", "probe"), so per-op figures count only the measured phase.

``instrument`` wraps the public boundary of each layer named in
``bench/README.md``; ``layer_metrics`` turns the aggregates into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import orchestra.engine
import orchestra.expressions
import orchestra.frames
from orchestra.composition import Container
from orchestra.deployment import Connection, MessageType
from orchestra.engine import Engine
from orchestra.interpreter import SessionRunner
from orchestra.state import State
from orchestra.storage import Storage
from orchestra.transport import MemoryChannel, SocketChannel

_now = time.perf_counter_ns


class Tracer:
    max_spans = 100_000

    def __init__(self):
        self.phase = "setup"
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # (phase, name) -> [calls, total_ns, self_ns]
        self.stats: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[(self.phase, name)] += n

    def wrap(self, owner, attr: str, name: str, *, outermost: bool = False,
             on_call=None, on_return=None) -> None:
        """Trace ``owner.attr``; ``outermost`` skips calls nested in the same span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if outermost and any(frame[0] == name for frame in stack):
                return original(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, *args, **kwargs)
            frame = [name, next(tracer._ids), _now(), 0]  # name, id, start, child ns
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                tracer._close(frame, end, stack[-1] if stack else None)
            if on_return is not None:
                on_return(tracer, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _close(self, frame: list, end: int, parent: list | None) -> None:
        name, span_id, start, child_ns = frame
        duration = end - start
        if parent is not None:
            parent[3] += duration
        with self._lock:
            agg = self.stats[(self.phase, name)]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child_ns
            if len(self.spans) < self.max_spans:
                self.spans.append((span_id, parent[1] if parent else 0, name, self.phase,
                                   threading.get_ident(), start, end))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def calls(self, phase: str, *names: str) -> int:
        return sum(self.stats[(phase, n)][0] for n in names)

    def mean_us(self, phases: tuple[str, ...], names: tuple[str, ...],
                self_time: bool = False) -> tuple[float, int]:
        """Mean per call in microseconds (0.0 without calls), and the call count."""
        calls = sum(self.stats[(p, n)][0] for p in phases for n in names)
        ns = sum(self.stats[(p, n)][2 if self_time else 1] for p in phases for n in names)
        return (ns / calls / 1000.0 if calls else 0.0), calls

    def write(self, path) -> None:
        """Spans as JSON lines: id, parent, name, phase, thread, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _count_candidates(tracer: Tracer, message, candidates, *rest, **kw) -> None:
    tracer.count("correlation.candidates", len(candidates))


def _count_outcome(tracer: Tracer, outcome) -> None:
    tracer.count(f"engine.outcome.{outcome.kind}")


def _fsync_counter(tracer: Tracer, original):
    @functools.wraps(original)
    def counted(fd):
        tracer.count("storage.fsyncs")
        return original(fd)
    return counted


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public boundary.

    ``engine`` imports ``select_session`` and ``bind_correlation`` by name,
    so those are wrapped where the engine looks them up.
    """
    w = tracer.wrap
    w(orchestra.frames, "encode_frame", "frames.encode")
    w(orchestra.frames, "decode_frame", "frames.decode")
    w(SocketChannel, "send", "transport.socket_send")
    w(MemoryChannel, "send", "transport.memory_send")
    w(Connection, "__init__", "deployment.connection_open")
    w(Connection, "send_request", "deployment.send_request")
    w(MessageType, "check", "deployment.type_check")
    w(orchestra.engine, "select_session", "correlation.select", on_call=_count_candidates)
    w(orchestra.engine, "bind_correlation", "correlation.bind")
    w(Engine, "submit", "engine.submit", on_return=_count_outcome)
    w(SessionRunner, "step", "interpreter.step")
    w(SessionRunner, "ready", "interpreter.ready")
    w(orchestra.expressions, "evaluate", "expressions.evaluate", outermost=True)
    w(State, "update", "state.update")
    w(Container, "dispatch_gateway_frame", "composition.dispatch")
    w(Storage, "__init__", "storage.load")
    w(Storage, "put", "storage.put")
    w(Storage, "get", "storage.get")
    for attr in ("fsync", "fdatasync"):
        original = getattr(os, attr, None)
        if original is not None:
            setattr(os, attr, _fsync_counter(tracer, original))
            tracer._patches.append((os, attr, original))


# name, unit, better; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = (
    ("frames.encode_us", "us", "lower"),
    ("frames.decode_us", "us", "lower"),
    ("frames.calls_per_op", "count", "lower"),
    ("transport.socket_bytes_per_op", "B", "lower"),
    ("transport.local_bytes_per_op", "B", "lower"),
    ("transport.send_us", "us", "lower"),
    ("deployment.send_request_us", "us", "lower"),
    ("deployment.type_check_us", "us", "lower"),
    ("deployment.connections_opened", "count", "lower"),
    ("correlation.select_us", "us", "lower"),
    ("correlation.candidates_per_select", "count", "lower"),
    ("correlation.bind_us", "us", "lower"),
    ("engine.submit_us", "us", "lower"),
    ("engine.outcome.delivered", "count", "higher"),
    ("engine.outcome.created", "count", "higher"),
    ("engine.outcome.rejected", "count", "lower"),
    ("engine.steps_per_op", "count", "lower"),
    ("engine.sessions_retained", "count", "lower"),
    ("engine.events_retained", "count", "lower"),
    ("interpreter.step_us", "us", "lower"),
    ("interpreter.ready_calls_per_step", "count", "lower"),
    ("interpreter.ready_ms_per_op", "ms", "lower"),
    ("expressions.evaluate_us", "us", "lower"),
    ("expressions.evals_per_op", "count", "lower"),
    ("state.update_us", "us", "lower"),
    ("state.updates_per_op", "count", "lower"),
    ("composition.dispatch_us", "us", "lower"),
    ("storage.put_us", "us", "lower"),
    ("storage.get_us", "us", "lower"),
    ("storage.load_ms", "ms", "lower"),
    ("storage.write_bytes_per_put", "B", "lower"),
    ("storage.fsyncs_per_put", "count", "lower"),
    ("storage.file_bytes", "B", "lower"),
    ("trace.throughput_ratio", "ratio", "lower"),
)


# per-call timings: metric -> (span names, self time?, scale to the unit)
_TIMINGS = {
    "frames.encode_us": (("frames.encode",), False, 1.0),
    "frames.decode_us": (("frames.decode",), False, 1.0),
    "transport.send_us": (("transport.socket_send", "transport.memory_send"), False, 1.0),
    "deployment.send_request_us": (("deployment.send_request",), True, 1.0),
    "deployment.type_check_us": (("deployment.type_check",), False, 1.0),
    "correlation.select_us": (("correlation.select",), False, 1.0),
    "correlation.bind_us": (("correlation.bind",), False, 1.0),
    "engine.submit_us": (("engine.submit",), True, 1.0),
    "interpreter.step_us": (("interpreter.step",), True, 1.0),
    "expressions.evaluate_us": (("expressions.evaluate",), False, 1.0),
    "state.update_us": (("state.update",), False, 1.0),
    "composition.dispatch_us": (("composition.dispatch",), True, 1.0),
    "storage.put_us": (("storage.put",), False, 1.0),
    "storage.get_us": (("storage.get",), False, 1.0),
    "storage.load_ms": (("storage.load",), False, 0.001),
}


def layer_metrics(tracer: Tracer, ops: int, io: dict, probe_store: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the measured phase, and where each timing came from.

    ``io`` is the traced phase: byte counters, write bytes, retention
    counts, store size and the throughput ratio, all taken outside the
    tracer.  A timing falls back to the probe phase when the measured
    phase made no call at that boundary (the layer is not on this
    workload's path); ``storage.load_ms`` also counts the stores opened
    in set-up.  The per-put storage counts fall back the same way, to
    ``probe_store``, the storage part of the probe.
    """
    m = "measure"
    values: dict[str, float] = {}
    sources: dict[str, str] = {}
    for metric, (names, self_time, scale) in _TIMINGS.items():
        phases = ("setup", m) if metric == "storage.load_ms" else (m,)
        mean, calls = tracer.mean_us(phases, names, self_time)
        if not calls:
            phases = ("probe",)
            mean, calls = tracer.mean_us(phases, names, self_time)
        values[metric] = mean * scale
        sources[metric] = f"{'+'.join(phases)}:{calls}"

    def per(count: float, base: float) -> float:
        return count / base if base else 0.0

    steps = tracer.calls(m, "interpreter.step")
    store_phase, store_io = (m, io) if tracer.calls(m, "storage.put") else ("probe", probe_store)
    puts = tracer.calls(store_phase, "storage.put")
    sources["storage.per_put_counts"] = f"{store_phase}:{puts}"
    ready_ns = tracer.stats[(m, "interpreter.ready")][1]
    values.update({
        "frames.calls_per_op": per(tracer.calls(m, "frames.encode", "frames.decode"), ops),
        "transport.socket_bytes_per_op": per(io["socket_bytes"], ops),
        "transport.local_bytes_per_op": per(io["local_bytes"], ops),
        "deployment.connections_opened": float(
            tracer.calls("setup", "deployment.connection_open")
            + tracer.calls(m, "deployment.connection_open")),
        "correlation.candidates_per_select": per(
            tracer.counters[(m, "correlation.candidates")], tracer.calls(m, "correlation.select")),
        "engine.outcome.delivered": tracer.counters[(m, "engine.outcome.delivered")],
        "engine.outcome.created": tracer.counters[(m, "engine.outcome.created")],
        "engine.outcome.rejected": tracer.counters[(m, "engine.outcome.rejected")],
        "engine.steps_per_op": per(steps, ops),
        "engine.sessions_retained": float(io["sessions_retained"]),
        "engine.events_retained": float(io["events_retained"]),
        "interpreter.ready_calls_per_step": per(tracer.calls(m, "interpreter.ready"), steps),
        "interpreter.ready_ms_per_op": per(ready_ns / 1e6, ops),
        "expressions.evals_per_op": per(tracer.calls(m, "expressions.evaluate"), ops),
        "state.updates_per_op": per(tracer.calls(m, "state.update"), ops),
        "storage.write_bytes_per_put": per(store_io["write_bytes"], puts),
        "storage.fsyncs_per_put": per(tracer.counters[(store_phase, "storage.fsyncs")], puts),
        "storage.file_bytes": float(store_io["file_bytes"]),
        "trace.throughput_ratio": io["throughput_ratio"],
    })
    return values, sources
