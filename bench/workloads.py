"""The four benchmark workloads: generated inputs, set-up, one op, checks.

Every workload is a closed loop: a client sends its next call only after
the previous one has answered.  Inputs come from ``random.Random`` seeded
with the run seed, the workload and the client index, so the same seed
gives the same input stream; the program sees only the generated
messages.

A workload object is built fresh for every set-up, and the runner drives
it through ``setup``, the per-client ``op`` loop, ``finish`` and
``teardown``.  ``op`` returns True when the answer is correct and False
(or raises) when it is not; every such miss counts as a failed op.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import struct
from pathlib import Path

from orchestra import State, load_container
from orchestra.deployment import Connection, sync_request
from orchestra.storage import Storage

# Fixed, not derived from the core count, so that a workload means the
# same thing on every machine.
CLIENTS = 2
CALL_TIMEOUT_S = 10.0
CALC_OPS = ("sum", "sub", "mul", "div")
END_CHANCE = 0.1  # share of web posts that end their session
PUT_SHARE = 0.6  # share of storage ops that are puts


def client_rng(seed: int, workload: str, client: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{client}")


# ---------------------------------------------------------------------------
# Services under test
# ---------------------------------------------------------------------------

def calc_service(location: str, name: str = "calc") -> dict:
    """The one-shot calculator, shaped as in docs/calculator.json."""
    dispatch: dict = {"throw": "UnknownOperation"}
    for op, expr in (("div", "m_a / m_b"), ("mul", "m_a * m_b"),
                     ("sub", "m_a - m_b"), ("sum", "m_a + m_b")):
        dispatch = {"if": {"cond": f"m_op == '{op}'",
                           "then": {"reply": {"op": "calc", "from": {"r": expr}}},
                           "else": dispatch}}
    return {
        "name": name,
        "interface": {"calc": {"kind": "RequestResponse",
                               "request": {"op": "string", "a": "int", "b": "int", "rid": "any"},
                               "response": {"r": "int"}}},
        "behaviour": {"seq": [{"receive": {"op": "calc", "into": "m"}}, dispatch]},
        "engine": {"mode": "concurrent", "firing": False, "initiators": ["calc"]},
        "correlation": {"calc": {"rid": "rid"}},
        "inputPorts": [{"name": "in", "location": location, "interface": ["calc"]}],
    }


def web_service(location: str) -> dict:
    """Token-keyed sessions counting their posts; a post with last=true ends one."""
    return {
        "name": "web",
        "interface": {
            "open": {"kind": "RequestResponse", "request": {"token": "string"},
                     "response": {"token": "string"}},
            "post": {"kind": "RequestResponse",
                     "request": {"token": "string", "last": "bool"},
                     "response": {"count": "int"}},
        },
        "behaviour": {"seq": [
            {"receive": {"op": "open", "into": "o"}},
            {"reply": {"op": "open", "from": {"token": "o_token"}}},
            {"assign": ["count", "0"]},
            {"assign": ["going", "true"]},
            {"while": {"cond": "going", "body": {"seq": [
                {"receive": {"op": "post", "into": "p"}},
                {"assign": ["count", "count + 1"]},
                {"assign": ["going", "not p_last"]},
                {"reply": {"op": "post", "from": {"count": "count"}}},
            ]}}},
        ]},
        "engine": {"mode": "concurrent", "firing": False, "initiators": ["open"]},
        "correlation": {"open": {"token": "sid"}, "post": {"token": "sid"}},
        "inputPorts": [{"name": "in", "location": location, "interface": ["open", "post"]}],
    }


# ---------------------------------------------------------------------------
# Input generators (pure functions of the seed)
# ---------------------------------------------------------------------------

def calc_expected(op: str, a: int, b: int) -> int:
    """Reference arithmetic: division truncates toward zero."""
    if op == "sum":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b > 0) else -q


def calc_inputs(rng: random.Random):
    """Endless (op, a, b) calls with operands well inside 64 bits."""
    while True:
        op = rng.choice(CALC_OPS)
        a = rng.randint(-1_000_000, 1_000_000)
        b = rng.randint(-1_000_000, 1_000_000)
        if op == "div" and b == 0:
            b = 1
        yield op, a, b


def gateway_inputs(rng: random.Random):
    """Calc calls, each routed by redirect (resource "calc") or by aggregation ("")."""
    for call in calc_inputs(rng):
        yield call, "calc" if rng.random() < 0.5 else ""


def web_inputs(rng: random.Random, slots: list[int]):
    """("post", slot, last) and, after each last post, ("open", slot)."""
    while True:
        slot = rng.choice(slots)
        last = rng.random() < END_CHANCE
        yield "post", slot, last
        if last:
            yield "open", slot


def skewed_index(rng: random.Random, n: int) -> int:
    """Key choice with a heavy head: about half the ops hit the first eighth."""
    return min(n - 1, int(n * rng.random() ** 3))


def random_value(rng: random.Random):
    """One storable value; int-valued doubles test the int/double distinction."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-(2**40), 2**40)
    if kind == 1:
        return float(rng.randint(-1000, 1000))
    if kind == 2:
        return rng.uniform(-1e6, 1e6)
    if kind == 3:
        return "".join(rng.choice("abcdefghij klmnopé中") for _ in range(rng.randint(0, 24)))
    return rng.random() < 0.5


def storage_inputs(rng: random.Random, keys: int):
    """("put", key, value) or ("get", key, None) with skewed keys."""
    while True:
        key = store_key(skewed_index(rng, keys))
        if rng.random() < PUT_SHARE:
            yield "put", key, random_value(rng)
        else:
            yield "get", key, None


def store_key(i: int) -> str:
    return f"k{i:05d}"


def same_value(a, b) -> bool:
    """Bit-exact equality that keeps the variant: 1 and 1.0 differ."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    clients = CLIENTS
    connection_count = CLIENTS
    setup_repeats = 31

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.container = None
        self.connections: list[Connection] = []

    def prepare(self) -> None:
        """Untimed work before the first set-up, such as building fixtures."""

    def setup(self) -> None:
        raise NotImplementedError

    def finish_setup(self) -> int:
        """Untimed checks after the last set-up; returns the number of failures."""
        return 0

    def client(self, index: int):
        """A zero-argument callable performing this client's next op."""
        raise NotImplementedError

    def finish(self) -> int:
        """Checks after the measured phase; returns the number of failures."""
        return 0

    def file_bytes(self) -> int:
        return 0

    def engines(self) -> list:
        if self.container is None:
            return []
        return [running.engine for running in self.container.services.values()]

    def teardown(self) -> None:
        for conn in self.connections:
            conn.close()
        self.connections = []
        if self.container is not None:
            self.container.stop()
            self.container = None

    def _connect(self, location) -> None:
        self.connections = [Connection(self.container.connect(location))
                            for _ in range(CLIENTS)]


class CalcRR(Workload):
    """One-shot calculator calls over socket://, a fresh rid per call."""

    name = "calc_rr"

    def setup(self) -> None:
        self.container = load_container({"services": [calc_service("socket://127.0.0.1:0")]},
                                        seed=self.seed, name="calc_rr")
        self._connect(self.container.services["calc"].listeners[0].bound_location)

    def calls(self, rng: random.Random):
        """(call, resource) pairs; the resource names the gateway route."""
        return ((call, "") for call in calc_inputs(rng))

    def client(self, index: int):
        conn = self.connections[index]
        inputs = self.calls(client_rng(self.seed, self.name, index))
        rids = itertools.count()

        def op() -> bool:
            (name, a, b), resource = next(inputs)
            payload = State({"op": name, "a": a, "b": b, "rid": f"{index}-{next(rids)}"})
            result = sync_request(conn, "calc", payload, resource=resource, timeout=CALL_TIMEOUT_S)
            return result.payload is not None and same_value(
                result.payload.lookup("r"), calc_expected(name, a, b))

        return op


class GatewayRelay(CalcRR):
    """The calculator embedded at local://, reached through a socket gateway."""

    name = "gateway_relay"

    def setup(self) -> None:
        config = {
            "services": [calc_service("local://calc")],
            "embed": ["calc"],
            "gateway": "socket://127.0.0.1:0",
            "redirects": {"calc": "local://calc"},
            "aggregate": {"publish": ["calc"], "map": {"calc": "calc"}},
        }
        self.container = load_container(config, seed=self.seed, name="gateway_relay")
        self._connect(self.container.gateway_location)

    def calls(self, rng: random.Random):
        return gateway_inputs(rng)


class WebSessions(Workload):
    """K long-lived token sessions; posts at random tokens, one in ten ends one.

    Client ``i`` owns the slots ``i, i + CLIENTS, ...``, so each token sees
    the posts of one client in order and the count it returns must equal
    the client's own tally: an end-to-end routing oracle.
    """

    name = "web_sessions"
    setup_repeats = 3
    live_sessions = 300

    def setup(self) -> None:
        self.container = load_container({"services": [web_service("socket://127.0.0.1:0")]},
                                        seed=self.seed, name="web_sessions")
        self._connect(self.container.services["web"].listeners[0].bound_location)
        self.tokens = [""] * self.live_sessions
        self.tallies = [0] * self.live_sessions
        self._generation = [0] * self.live_sessions
        for slot in range(self.live_sessions):
            if not self._open(self.connections[slot % CLIENTS], slot):
                raise RuntimeError(f"set-up could not open session slot {slot}")

    def _open(self, conn: Connection, slot: int) -> bool:
        self._generation[slot] += 1
        token = f"t{slot}g{self._generation[slot]}"
        result = sync_request(conn, "open", State({"token": token}), timeout=CALL_TIMEOUT_S)
        self.tokens[slot], self.tallies[slot] = token, 0
        return result.payload is not None and result.payload.lookup("token") == token

    def client(self, index: int):
        conn = self.connections[index]
        slots = list(range(index, self.live_sessions, CLIENTS))
        inputs = web_inputs(client_rng(self.seed, self.name, index), slots)

        def op() -> bool:
            step = next(inputs)
            if step[0] == "open":
                return self._open(conn, step[1])
            _, slot, last = step
            self.tallies[slot] += 1
            result = sync_request(conn, "post", State({"token": self.tokens[slot], "last": last}),
                                  timeout=CALL_TIMEOUT_S)
            return result.payload is not None and same_value(
                result.payload.lookup("count"), self.tallies[slot])

        return op


class StorageTier(Workload):
    """Direct Storage puts and gets on a store that earlier runs wrote.

    The store lives under the run directory and persists from run to run.
    Beside it the benchmark keeps its own record of what the store must
    hold (``expected.json``), written only after a run's checks pass.  A
    ``RUNNING`` marker covers the window in which the two may differ, so a
    run that was killed there makes the next run rebuild the store rather
    than report a false mismatch.
    """

    name = "storage_tier"
    clients = 1
    connection_count = 0
    keys = 3000

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.dir = workdir / f"store-{self.keys}"
        self.path = self.dir / "store.json"
        self.expected_path = self.dir / "expected.json"
        self.marker = self.dir / "RUNNING"
        self.store: Storage | None = None
        self.model: dict = {}

    def prepare(self) -> None:
        """Build the store from scratch if no intact one is there (untimed)."""
        if self.expected_path.exists() and not self.marker.exists():
            return
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        rng = random.Random(f"store:{self.keys}")
        store = Storage(str(self.path))
        model = {}
        for i in range(self.keys):
            key, value = store_key(i), random_value(rng)
            store.put(key, value)
            model[key] = value
        self._write_expected(model)

    def setup(self) -> None:
        self.store = Storage(str(self.path))

    def finish_setup(self) -> int:
        """Compare the reopened store with what the last run left (untimed)."""
        self.model = _decode_expected(self.expected_path.read_text(encoding="utf-8"))
        failures = _diff_store(self.store, self.model)
        self.marker.write_text("measuring\n", encoding="utf-8")
        return failures

    def client(self, index: int):
        store, model = self.store, self.model
        inputs = storage_inputs(client_rng(self.seed, self.name, index), self.keys)

        def op() -> bool:
            kind, key, value = next(inputs)
            if kind == "put":
                store.put(key, value)
                model[key] = value
                return True
            return same_value(store.get(key), model[key])

        return op

    def finish(self) -> int:
        """A fresh reopen must read back exactly what was written."""
        failures = _diff_store(Storage(str(self.path)), self.model)
        if failures == 0:
            self._write_expected(self.model)
            self.marker.unlink()
        return failures

    def file_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.dir.iterdir()
                   if p.is_file() and p.name not in ("expected.json", "RUNNING"))

    def teardown(self) -> None:
        self.store = None

    def _write_expected(self, model: dict) -> None:
        tmp = self.expected_path.with_suffix(".tmp")
        tmp.write_text(_encode_expected(model), encoding="utf-8")
        os.replace(tmp, self.expected_path)


def _encode_expected(model: dict) -> str:
    """Variant-tagged record; doubles as hex so the bits survive exactly."""
    out = {}
    for key, value in model.items():
        if type(value) is float:
            out[key] = ["double", value.hex()]
        else:
            out[key] = [type(value).__name__, value]
    return json.dumps(out, sort_keys=True, ensure_ascii=False)


def _decode_expected(text: str) -> dict:
    out = {}
    for key, (tag, raw) in json.loads(text).items():
        out[key] = float.fromhex(raw) if tag == "double" else raw
    return out


def _diff_store(store: Storage, model: dict) -> int:
    """Keys whose stored value is missing, extra or not bit-exact."""
    keys = set(store.keys())
    failures = len(keys ^ set(model))
    for key in keys & set(model):
        if not same_value(store.get(key), model[key]):
            failures += 1
    return failures


WORKLOADS = {w.name: w for w in (CalcRR, WebSessions, GatewayRelay, StorageTier)}
