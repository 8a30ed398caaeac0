"""Byte transports: TCP sockets, in-memory channels, local bindings, and the
loop that serves them.

Both transports present the same line-oriented contract: ``send`` writes
bytes, and lines come out of one ``LineParser``, which splits on LF, holds
at most ``MAX_LINE`` bytes of an unfinished line, and hands back what is
left at EOF so the frame decoder can report the truncation.  Every channel
counts its own traffic, and socket traffic additionally feeds a
process-wide counter so tests can assert that co-located services really
do talk without the network.

A channel is read in one of two ways:

* attached to a ``Loop``: the loop reads it when it has bytes, feeds the
  parser and calls the channel's ``on_line`` for each whole line.  Sends
  on an attached socket never block: what the kernel refuses waits in a
  write buffer that the loop flushes when the socket is writable;
* not attached: a thread calls ``recv_line``, which blocks until a whole
  line, EOF or its timeout.  The wait ``watch_hangup`` gives blocks until
  the peer stops sending, and reads nothing.  Callers outside a container
  read this way (see ``deployment.Connection``).

A ``Loop`` is one thread running one ``selectors`` poll.  It owns the
listening sockets, the sockets and memory channel ends attached to it,
and its workers (the engines that run on it, a container's or one
engine's own), which it runs between polls.  Local bindings map
``local://name`` locations to in-memory channel pairs inside one process;
the registry swap is atomic, so a name never has two listeners at once.
"""

from __future__ import annotations

import itertools
import math
import os
import select
import selectors
import socket
import sys
import threading
import time
from collections import deque
from queue import Empty, SimpleQueue
from typing import Callable

from .errors import LineTooLong, StartupError

# The longest line frame/1 accepts, not counting its LF.
MAX_LINE = 1 << 20

# Steps one worker may take per loop round before the loop polls again.
# A request-driven round takes a few (at most 14 in the benchmark's
# workloads), so the budget binds only a session that keeps stepping, and
# keeps it from holding up the container's channels.
STEP_BUDGET = 64
# How long the poll waits after a switch interval of rounds that all left
# work, so that the process's other threads get the GIL and the loop's lock.
_BUSY_NAP_S = 0.0001
_RECV_SIZE = 65536
_CONNECT_TIMEOUT_S = 5.0


class Counter:
    """A thread-safe additive counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def add(self, n: int) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


SOCKET_BYTES = Counter()
LOCAL_BYTES = Counter()

_trace_lock = threading.Lock()
_trace_sink: list[tuple[str, str, bytes]] | None = None


def start_tracing() -> None:
    """Begin recording (channel, direction, line) triples process-wide."""
    global _trace_sink
    with _trace_lock:
        _trace_sink = []


def stop_tracing() -> list[tuple[str, str, bytes]]:
    global _trace_sink
    with _trace_lock:
        out = _trace_sink or []
        _trace_sink = None
        return out


def _trace(channel_name: str, direction: str, data: bytes) -> None:
    with _trace_lock:
        if _trace_sink is not None:
            _trace_sink.append((channel_name, direction, data))


# next() hands out each serial in one step, so concurrent channels never share a name
_channel_serial = itertools.count(1)


def _unique_name(base: str) -> str:
    return f"{base}#{next(_channel_serial)}"


class LineParser:
    """The line rule without I/O: bytes go in through ``feed``, whole
    LF-terminated lines come out.  Only the new bytes are scanned for LF,
    so a line that arrives in many chunks costs time linear in its length.
    Once the parser holds more than ``MAX_LINE`` bytes of one line it sets
    ``too_long`` and takes no more bytes: nothing of that line is parsed."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []
        self._held = 0
        self.too_long = False

    def feed(self, data: bytes) -> list[bytes]:
        lines = []
        if self.too_long:
            return lines
        start = 0
        end = data.find(b"\n")
        while end >= 0:
            if self._parts:
                self._parts.append(data[start:end + 1])
                line = b"".join(self._parts)
                self._parts.clear()
                self._held = 0
            else:
                line = data[start:end + 1]
            if len(line) > MAX_LINE + 1:
                self.too_long = True
                return lines
            lines.append(line)
            start = end + 1
            end = data.find(b"\n", start)
        if start < len(data):
            self._held += len(data) - start
            if self._held > MAX_LINE:
                self._parts.clear()
                self.too_long = True
                return lines
            self._parts.append(data[start:] if start else data)
        return lines

    def flush(self) -> bytes:
        """What is left at EOF: the unterminated rest, possibly empty."""
        rest = b"".join(self._parts)
        self._parts.clear()
        self._held = 0
        return rest


class _Channel:
    """What both transports share: the parser, and the two ways to read.

    A transport supplies ``_read_chunk`` (wait for the next bytes, ``b""``
    at EOF, ``TimeoutError`` when none come in time) for ``recv_line``,
    and calls ``_deliver`` and ``_end`` from the loop once ``attach`` has
    given it one.
    """

    def __init__(self, name: str):
        self.name = _unique_name(name)
        self._parser = LineParser()
        self._lines: deque[bytes] = deque()
        self._closed = False
        self._ended = False
        self._loop: Loop | None = None
        self._on_line: Callable[[bytes], None] | None = None
        self._on_end: Callable[[bool], None] | None = None
        self.bytes_in = 0
        self.bytes_out = 0

    def _read_chunk(self, timeout: float | None) -> bytes:
        raise NotImplementedError

    def recv_line(self, timeout: float | None = None) -> bytes | None:
        """The next line, blocking; at EOF what is left (unterminated) and
        then None.  Raises ``LineTooLong`` once a line outgrows the cap, and
        ``TimeoutError`` when no line is whole within ``timeout`` seconds
        (None: no limit); the bytes read so far stay for the next call."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._lines:
            if self._parser.too_long:
                raise LineTooLong(f"line longer than {MAX_LINE} bytes on {self.name}")
            chunk = self._read_chunk(None if deadline is None
                                     else max(deadline - time.monotonic(), 0.0))
            if not chunk:
                return self._parser.flush() or None
            self._lines.extend(self._parser.feed(chunk))
        line = self._lines.popleft()
        _trace(self.name, "in", line[:-1])
        return line

    def attach(self, loop: "Loop", on_line: Callable[[bytes], None],
               on_end: Callable[[bool], None]) -> None:
        """Have ``loop`` read this channel from now on: ``on_line(line)``
        for each whole line, then ``on_end(overflow)`` once, at EOF or after
        a line longer than ``MAX_LINE``."""
        self._loop, self._on_line, self._on_end = loop, on_line, on_end

    def _deliver(self, chunk: bytes) -> None:
        """On the loop: hand each whole line in ``chunk`` to ``on_line``."""
        parser = self._parser
        for line in parser.feed(chunk):
            _trace(self.name, "in", line[:-1])
            self._on_line(line)
            if self._closed:
                return
        if parser.too_long:
            self._end(overflow=True)

    def _end(self, overflow: bool = False) -> None:
        """On the loop, once: EOF or an overlong line.  What is left of an
        unterminated line goes to ``on_line`` first, except after overflow."""
        if self._ended:
            return
        self._ended = True
        rest = b"" if overflow else self._parser.flush()
        if rest and not self._closed:
            self._on_line(rest)
        self._on_end(overflow)


class SocketChannel(_Channel):
    """A connected TCP socket with buffered line reads and byte counting."""

    def __init__(self, sock: socket.socket, name: str = ""):
        super().__init__(name or "socket")
        self._sock = sock
        self._readable = select.poll()  # waits for bytes in a read with a timeout
        self._readable.register(sock, select.POLLIN)
        self._send_lock = threading.Lock()
        self._pending = bytearray()  # what the kernel has not taken yet, attached only

    def send(self, data: bytes) -> None:
        # trace before the bytes fly: the peer's answer must never be able
        # to enter the trace ahead of the request that caused it
        _trace(self.name, "out", data)
        with self._send_lock:
            if self._loop is None:
                self._sock.sendall(data)
            elif self._pending:
                self._pending += data
            else:
                try:
                    sent = self._sock.send(data)
                except (BlockingIOError, InterruptedError):
                    sent = 0
                if sent < len(data):
                    self._pending += data[sent:]
                    self._loop.call_here(self._watch_writes)
        self.bytes_out += len(data)
        SOCKET_BYTES.add(len(data))

    def _read_chunk(self, timeout: float | None) -> bytes:
        """With a timeout it polls before it reads, where one blocking
        ``recv`` under ``SO_RCVTIMEO`` would do: such a recv lets one caller
        starve another of the GIL, which made the tail latency of two
        callers worse than the time it saves."""
        if timeout is not None and not self._readable.poll(math.ceil(timeout * 1000)):
            raise TimeoutError(f"nothing to read on {self.name}")
        try:
            chunk = self._sock.recv(_RECV_SIZE)
        except OSError:
            return b""
        self._count_in(chunk)
        return chunk

    def watch_hangup(self) -> Callable[[], None]:
        """A wait that blocks until the peer stops sending or this end
        closes, and reads nothing.  It polls its own copy of the socket's
        descriptor, taken now, so a close that comes first cannot leave it
        polling a number the system has handed to another socket."""
        fd = os.dup(self._sock.fileno())

        def wait() -> None:
            try:
                watch = select.poll()
                watch.register(fd, select.POLLRDHUP)  # not POLLIN: bytes wake nobody
                watch.poll()
            finally:
                os.close(fd)
        return wait

    def _count_in(self, chunk: bytes) -> None:
        self.bytes_in += len(chunk)
        SOCKET_BYTES.add(len(chunk))

    def attach(self, loop: "Loop", on_line, on_end) -> None:
        super().attach(loop, on_line, on_end)
        self._sock.setblocking(False)
        loop.register(self._sock, self._on_event)

    def _watch_writes(self) -> None:
        if not self._closed and self._pending:
            self._loop.modify(self._sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
                              self._on_event)

    def _on_event(self, mask: int) -> None:
        if self._closed:
            return
        if mask & selectors.EVENT_WRITE:
            self._flush()
        if mask & selectors.EVENT_READ:
            try:
                chunk = self._sock.recv(_RECV_SIZE)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                chunk = b""
            if chunk:
                self._count_in(chunk)
                self._deliver(chunk)
            else:
                self._end()

    def _flush(self) -> None:
        with self._send_lock:
            try:
                sent = self._sock.send(self._pending)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                sent = len(self._pending)  # the peer is gone; EOF follows
            del self._pending[:sent]  # drops a prefix without copying the rest
            if not self._pending:
                self._loop.modify(self._sock, selectors.EVENT_READ, self._on_event)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._loop is not None:
            with self._loop.lock:
                self._loop.unregister(self._sock)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class MemoryChannel(_Channel):
    """One end of an in-process duplex byte pipe.  ``None`` in the queue
    marks EOF; an empty send is not EOF."""

    def __init__(self, name: str = ""):
        super().__init__(name or "memory")
        self._incoming: SimpleQueue[bytes | None] = SimpleQueue()
        self._hung_up = threading.Event()  # set when either end closes
        self.peer: "MemoryChannel | None" = None

    def send(self, data: bytes) -> None:
        peer = self.peer
        if peer is None:
            raise BrokenPipeError("channel has no peer")
        _trace(self.name, "out", data)
        if self._closed or peer._closed:
            raise BrokenPipeError("channel closed")
        peer._put(data)
        self.bytes_out += len(data)
        peer.bytes_in += len(data)
        LOCAL_BYTES.add(len(data))

    def _put(self, item: bytes | None) -> None:
        self._incoming.put(item)
        loop = self._loop
        if loop is not None:
            loop.channel_ready(self)

    def _read_chunk(self, timeout: float | None) -> bytes:
        while True:
            try:
                chunk = self._incoming.get(timeout=timeout)
            except Empty:
                raise TimeoutError(f"nothing to read on {self.name}") from None
            if chunk is None:
                self._incoming.put(None)  # every later read sees EOF too
                return b""
            if chunk:
                return chunk

    def attach(self, loop: "Loop", on_line, on_end) -> None:
        super().attach(loop, on_line, on_end)
        if not self._incoming.empty():  # bytes that came before the loop
            loop.channel_ready(self)

    def _drain(self) -> None:
        """On the loop: read every chunk queued so far, up to EOF."""
        incoming = self._incoming
        while not incoming.empty() and not (self._ended or self._closed):
            chunk = incoming.get_nowait()
            if chunk is None:
                self._end()
            elif chunk:
                self._deliver(chunk)

    def close(self) -> None:
        """Close this end.  The peer reads what was sent to it before EOF,
        and a reader of this end blocked in ``recv_line`` wakes."""
        if self._closed:
            return
        self._closed = True
        for end in (self, self.peer):
            if end is not None:
                end._hung_up.set()
                end._put(None)

    def watch_hangup(self) -> Callable[[], None]:
        """A wait that blocks until either end closes, and reads nothing."""
        return self._hung_up.wait


def memory_pair(name: str = "pair") -> tuple[MemoryChannel, MemoryChannel]:
    """A connected in-memory duplex channel; returns (client, server) ends."""
    a = MemoryChannel(f"{name}.client")
    b = MemoryChannel(f"{name}.server")
    a.peer, b.peer = b, a
    return a, b


class Loop:
    """One thread polling every channel attached to it, and running its
    workers between polls.

    Each round (dispatching the poll's events, running the calls other
    threads handed over, reading memory channels, running the workers)
    holds ``lock``.  Another thread takes the same lock to change what the
    loop owns: attach or close a socket, add or remove a worker, stop an
    engine.  The engines a loop runs use this lock as their own, so a
    thread that submits to one waits for the loop's current round.  A
    thread must not block while it holds the lock, except in a wait that
    gives it up, every level of it, as ``threading.Condition.wait`` does.

    A worker is ``worker(budget)``: it does at most ``budget`` steps and
    returns 0 when it has more, else the seconds until it next needs a
    call, or None when only new work can give it some.  Work that arrives
    from another thread wakes the poll through a socket pair.
    """

    def __init__(self, name: str = "loop"):
        self.lock = threading.RLock()
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self._on_wake)
        self._ready: deque[MemoryChannel] = deque()
        self._calls: deque[Callable[[], None]] = deque()
        self._workers: list[Callable[[int], float | None]] = []
        self._running = True
        self._ident: int | None = None
        self._thread = threading.Thread(target=self._run, daemon=True, name=name)
        self._thread.start()
        self._ident = self._thread.ident

    def wake(self) -> None:
        """Make the poll return; the loop itself needs no wake."""
        if threading.get_ident() != self._ident:
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass  # the pair is full (the loop is awake) or closed (it is gone)

    def call_here(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop: now when called there, else next round."""
        if threading.get_ident() == self._ident:
            fn()
        else:
            self._calls.append(fn)
            self.wake()

    def channel_ready(self, channel: MemoryChannel) -> None:
        self._ready.append(channel)
        self.wake()

    # Selector and worker changes: on the loop, or holding ``lock``.

    def register(self, sock: socket.socket, handler: Callable[[int], None]) -> None:
        with self.lock:
            self._selector.register(sock, selectors.EVENT_READ, handler)
        self.wake()

    def modify(self, sock: socket.socket, events: int, handler: Callable[[int], None]) -> None:
        self._selector.modify(sock, events, handler)

    def unregister(self, sock: socket.socket) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass  # never registered, or already closed

    def add_worker(self, worker: Callable[[int], float | None]) -> None:
        with self.lock:
            self._workers.append(worker)
        self.wake()

    def remove_worker(self, worker: Callable[[int], float | None]) -> None:
        with self.lock:
            if worker in self._workers:
                self._workers.remove(worker)

    def close(self) -> None:
        """Stop polling and release the loop's own sockets; waits for the
        thread unless called from it."""
        with self.lock:
            self._running = False
        self.wake()
        if threading.get_ident() != self._ident:
            self._thread.join(10.0)

    # The loop ----------------------------------------------------------------

    def _run(self) -> None:
        self._ident = threading.get_ident()
        select = self._selector.select
        switch_interval = sys.getswitchinterval()
        timeout: float | None = 0.0
        blocked = time.monotonic()  # when the last poll could wait
        try:
            while True:
                if timeout != 0.0:
                    blocked = time.monotonic()
                elif time.monotonic() - blocked > switch_interval:
                    # A poll that waits for nothing hands the GIL and the
                    # lock over too briefly for a waiting thread to take
                    # them, so a loop that never runs out of work would
                    # starve every other thread of the process.
                    timeout = _BUSY_NAP_S
                    blocked = time.monotonic()
                events = select(timeout)
                with self.lock:
                    if not self._running:
                        return
                    for key, mask in events:
                        self._guarded(key.data, mask)
                    timeout = self._work()
        finally:
            self._selector.close()
            self._wake_r.close()
            self._wake_w.close()

    def _work(self) -> float | None:
        """Run the calls handed over, read the memory channels with bytes,
        and give each worker one budget of steps.  Returns the poll timeout:
        0 while calls or channel reads are left, else the earliest worker's."""
        calls, ready = self._calls, self._ready
        while calls:
            self._guarded(calls.popleft())
        while ready:
            self._guarded(ready.popleft()._drain)
        timeout = None
        for worker in tuple(self._workers):
            due = worker(STEP_BUDGET)
            if due is not None and (timeout is None or due < timeout):
                timeout = due
        return 0.0 if calls or ready else timeout

    def _guarded(self, fn, *args) -> None:
        # an error in one handler is a bug to report as an uncaught thread
        # error would be, not a reason to stop serving every other channel
        try:
            fn(*args)
        except Exception:
            threading.excepthook(threading.ExceptHookArgs((*sys.exc_info(), self._thread)))

    def _on_wake(self, mask: int) -> None:
        try:
            self._wake_r.recv(4096)
        except OSError:
            pass


class LocalRegistry:
    """Container-scoped map of local location names to what serves them:
    an acceptor for the channels ``connect`` opens, and the handler that
    serves a request handed over inside the container with no channel."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._bound: dict[str, tuple[Callable[[MemoryChannel], None], Callable | None]] = {}

    def bind(self, name: str, on_channel: Callable[[MemoryChannel], None],
             on_request: Callable | None = None) -> "LocalListener":
        with self._lock:
            if name in self._bound:
                raise StartupError(f"local location {name!r} already bound")
            self._bound[name] = (on_channel, on_request)
        return LocalListener(self, name)

    def connect(self, name: str) -> MemoryChannel:
        with self._lock:
            bound = self._bound.get(name)
        if bound is None:
            raise ConnectionRefusedError(f"no local listener at {name!r}")
        client, server = memory_pair(f"local:{name}")
        bound[0](server)
        return client

    def request_handler(self, name: str) -> Callable | None:
        """The handler bound with ``name``, or None when it has none or
        nothing is bound there."""
        with self._lock:
            bound = self._bound.get(name)
        return None if bound is None else bound[1]


class LocalListener:
    """A name bound in a ``LocalRegistry``; ``close`` unbinds it."""

    def __init__(self, registry: LocalRegistry, name: str):
        self._registry = registry
        self.name = name

    def close(self) -> None:
        with self._registry._lock:
            self._registry._bound.pop(self.name, None)


class TcpListener:
    """A listening TCP socket polled by ``loop``; each connection it accepts
    becomes a channel handed to ``on_channel``.  ``close`` stops polling and
    closes the socket, so the port refuses connections at once."""

    def __init__(self, host: str, port: int, on_channel: Callable[[SocketChannel], None],
                 loop: Loop):
        self._on_channel = on_channel
        try:
            # sets SO_REUSEADDR, and closes the socket when bind or listen fails
            self._sock = socket.create_server((host, port), backlog=32)
        except OSError as e:
            raise StartupError(f"cannot bind {host}:{port}: {e}") from e
        self.host, self.port = self._sock.getsockname()[:2]
        self._sock.setblocking(False)
        self._loop = loop
        self._closed = False
        loop.register(self._sock, self._on_accept)

    def _on_accept(self, mask: int) -> None:
        if self._closed:
            return
        try:
            conn, addr = self._sock.accept()
        except OSError:  # the client gave up first, or no slot: the next poll retries
            return
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._on_channel(SocketChannel(conn, name=f"socket:{addr[0]}:{addr[1]}"))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._loop.lock:
            self._loop.unregister(self._sock)
        self._sock.close()


def connect_socket(host: str, port: int, timeout: float = _CONNECT_TIMEOUT_S) -> SocketChannel:
    """A channel to ``host:port``.  The connect blocks: on loopback it
    takes tens of microseconds and a refusal returns at once, but a host
    that drops the handshake holds the caller for up to ``timeout``."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return SocketChannel(sock, name=f"socket:{host}:{port}")
