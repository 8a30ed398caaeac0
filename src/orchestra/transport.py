"""Byte transports: TCP sockets, in-memory channels, and local bindings.

Both transports present the same line-oriented contract: ``send`` writes
bytes, ``recv_line`` returns one LF-terminated line (or what remains at
EOF, letting the frame decoder report the truncation).  Every channel
counts its own traffic, and socket traffic additionally feeds a
process-wide counter so tests can assert that co-located services really
do talk without the network.

Local bindings map ``local://name`` locations to in-memory channel pairs
inside one process; the registry swap is atomic, so a name never has two
listeners at once.
"""

from __future__ import annotations

import itertools
import socket
import threading
from collections import deque
from typing import Callable

from .errors import StartupError


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


class _LineReader:
    """The line rule both transports share: split on LF, hand back what is
    left at EOF, trace each whole line.  A transport supplies
    ``_read_chunk``: its next bytes, or ``b""`` at EOF."""

    name: str
    _buffer: bytes

    def _read_chunk(self) -> bytes:
        raise NotImplementedError

    def recv_line(self) -> bytes | None:
        while b"\n" not in self._buffer:
            chunk = self._read_chunk()
            if not chunk:
                leftover, self._buffer = self._buffer, b""
                return leftover or None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        _trace(self.name, "in", line)
        return line + b"\n"


class SocketChannel(_LineReader):
    """A connected TCP socket with buffered line reads and byte counting."""

    def __init__(self, sock: socket.socket, name: str = ""):
        self._sock = sock
        self._buffer = b""
        self._send_lock = threading.Lock()
        self._closed = False
        self.name = _unique_name(name or "socket")
        self.bytes_in = 0
        self.bytes_out = 0

    def send(self, data: bytes) -> None:
        # trace before the bytes fly: the peer's answer must never be able
        # to enter the trace ahead of the request that caused it
        _trace(self.name, "out", data)
        with self._send_lock:
            self._sock.sendall(data)
        self.bytes_out += len(data)
        SOCKET_BYTES.add(len(data))

    def _read_chunk(self) -> bytes:
        try:
            chunk = self._sock.recv(65536)
        except OSError:
            return b""
        self.bytes_in += len(chunk)
        SOCKET_BYTES.add(len(chunk))
        return chunk

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class MemoryChannel(_LineReader):
    """One end of an in-process duplex byte pipe."""

    def __init__(self, name: str = ""):
        self.name = _unique_name(name or "memory")
        self._incoming: deque[bytes] = deque()
        self._cond = threading.Condition()
        self._buffer = b""
        self._closed = False
        self.peer: "MemoryChannel | None" = None
        self.bytes_in = 0
        self.bytes_out = 0

    def send(self, data: bytes) -> None:
        peer = self.peer
        if peer is None:
            raise BrokenPipeError("channel has no peer")
        _trace(self.name, "out", data)
        with peer._cond:
            if peer._closed:
                raise BrokenPipeError("peer closed")
            peer._incoming.append(data)
            peer._cond.notify_all()
        self.bytes_out += len(data)
        peer.bytes_in += len(data)
        LOCAL_BYTES.add(len(data))

    def _read_chunk(self) -> bytes:
        with self._cond:
            while True:
                self._cond.wait_for(lambda: self._incoming or self._closed)
                if not self._incoming:
                    return b""
                chunk = self._incoming.popleft()
                if chunk:  # an empty send is not EOF
                    return chunk

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        peer = self.peer
        if peer is not None:
            with peer._cond:
                peer._closed = True
                peer._cond.notify_all()


def memory_pair(name: str = "pair") -> tuple[MemoryChannel, MemoryChannel]:
    """A connected in-memory duplex channel; returns (client, server) ends."""
    a = MemoryChannel(f"{name}.client")
    b = MemoryChannel(f"{name}.server")
    a.peer, b.peer = b, a
    return a, b


class LocalRegistry:
    """Container-scoped map of local location names to acceptors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._acceptors: dict[str, Callable[[MemoryChannel], None]] = {}

    def bind(self, name: str, on_channel: Callable[[MemoryChannel], None]) -> "LocalListener":
        with self._lock:
            if name in self._acceptors:
                raise StartupError(f"local location {name!r} already bound")
            self._acceptors[name] = on_channel
        return LocalListener(self, name)

    def connect(self, name: str) -> MemoryChannel:
        with self._lock:
            acceptor = self._acceptors.get(name)
        if acceptor is None:
            raise ConnectionRefusedError(f"no local listener at {name!r}")
        client, server = memory_pair(f"local:{name}")
        acceptor(server)
        return client


class LocalListener:
    """A name bound in a ``LocalRegistry``; ``close`` unbinds it."""

    def __init__(self, registry: LocalRegistry, name: str):
        self._registry = registry
        self.name = name

    def close(self) -> None:
        with self._registry._lock:
            self._registry._acceptors.pop(self.name, None)


class TcpListener:
    """Accept loop on a TCP address; each connection becomes a channel."""

    def __init__(self, host: str, port: int, on_channel: Callable[[SocketChannel], None]):
        self._on_channel = on_channel
        try:
            # sets SO_REUSEADDR, and closes the socket when bind or listen fails
            self._sock = socket.create_server((host, port), backlog=32)
        except OSError as e:
            raise StartupError(f"cannot bind {host}:{port}: {e}") from e
        self.host, self.port = self._sock.getsockname()[:2]
        self._closed = False
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, addr = self._sock.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._on_channel(SocketChannel(conn, name=f"socket:{addr[0]}:{addr[1]}"))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass


def connect_socket(host: str, port: int, timeout: float = 5.0) -> SocketChannel:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return SocketChannel(sock, name=f"socket:{host}:{port}")
