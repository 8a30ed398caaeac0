"""Byte transports: channel identity and the line rule both share."""

import os
import socket
import sys
import threading

import pytest

from orchestra.errors import StartupError
from orchestra.transport import MemoryChannel, SocketChannel, TcpListener, memory_pair


def _socket_pair():
    a, b = socket.socketpair()
    return SocketChannel(a, "a"), SocketChannel(b, "b")


@pytest.mark.parametrize("make_pair", [memory_pair, _socket_pair], ids=["memory", "socket"])
def test_line_rule_is_the_same_on_both_transports(make_pair):
    a, b = make_pair()
    try:
        a.send(b"one\ntw")
        a.send(b"")  # an empty send is not end of stream
        a.send(b"o\nrest")
        assert b.recv_line() == b"one\n"
        assert b.recv_line() == b"two\n"
        a.close()
        assert b.recv_line() == b"rest"  # what is left at EOF, unterminated
        assert b.recv_line() is None
        assert b.bytes_in == len(b"one\ntwo\nrest")
    finally:
        a.close()
        b.close()


def test_channel_names_stay_unique_across_threads():
    # traced traffic is grouped by channel name, so two channels must never share one
    per_thread = [[] for _ in range(4)]

    def create(out):
        out.extend(MemoryChannel("race").name for _ in range(2000))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=create, args=(out,)) for out in per_thread]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    names = [name for out in per_thread for name in out]
    assert len(set(names)) == len(names) == 8000


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_binds_leave_no_socket_open():
    held = socket.create_server(("127.0.0.1", 0))
    port = held.getsockname()[1]
    errors = []  # kept, as a caller that reports them would keep them
    try:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            with pytest.raises(StartupError) as caught:
                TcpListener("127.0.0.1", port, lambda channel: None)
            errors.append(caught.value)
        assert len(os.listdir("/proc/self/fd")) <= before
    finally:
        held.close()
