"""Byte transports: channel identity under concurrent creation."""

import sys
import threading

from orchestra.transport import MemoryChannel


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
