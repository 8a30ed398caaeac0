import threading
import time

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# How long the threads a test module started may take to end after it.
THREAD_GRACE_S = 2.0


@pytest.fixture(autouse=True, scope="module")
def no_thread_outlives_its_module():
    """Every thread a test module starts must end within ``THREAD_GRACE_S``
    of the module's last test: a leaked thread fails the module by name,
    as a leaked socket does through ``error::ResourceWarning``."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_GRACE_S
    for thread in set(threading.enumerate()) - before:
        thread.join(max(0.0, deadline - time.monotonic()))
    left = sorted(t.name for t in set(threading.enumerate()) - before if t.is_alive())
    if left:
        pytest.fail(f"threads still running after the module: {left}")
