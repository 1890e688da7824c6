"""A wall-clock guard for tests of inputs that once hung or ran for minutes."""

import signal
from contextlib import contextmanager


@contextmanager
def wall_clock_guard(seconds):
    """Interrupt the body with TimeoutError once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"exceeded the {seconds} s wall-clock guard")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
