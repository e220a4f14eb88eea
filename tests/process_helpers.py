"""Tools for tests of the proxy's helper processes: a record of calls that a
forked helper adds to as well, and a time limit on a block of code."""

from __future__ import annotations

import fcntl
import os
import signal
import tempfile
from array import array
from contextlib import contextmanager


class CallLog:
    """Integers appended to one unlinked file, from the process that created
    the log and from every process forked from it (O_APPEND makes each
    append whole); read back in order of arrival."""

    def __init__(self, width: int = 1):
        self.width = width
        self._file = tempfile.TemporaryFile()
        fcntl.fcntl(self._file.fileno(), fcntl.F_SETFL, os.O_APPEND)

    def add(self, *values: int) -> None:
        assert len(values) == self.width
        os.write(self._file.fileno(), array("q", values).tobytes())

    def entries(self) -> list:
        values = array("q", os.pread(self._file.fileno(), 1 << 24, 0))
        rows = list(zip(*[iter(values)] * self.width))
        return [row[0] for row in rows] if self.width == 1 else rows


class Expired(BaseException):
    """A time limit ran out; no except clause of the program catches it."""


@contextmanager
def time_limit(seconds: float):
    """Raise Expired in the block once ``seconds`` of wall time have passed,
    so a hang fails its test instead of stopping the suite."""
    def expire(signum, frame):
        raise Expired(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
