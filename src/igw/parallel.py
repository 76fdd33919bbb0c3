"""Where work may run in parallel: the CPUs a process may use, and one
helper thread.

:func:`usable_cpus` is the one rule for both kinds of parallel work: the
process pool of :func:`igw.igw_process.map_chunks` and the helper thread
here.  numpy releases the interpreter lock inside ``np.convolve``, so two
parts of one product overlap on two CPUs when one of them runs on another
thread.  :func:`fork` hands one call to a single daemon helper thread and
returns its join; the caller computes its own part meanwhile.  The helper
starts on the first fork, and only while more than one CPU is usable;
otherwise the call runs inline, at once.  It serves the process that
started it, by process id: a child forked by a process pool inherits the
record but not the thread, and starts its own.  Nothing here changes what
is computed, only which thread computes it.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Callable, Optional


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask
    where the OS reports one, else ``os.cpu_count()``, else 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Job:
    """One call handed to the helper.  Its lock is held until the value or
    the exception is stored, so each fork waits on its own handle and never
    reads another's result, even one left behind by a caller that raised
    before joining."""

    def __init__(self, fn: Callable, args: tuple) -> None:
        self.fn, self.args = fn, args
        self.value = self.error = None
        self.done = threading.Lock()
        self.done.acquire()

    def run(self) -> None:
        try:
            self.value = self.fn(*self.args)
        except BaseException as exc:  # re-raised in the caller by join
            self.error = exc
        finally:
            self.done.release()

    def join(self):
        with self.done:
            pass
        if self.error is not None:
            raise self.error
        return self.value


class _Helper:
    """One daemon thread that runs the jobs handed to it, in order."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.jobs: deque[_Job] = deque()
        self.ready = threading.Semaphore(0)
        threading.Thread(target=self._serve, name="igw-helper", daemon=True).start()

    def submit(self, job: _Job) -> None:
        self.jobs.append(job)
        self.ready.release()

    def _serve(self) -> None:
        while True:
            self.ready.acquire()
            self.jobs.popleft().run()


_helper: Optional[_Helper] = None
_starting = threading.Lock()


def fork(fn: Callable, *args) -> Callable:
    """Start ``fn(*args)`` and return its join, a function that waits for
    the value and returns it, or raises what the call raised.  The call
    runs on the helper thread when more than one CPU is usable, and inline
    before returning otherwise."""
    global _helper
    if usable_cpus() < 2:
        value = fn(*args)
        return lambda: value
    with _starting:
        if _helper is None or _helper.pid != os.getpid():
            _helper = _Helper()
        helper = _helper
    job = _Job(fn, args)
    helper.submit(job)
    return job.join
