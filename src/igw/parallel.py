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
import queue
import threading
from typing import Callable, Optional


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask
    where the OS reports one, else ``os.cpu_count()``, else 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: (process id, job queue) of the helper thread, which runs the jobs in order
_helper: Optional[tuple[int, queue.SimpleQueue]] = None
_starting = threading.Lock()


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        fn, args, result = jobs.get()
        try:
            result.put((fn(*args), None))
        except BaseException as exc:  # all, or a join would wait forever; it re-raises
            result.put((None, exc))


def fork(fn: Callable, *args) -> Callable:
    """Start ``fn(*args)`` and return its join, a function that waits for
    the value and returns it, or raises what the call raised.  The call
    runs on the helper thread when more than one CPU is usable, and inline
    before returning otherwise.  Each call has its own one-slot result
    queue, so a join never reads another call's result, even one left
    behind by a caller that raised before joining."""
    global _helper
    if usable_cpus() < 2:
        value = fn(*args)
        return lambda: value
    with _starting:
        if _helper is None or _helper[0] != os.getpid():
            _helper = (os.getpid(), queue.SimpleQueue())
            threading.Thread(target=_serve, args=(_helper[1],), name="igw-helper", daemon=True).start()
        jobs = _helper[1]
    result = queue.SimpleQueue()
    jobs.put((fn, args, result))

    def join():
        value, error = result.get()
        if error is not None:
            raise error
        return value

    return join
