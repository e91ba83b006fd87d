"""Stop and reap every process a benchmark run started, before it exits.

A run starts processes of its own (speed samplers, set-up probes, the
``repro-fcc serve`` daemon) and the program starts more on its behalf:
``multiprocessing`` pool workers and its resource tracker, which a
``parallel-cubeminer`` run leaves running until the interpreter is gone,
and the daemon's job workers.  ``become_subreaper`` makes this process
the Linux child subreaper of its descendants, so that a grandchild whose
parent exits is re-parented here rather than to init; ``stop_all`` then
ends the program's helpers in the order they need and kills and reaps
whatever child is still left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_pids() -> set[int]:
    """Children of this process, live or not yet reaped."""
    pids: set[int] = set()
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as handle:
                pids.update(int(word) for word in handle.read().split())
    except OSError:
        pass
    return pids


def stop_program_helpers() -> None:
    """Unlink shared memory, join pool workers, then stop the tracker.

    The order matters: unlinking a segment talks to the resource
    tracker and would start a new one if it had been stopped first.
    """
    shm = sys.modules.get("repro.parallel.shm")
    if shm is not None:
        shm._cleanup_all()
    if "multiprocessing" in sys.modules:
        import multiprocessing

        for child in multiprocessing.active_children():
            child.join(timeout=5)
            if child.is_alive():
                child.kill()
                child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def stop_all(grace_s: float = 5.0, limit_s: float = 20.0) -> None:
    """Reap every child; kill those still running after ``grace_s``."""
    stop_program_helpers()
    start = time.monotonic()
    killed = False
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        elapsed = time.monotonic() - start
        if (elapsed >= grace_s and not killed) or elapsed >= limit_s:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            if elapsed >= limit_s:
                return
        time.sleep(0.01)
