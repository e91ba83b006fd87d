"""Worker faults: the block a dispatcher ships, and the one function firing it.

A :class:`~repro.chaos.plan.ChaosPlan` never leaves the process that
holds it.  That process draws the fault for a worker launch (site
``worker``) and ships it across the process boundary as a plain-data
*block* — ``{"kind": "crash"}``, ``{"kind": "hang", "seconds": 30.0}``
— inside the task it hands the worker: a pool chunk's payload
(:func:`repro.parallel.supervisor.run_supervised`, op ``dispatch``) or
a service job's ``task.json`` (:meth:`repro.chaos.io.IOShim.worker_fault`,
op ``start``).  The worker calls :func:`fire_worker_fault` before any
work, so an injected failure never leaks partial output.

Pool dispatches are addressed by :func:`chunk_path`, so a scripted
rule names exactly the chunk (and attempt) it strikes.
"""

from __future__ import annotations

import os
import time

__all__ = [
    "CRASH_EXIT_CODE",
    "FaultInjected",
    "chunk_path",
    "fire_worker_fault",
    "worker_block",
]

#: Exit status of a ``crash`` fault (and of a ``hang`` that outlives its
#: sleep) — distinctive in worker logs.
CRASH_EXIT_CODE = 87

#: Kinds that strike a worker; the plan's storage kinds have no block.
_WORKER_KINDS = ("crash", "hang", "slow", "exception")


class FaultInjected(RuntimeError):
    """The error raised in a worker by an ``exception`` fault."""


def chunk_path(chunk: int, attempt: int | None = None) -> str:
    """The draw path of a pool dispatch, or a rule ``path`` matching one.

    ``chunk_path(3, 0)`` is the path the supervisor draws for chunk 3's
    first dispatch.  Used as a :class:`~repro.chaos.plan.ChaosRule`
    ``path`` (a substring match), ``chunk_path(3)`` strikes every
    attempt of chunk 3; the ``;`` terminators keep chunk 1 from
    matching chunk 11 and attempt 1 from matching attempt 10.
    """
    path = f"chunk={int(chunk)};"
    if attempt is not None:
        path += f"attempt={int(attempt)};"
    return path


def worker_block(fault) -> dict | None:
    """The plain-data block shipping a drawn fault to a worker.

    ``None`` for no fault or a kind that does not strike workers.
    """
    if fault is None or fault.kind not in _WORKER_KINDS:
        return None
    if fault.kind in ("hang", "slow"):
        return {"kind": fault.kind, "seconds": float(fault.seconds)}
    return {"kind": fault.kind}


def fire_worker_fault(block: dict | None) -> None:
    """Fire a shipped fault block inside the worker (``None``: no-op).

    * ``crash`` — exit at once with :data:`CRASH_EXIT_CODE`;
    * ``hang`` — sleep, then exit without a result (a hang that outlives
      its sleep still never answers, and leaves no live worker behind);
    * ``slow`` — sleep, then continue normally (a straggler);
    * ``exception`` — raise :class:`FaultInjected`.
    """
    if not block:
        return
    kind = block["kind"]
    if kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if kind in ("hang", "slow"):
        time.sleep(float(block["seconds"]))
        if kind == "hang":
            os._exit(CRASH_EXIT_CODE)
    elif kind == "exception":
        raise FaultInjected("injected exception fault")
