"""Fault-tolerant dispatch of parallel mining chunks.

:func:`run_supervised` sits between the parallel drivers and the worker
pool.  Where the old driver piped chunks through ``Pool.imap`` and died
with the first worker, the supervisor:

* dispatches chunks to a :class:`~concurrent.futures.ProcessPoolExecutor`
  with a bounded in-flight set (one running chunk per worker), so each
  chunk's per-task wall-clock timeout is measured from when it actually
  starts;
* detects worker death (:class:`BrokenProcessPool`) and straggler
  chunks (``task_timeout``), tears the poisoned pool down (killing hung
  workers) and re-spawns a fresh one;
* retries failed chunks with exponential backoff under a bounded
  attempt budget (:class:`RetryPolicy`); exhausting the budget raises
  :class:`TaskFailedError`;
* degrades gracefully to inline sequential execution once the pool has
  been restarted ``max_pool_restarts`` times — a crash-looping pool
  cannot prevent the run from completing;
* streams every completed chunk to an optional
  :class:`~repro.parallel.checkpoint.CheckpointJournal` so an
  interrupted run resumes by replaying the journal and mining only the
  missing chunks.

Results are reassembled by chunk id, and each chunk's metric tallies
are merged exactly once (failed attempts never return tallies), so a
run with retries reports the same cube list — set *and* order — and
the same merged :class:`~repro.obs.metrics.MiningMetrics` totals as a
clean run.  Supervision events (:class:`~repro.obs.events.TaskFailed`,
:class:`~repro.obs.events.TaskRetried`,
:class:`~repro.obs.events.PoolRestarted`,
:class:`~repro.obs.events.CheckpointWritten`) fire on the driver side,
so they reach ``on_event`` sinks even for pool runs.

Fault injection plugs in through ``fault_plan``, a
:class:`~repro.chaos.plan.ChaosPlan` that never leaves this process: at
each pool dispatch the supervisor draws at site ``worker``, op
``dispatch``, with path ``chunk_path(chunk, attempt)``
(:func:`~repro.chaos.worker.chunk_path`), and ships the drawn fault in
the task payload as a plain block that the worker fires before mining.
The inline path never draws, so degraded execution cannot fault — the
test suite's recovery guarantees rest on this module.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from concurrent.futures import process as _futures_process
from dataclasses import dataclass
from multiprocessing import get_context

from ..chaos.plan import ChaosPlan
from ..chaos.worker import chunk_path, fire_worker_fault, worker_block
from ..obs import (
    CheckpointWritten,
    EventSink,
    MiningCancelled,
    MiningMetrics,
    PoolRestarted,
    ProgressController,
    TaskFailed,
    TaskRetried,
)
from .checkpoint import CheckpointJournal

__all__ = ["RetryPolicy", "TaskFailedError", "run_supervised"]


@dataclass(frozen=True)
class RetryPolicy:
    """Failure-handling knobs for one supervised run."""

    #: Re-attempts allowed per chunk beyond the first (budget of
    #: ``retries + 1`` attempts total).
    retries: int = 2
    #: Per-chunk wall-clock timeout in seconds (``None`` = no timeout).
    #: A chunk running past it is treated as hung: the pool is killed,
    #: the chunk loses one attempt, everything else is requeued free.
    task_timeout: float | None = None
    #: Base backoff before attempt ``k+1`` of a chunk:
    #: ``backoff * backoff_factor**k`` seconds, capped at ``max_backoff``.
    backoff: float = 0.1
    backoff_factor: float = 2.0
    max_backoff: float = 5.0
    #: Pool re-spawns tolerated before degrading to inline execution.
    max_pool_restarts: int = 3
    #: Poll granularity of the dispatch loop, seconds.
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0 seconds, got {self.task_timeout}"
            )
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_pool_restarts < 0:
            raise ValueError(
                f"max_pool_restarts must be >= 0, got {self.max_pool_restarts}"
            )

    def delay_before(self, attempt: int) -> float:
        """Backoff in seconds before 1-based retry ``attempt``."""
        if self.backoff <= 0 or attempt <= 0:
            return 0.0
        return min(
            self.backoff * self.backoff_factor ** (attempt - 1),
            self.max_backoff,
        )


class TaskFailedError(RuntimeError):
    """A chunk exhausted its retry budget (or can never succeed)."""

    def __init__(self, chunk: int, attempts: int, cause: str, error: str) -> None:
        super().__init__(
            f"parallel chunk {chunk} failed {attempts} attempt(s) "
            f"({cause}): {error}"
        )
        self.chunk = chunk
        self.attempts = attempts
        self.cause = cause
        self.error = error


# ----------------------------------------------------------------------
# Worker-side wrapper (top level: must be picklable)
# ----------------------------------------------------------------------
def _run_chunk(payload):
    """Execute one chunk in a pool worker, firing any shipped fault."""
    worker_fn, chunk_id, fault, items = payload
    fire_worker_fault(fault)
    part, tallies = worker_fn(items)
    return chunk_id, part, tallies


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
def _kill_executor(executor: ProcessPoolExecutor | None) -> None:
    """Tear a pool down hard: hung workers get SIGKILL, not a join."""
    if executor is None:
        return
    for process in list(getattr(executor, "_processes", {}).values()):
        try:
            process.kill()
        except Exception:
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    # The stdlib atexit hook wakes every registered management thread;
    # ours now has a dead wakeup pipe, so writing to it at interpreter
    # exit raises an ignored-but-printed OSError.  Deregister it.
    manager = getattr(executor, "_executor_manager_thread", None)
    if manager is not None:
        try:
            _futures_process._threads_wakeups.pop(manager, None)
        except Exception:
            pass


def run_supervised(
    chunks: list[list],
    worker_fn,
    initializer,
    initargs: tuple,
    n_workers: int,
    *,
    stats: MiningMetrics,
    policy: RetryPolicy | None = None,
    controller: ProgressController | None = None,
    sink: EventSink | None = None,
    phase: str = "parallel",
    journal: CheckpointJournal | None = None,
    fault_plan: ChaosPlan | None = None,
) -> tuple[list, dict]:
    """Run ``worker_fn`` over ``chunks`` with supervision and recovery.

    Returns ``(raw, recovery)``: the concatenated chunk results in
    chunk order, plus a recovery-accounting dict (``task_failures``,
    ``task_retries``, ``pool_restarts``, ``chunks_resumed``,
    ``degraded_inline``) the drivers surface under
    ``result.stats.extra["recovery"]``.

    ``n_workers == 1`` (or a single chunk) runs inline — same
    journaling, no pool.  On :class:`MiningCancelled` the completed
    chunks' raw results are attached to ``exc.partial_cubes`` (plus the
    interrupted chunk's own partials on the inline path), matching the
    shape the drivers' ``finish()`` handlers expect on both paths.
    """
    if policy is None:
        policy = RetryPolicy()
    n_chunks = len(chunks)
    results: dict[int, list] = {}
    recovery = {
        "task_failures": 0,
        "task_retries": 0,
        "pool_restarts": 0,
        "chunks_resumed": 0,
        "degraded_inline": False,
    }

    def completed_raw() -> list:
        return [
            triple
            for cid in sorted(results)
            for triple in results[cid]
        ]

    def complete(chunk_id: int, part: list, tallies: dict) -> None:
        if chunk_id in results:  # pragma: no cover - double completion guard
            return
        results[chunk_id] = part
        stats.merge(MiningMetrics.from_dict(tallies))
        stats.workers_merged += 1
        if journal is not None:
            journal.record(chunk_id, part, tallies)
            if sink is not None:
                sink(CheckpointWritten(chunk_id, len(part), str(journal.path)))

    # ------------------------------------------------------------------
    # Replay the journal: resumed chunks merge exactly like fresh ones,
    # so a resumed run reports the totals of an uninterrupted one.
    # ------------------------------------------------------------------
    if journal is not None:
        for chunk_id, (raw, tallies) in sorted(journal.completed.items()):
            results[chunk_id] = raw
            stats.merge(MiningMetrics.from_dict(tallies))
            stats.workers_merged += 1
            recovery["chunks_resumed"] += 1

    remaining = [cid for cid in range(n_chunks) if cid not in results]

    def run_inline(chunk_ids: list[int]) -> None:
        """Degraded/sequential path: never draws, so it cannot fault."""
        if initializer is not None:
            initializer(*initargs)
        for chunk_id in chunk_ids:
            chunk_stats = MiningMetrics()
            try:
                part, tallies = worker_fn(
                    chunks[chunk_id], controller, sink, chunk_stats
                )
            except MiningCancelled as exc:
                stats.merge(chunk_stats)
                exc.partial_cubes = completed_raw() + list(exc.partial_cubes)
                exc.metrics = stats
                raise
            complete(chunk_id, part, tallies)
            if controller is not None:
                controller.checkpoint(
                    stats, phase=phase, done=len(results), total=n_chunks
                )

    if not remaining:
        return completed_raw(), recovery

    if n_workers == 1 or len(remaining) <= 1:
        run_inline(remaining)
        return completed_raw(), recovery

    # ------------------------------------------------------------------
    # Pooled path
    # ------------------------------------------------------------------
    # ``attempt`` numbers count dispatches (they advance on *every*
    # requeue, so a fault keyed to attempt 0 cannot re-fire forever);
    # the retry budget is tracked separately and only consumed by
    # failures attributable to the chunk itself (its own exception or
    # timeout) — never by being an innocent victim of a broken pool.
    attempts: dict[int, int] = {cid: 0 for cid in remaining}
    budget_used: dict[int, int] = {cid: 0 for cid in remaining}
    failures: dict[int, list[str]] = {cid: [] for cid in remaining}
    pending: deque = deque((cid, 0, 0.0) for cid in remaining)
    inflight: dict = {}  # future -> (chunk_id, attempt, deadline)
    executor: ProcessPoolExecutor | None = None
    degraded = False
    ctx = get_context()

    def requeue(
        chunk_id: int, failed_attempt: int, cause: str, error: str,
        *, consume_budget: bool,
    ) -> None:
        """Record a failed attempt and requeue (or exhaust the budget)."""
        failures[chunk_id].append(f"{cause}: {error}")
        next_attempt = failed_attempt + 1
        attempts[chunk_id] = next_attempt
        if consume_budget:
            recovery["task_failures"] += 1
            if sink is not None:
                sink(TaskFailed(chunk_id, failed_attempt, cause, error))
            budget_used[chunk_id] += 1
            if budget_used[chunk_id] > policy.retries:
                raise TaskFailedError(
                    chunk_id, budget_used[chunk_id], cause, error
                )
            delay = policy.delay_before(budget_used[chunk_id])
            recovery["task_retries"] += 1
            if sink is not None:
                sink(TaskRetried(chunk_id, next_attempt, delay))
            pending.append((chunk_id, next_attempt, time.monotonic() + delay))
        else:
            # Innocent victim of a pool failure: free re-dispatch.
            pending.append((chunk_id, next_attempt, 0.0))

    def pool_failed(cause: str) -> None:
        """Kill and forget the pool; requeue every in-flight chunk."""
        nonlocal executor, degraded
        recovery["pool_restarts"] += 1
        if sink is not None:
            sink(PoolRestarted(recovery["pool_restarts"], cause))
        _kill_executor(executor)
        executor = None
        for future, (chunk_id, attempt, _deadline) in list(inflight.items()):
            requeue(chunk_id, attempt, cause, "pool failure victim",
                    consume_budget=False)
        inflight.clear()
        if recovery["pool_restarts"] > policy.max_pool_restarts:
            degraded = True
            recovery["degraded_inline"] = True
            if sink is not None:
                sink(PoolRestarted(recovery["pool_restarts"], "degraded-inline"))

    try:
        while pending or inflight:
            if controller is not None:
                controller.checkpoint(
                    stats, phase=phase, done=len(results), total=n_chunks
                )
            if degraded:
                break
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=n_workers,
                    mp_context=ctx,
                    initializer=initializer,
                    initargs=initargs,
                )
            now = time.monotonic()
            # Submit ready chunks up to one per worker, preserving order.
            deferred = []
            while pending and len(inflight) < n_workers:
                chunk_id, attempt, ready_at = pending.popleft()
                if ready_at > now:
                    deferred.append((chunk_id, attempt, ready_at))
                    continue
                deadline = (
                    now + policy.task_timeout
                    if policy.task_timeout is not None
                    else float("inf")
                )
                fault = (
                    worker_block(fault_plan.draw(
                        "worker", "dispatch", chunk_path(chunk_id, attempt)
                    ))
                    if fault_plan is not None
                    else None
                )
                try:
                    future = executor.submit(
                        _run_chunk,
                        (worker_fn, chunk_id, fault, chunks[chunk_id]),
                    )
                except (BrokenExecutor, RuntimeError) as error:
                    # Pool died between waves; requeue and respawn.
                    deferred.append((chunk_id, attempt, ready_at))
                    for entry in reversed(deferred):
                        pending.appendleft(entry)
                    deferred = []
                    pool_failed(f"submit failed: {error!r}")
                    break
                inflight[future] = (chunk_id, attempt, deadline)
            for entry in reversed(deferred):
                pending.appendleft(entry)
            if degraded:
                break
            if not inflight:
                # Everything pending is backing off; sleep to the
                # earliest ready time (bounded by the poll interval).
                if pending:
                    next_ready = min(entry[2] for entry in pending)
                    pause = min(
                        policy.poll_interval, max(0.0, next_ready - now)
                    )
                    if pause:
                        time.sleep(pause)
                continue
            wait(
                list(inflight),
                timeout=policy.poll_interval,
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()

            broken = False
            for future in [f for f in list(inflight) if f.done()]:
                chunk_id, attempt, _deadline = inflight.pop(future)
                try:
                    done_id, part, tallies = future.result()
                except BrokenExecutor as error:
                    # Worker death poisons every in-flight future; the
                    # culprit is unknowable, so nobody loses budget —
                    # recovery is bounded by max_pool_restarts instead.
                    requeue(chunk_id, attempt, "pool-broken", repr(error),
                            consume_budget=False)
                    broken = True
                except MiningCancelled:
                    raise
                except Exception as error:
                    requeue(chunk_id, attempt, "exception", repr(error),
                            consume_budget=True)
                else:
                    complete(done_id, part, tallies)
            if broken:
                pool_failed("pool-broken")
                continue

            # Straggler detection: a chunk past its deadline means a hung
            # or lost worker; the only way to reclaim the slot is to
            # kill the pool.
            timed_out = [
                (future, meta)
                for future, meta in inflight.items()
                if now > meta[2]
            ]
            if timed_out:
                for future, (chunk_id, attempt, _deadline) in timed_out:
                    del inflight[future]
                    requeue(
                        chunk_id, attempt, "timeout",
                        f"exceeded task_timeout={policy.task_timeout:g}s",
                        consume_budget=True,
                    )
                pool_failed("timeout")
    except MiningCancelled as exc:
        exc.partial_cubes = completed_raw()
        exc.metrics = stats
        raise
    finally:
        _kill_executor(executor)
        executor = None

    if degraded:
        run_inline([cid for cid in range(n_chunks) if cid not in results])

    missing = [cid for cid in range(n_chunks) if cid not in results]
    if missing:  # pragma: no cover - loop invariant keeps this empty
        raise TaskFailedError(
            missing[0], attempts.get(missing[0], 0), "lost",
            "chunk never completed",
        )
    return completed_raw(), recovery
