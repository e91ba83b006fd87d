"""Parallel FCC mining with worker processes (Section 6, phases b-c).

Every worker sees the full dataset (matching the paper's "each
processor requires a copy of the entire dataset") and then executes its
allocated tasks without any inter-worker communication.  By default a
pooled run publishes the dataset once into shared memory
(:mod:`repro.parallel.shm`) and ships workers only an O(1)
:class:`~repro.parallel.shm.ShmDatasetRef`; the numpy kernel attaches
with zero copies, other kernels fall back to a private copy on attach,
and ``use_shm=False`` restores the legacy pickled-dataset initializer.

* :func:`parallel_rsm_mine` — tasks are base-dimension subsets; a
  worker builds each representative slice, mines it with the 2D miner
  and post-prunes locally.
* :func:`parallel_cubeminer_mine` — tasks are frontier branches of the
  splitting tree; a worker resumes the sequential engine from the
  branch's node, cutter index and track sets.

With ``shards > 1`` the task space additionally partitions along the
enumerated dimension (:mod:`repro.parallel.sharding`): every chunk then
belongs to exactly one shard, per-shard results merge through
:func:`~repro.parallel.sharding.merge_shard_results` (dedup + closure
re-validation + canonical order), and the checkpoint journal keeps
working unchanged because the fingerprint binds the sharded chunk
decomposition like any other.

Both drivers dispatch their task chunks through
:func:`~repro.parallel.supervisor.run_supervised`, which supervises the
pool: worker crashes and hung chunks are detected, failed chunks retry
with exponential backoff under a bounded budget, a poisoned pool is
re-spawned (and, past ``max_pool_restarts``, the run degrades to inline
sequential execution), and completed chunks optionally stream to a
checkpoint journal so an interrupted run can resume
(``checkpoint_path=`` / ``resume=``).  ``n_workers == 1`` and trivially
small task lists run inline through the same code path, so results and
tests do not depend on multiprocessing availability and both paths
share one result/metrics shape — including on cancellation.

Instrumentation: each worker accumulates its own
:class:`~repro.obs.metrics.MiningMetrics` and ships it back with its
chunk result; the driver merges each chunk's tallies exactly once
(failed attempts return nothing), so a parallel run — even one that
retried faults — reports the same counter totals a sequential run
would.  Progress checkpoints and deadlines are evaluated in the driver
between chunk completions (and inside the engine on the inline path).
Worker-side event sinks, being arbitrary callables, do not cross
process boundaries and only fire on the inline path; the supervision
events (``TaskFailed``, ``TaskRetried``, ``PoolRestarted``,
``CheckpointWritten``) fire driver-side and therefore always reach
``on_event``.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..chaos.plan import ChaosPlan
from ..core.closure import LaneClosure
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import AXIS_NAMES, Dataset3D
from ..core.kernels import Kernel
from ..core.permute import cube_builder, order_moving_axis_first
from ..core.result import MiningResult, MiningStats
from ..cubeminer.algorithm import _run
from ..cubeminer.cutter import Cutter, HeightOrder, build_cutters
from ..fcp import get_fcp_miner
from ..obs import (
    EventSink,
    MineDone,
    MineStart,
    MiningCancelled,
    MiningMetrics,
    ProgressController,
    SliceEvent,
    resolve_progress,
)
from ..rsm.algorithm import resolve_base_axis
from ..rsm.slices import representative_slice
from .checkpoint import CheckpointJournal, run_fingerprint
from .sharding import (
    merge_shard_results,
    partition_cubeminer_tasks,
    partition_rsm_tasks,
    shard_blocks,
)
from .shm import ShmDatasetRef, ShmError, ShmManager, attach_dataset, publish_dataset
from .supervisor import RetryPolicy, run_supervised
from .tasks import CubeMinerTask, cubeminer_tasks, rsm_tasks

__all__ = ["parallel_rsm_mine", "parallel_cubeminer_mine"]

# ----------------------------------------------------------------------
# Worker-side state and functions (must be importable at top level).
# ----------------------------------------------------------------------
_worker_dataset: Dataset3D | None = None
_worker_thresholds: Thresholds | None = None
_worker_fcp_name: str = "dminer"
_worker_cutters: list[Cutter] | None = None
_worker_lanes: LaneClosure | None = None  # the RSM worker's Lemma-1 engine
_worker_attachment = None  # keeps a zero-copy shm segment mapped


def _materialize_worker_dataset(
    dataset: "Dataset3D | ShmDatasetRef", kernel_name: str | None
) -> Dataset3D:
    """Turn the initializer payload into this worker's dataset.

    A :class:`ShmDatasetRef` attaches to the published segment (held
    open in ``_worker_attachment`` for the process lifetime); a plain
    dataset is the legacy pickled copy.  An explicit kernel name wins
    over whatever the payload recorded, so a worker always inherits
    exactly the kernel the driver selected.
    """
    global _worker_attachment
    if isinstance(dataset, ShmDatasetRef):
        attachment = attach_dataset(dataset, kernel=kernel_name)
        _worker_attachment = attachment
        return attachment.dataset
    return dataset if kernel_name is None else dataset.with_kernel(kernel_name)


def _init_rsm_worker(
    dataset: "Dataset3D | ShmDatasetRef",
    thresholds: Thresholds,
    fcp_name: str,
    kernel_name: str | None = None,
) -> None:
    global _worker_dataset, _worker_thresholds, _worker_fcp_name, _worker_lanes
    _worker_dataset = _materialize_worker_dataset(dataset, kernel_name)
    _worker_thresholds = thresholds
    _worker_fcp_name = fcp_name
    _worker_lanes = LaneClosure(_worker_dataset)


def _rsm_worker_chunk(
    height_masks: list[int],
    progress: ProgressController | None = None,
    sink: EventSink | None = None,
    metrics: MiningMetrics | None = None,
) -> tuple[list[tuple[int, int, int]], dict[str, int]]:
    """Mine a chunk of representative slices.

    Returns the raw cube triples plus the chunk's counter tallies (as a
    picklable dict).  ``progress``/``sink``/``metrics`` are only bound
    on the inline path — pool workers run with the defaults and the
    driver merges their returned tallies.
    """
    dataset = _worker_dataset
    thresholds = _worker_thresholds
    lanes = _worker_lanes
    assert dataset is not None and thresholds is not None and lanes is not None
    stats = metrics if metrics is not None else MiningMetrics()
    miner = get_fcp_miner(_worker_fcp_name)
    found: list[tuple[int, int, int]] = []
    try:
        for done, heights in enumerate(height_masks, start=1):
            size = heights.bit_count()
            stats.rs_slices_mined += 1
            rs = representative_slice(dataset, heights)
            patterns = miner.mine(
                rs, min_rows=thresholds.min_r, min_columns=thresholds.min_c
            )
            stats.fcp_patterns += len(patterns)
            n_kept = 0
            for pattern in patterns:
                volume = size * pattern.row_support * pattern.column_support
                if volume < thresholds.min_volume:
                    continue
                stats.postprune_checked += 1
                if lanes.height_closed(heights, pattern.rows, pattern.columns):
                    n_kept += 1
                    found.append((heights, pattern.rows, pattern.columns))
                else:
                    stats.postprune_discards += 1
            if sink is not None:
                sink(SliceEvent(heights, len(patterns), n_kept))
            if progress is not None:
                progress.checkpoint(
                    stats, phase="parallel-rsm", done=done, total=len(height_masks)
                )
    except MiningCancelled as exc:
        exc.partial_cubes = found
        exc.metrics = stats
        raise
    return found, stats.as_dict()


def _init_cubeminer_worker(
    dataset: "Dataset3D | ShmDatasetRef",
    thresholds: Thresholds,
    cutters: list[Cutter],
    kernel_name: str | None = None,
) -> None:
    global _worker_dataset, _worker_thresholds, _worker_cutters
    _worker_dataset = _materialize_worker_dataset(dataset, kernel_name)
    _worker_thresholds = thresholds
    _worker_cutters = cutters


def _cubeminer_worker_chunk(
    tasks: list[CubeMinerTask],
    progress: ProgressController | None = None,
    sink: EventSink | None = None,
    metrics: MiningMetrics | None = None,
) -> tuple[list[tuple[int, int, int]], dict[str, int]]:
    """Resume the sequential engine on a chunk of tree branches."""
    dataset = _worker_dataset
    thresholds = _worker_thresholds
    cutters = _worker_cutters
    assert dataset is not None and thresholds is not None and cutters is not None
    stats = metrics if metrics is not None else MiningMetrics()
    stack = [task.as_stack_item() for task in tasks]
    try:
        cubes, stats = _run(
            dataset,
            thresholds,
            cutters,
            stack,
            stats,
            sink=sink,
            progress=progress,
        )
    except MiningCancelled as exc:
        exc.partial_cubes = [
            (cube.heights, cube.rows, cube.columns) for cube in exc.partial_cubes
        ]
        raise
    return [(cube.heights, cube.rows, cube.columns) for cube in cubes], stats.as_dict()


def _chunked(items: list, n_chunks: int) -> list[list]:
    """Split ``items`` into at most ``n_chunks`` contiguous, even chunks."""
    n_chunks = max(1, min(n_chunks, len(items)))
    size, extra = divmod(len(items), n_chunks)
    chunks = []
    start = 0
    for c in range(n_chunks):
        end = start + size + (1 if c < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


def _chunk_shards(shard_lists: list[list], chunk_target: int) -> list[list]:
    """Chunk each shard's tasks independently and concatenate.

    Chunk boundaries never cross shards, so every chunk belongs to
    exactly one shard and the single global chunk list flows through
    one supervised run — retries, journal fingerprint and resume all
    work unchanged for sharded decompositions.
    """
    nonempty = [part for part in shard_lists if part]
    if not nonempty:
        return []
    per_shard = max(1, -(-chunk_target // len(nonempty)))
    return [chunk for part in nonempty for chunk in _chunked(part, per_shard)]


def _prepare_transport(
    dataset: Dataset3D,
    use_shm: bool | None,
    n_workers: int,
    n_chunks: int,
    stats: MiningMetrics,
    extra: dict,
) -> "tuple[Dataset3D | ShmDatasetRef, ShmManager | None]":
    """Decide how the dataset reaches the workers and publish if shm.

    ``use_shm=None`` auto-enables shared memory exactly when a worker
    pool will actually run (more than one worker and chunk) and the
    dataset is non-empty; the decision is a pure function of the call
    configuration, so clean, faulty and resumed runs of one config
    report identical transport counters.  ``use_shm=True`` forces
    publication (raising on failure); ``False`` keeps the legacy
    pickled-dataset initializer.  On auto, a publish failure (e.g. no
    ``/dev/shm``) degrades silently to the pickled path.
    """
    pooled = n_workers > 1 and n_chunks > 1
    forced = use_shm is True
    if use_shm is None:
        use_shm = pooled and min(dataset.shape) > 0
    if not use_shm:
        extra["shm"] = {"enabled": False}
        return dataset, None
    manager = ShmManager()
    try:
        ref = publish_dataset(dataset, manager)
    except (ShmError, OSError) as exc:
        manager.cleanup()
        if forced:
            raise
        extra["shm"] = {"enabled": False, "error": repr(exc)}
        return dataset, None
    stats.shm_datasets_published += 1
    zero_copy = dataset.kernel.words_native
    if not zero_copy:
        stats.shm_copy_fallbacks += 1
    extra["shm"] = {
        "enabled": True,
        "segment": ref.segment,
        "nbytes": ref.nbytes,
        "zero_copy": zero_copy,
    }
    return ref, manager


def _open_journal(
    checkpoint_path: "str | Path | None",
    *,
    algorithm: str,
    dataset_shape: tuple[int, int, int],
    thresholds: Thresholds,
    chunks: list[list],
    resume: bool,
) -> CheckpointJournal | None:
    if checkpoint_path is None:
        return None
    return CheckpointJournal.open(
        checkpoint_path,
        algorithm=algorithm,
        fingerprint=run_fingerprint(
            algorithm,
            dataset_shape,
            thresholds.as_tuple() + (thresholds.min_volume,),
            chunks,
        ),
        n_chunks=len(chunks),
        resume=resume,
    )


# ----------------------------------------------------------------------
# Public drivers
# ----------------------------------------------------------------------
def parallel_rsm_mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    n_workers: int = 2,
    base_axis: int | str = "auto",
    fcp_miner: str = "dminer",
    chunks_per_worker: int = 4,
    shards: int = 1,
    shard_dim: int | str = "auto",
    use_shm: bool | None = None,
    kernel: str | Kernel | None = None,
    retries: int = 2,
    task_timeout: float | None = None,
    backoff: float = 0.1,
    checkpoint_path: "str | Path | None" = None,
    resume: bool = False,
    fault_plan: ChaosPlan | None = None,
    metrics: MiningMetrics | None = None,
    on_event: EventSink | None = None,
    progress: "ProgressController | callable | None" = None,
    deadline: float | None = None,
) -> MiningResult:
    """Parallel RSM: fan representative-slice tasks across processes."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    get_fcp_miner(fcp_miner)  # validate the name before forking
    start = time.perf_counter()
    stats = metrics if metrics is not None else MiningMetrics()
    controller = resolve_progress(progress, deadline)
    if kernel is not None:
        dataset = dataset.with_kernel(kernel)
    kernel_name = dataset.kernel.name
    axis = resolve_base_axis(dataset, base_axis)
    if shard_dim != "auto" and Dataset3D._axis_index(shard_dim) != axis:
        raise ValueError(
            f"parallel-rsm shards along its enumerated base dimension "
            f"({AXIS_NAMES[axis]!r}); shard_dim {shard_dim!r} does not match"
        )
    axis_name = ("h", "r", "c")[axis]
    order = order_moving_axis_first(axis)
    working = dataset if axis == 0 else dataset.transpose(order)  # type: ignore[arg-type]
    working_thresholds = thresholds.permute(order)
    algorithm = f"parallel-rsm-{axis_name}[{fcp_miner}]x{n_workers}"
    if shards > 1:
        algorithm += f"s{shards}"
    policy = RetryPolicy(retries=retries, task_timeout=task_timeout, backoff=backoff)
    if on_event is not None:
        on_event(
            MineStart(
                algorithm,
                dataset.shape,
                thresholds.as_tuple() + (thresholds.min_volume,),
            )
        )

    tasks: list[int] = []
    recovery: dict | None = None
    transport_extra: dict = {}

    def finish(raw: list[tuple[int, int, int]]) -> MiningResult:
        build = cube_builder(order)
        cubes = [build(h, r, c) for h, r, c in raw]
        extra: dict = {"n_tasks": len(tasks), "n_workers": n_workers}
        extra.update(transport_extra)
        if recovery is not None:
            extra["recovery"] = recovery
        return MiningResult(
            cubes=cubes,
            algorithm=algorithm,
            thresholds=thresholds,
            dataset_shape=dataset.shape,
            elapsed_seconds=time.perf_counter() - start,
            stats=MiningStats(metrics=stats, extra=extra),
        )

    def merged(raw: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
        if shards <= 1:
            return raw
        # Boundary invariant: the union of the per-shard results must be
        # exactly the closed-cube set; duplicates or closure violations
        # are dropped (and counted) rather than emitted.
        return merge_shard_results(working, working_thresholds, raw, metrics=stats)

    try:
        # Checkpoint before task generation: subset enumeration is
        # exponential in the base dimension, so an expired deadline must
        # abort before it, not after.
        if controller is not None:
            controller.checkpoint(stats, phase="parallel-rsm", done=0)
        if working_thresholds.feasible_for_shape(working.shape):
            tasks = rsm_tasks(working.n_heights, working_thresholds.min_h)
        if controller is not None:
            controller.checkpoint(
                stats, phase="parallel-rsm", done=0, total=len(tasks)
            )
        chunk_target = n_workers * chunks_per_worker
        if shards > 1 and tasks:
            blocks = shard_blocks(working.n_heights, shards)
            shard_lists = partition_rsm_tasks(tasks, blocks)
            chunks = _chunk_shards(shard_lists, chunk_target)
            transport_extra["shards"] = {
                "shards": shards,
                "dim": AXIS_NAMES[axis],
                "tasks_per_shard": [len(part) for part in shard_lists],
            }
        else:
            chunks = _chunked(tasks, chunk_target) if tasks else []
        # The journal stores working-axis triples; the fingerprint binds
        # it to this exact decomposition (and axis/sharding, via the
        # algorithm and chunk list).
        journal = _open_journal(
            checkpoint_path,
            algorithm=algorithm,
            dataset_shape=dataset.shape,
            thresholds=thresholds,
            chunks=chunks,
            resume=resume,
        )
        payload, shm_manager = _prepare_transport(
            working, use_shm, n_workers, len(chunks), stats, transport_extra
        )
        try:
            raw, recovery = run_supervised(
                chunks,
                _rsm_worker_chunk,
                _init_rsm_worker,
                (payload, working_thresholds, fcp_miner, kernel_name),
                n_workers,
                stats=stats,
                policy=policy,
                controller=controller,
                sink=on_event,
                phase="parallel-rsm",
                journal=journal,
                fault_plan=fault_plan,
            )
        finally:
            if journal is not None:
                journal.close()
            if shm_manager is not None:
                shm_manager.cleanup()
    except MiningCancelled as exc:
        elapsed = time.perf_counter() - start
        exc.metrics = stats
        exc.partial = finish(merged(list(exc.partial_cubes)))
        if on_event is not None:
            on_event(MineDone(algorithm, len(exc.partial), elapsed, cancelled=True))
        raise

    result = finish(merged(raw))
    if on_event is not None:
        on_event(MineDone(algorithm, len(result), result.elapsed_seconds))
    return result


def parallel_cubeminer_mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    n_workers: int = 2,
    order: HeightOrder = HeightOrder.ZERO_DECREASING,
    min_tasks: int | None = None,
    chunks_per_worker: int = 4,
    shards: int = 1,
    shard_dim: int | str = "auto",
    use_shm: bool | None = None,
    kernel: str | Kernel | None = None,
    retries: int = 2,
    task_timeout: float | None = None,
    backoff: float = 0.1,
    checkpoint_path: "str | Path | None" = None,
    resume: bool = False,
    fault_plan: ChaosPlan | None = None,
    metrics: MiningMetrics | None = None,
    on_event: EventSink | None = None,
    progress: "ProgressController | callable | None" = None,
    deadline: float | None = None,
) -> MiningResult:
    """Parallel CubeMiner: fan tree branches across processes."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shard_dim != "auto":
        raise ValueError(
            "parallel-cubeminer shards its splitting-tree frontier, not a "
            f"named dimension; shard_dim must stay 'auto', got {shard_dim!r}"
        )
    start = time.perf_counter()
    stats = metrics if metrics is not None else MiningMetrics()
    controller = resolve_progress(progress, deadline)
    if kernel is not None:
        dataset = dataset.with_kernel(kernel)
    kernel_name = dataset.kernel.name
    cutters = build_cutters(dataset, order)
    stats.cutters_built += len(cutters)
    stats.n_cutters = len(cutters)
    if min_tasks is None:
        min_tasks = max(8 * n_workers, 1)
    algorithm = f"parallel-cubeminer[{order.value}]x{n_workers}"
    if shards > 1:
        algorithm += f"s{shards}"
    policy = RetryPolicy(retries=retries, task_timeout=task_timeout, backoff=backoff)
    if on_event is not None:
        on_event(
            MineStart(
                algorithm,
                dataset.shape,
                thresholds.as_tuple() + (thresholds.min_volume,),
            )
        )
    tasks: list[CubeMinerTask] = []
    done: list[Cube] = []
    recovery: dict | None = None
    transport_extra: dict = {}

    def finish(triples: list[tuple[int, int, int]]) -> MiningResult:
        cubes = [Cube(h, r, c) for h, r, c in triples]
        extra: dict = {
            "n_tasks": len(tasks),
            "n_workers": n_workers,
            "fccs_during_expansion": len(done),
        }
        extra.update(transport_extra)
        if recovery is not None:
            extra["recovery"] = recovery
        return MiningResult(
            cubes=cubes,
            algorithm=algorithm,
            thresholds=thresholds,
            dataset_shape=dataset.shape,
            elapsed_seconds=time.perf_counter() - start,
            stats=MiningStats(metrics=stats, extra=extra),
        )

    def merged(raw: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
        triples = [(c.heights, c.rows, c.columns) for c in done] + list(raw)
        if shards <= 1:
            return triples
        # The merge covers the expansion-phase FCCs too, so the final set
        # is deduped and re-validated as a whole.
        return merge_shard_results(dataset, thresholds, triples, metrics=stats)

    try:
        # Checkpoint before the breadth-first expansion: it mines real
        # tree nodes, so an expired deadline must abort before it.
        if controller is not None:
            controller.checkpoint(stats, phase="parallel-cubeminer", done=0)
        tasks, done = cubeminer_tasks(
            dataset, thresholds, cutters, min_tasks, metrics=stats
        )
        if controller is not None:
            controller.checkpoint(
                stats, phase="parallel-cubeminer", done=0, total=len(tasks)
            )
        chunk_target = n_workers * chunks_per_worker
        if shards > 1 and tasks:
            shard_lists = partition_cubeminer_tasks(tasks, shards)
            chunks = _chunk_shards(shard_lists, chunk_target)
            transport_extra["shards"] = {
                "shards": shards,
                "dim": "frontier",
                "tasks_per_shard": [len(part) for part in shard_lists],
            }
        else:
            chunks = _chunked(tasks, chunk_target) if tasks else []
        # Expansion-phase FCCs (``done``) are deterministic re-derivations
        # on resume, so the journal only needs the chunk results.
        journal = _open_journal(
            checkpoint_path,
            algorithm=algorithm,
            dataset_shape=dataset.shape,
            thresholds=thresholds,
            chunks=chunks,
            resume=resume,
        )
        payload, shm_manager = _prepare_transport(
            dataset, use_shm, n_workers, len(chunks), stats, transport_extra
        )
        try:
            raw, recovery = run_supervised(
                chunks,
                _cubeminer_worker_chunk,
                _init_cubeminer_worker,
                (payload, thresholds, cutters, kernel_name),
                n_workers,
                stats=stats,
                policy=policy,
                controller=controller,
                sink=on_event,
                phase="parallel-cubeminer",
                journal=journal,
                fault_plan=fault_plan,
            )
        finally:
            if journal is not None:
                journal.close()
            if shm_manager is not None:
                shm_manager.cleanup()
    except MiningCancelled as exc:
        elapsed = time.perf_counter() - start
        exc.metrics = stats
        exc.partial = finish(merged(list(exc.partial_cubes)))
        if on_event is not None:
            on_event(MineDone(algorithm, len(exc.partial), elapsed, cancelled=True))
        raise

    result = finish(merged(raw))
    if on_event is not None:
        on_event(MineDone(algorithm, len(result), result.elapsed_seconds))
    return result
