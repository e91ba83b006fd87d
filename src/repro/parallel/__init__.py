"""Parallel FCC mining (Section 6): supervised pools, checkpointing,
fault injection, and a scheduler simulator."""

from ..chaos.worker import FaultInjected
from .checkpoint import (
    CheckpointJournal,
    CheckpointMismatchError,
    load_journal,
    run_fingerprint,
)
from .executor import parallel_cubeminer_mine, parallel_rsm_mine
from .sharding import (
    merge_shard_results,
    partition_cubeminer_tasks,
    partition_rsm_tasks,
    shard_blocks,
    shard_of_mask,
)
from .shm import (
    SHM_PREFIX,
    ShmAttachment,
    ShmDatasetRef,
    ShmError,
    ShmManager,
    active_segments,
    attach_dataset,
    publish_dataset,
)
from .simulator import (
    CommunicationModel,
    measure_cubeminer_task_times,
    measure_rsm_task_times,
    schedule_makespan,
    simulate_response_times,
)
from .supervisor import RetryPolicy, TaskFailedError, run_supervised
from .tasks import CubeMinerTask, cubeminer_tasks, rsm_tasks

__all__ = [
    "parallel_cubeminer_mine",
    "parallel_rsm_mine",
    "CheckpointJournal",
    "CheckpointMismatchError",
    "load_journal",
    "run_fingerprint",
    "FaultInjected",
    "RetryPolicy",
    "TaskFailedError",
    "run_supervised",
    "CommunicationModel",
    "measure_cubeminer_task_times",
    "measure_rsm_task_times",
    "schedule_makespan",
    "simulate_response_times",
    "CubeMinerTask",
    "cubeminer_tasks",
    "rsm_tasks",
    "SHM_PREFIX",
    "ShmAttachment",
    "ShmDatasetRef",
    "ShmError",
    "ShmManager",
    "active_segments",
    "attach_dataset",
    "publish_dataset",
    "merge_shard_results",
    "partition_cubeminer_tasks",
    "partition_rsm_tasks",
    "shard_blocks",
    "shard_of_mask",
]
