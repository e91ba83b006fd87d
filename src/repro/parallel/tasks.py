"""Task generation for parallel FCC mining (Section 6, phase a).

The paper's parallel framework has three logical phases: task
generation, task allocation, task execution.  Both algorithms decompose
into fully independent tasks (each processor holds the whole dataset,
so no communication happens during execution):

* **RSM** — one task per representative slice, i.e. per enumerated
  base-dimension subset (:func:`rsm_tasks`);
* **CubeMiner** — one task per branch of the splitting tree.  The tree
  is expanded breadth-first, by the sequential drain itself, until at
  least ``min_tasks`` frontier nodes exist; each frontier node (with its
  cutter index and track sets) is a self-contained continuation
  (:func:`cubeminer_tasks`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.bitset import full_mask
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..cubeminer.algorithm import _run
from ..cubeminer.cutter import Cutter
from ..obs.metrics import MiningMetrics
from ..rsm.slices import enumerate_height_subsets

__all__ = ["CubeMinerTask", "rsm_tasks", "cubeminer_tasks"]


@dataclass(frozen=True, slots=True)
class CubeMinerTask:
    """A frontier node of the CubeMiner tree: a resumable sub-search."""

    heights: int
    rows: int
    columns: int
    cutter_index: int
    track_left: int
    track_middle: int

    def as_stack_item(self) -> tuple[tuple[int, int, int], int, int, int]:
        """Convert to the work-stack format of the sequential engine."""
        return (
            (self.heights, self.rows, self.columns),
            self.cutter_index,
            self.track_left,
            self.track_middle,
        )


def rsm_tasks(n_heights: int, min_h: int) -> list[int]:
    """All base-dimension subset masks — one RSM task each."""
    return list(enumerate_height_subsets(n_heights, min_h))


def cubeminer_tasks(
    dataset: Dataset3D,
    thresholds: Thresholds,
    cutters: list[Cutter],
    min_tasks: int,
    metrics: MiningMetrics | None = None,
) -> tuple[list[CubeMinerTask], list[Cube]]:
    """Expand the CubeMiner tree breadth-first into >= ``min_tasks`` tasks.

    Each frontier node is expanded by the sequential drain itself, run
    on a one-item stack for one node: the sons it leaves on the stack
    form the next frontier, and a node with no applicable cutter left
    comes back as a completed FCC.  Returns the frontier tasks plus
    those FCCs, so replaying every task yields exactly the sequential
    result set.  When ``metrics`` is given, the expansion's counters
    (nodes, sons, prunes, closure checks) land there, and with the
    workers' they add up to the sequential run's totals.
    """
    if min_tasks < 1:
        raise ValueError(f"min_tasks must be >= 1, got {min_tasks}")
    if metrics is None:
        metrics = MiningMetrics()
    done: list[Cube] = []
    frontier: list[CubeMinerTask] = []
    if thresholds.feasible_for_shape(dataset.shape):
        frontier = [
            CubeMinerTask(
                full_mask(dataset.n_heights),
                full_mask(dataset.n_rows),
                full_mask(dataset.n_columns),
                0,
                0,
                0,
            )
        ]

    while frontier and len(frontier) < min_tasks:
        next_frontier: list[CubeMinerTask] = []
        for task in frontier:
            stack = [task.as_stack_item()]
            leaves, _ = _run(dataset, thresholds, cutters, stack, metrics, max_nodes=1)
            done.extend(leaves)
            next_frontier.extend(
                CubeMinerTask(heights, rows, columns, index, track_left, track_middle)
                for (heights, rows, columns), index, track_left, track_middle in stack
            )
        frontier = next_frontier
    return frontier, done
