"""Shard the enumerated dimension into independently minable parts.

In the spirit of diamond dicing (Webb/Kaser/Lemire), a huge mining run
splits into ``shards`` sub-problems along the enumerated dimension and
each shard mines independently.  Crucially the split partitions the
**task space**, not the data: every worker still sees the full dataset
(via shared memory or a pickled copy), so the per-task closure checks —
RSM's Lemma-1 post-prune, CubeMiner's H/R-checks — remain valid against
the *global* dataset and each shard emits only globally closed cubes.

* ``parallel-rsm`` tasks are base-dimension subset masks; a subset
  belongs to the shard block containing its lowest member
  (:func:`shard_of_mask`), so the blocks of
  :func:`shard_blocks` induce a true partition of the subset lattice.
* ``parallel-cubeminer`` tasks are frontier branches of the splitting
  tree; the frontier partitions contiguously
  (:func:`partition_cubeminer_tasks`) — the tree guarantees branch
  result sets are disjoint.

:func:`merge_shard_results` folds per-shard outputs back into one
canonical result: deduplicate, re-validate closure and thresholds at
the shard boundary (a belt-and-braces invariant — a violation is
counted and dropped rather than emitted), and sort.  Being a pure
function of the input *set*, the merge is associative and idempotent
across shard orderings — the property suite pins exactly that.
"""

from __future__ import annotations

from ..core.closure import LaneClosure
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..obs.metrics import MiningMetrics

__all__ = [
    "shard_blocks",
    "shard_of_mask",
    "partition_rsm_tasks",
    "partition_cubeminer_tasks",
    "merge_shard_results",
]

Triple = tuple[int, int, int]


def shard_blocks(n: int, shards: int) -> list[tuple[int, int]]:
    """Split indices ``0..n-1`` into contiguous ``[start, stop)`` blocks.

    Sizes differ by at most one; at most ``n`` (at least one) blocks
    come back, so tiny dimensions never produce empty blocks.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = max(1, min(shards, n))
    size, extra = divmod(n, shards)
    blocks: list[tuple[int, int]] = []
    start = 0
    for s in range(shards):
        stop = start + size + (1 if s < extra else 0)
        blocks.append((start, stop))
        start = stop
    return blocks


def shard_of_mask(mask: int, blocks: list[tuple[int, int]]) -> int:
    """Shard owning a subset mask: the block containing its lowest member.

    Any member-based rule would partition the subsets; the lowest bit is
    O(1) to compute and keeps the size-ascending enumeration order
    within each shard.
    """
    if mask <= 0:
        raise ValueError(f"subset mask must be positive, got {mask}")
    low = (mask & -mask).bit_length() - 1
    for s, (start, stop) in enumerate(blocks):
        if start <= low < stop:
            return s
    raise ValueError(f"bit {low} falls outside the shard blocks {blocks}")


def partition_rsm_tasks(
    tasks: list[int], blocks: list[tuple[int, int]]
) -> list[list[int]]:
    """Partition RSM subset masks by :func:`shard_of_mask`, keeping each
    shard's tasks in their original enumeration order."""
    parts: list[list[int]] = [[] for _ in blocks]
    for mask in tasks:
        parts[shard_of_mask(mask, blocks)].append(mask)
    return parts


def partition_cubeminer_tasks(tasks: list, shards: int) -> list[list]:
    """Contiguously partition a CubeMiner frontier into ``shards`` parts
    of near-equal size (fewer when the frontier is smaller)."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if not tasks:
        return []
    shards = min(shards, len(tasks))
    size, extra = divmod(len(tasks), shards)
    parts = []
    start = 0
    for s in range(shards):
        stop = start + size + (1 if s < extra else 0)
        parts.append(tasks[start:stop])
        start = stop
    return parts


def merge_shard_results(
    dataset: Dataset3D,
    thresholds: Thresholds,
    triples: list[Triple],
    *,
    metrics: MiningMetrics | None = None,
    revalidate: bool = True,
) -> list[Triple]:
    """Merge per-shard raw cube triples into one canonical result.

    Deduplicates, re-validates each survivor against the full dataset
    (Definition 3.2 via :meth:`repro.core.closure.LaneClosure.is_closed`
    plus the thresholds — violations are counted in
    ``shard_merge_dropped`` and dropped; a correct shard decomposition
    never produces any) and returns the triples in canonical sorted
    order.  The output depends
    only on the input set, which makes the merge associative and
    idempotent however the shards are grouped or ordered.
    """
    lanes = LaneClosure(dataset) if revalidate and triples else None
    seen: set[Triple] = set()
    kept: list[Triple] = []
    dropped = 0
    for triple in triples:
        if triple in seen:
            continue
        seen.add(triple)
        if lanes is not None and not (
            thresholds.satisfied_by(Cube(*triple)) and lanes.is_closed(*triple)
        ):
            dropped += 1
            continue
        kept.append(triple)
    kept.sort()
    if metrics is not None:
        metrics.shard_merges += 1
        metrics.shard_merge_dropped += dropped
    return kept
