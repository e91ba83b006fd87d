"""Phase 3 of RSM: post-pruning of height-unclosed patterns (Lemma 1).

Combining a 2D FCP with its representative slice's contributing heights
gives a 3D frequent pattern that is already closed in rows and columns
(the 2D miner guarantees it — the RS row/column supports equal the 3D
ones).  It may still be unclosed in the height set: the same 2D pattern
can be contained in further slices outside the subset.  Lemma 1 prunes
exactly those, with double early termination: one zero cell dismisses a
candidate slice, one fully-covering slice dismisses the pattern.
"""

from __future__ import annotations

from ..core.bitset import full_mask
from ..core.dataset import Dataset3D
from ..obs.metrics import MiningMetrics

__all__ = ["height_closed_in", "PostPruneStats"]


def height_closed_in(
    dataset: Dataset3D,
    heights: int,
    rows: int,
    columns: int,
) -> bool:
    """True when no height outside ``heights`` covers ``rows x columns``.

    This is Lemma 1's retention condition — the same predicate as
    CubeMiner's Hcheck (Lemma 4): one kernel support sweep over the
    heights outside the subset must come back empty.
    """
    outside = full_mask(dataset.n_heights) & ~heights
    return (
        dataset.kernel.grid_supporting_heights(
            dataset.ones_grid(), rows, columns, candidates=outside
        )
        == 0
    )


class PostPruneStats:
    """Counters for the post-pruning phase.

    A thin recorder over :class:`~repro.obs.metrics.MiningMetrics`: the
    counts land in the library-wide ``postprune_checked`` /
    ``postprune_discards`` counters (pass a shared instance to
    aggregate into a run's metrics), while the historical
    ``patterns_checked`` / ``patterns_pruned`` attribute names keep
    working.
    """

    __slots__ = ("metrics",)

    def __init__(self, metrics: MiningMetrics | None = None) -> None:
        self.metrics = metrics if metrics is not None else MiningMetrics()

    @property
    def patterns_checked(self) -> int:
        return self.metrics.postprune_checked

    @property
    def patterns_pruned(self) -> int:
        return self.metrics.postprune_discards

    def record(self, kept: bool) -> None:
        self.metrics.postprune_checked += 1
        if not kept:
            self.metrics.postprune_discards += 1
