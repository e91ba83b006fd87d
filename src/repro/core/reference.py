"""Brute-force reference miner (the testing oracle).

This enumerates every pair of a height subset and a row subset, derives
the maximal column set with :func:`~repro.core.closure.column_support`,
and keeps the triple when it is closed and meets the thresholds.  It is
exponential in ``|H| + |R|`` and exists purely to validate the fast
miners on small tensors — keep inputs around 10 heights x 10 rows.
"""

from __future__ import annotations

import time
from itertools import combinations

from ..obs import (
    EventSink,
    MineDone,
    MineStart,
    MiningCancelled,
    MiningMetrics,
    resolve_progress,
)
from .bitset import bit_count, mask_of
from .closure import column_support, height_support, row_support
from .constraints import Thresholds
from .cube import Cube
from .dataset import Dataset3D
from .result import MiningResult, MiningStats

__all__ = ["reference_mine"]

#: Enumeration is 2^(|H|+|R|); beyond this the oracle refuses to run so a
#: mis-written test fails fast instead of hanging.
_MAX_ENUMERATED_BITS = 26

#: Candidates between two cancellation/deadline checks.
_CHECK_EVERY = 512


def reference_mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    metrics: MiningMetrics | None = None,
    on_event: EventSink | None = None,
    progress=None,
    deadline: float | None = None,
) -> MiningResult:
    """Mine all FCCs by exhaustive subset enumeration.

    Correct by construction (it literally checks Definition 3.2 and 3.3
    for every candidate) and therefore the ground truth in tests.  The
    oracle shares :func:`repro.api.mine`'s instrumentation surface so
    long differential runs can be observed and deadline-bounded like
    any other algorithm.
    """
    l, n, _m = dataset.shape
    if l + n > _MAX_ENUMERATED_BITS:
        raise ValueError(
            f"reference miner enumerates 2^({l}+{n}) candidates; dataset too "
            "large for the oracle — use CubeMiner or RSM instead"
        )
    start = time.perf_counter()
    stats = metrics if metrics is not None else MiningMetrics()
    controller = resolve_progress(progress, deadline)
    if on_event is not None:
        on_event(
            MineStart(
                "reference",
                dataset.shape,
                thresholds.as_tuple() + (thresholds.min_volume,),
            )
        )
    found: set[Cube] = set()
    height_subsets = [
        mask_of(subset)
        for size in range(thresholds.min_h, l + 1)
        for subset in combinations(range(l), size)
    ]
    row_subsets = [
        mask_of(subset)
        for size in range(thresholds.min_r, n + 1)
        for subset in combinations(range(n), size)
    ]
    checked = 0
    total = len(height_subsets) * len(row_subsets)
    try:
        if controller is not None:
            controller.checkpoint(stats, phase="reference", done=0, total=total)
        for heights in height_subsets:
            for rows in row_subsets:
                checked += 1
                stats.nodes_visited += 1
                if controller is not None and not checked % _CHECK_EVERY:
                    controller.checkpoint(
                        stats, phase="reference", done=checked, total=total
                    )
                columns = column_support(dataset, heights, rows)
                if bit_count(columns) < thresholds.min_c:
                    continue
                # Maximality in the other two axes (closure conditions 1 & 3).
                if height_support(dataset, rows, columns) != heights:
                    continue
                if row_support(dataset, heights, columns) != rows:
                    continue
                cube = Cube(heights, rows, columns)
                if thresholds.satisfied_by(cube):
                    stats.leaves_emitted += 1
                    found.add(cube)
    except MiningCancelled as exc:
        elapsed = time.perf_counter() - start
        exc.metrics = stats
        exc.partial = MiningResult(
            cubes=list(found),
            algorithm="reference",
            thresholds=thresholds,
            dataset_shape=dataset.shape,
            elapsed_seconds=elapsed,
            stats=MiningStats(metrics=stats, extra={"candidates_checked": checked}),
        )
        if on_event is not None:
            on_event(MineDone("reference", len(exc.partial), elapsed, cancelled=True))
        raise
    result = MiningResult(
        cubes=list(found),
        algorithm="reference",
        thresholds=thresholds,
        dataset_shape=dataset.shape,
        elapsed_seconds=time.perf_counter() - start,
        stats=MiningStats(metrics=stats, extra={"candidates_checked": checked}),
    )
    if on_event is not None:
        on_event(MineDone("reference", len(result), result.elapsed_seconds))
    return result
