"""The CubeMiner algorithm (Section 5, Algorithms 1-4).

CubeMiner splits the full tensor ``(H, R, C)`` depth-first with the
cutter list Z.  At a node ``(H', R', C')`` the first applicable cutter
``(W, X, Y)`` spawns up to three sons:

* **left**   ``(H' \\ W, R', C')`` — kept if ``minH`` still holds, the
  left-track set is clean (Lemma 2), and the row set stays closed
  (Lemma 5);
* **middle** ``(H', R' \\ X, C')`` — kept if ``minR`` holds, the
  middle-track set is clean (Lemma 3), and the height set stays closed
  (Lemma 4);
* **right**  ``(H', R', C' \\ Y)`` — kept if ``minC`` holds and both
  closure checks pass.

Cutters that do not intersect a node are skipped.  A node that survives
the whole cutter list is an all-ones, closed, frequent cube (Theorem 2)
and is emitted.

The recursion of Algorithm 2 is replaced by an explicit stack: the tree
depth equals ``|Z|``, which exceeds CPython's recursion limit on any
non-toy dataset.

Every run keeps a :class:`~repro.obs.metrics.MiningMetrics` counter set
up to date (nodes, sons, per-lemma prune hits); ``on_event`` streams
typed node/prune events and ``progress``/``deadline`` give periodic
callbacks, cooperative cancellation and wall-clock budgets — a
cancelled run raises :class:`~repro.obs.progress.MiningCancelled` with
the partial result attached.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from ..core.bitset import full_mask
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..core.result import MiningResult, MiningStats
from ..obs import (
    EventSink,
    MineDone,
    MineStart,
    MiningCancelled,
    MiningMetrics,
    NodeEvent,
    ProgressController,
    PruneEvent,
    resolve_progress,
)
from .checks import LaneClosure
# The drain inlines its Lemma 4-5 checks; the sweep checks stay importable
# here because perfbench's traced runs patch these names on this module.
from .checks import height_set_closed, row_set_closed  # noqa: F401
from .cutter import Cutter, CutterIndex, HeightOrder, build_cutters

__all__ = ["CubeMinerStats", "cubeminer_mine", "CubeMiner"]

#: Backward-compatible alias: CubeMiner's run counters are now the
#: library-wide :class:`~repro.obs.metrics.MiningMetrics` (a superset of
#: the historical ``CubeMinerStats`` fields).
CubeMinerStats = MiningMetrics


def cubeminer_mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    order: HeightOrder = HeightOrder.ZERO_DECREASING,
    cutters: list[Cutter] | None = None,
    metrics: MiningMetrics | None = None,
    on_event: EventSink | None = None,
    progress: "ProgressController | Callable | None" = None,
    deadline: float | None = None,
) -> MiningResult:
    """Mine all frequent closed cubes of ``dataset`` with CubeMiner.

    Parameters
    ----------
    dataset:
        The 3D boolean context.
    thresholds:
        The three monotone minimum supports.
    order:
        Height-slice ordering heuristic for the cutter list; the default
        is the paper's winning zero-decreasing order (Section 7.1.1).
    cutters:
        Pre-built cutter list (overrides ``order``); used by the parallel
        driver and by tests that pin a specific Z.
    metrics:
        Counter set to accumulate into (a fresh one per run by default);
        pass a shared instance to observe the run in flight or to tally
        several runs together.
    on_event:
        Optional sink receiving typed start/node/prune/done events.
    progress:
        A :class:`~repro.obs.progress.ProgressController` or a bare
        callback taking :class:`~repro.obs.progress.ProgressUpdate`.
    deadline:
        Wall-clock budget in seconds; on expiry the run raises
        :class:`~repro.obs.progress.MiningCancelled` whose ``partial``
        attribute holds the cubes and metrics gathered so far.
    """
    start = time.perf_counter()
    stats = metrics if metrics is not None else MiningMetrics()
    controller = resolve_progress(progress, deadline)
    if cutters is None:
        cutters = build_cutters(dataset, order)
        stats.cutters_built += len(cutters)
    stats.n_cutters = len(cutters)
    algorithm = f"cubeminer[{order.value}]"
    if on_event is not None:
        on_event(
            MineStart(
                algorithm,
                dataset.shape,
                thresholds.as_tuple() + (thresholds.min_volume,),
            )
        )

    found: list[Cube] = []
    root = (full_mask(dataset.n_heights), full_mask(dataset.n_rows), full_mask(dataset.n_columns))
    try:
        if controller is not None:
            # Checkpoint once up front so a zero/expired deadline or a
            # pre-cancelled controller aborts deterministically.
            controller.checkpoint(stats, phase="cubeminer", done=0)
        if thresholds.feasible_for_shape(dataset.shape):
            found, stats = _run(
                dataset,
                thresholds,
                cutters,
                [(root, 0, 0, 0)],
                stats,
                sink=on_event,
                progress=controller,
            )
    except MiningCancelled as exc:
        elapsed = time.perf_counter() - start
        partial_cubes = list(exc.partial_cubes)
        exc.metrics = stats
        exc.partial = MiningResult(
            cubes=partial_cubes,
            algorithm=algorithm,
            thresholds=thresholds,
            dataset_shape=dataset.shape,
            elapsed_seconds=elapsed,
            stats=MiningStats(metrics=stats),
        )
        if on_event is not None:
            on_event(MineDone(algorithm, len(exc.partial), elapsed, cancelled=True))
        raise

    result = MiningResult(
        cubes=found,
        algorithm=algorithm,
        thresholds=thresholds,
        dataset_shape=dataset.shape,
        elapsed_seconds=time.perf_counter() - start,
        stats=MiningStats(metrics=stats),
    )
    if on_event is not None:
        on_event(MineDone(algorithm, len(result), result.elapsed_seconds))
    return result


def _fold(stats: MiningMetrics, counts: tuple[int, ...]) -> None:
    """Add one stretch of the drain's local tallies into ``stats``.

    ``counts`` is laid out as in :func:`_run`'s fold points; the check
    count (and from it the union-memo hits) follows
    from the closure outcomes, so the loop never counts checks itself.
    """
    (
        nodes, leaves, depth, misses,
        min_h, min_r, min_c, min_volume, left_track, middle_track,
        left_rows, middle_heights, right_heights, right_rows,
        sons_left, sons_middle, sons_right,
    ) = counts
    checks = (
        left_rows + sons_left
        + middle_heights + sons_middle
        + right_heights + 2 * right_rows + 2 * sons_right
    )
    stats.nodes_visited += nodes
    stats.leaves_emitted += leaves
    stats.max_stack_depth = max(stats.max_stack_depth, depth)
    stats.closure_cache_misses += misses
    stats.closure_cache_hits += checks - misses
    stats.pruned_min_h += min_h
    stats.pruned_min_r += min_r
    stats.pruned_min_c += min_c
    stats.pruned_min_volume += min_volume
    stats.pruned_left_track += left_track
    stats.pruned_middle_track += middle_track
    stats.pruned_row_unclosed += left_rows + right_rows
    stats.pruned_height_unclosed += middle_heights + right_heights
    stats.sons_left += sons_left
    stats.sons_middle += sons_middle
    stats.sons_right += sons_right


def _run(
    dataset: Dataset3D,
    thresholds: Thresholds,
    cutters: list[Cutter],
    stack: list[tuple[tuple[int, int, int], int, int, int]],
    stats: MiningMetrics,
    *,
    sink: EventSink | None = None,
    progress: ProgressController | None = None,
    max_nodes: int | None = None,
) -> tuple[list[Cube], MiningMetrics]:
    """Drain a work stack of ``((H', R', C'), cutter_index, TL, TM)`` items.

    Exposed separately so the parallel driver can seed the stack with a
    single branch of the tree and replay exactly the sequential search.
    On cancellation the raised ``MiningCancelled`` carries the cubes
    found so far in ``partial_cubes``.

    ``max_nodes`` stops the drain after that many nodes and leaves the
    rest of the stack in ``stack``; the parallel task expansion splits
    one node at a time this way.  It cannot be combined with
    ``progress``, whose checkpoint countdown it borrows.

    The Lemma 4-5 checks are :class:`~repro.cubeminer.checks.LaneClosure`
    tests inlined over its memo dicts (one instance per drain): the loop
    is hot enough that a method call per check costs measurably.

    Counters are tallied in locals and folded into ``stats`` before
    every progress checkpoint and on the way out (cancellation
    included), so every snapshot sees exact totals.
    """
    min_h, min_r, min_c = thresholds.as_tuple()
    min_volume = thresholds.min_volume
    n_cutters = len(cutters)
    cutter_index = CutterIndex(cutters)
    first_applicable = cutter_index.first_applicable
    lanes = LaneClosure(dataset)
    m = lanes.m
    fill = lanes.fill
    spread = lanes.spread
    # Per cutter, the columns it keeps for the right son, in every lane.
    keep_spread = [spread(lanes.universe & ~cutter.columns) for cutter in cutters]
    row_unions = lanes.row_unions
    height_unions = lanes.height_unions
    rows_outside = lanes.rows_outside
    heights_outside = lanes.heights_outside
    check_every = progress.check_every if progress is not None else 0
    # Countdown to the next checkpoint; -1 never reaches zero.
    until_check = check_every - stats.nodes_visited % check_every if check_every else -1
    if max_nodes is not None:
        if progress is not None:
            raise ValueError("max_nodes cannot be combined with progress")
        # The countdown runs out on the first node past the budget.
        until_check = max_nodes + 1
    found: list[Cube] = []
    push = stack.append
    pop = stack.pop
    # Events fire up to four times per node; ``_make`` skips the keyword
    # machinery of the NamedTuple constructor, which is measurable here.
    node_event = NodeEvent._make
    prune_event = PruneEvent._make
    nodes = leaves = depth = misses = 0
    p_min_h = p_min_r = p_min_c = p_min_volume = p_left_track = p_middle_track = 0
    left_rows = middle_heights = right_heights = right_rows = 0
    sons_left = sons_middle = sons_right = 0
    try:
        while stack:
            if len(stack) > depth:
                depth = len(stack)
            (heights, rows, columns), index, track_left, track_middle = pop()
            nodes += 1
            until_check -= 1
            if not until_check:
                if max_nodes is not None:
                    # Budget spent: put the node back unvisited.
                    nodes -= 1
                    push(((heights, rows, columns), index, track_left, track_middle))
                    break
                until_check = check_every
                _fold(stats, (
                    nodes, leaves, depth, misses,
                    p_min_h, p_min_r, p_min_c, p_min_volume, p_left_track, p_middle_track,
                    left_rows, middle_heights, right_heights, right_rows,
                    sons_left, sons_middle, sons_right,
                ))
                nodes = leaves = misses = 0
                p_min_h = p_min_r = p_min_c = p_min_volume = p_left_track = p_middle_track = 0
                left_rows = middle_heights = right_heights = right_rows = 0
                sons_left = sons_middle = sons_right = 0
                progress.checkpoint(
                    stats, phase="cubeminer", done=stats.nodes_visited
                )
            # Skip cutters that do not intersect this node (Algorithm 2, line 6).
            index = first_applicable(heights, rows, columns, index)
            if index == n_cutters:
                # Survived every cutter: all-ones, closed, frequent (Theorem 2).
                leaves += 1
                found.append(Cube(heights, rows, columns))
                if sink is not None:
                    sink(node_event((heights, rows, columns, index, True)))
                continue
            if sink is not None:
                sink(node_event((heights, rows, columns, index, False)))
            cutter = cutters[index]
            # C' copied into every lane: built by the node's first check
            # and shared by the rest.
            spread_columns = None

            left_atom = 1 << cutter.height
            middle_atom = 1 << cutter.row
            next_index = index + 1
            if min_volume > 1:
                # Volume is monotone down the tree: each son loses cells.
                h_count = heights.bit_count()
                r_count = rows.bit_count()
                c_count = columns.bit_count()

            # Left son (H' \ W, R', C') — Algorithm 2 lines 9-14.
            son_heights = heights & ~left_atom
            if son_heights.bit_count() < min_h:
                p_min_h += 1
                if sink is not None:
                    sink(prune_event(("left", "pruned_min_h", son_heights, rows, columns)))
            elif min_volume > 1 and (h_count - 1) * r_count * c_count < min_volume:
                p_min_volume += 1
                if sink is not None:
                    sink(prune_event(("left", "pruned_min_volume", son_heights, rows, columns)))
            elif left_atom & track_left:
                p_left_track += 1
                if sink is not None:
                    sink(prune_event(("left", "pruned_left_track", son_heights, rows, columns)))
            else:
                # Rcheck (Lemma 5) on (H' \ W, R', C').
                union = row_unions.get(son_heights)
                if union is None:
                    misses += 1
                    union = lanes.row_union(son_heights)
                spots = rows_outside.get(rows)
                if spots is None:
                    spots = lanes.outside_rows(rows)
                spread_columns = spread(columns)
                if ((union & spread_columns) + fill) >> m & spots != spots:
                    left_rows += 1
                    if sink is not None:
                        sink(prune_event(("left", "pruned_row_unclosed", son_heights, rows, columns)))
                else:
                    sons_left += 1
                    push(((son_heights, rows, columns), next_index, track_left, track_middle))

            # Middle son (H', R' \ X, C') — lines 15-20.
            son_rows = rows & ~middle_atom
            if son_rows.bit_count() < min_r:
                p_min_r += 1
                if sink is not None:
                    sink(prune_event(("middle", "pruned_min_r", heights, son_rows, columns)))
            elif min_volume > 1 and h_count * (r_count - 1) * c_count < min_volume:
                p_min_volume += 1
                if sink is not None:
                    sink(prune_event(("middle", "pruned_min_volume", heights, son_rows, columns)))
            elif middle_atom & track_middle:
                p_middle_track += 1
                if sink is not None:
                    sink(prune_event(("middle", "pruned_middle_track", heights, son_rows, columns)))
            else:
                # Hcheck (Lemma 4) on (H', R' \ X, C').
                union = height_unions.get(son_rows)
                if union is None:
                    misses += 1
                    union = lanes.height_union(son_rows)
                spots = heights_outside.get(heights)
                if spots is None:
                    spots = lanes.outside_heights(heights)
                if spread_columns is None:
                    spread_columns = spread(columns)
                if ((union & spread_columns) + fill) >> m & spots != spots:
                    middle_heights += 1
                    if sink is not None:
                        sink(prune_event(("middle", "pruned_height_unclosed", heights, son_rows, columns)))
                else:
                    sons_middle += 1
                    push(((heights, son_rows, columns), next_index, track_left | left_atom, track_middle))

            # Right son (H', R', C' \ Y) — lines 21-29.
            son_columns = columns & ~cutter.columns
            if son_columns.bit_count() < min_c:
                p_min_c += 1
                if sink is not None:
                    sink(prune_event(("right", "pruned_min_c", heights, rows, son_columns)))
                continue
            if (
                min_volume > 1
                and h_count * r_count * son_columns.bit_count() < min_volume
            ):
                p_min_volume += 1
                if sink is not None:
                    sink(prune_event(("right", "pruned_min_volume", heights, rows, son_columns)))
                continue
            if spread_columns is None:
                spread_columns = spread(son_columns)
            else:
                spread_columns &= keep_spread[index]
            # Hcheck (Lemma 4) on (H', R', C' \ Y).
            union = height_unions.get(rows)
            if union is None:
                misses += 1
                union = lanes.height_union(rows)
            spots = heights_outside.get(heights)
            if spots is None:
                spots = lanes.outside_heights(heights)
            if ((union & spread_columns) + fill) >> m & spots != spots:
                right_heights += 1
                if sink is not None:
                    sink(prune_event(("right", "pruned_height_unclosed", heights, rows, son_columns)))
                continue
            # Rcheck (Lemma 5) on (H', R', C' \ Y).
            union = row_unions.get(heights)
            if union is None:
                misses += 1
                union = lanes.row_union(heights)
            spots = rows_outside.get(rows)
            if spots is None:
                spots = lanes.outside_rows(rows)
            if ((union & spread_columns) + fill) >> m & spots != spots:
                right_rows += 1
                if sink is not None:
                    sink(prune_event(("right", "pruned_row_unclosed", heights, rows, son_columns)))
                continue
            sons_right += 1
            push(
                (
                    (heights, rows, son_columns),
                    next_index,
                    track_left | left_atom,
                    track_middle | middle_atom,
                )
            )
    except MiningCancelled as exc:
        exc.partial_cubes = found
        exc.metrics = stats
        raise
    finally:
        _fold(stats, (
            nodes, leaves, depth, misses,
            p_min_h, p_min_r, p_min_c, p_min_volume, p_left_track, p_middle_track,
            left_rows, middle_heights, right_heights, right_rows,
            sons_left, sons_middle, sons_right,
        ))
    return found, stats


class CubeMiner:
    """Object-style facade over :func:`cubeminer_mine`.

    Lets callers fix the ordering heuristic once and mine several
    datasets, mirroring how the other miners in the library are used::

        miner = CubeMiner(order=HeightOrder.ZERO_DECREASING)
        result = miner.mine(dataset, Thresholds(2, 2, 2))
    """

    name = "cubeminer"

    def __init__(self, order: HeightOrder = HeightOrder.ZERO_DECREASING) -> None:
        self.order = order

    def mine(self, dataset: Dataset3D, thresholds: Thresholds) -> MiningResult:
        return cubeminer_mine(dataset, thresholds, order=self.order)

    def __repr__(self) -> str:
        return f"CubeMiner(order={self.order.value!r})"
