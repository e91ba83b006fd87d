"""Out-of-core RSM: bounded-memory mining over memory-mapped grids.

:func:`stream_mine` is RSM's base-height loop
(:mod:`repro.rsm.algorithm`) restructured so no step ever needs the
whole tensor resident: representative slices fold chunk-of-rows by
chunk-of-rows straight off the packed word grid — a memory-mapped
``.npy`` from :class:`repro.stream.store.MmapDatasetStore` — and the
mapped pages are released (``madvise(MADV_DONTNEED)``) as soon as each
chunk is folded.  Peak memory is the chunk buffers plus one
representative slice, independent of the tensor's packed size.

For large sparse tensors the 2D mining of full-size representative
slices still dominates, so ``dice=True`` first runs **diamond dicing**
(Webb, Kaser & Lemire — see ``PAPERS.md``): iteratively prune every
height/row/column that provably cannot belong to any
threshold-satisfying cube, using only streaming count passes.  The
conditions are necessary *and* the pruning is exact for FCC mining —
members of a surviving cube keep each other qualified in every round,
and a pruned slice can never cover a surviving cube's region (it would
have qualified) — so mining the small diced subtensor and mapping the
masks back yields exactly the FCCs of the original tensor.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..core.kernels import (
    release_mapped_pages,
    words_from_tensor,
    words_per_row,
)
from ..core.kernels.base import WORD_DTYPE
from ..core.result import MiningResult, MiningStats
from ..fcp import FCPMiner, get_fcp_miner
from ..fcp.matrix import BinaryMatrix
from ..obs.metrics import MiningMetrics
from ..rsm.postprune import height_closed_in

__all__ = ["DiceRegion", "diamond_dice", "stream_mine"]


class DiceRegion:
    """The surviving region of a diamond-dicing pass.

    ``heights`` / ``rows`` / ``columns`` are boolean keep-vectors over
    the original axes.
    """

    def __init__(
        self, heights: np.ndarray, rows: np.ndarray, columns: np.ndarray
    ) -> None:
        self.heights = heights
        self.rows = rows
        self.columns = columns

    @property
    def shape(self) -> tuple[int, int, int]:
        """Size of the surviving subtensor."""
        return (
            int(self.heights.sum()),
            int(self.rows.sum()),
            int(self.columns.sum()),
        )

    def is_empty(self) -> bool:
        return min(self.shape) == 0


def _packed_grid(dataset: Dataset3D) -> np.ndarray:
    """The ``(l, n, words)`` word grid to stream over.

    On a words-native kernel this is the dataset's own ones-grid — for
    a dataset opened with :meth:`Dataset3D.open_mmap`, the live file
    mapping.  Other kernels pack an in-memory copy (correct, but
    without the out-of-core benefit).
    """
    if dataset.kernel.words_native:
        return np.asarray(dataset.ones_grid())
    return words_from_tensor(np.asarray(dataset.data, dtype=bool))


def _pack_keep_columns(keep: np.ndarray, words: int) -> np.ndarray:
    """A boolean column keep-vector as one packed word row."""
    bits = np.packbits(keep, bitorder="little")
    padded = np.zeros(words * 8, dtype=np.uint8)
    padded[: len(bits)] = bits
    return padded.view(WORD_DTYPE)


def _remap_up(mask: int, index: np.ndarray) -> int:
    """Lift a mask over subtensor indices back to original indices."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << int(index[low.bit_length() - 1])
        mask ^= low
    return out


# ----------------------------------------------------------------------
# Diamond dicing
# ----------------------------------------------------------------------
def diamond_dice(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    chunk_rows: int = 2048,
    metrics: "MiningMetrics | None" = None,
    max_rounds: int = 64,
) -> DiceRegion:
    """Prune every slice that cannot join a threshold-satisfying cube.

    Iterates three necessary conditions to a fixpoint:

    * a row survives when, in at least ``min_h`` surviving heights, it
      holds ``>= min_c`` ones within the surviving columns;
    * a column survives when at least ``min_h`` surviving heights give
      it ``>= min_r`` ones within the surviving rows;
    * a height survives when it has ``>= min_r`` qualifying rows and
      ``>= min_c`` qualifying columns.

    Each pass reads the packed grid one row-chunk at a time and
    releases the mapped pages per height slice, so the resident set
    stays ``O(chunk_rows x words)`` regardless of tensor size.
    """
    l, n, m = dataset.shape
    min_h, min_r, min_c = thresholds.as_tuple()
    grid = _packed_grid(dataset)
    words = words_per_row(m)
    kept_h = np.ones(l, dtype=bool)
    kept_r = np.ones(n, dtype=bool)
    kept_c = np.ones(m, dtype=bool)
    chunk_rows = max(int(chunk_rows), 1)

    for _ in range(max_rounds):
        column_words = _pack_keep_columns(kept_c, words)
        row_qualifies = np.zeros(n, dtype=np.int64)
        column_qualifies = np.zeros(m, dtype=np.int64)
        new_kept_h = kept_h.copy()
        for k in range(l):
            if not kept_h[k]:
                continue
            qualifying_rows = 0
            column_sum = np.zeros(m, dtype=np.int64)
            for r0 in range(0, n, chunk_rows):
                r1 = min(n, r0 + chunk_rows)
                block = np.bitwise_and(grid[k, r0:r1], column_words)
                counts = np.bitwise_count(block).sum(axis=1)
                qualifies = (counts >= min_c) & kept_r[r0:r1]
                qualifying_rows += int(qualifies.sum())
                row_qualifies[r0:r1] += qualifies
                selected = block[kept_r[r0:r1]]
                if selected.size:
                    bits = np.unpackbits(
                        selected.view(np.uint8),
                        axis=1,
                        count=m,
                        bitorder="little",
                    )
                    column_sum += bits.sum(axis=0, dtype=np.int64)
                if metrics is not None:
                    metrics.stream_chunks_read += 1
            release_mapped_pages(grid)
            qualifying_columns = column_sum >= min_r
            column_qualifies += qualifying_columns
            new_kept_h[k] = (
                qualifying_rows >= min_r
                and int(qualifying_columns.sum()) >= min_c
            )
        new_kept_r = kept_r & (row_qualifies >= min_h)
        new_kept_c = kept_c & (column_qualifies >= min_h)
        unchanged = (
            bool((new_kept_h == kept_h).all())
            and bool((new_kept_r == kept_r).all())
            and bool((new_kept_c == kept_c).all())
        )
        kept_h, kept_r, kept_c = new_kept_h, new_kept_r, new_kept_c
        if unchanged:
            break
    return DiceRegion(kept_h, kept_r, kept_c)


def _extract_region(
    dataset: Dataset3D,
    region: DiceRegion,
    metrics: "MiningMetrics | None",
) -> tuple[Dataset3D, np.ndarray, np.ndarray, np.ndarray]:
    """Materialize the diced subtensor (kept rows unpack one height at a
    time, with mapped pages released in between)."""
    grid = _packed_grid(dataset)
    m = dataset.n_columns
    height_index = np.flatnonzero(region.heights)
    row_index = np.flatnonzero(region.rows)
    column_index = np.flatnonzero(region.columns)
    small = np.empty(
        (len(height_index), len(row_index), len(column_index)), dtype=bool
    )
    for a, k in enumerate(height_index):
        selected = grid[k][region.rows]
        bits = np.unpackbits(
            selected.view(np.uint8), axis=1, count=m, bitorder="little"
        )
        small[a] = bits[:, column_index].astype(bool)
        release_mapped_pages(grid)
        if metrics is not None:
            metrics.stream_chunks_read += 1
    labels = (
        [dataset.height_labels[int(i)] for i in height_index],
        [dataset.row_labels[int(i)] for i in row_index],
        [dataset.column_labels[int(i)] for i in column_index],
    )
    diced = Dataset3D(
        small,
        height_labels=labels[0],
        row_labels=labels[1],
        column_labels=labels[2],
        kernel=dataset.kernel,
    )
    return diced, height_index, row_index, column_index


# ----------------------------------------------------------------------
# The out-of-core miner
# ----------------------------------------------------------------------
def stream_mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    fcp_miner: "str | FCPMiner" = "dminer",
    dice: bool = False,
    chunk_rows: int = 2048,
    metrics: "MiningMetrics | None" = None,
) -> MiningResult:
    """Mine FCCs with RSM in bounded memory over a (possibly mapped) grid.

    With ``dice=False`` every height subset's representative slice
    folds chunk-by-chunk off the packed grid; with ``dice=True`` the
    diamond-dicing prefilter shrinks the tensor first and only the
    surviving region is mined (exact — see module docstring).  Results
    are bit-identical to ``mine(dataset, thresholds, algorithm="rsm")``
    either way; ``stats.extra["stream"]`` reports the chunk traffic.
    """
    miner = get_fcp_miner(fcp_miner) if isinstance(fcp_miner, str) else fcp_miner
    if metrics is None:
        metrics = MiningMetrics()
    start = time.perf_counter()
    chunks_before = metrics.stream_chunks_read
    min_h, min_r, min_c = thresholds.as_tuple()
    cubes: list[Cube] = []
    extra: dict = {"dice": bool(dice)}

    if not thresholds.feasible_for_shape(dataset.shape):
        pass
    elif dice:
        region = diamond_dice(
            dataset, thresholds, chunk_rows=chunk_rows, metrics=metrics
        )
        extra["dice_kept_shape"] = list(region.shape)
        if not region.is_empty() and thresholds.feasible_for_shape(region.shape):
            diced, height_index, row_index, column_index = _extract_region(
                dataset, region, metrics
            )
            from ..rsm.algorithm import rsm_mine

            inner = rsm_mine(
                diced, thresholds, fcp_miner=miner, metrics=metrics
            )
            cubes = [
                Cube(
                    _remap_up(cube.heights, height_index),
                    _remap_up(cube.rows, row_index),
                    _remap_up(cube.columns, column_index),
                )
                for cube in inner
            ]
    else:
        cubes = _mine_streaming(
            dataset, thresholds, miner, chunk_rows, metrics
        )

    stream_stats = {
        "chunks_read": metrics.stream_chunks_read - chunks_before,
        "chunk_rows": int(chunk_rows),
        **extra,
    }
    return MiningResult(
        cubes=cubes,
        algorithm="stream-rsm[dice]" if dice else "stream-rsm",
        thresholds=thresholds,
        dataset_shape=dataset.shape,
        elapsed_seconds=time.perf_counter() - start,
        stats=MiningStats(metrics=metrics, extra={"stream": stream_stats}),
    )


def _mine_streaming(
    dataset: Dataset3D,
    thresholds: Thresholds,
    miner: FCPMiner,
    chunk_rows: int,
    metrics: MiningMetrics,
) -> list[Cube]:
    """RSM's base-height loop with chunk-folded representative slices."""
    l, n, m = dataset.shape
    min_h, min_r, min_c = thresholds.as_tuple()
    words = words_per_row(m)
    chunk_rows = max(int(chunk_rows), 1)
    slice_cells = n * m
    native = dataset.kernel.words_native
    grid = _packed_grid(dataset) if native else None
    cubes: list[Cube] = []
    for size in range(min_h, l + 1):
        if size * slice_cells < thresholds.min_volume:
            continue
        for subset in combinations(range(l), size):
            heights = 0
            for k in subset:
                heights |= 1 << k
            metrics.rs_slices_mined += 1
            if native:
                rs_words = np.empty((n, words), dtype=WORD_DTYPE)
                members = list(subset)
                for r0 in range(0, n, chunk_rows):
                    r1 = min(n, r0 + chunk_rows)
                    # Fold member slices one at a time through basic
                    # slicing (an advanced index materializes a
                    # members-wide copy and, on a mapped grid, faults a
                    # whole large folio per member stream), releasing
                    # pages every few members — this is what keeps peak
                    # RSS below the file size.
                    acc = np.array(grid[members[0], r0:r1])
                    for i in range(1, len(members)):
                        np.bitwise_and(acc, grid[members[i], r0:r1], out=acc)
                        if i % 8 == 0:
                            release_mapped_pages(grid)
                    rs_words[r0:r1] = acc
                    metrics.stream_chunks_read += len(members)
                    release_mapped_pages(grid)
                rs = BinaryMatrix.from_packed(rs_words, m, kernel=dataset.kernel)
            else:
                from ..rsm.slices import representative_slice

                rs = representative_slice(dataset, heights)
                metrics.stream_chunks_read += size
            for pattern in miner.mine(rs, min_rows=min_r, min_columns=min_c):
                volume = size * pattern.row_support * pattern.column_support
                if volume < thresholds.min_volume:
                    continue
                # Lemma 1 as a kernel sweep over the mapped grid, not
                # the in-memory miners' LaneClosure: its lane tables
                # would hold the whole tensor as Python ints and break
                # the bounded-RSS promise.
                if height_closed_in(dataset, heights, pattern.rows, pattern.columns):
                    cubes.append(Cube(heights, pattern.rows, pattern.columns))
    return cubes
