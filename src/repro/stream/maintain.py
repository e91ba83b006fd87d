"""Incremental FCC maintenance under arbitrary delta batches.

This module handles any batch of cell edits and slice appends/drops
along any axis; a height-slice append is the one-delta batch
``[AppendSlice(0, values)]``.  Given the old tensor ``O`` with its
*complete* FCC set ``F`` at thresholds ``T``, and a delta batch
producing ``O'`` with dirty height set ``D``
(:func:`repro.stream.delta.apply_deltas`), every FCC of ``O'`` falls in
exactly one of two classes:

1. **Clean-heights cubes** (``H ∩ D = ∅``).  Clean slices are
   bit-identical to their old counterparts over surviving
   rows/columns, so such a cube's region was all-ones in ``O`` too;
   its closure *in the old tensor* is some ``F_old ∈ F``.  Patching
   ``F_old`` — remap its masks through the axis index maps, keep its
   clean heights, swap its dirty heights for the dirty heights that
   cover its (remapped) row×column region in ``O'``, and re-close in
   ``O'`` — lands exactly back on the cube: the patched seed contains
   its region, and no closed cube can strictly contain a closed cube
   (growing rows/columns only shrinks the height support back).  One
   linear pass over ``F`` therefore recovers every clean-heights FCC.
2. **Dirty cubes** (``H ∩ D ≠ ∅``).  RSM produces each FCC exactly
   once, from the height subset equal to its height support — which
   here intersects ``D``.  Re-running RSM restricted to subsets that
   intersect ``D`` finds all of them and skips everything else.

Both passes ask one lane-packed :class:`~repro.core.closure.LaneClosure`
(covering heights, ``close``, Lemma 1).  The union of both passes is
deduplicated and closure-revalidated by the parallel layer's
:func:`~repro.parallel.sharding.merge_shard_results`, so the returned
result is bit-identical (same canonical cube list) to a fresh
``mine()`` of ``O'`` — the property the hypothesis differential suite
in ``tests/test_stream_maintain.py`` checks on random batches.

Cost, and the re-mine fallback: pass 2 re-mines every height subset
of feasible size that meets ``D``, so patching pays only when few
heights are dirty.  A height drop dirties none (pass 1 alone), and
cell edits confined to one height re-mine the subsets through it, about
half of them (``BENCH_stream.json``: ~1.7x faster than a fresh RSM-H
mine).  Edits spread over many heights do not pay: 8 cell edits on a
14 x 9 x 250 planted tensor (perfbench's service-session input) dirty 7
of 14 heights, and pass 2 would re-mine 16,249 of its 16,369 subsets —
1.85 s against 0.38 s for a fresh RSM-R mine of the edited tensor.
Row/column structure edits dirty every height.  So before touching the
old result, :func:`choose_path` prices both paths with one cost
model (:mod:`repro.plan`): patching costs the share of height subsets
that pass 2 would re-mine times the estimate for RSM over heights, and
re-mining costs :func:`repro.plan.plan`'s estimate for the edited
tensor.  When patching costs more, :func:`remine` mines ``O'`` with
the planned algorithm and the old result is never read, so a caller
that holds it serialized (the service's maintenance job) skips the
decode too.  An input outside the cost model's fit gets no estimate
and patches, as it did before the model existed.  ``stats.extra["stream"]["path"]``
says which path ran, and ``stats.extra["plan"]`` holds both estimates.
"""

from __future__ import annotations

import math
import time
from math import comb

from ..core.bitset import bit_count
from ..core.closure import LaneClosure
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..core.result import MiningResult, MiningStats
from ..fcp import FCPMiner, get_fcp_miner
from ..obs.metrics import MiningMetrics
from ..parallel.sharding import merge_shard_results
from ..plan import Plan, feasible_sizes, plan
from ..rsm.slices import iter_size_slices
from .delta import Delta, DeltaApplication, apply_deltas

__all__ = ["maintain", "choose_path", "patch", "remine", "IncrementalMaintainer"]


def _remap(mask: int, index_map: tuple) -> int:
    """Map a bitmask through an old→new index map (dropped bits vanish)."""
    out = 0
    while mask:
        low = mask & -mask
        new_index = index_map[low.bit_length() - 1]
        if new_index is not None:
            out |= 1 << new_index
        mask ^= low
    return out


def maintain(
    dataset: Dataset3D,
    result: MiningResult,
    deltas: "list[Delta] | tuple[Delta, ...]",
    thresholds: "Thresholds | None" = None,
    *,
    fcp_miner: "str | FCPMiner" = "dminer",
    metrics: "MiningMetrics | None" = None,
) -> tuple[Dataset3D, MiningResult]:
    """Apply a delta batch and update an FCC result to the new tensor.

    Parameters
    ----------
    dataset:
        The old tensor.  ``result`` must be its *complete* FCC set at
        ``thresholds`` (not validated here; see
        :func:`repro.core.verify.verify_result`) — maintenance patches
        and extends that set, it cannot conjure cubes an incomplete
        input was missing.
    result:
        The old mining result.
    deltas:
        The batch, applied in order
        (:func:`repro.stream.delta.apply_deltas`).
    thresholds:
        Defaults to ``result.thresholds``.

    Returns ``(new_dataset, new_result)`` with ``new_result``
    bit-identical to a fresh ``mine(new_dataset, thresholds)``.
    """
    if thresholds is None:
        thresholds = result.thresholds
    if thresholds is None:
        raise ValueError("thresholds are required (argument or result metadata)")
    start = time.perf_counter()
    if metrics is None:
        metrics = MiningMetrics()
    application = apply_deltas(dataset, deltas)
    path, chosen = choose_path(application, thresholds)
    if path == "remine":
        updated = remine(application, thresholds, chosen, metrics=metrics)
    else:
        updated = patch(
            application, result, thresholds, fcp_miner=fcp_miner, metrics=metrics
        )
    updated.stats.extra["plan"] = chosen.to_dict()
    updated.elapsed_seconds = time.perf_counter() - start
    return application.dataset, updated


def choose_path(
    application: DeltaApplication, thresholds: Thresholds
) -> tuple[str, Plan]:
    """``("patch" | "remine", plan)`` for bringing a result forward.

    Prices patching against :func:`repro.plan.plan`'s estimate for the
    edited tensor (module docstring) from the delta application alone,
    so the old result is not needed.  ``plan`` is the edited tensor's
    plan, which :func:`remine` mines with; its features gain
    ``patch_subsets`` and ``patch_est_s``.  A plan without an estimate
    (an input outside the cost model's domain) patches.
    """
    new = application.dataset
    chosen = plan(new.shape, new.count_ones(), thresholds)
    estimates = chosen.features.get("est_s", {})
    pass2 = _pass2_subsets(new.shape, bit_count(application.dirty_heights), thresholds)
    if pass2 == 0:
        patch_est = 0.0
    elif "rsm-height" in estimates:
        heights_total = chosen.features["subsets"]["height"]
        patch_est = pass2 / heights_total * estimates["rsm-height"]
    else:
        patch_est = math.inf
    chosen.features["patch_subsets"] = pass2
    chosen.features["patch_est_s"] = (
        round(patch_est, 6) if math.isfinite(patch_est) else None
    )
    if chosen.est_cost is not None and patch_est > chosen.est_cost:
        return "remine", chosen
    return "patch", chosen


def _pass2_subsets(
    shape: tuple[int, int, int], n_dirty: int, thresholds: Thresholds
) -> int:
    """How many height subsets pass 2 would re-mine: those of feasible
    size that meet the ``n_dirty`` dirty heights."""
    if n_dirty == 0 or not thresholds.feasible_for_shape(shape):
        return 0
    l, n, m = shape
    sizes = feasible_sizes(l, thresholds.min_h, n * m, thresholds.min_volume)
    return sum(comb(l, k) - comb(l - n_dirty, k) for k in sizes)


def _stream_tag(algorithm: str) -> str:
    if algorithm.startswith("stream[") and algorithm.endswith("]"):
        algorithm = algorithm[len("stream[") : -1]
    return f"stream[{algorithm}]"


def remine(
    application: DeltaApplication,
    thresholds: Thresholds,
    chosen: Plan,
    *,
    metrics: "MiningMetrics | None" = None,
) -> MiningResult:
    """Mine the edited tensor fresh with the planned algorithm."""
    from ..api import mine
    from ..options import options_from_dict

    if metrics is None:
        metrics = MiningMetrics()
    metrics.deltas_applied += application.n_deltas
    fresh = mine(
        application.dataset,
        thresholds,
        algorithm=chosen.algorithm,
        options=options_from_dict(chosen.algorithm, chosen.options),
        metrics=metrics,
    )
    fresh.algorithm = _stream_tag(fresh.algorithm)
    fresh.stats.extra["stream"] = {
        "path": "remine",
        "deltas_applied": application.n_deltas,
        "dirty_heights": bit_count(application.dirty_heights),
        "cubes_patched": 0,
        "subsets_remined": 0,
    }
    return fresh


def patch(
    application: DeltaApplication,
    result: MiningResult,
    thresholds: Thresholds,
    *,
    fcp_miner: "str | FCPMiner" = "dminer",
    metrics: "MiningMetrics | None" = None,
) -> MiningResult:
    """Pass 1 and pass 2 (module docstring), whatever the cost."""
    miner = get_fcp_miner(fcp_miner) if isinstance(fcp_miner, str) else fcp_miner
    if metrics is None:
        metrics = MiningMetrics()
    new = application.dataset
    dirty = application.dirty_heights
    metrics.deltas_applied += application.n_deltas
    cubes_patched = 0
    subsets_remined = 0

    triples: set[tuple[int, int, int]] = set()
    lanes = LaneClosure(new)

    # --- Pass 1: patch the surviving cubes ----------------------------
    for cube in result:
        rows = _remap(cube.rows, application.row_map)
        columns = _remap(cube.columns, application.column_map)
        if rows == 0 or columns == 0:
            continue
        clean = _remap(cube.heights, application.height_map) & ~dirty
        covering = lanes.height_support(rows, columns) & dirty if dirty else 0
        heights = clean | covering
        if heights == 0:
            continue
        patched = lanes.close(heights, rows, columns)
        triples.add((patched.heights, patched.rows, patched.columns))
        cubes_patched += 1

    # --- Pass 2: re-mine the height subsets touching the dirty set ---
    # The prefix-folded enumerator amortizes slice folds across
    # neighbouring subsets exactly like a fresh RSM run; clean subsets
    # only pay that amortized fold, never the 2D mine.
    min_h, min_r, min_c = thresholds.as_tuple()
    if dirty and thresholds.feasible_for_shape(new.shape):
        slice_cells = new.n_rows * new.n_columns
        for size in feasible_sizes(
            new.n_heights, min_h, slice_cells, thresholds.min_volume
        ):
            for heights, rs in iter_size_slices(new, size):
                if heights & dirty == 0:
                    continue
                subsets_remined += 1
                for pattern in miner.mine(rs, min_rows=min_r, min_columns=min_c):
                    volume = size * pattern.row_support * pattern.column_support
                    if volume < thresholds.min_volume:
                        continue
                    if lanes.height_closed(heights, pattern.rows, pattern.columns):
                        triples.add((heights, pattern.rows, pattern.columns))

    metrics.cubes_patched += cubes_patched
    metrics.subsets_remined += subsets_remined
    metrics.rs_slices_mined += subsets_remined

    kept = merge_shard_results(new, thresholds, sorted(triples), metrics=metrics)
    return MiningResult(
        cubes=[Cube(*triple) for triple in kept],
        algorithm=_stream_tag(result.algorithm),
        thresholds=thresholds,
        dataset_shape=new.shape,
        stats=MiningStats(
            metrics=metrics,
            extra={
                "stream": {
                    "path": "patch",
                    "deltas_applied": application.n_deltas,
                    "dirty_heights": bit_count(dirty),
                    "cubes_patched": cubes_patched,
                    "subsets_remined": subsets_remined,
                    "old_cubes": len(result),
                }
            },
        ),
    )


class IncrementalMaintainer:
    """Stateful façade over :func:`maintain` for a long-lived tensor.

    Holds the current ``(dataset, result)`` pair and folds delta
    batches into it::

        keeper = IncrementalMaintainer(dataset, mine(dataset, t))
        result = keeper.apply([SetCell(0, 3, 5), DropSlice(0, 2)])

    Each :meth:`apply` is exact: after any number of batches,
    ``keeper.result`` is bit-identical to a fresh mine of
    ``keeper.dataset``.
    """

    def __init__(
        self,
        dataset: Dataset3D,
        result: MiningResult,
        thresholds: "Thresholds | None" = None,
        *,
        fcp_miner: "str | FCPMiner" = "dminer",
    ) -> None:
        thresholds = thresholds if thresholds is not None else result.thresholds
        if thresholds is None:
            raise ValueError(
                "thresholds are required (argument or result metadata)"
            )
        self._dataset = dataset
        self._result = result
        self.thresholds = thresholds
        self._miner = (
            get_fcp_miner(fcp_miner) if isinstance(fcp_miner, str) else fcp_miner
        )

    @property
    def dataset(self) -> Dataset3D:
        """The current tensor (after every applied batch)."""
        return self._dataset

    @property
    def result(self) -> MiningResult:
        """The current FCC set (bit-identical to a fresh mine)."""
        return self._result

    def apply(
        self,
        deltas: "list[Delta] | tuple[Delta, ...]",
        *,
        metrics: "MiningMetrics | None" = None,
    ) -> MiningResult:
        """Fold one delta batch into the maintained state."""
        self._dataset, self._result = maintain(
            self._dataset,
            self._result,
            deltas,
            self.thresholds,
            fcp_miner=self._miner,
            metrics=metrics,
        )
        return self._result
