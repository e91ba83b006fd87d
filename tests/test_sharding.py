"""Property suite for dataset sharding (hypothesis).

The contract of :mod:`repro.parallel.sharding`: splitting the task
space into shards, mining each independently and merging must be
*exactly* equivalent to the unsharded run — shard ⊕ mine ⊕ merge is
the identity on the closed-cube set — and the merge itself must be
associative and idempotent however shard outputs are grouped,
permuted or duplicated.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import Thresholds
from repro.core.cube import Cube
from repro.core.dataset import Dataset3D
from repro.cubeminer.algorithm import cubeminer_mine
from repro.datasets import random_tensor
from repro.parallel import (
    merge_shard_results,
    parallel_cubeminer_mine,
    parallel_rsm_mine,
    partition_cubeminer_tasks,
    partition_rsm_tasks,
    shard_blocks,
    shard_of_mask,
)
from repro.parallel.tasks import rsm_tasks
from repro.rsm.algorithm import rsm_mine


def cube_triples(result):
    return sorted((c.heights, c.rows, c.columns) for c in result)


@st.composite
def tensors_with_thresholds(draw, max_dim: int = 5):
    l = draw(st.integers(2, max_dim))
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    cells = draw(st.lists(st.booleans(), min_size=l * n * m, max_size=l * n * m))
    dataset = Dataset3D(np.array(cells, dtype=bool).reshape(l, n, m))
    thresholds = Thresholds(
        draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    )
    return dataset, thresholds


def _impostor_facts(dataset, thresholds, triple):
    """Which parts of Definition 3.2 and the thresholds ``triple`` meets,
    by the kernel-sweep reference."""
    from repro.core.closure import (
        column_support,
        height_support,
        is_all_ones,
        row_support,
    )
    from repro.cubeminer.checks import height_set_closed, row_set_closed

    h, r, c = triple
    cube = Cube(h, r, c)
    return {
        "complete": is_all_ones(dataset, cube),
        "frequent": thresholds.satisfied_by(cube),
        "height": h == height_support(dataset, r, c),
        "row": r == row_support(dataset, h, c),
        "column": c == column_support(dataset, h, r),
        # Lemmas 4-5: no outside height / row covers the region.
        "no_outside": height_set_closed(dataset, h, r, c)
        and row_set_closed(dataset, h, r, c),
    }


#: Each impostor fails exactly one test and passes every other, so
#: dropping any one test from the merge's revalidation lets it through.
IMPOSTOR_MODES = {
    "zero-cell": lambda f: not f["complete"] and f["frequent"] and f["no_outside"],
    "height-unclosed": lambda f: f["complete"]
    and f["frequent"]
    and not f["height"]
    and f["row"]
    and f["column"],
    "row-unclosed": lambda f: f["complete"]
    and f["frequent"]
    and f["height"]
    and not f["row"]
    and f["column"],
    "column-unclosed": lambda f: f["complete"]
    and f["frequent"]
    and f["height"]
    and f["row"]
    and not f["column"],
    "below-threshold": lambda f: f["complete"]
    and not f["frequent"]
    and f["height"]
    and f["row"]
    and f["column"],
}


def find_impostor(dataset, thresholds, mode):
    """A triple failing only ``mode``: the closed cubes at (1, 1, 1) and
    their one-element neighbours (one member added or removed on one
    axis) are searched in order."""
    wanted = IMPOSTOR_MODES[mode]
    sizes = dataset.shape
    for triple in cube_triples(cubeminer_mine(dataset, Thresholds(1, 1, 1))):
        candidates = [triple]
        for axis, size in enumerate(sizes):
            for bit in range(size):
                neighbour = list(triple)
                neighbour[axis] ^= 1 << bit
                candidates.append(tuple(neighbour))
        for candidate in candidates:
            if 0 in candidate:
                continue
            if wanted(_impostor_facts(dataset, thresholds, candidate)):
                return candidate
    raise AssertionError(f"no {mode} impostor in this dataset")


# ----------------------------------------------------------------------
# Partition primitives
# ----------------------------------------------------------------------
class TestShardBlocks:
    @given(st.integers(1, 64), st.integers(1, 10))
    def test_blocks_cover_and_are_disjoint(self, n, shards):
        blocks = shard_blocks(n, shards)
        covered = [i for start, stop in blocks for i in range(start, stop)]
        assert covered == list(range(n))
        assert 1 <= len(blocks) <= min(shards, n)
        sizes = [stop - start for start, stop in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ValueError, match="shards"):
            shard_blocks(5, 0)

    @given(st.integers(1, 6), st.lists(st.integers(1, 63), min_size=1, max_size=20))
    def test_every_mask_lands_in_exactly_one_shard(self, shards, masks):
        blocks = shard_blocks(64, shards)
        for mask in masks:
            s = shard_of_mask(mask, blocks)
            start, stop = blocks[s]
            low = (mask & -mask).bit_length() - 1
            assert start <= low < stop

    @given(st.integers(2, 16), st.integers(1, 5), st.integers(1, 4))
    def test_rsm_partition_preserves_the_task_multiset(self, n, min_h, shards):
        tasks = rsm_tasks(n, min_h)
        parts = partition_rsm_tasks(tasks, shard_blocks(n, shards))
        assert sorted(m for part in parts for m in part) == sorted(tasks)

    @given(
        st.lists(st.integers(0, 100), min_size=0, max_size=30), st.integers(1, 6)
    )
    def test_cubeminer_partition_preserves_order_and_multiset(self, tasks, shards):
        parts = partition_cubeminer_tasks(tasks, shards)
        assert [t for part in parts for t in part] == tasks
        if tasks:
            sizes = [len(part) for part in parts]
            assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------------------
# shard → mine → merge == unsharded (the tentpole invariant)
# ----------------------------------------------------------------------
class TestShardedMiningExactness:
    @settings(max_examples=25, deadline=None)
    @given(tensors_with_thresholds(), st.integers(2, 4))
    def test_sharded_rsm_equals_sequential(self, case, shards):
        dataset, thresholds = case
        expected = cube_triples(rsm_mine(dataset, thresholds, base_axis="height"))
        sharded = parallel_rsm_mine(
            dataset,
            thresholds,
            n_workers=1,
            base_axis="height",
            shards=shards,
        )
        assert cube_triples(sharded) == expected
        # A correct decomposition never produces boundary violations.
        assert sharded.stats.metrics.shard_merge_dropped == 0

    @settings(max_examples=25, deadline=None)
    @given(tensors_with_thresholds(), st.integers(2, 4))
    def test_sharded_cubeminer_equals_sequential(self, case, shards):
        dataset, thresholds = case
        expected = cube_triples(cubeminer_mine(dataset, thresholds))
        sharded = parallel_cubeminer_mine(
            dataset, thresholds, n_workers=1, shards=shards
        )
        assert cube_triples(sharded) == expected
        assert sharded.stats.metrics.shard_merge_dropped == 0

    def test_pooled_sharded_run_matches_unsharded(self):
        dataset = random_tensor((8, 10, 14), 0.4, seed=5)
        thresholds = Thresholds(2, 2, 2)
        unsharded = parallel_rsm_mine(dataset, thresholds, n_workers=2)
        sharded = parallel_rsm_mine(dataset, thresholds, n_workers=2, shards=3)
        assert cube_triples(sharded) == cube_triples(unsharded)

    def test_shards_beyond_dimension_size_still_exact(self):
        dataset = random_tensor((3, 6, 8), 0.4, seed=9)
        thresholds = Thresholds(1, 2, 2)
        expected = cube_triples(rsm_mine(dataset, thresholds, base_axis="height"))
        sharded = parallel_rsm_mine(
            dataset, thresholds, n_workers=1, base_axis="height", shards=16
        )
        assert cube_triples(sharded) == expected

    def test_shard_dim_must_match_the_enumerated_axis(self):
        dataset = random_tensor((4, 6, 8), 0.4, seed=1)
        with pytest.raises(ValueError, match="base dimension"):
            parallel_rsm_mine(
                dataset,
                Thresholds(2, 2, 2),
                base_axis="height",
                shards=2,
                shard_dim="column",
            )
        with pytest.raises(ValueError, match="frontier"):
            parallel_cubeminer_mine(
                dataset, Thresholds(2, 2, 2), shards=2, shard_dim="height"
            )

    def test_shards_tagged_in_algorithm_and_extra(self):
        dataset = random_tensor((6, 8, 10), 0.4, seed=2)
        result = parallel_rsm_mine(
            dataset, Thresholds(2, 2, 2), n_workers=1, shards=3
        )
        assert result.algorithm.endswith("s3")
        info = result.stats.extra["shards"]
        assert info["shards"] == 3
        assert sum(info["tasks_per_shard"]) == result.stats.extra["n_tasks"]
        assert result.stats.metrics.shard_merges == 1


# ----------------------------------------------------------------------
# Merge algebra: associative, idempotent, order-insensitive
# ----------------------------------------------------------------------
class TestMergeAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(tensors_with_thresholds(), st.data())
    def test_merge_is_associative_and_order_insensitive(self, case, data):
        dataset, thresholds = case
        triples = cube_triples(cubeminer_mine(dataset, thresholds))
        permuted = data.draw(st.permutations(triples))
        split_at = data.draw(st.integers(0, len(permuted)))
        left, right = permuted[:split_at], permuted[split_at:]
        one_pass = merge_shard_results(dataset, thresholds, list(permuted))
        grouped = merge_shard_results(
            dataset,
            thresholds,
            merge_shard_results(dataset, thresholds, left)
            + merge_shard_results(dataset, thresholds, right),
        )
        assert one_pass == grouped == sorted(triples)

    @settings(max_examples=25, deadline=None)
    @given(tensors_with_thresholds())
    def test_merge_is_idempotent_and_deduplicates(self, case):
        dataset, thresholds = case
        triples = cube_triples(cubeminer_mine(dataset, thresholds))
        once = merge_shard_results(dataset, thresholds, triples)
        again = merge_shard_results(dataset, thresholds, once + once)
        assert once == again == sorted(triples)

    @pytest.mark.parametrize("mode", sorted(IMPOSTOR_MODES))
    def test_merge_drops_planted_violations(self, mode):
        """One impostor per way a cube can fail Definition 3.2 or the
        thresholds is re-validated away at the shard boundary, and
        counted."""
        from repro.obs import MiningMetrics

        # Dense enough that every failure mode has an impostor.
        dataset = random_tensor((5, 8, 10), 0.6, seed=7)
        thresholds = Thresholds(2, 2, 2)
        good = cube_triples(cubeminer_mine(dataset, thresholds))
        assert good, "seed must yield at least one cube"
        impostor = find_impostor(dataset, thresholds, mode)
        metrics = MiningMetrics()
        merged = merge_shard_results(
            dataset, thresholds, good + [impostor], metrics=metrics
        )
        assert merged == good
        assert metrics.shard_merge_dropped == 1

    def test_merge_without_revalidation_only_dedupes_and_sorts(self):
        dataset = random_tensor((4, 5, 6), 0.5, seed=3)
        thresholds = Thresholds(2, 2, 2)
        junk = [(1, 1, 1), (3, 3, 3), (1, 1, 1)]
        merged = merge_shard_results(
            dataset, thresholds, junk, revalidate=False
        )
        assert merged == [(1, 1, 1), (3, 3, 3)]


# ----------------------------------------------------------------------
# Checkpoint/resume across shard boundaries
# ----------------------------------------------------------------------
class TestShardedCheckpointResume:
    @pytest.mark.parametrize(
        "driver", [parallel_rsm_mine, parallel_cubeminer_mine]
    )
    def test_resume_crosses_shard_boundaries(self, tmp_path, driver):
        dataset = random_tensor((6, 10, 14), 0.4, seed=13)
        thresholds = Thresholds(2, 2, 2)
        path = tmp_path / "journal.ckpt"
        clean = driver(
            dataset,
            thresholds,
            n_workers=2,
            shards=3,
            checkpoint_path=str(path),
        )
        assert clean.stats.extra["recovery"]["chunks_resumed"] == 0
        # Truncate the journal to its header + first few chunk records,
        # then resume: the remaining chunks — including every chunk of
        # the untouched shards — must re-mine to an identical result.
        lines = path.read_text().splitlines(keepends=True)
        keep = 1 + min(2, len(lines) - 1)
        path.write_text("".join(lines[:keep]))
        resumed = driver(
            dataset,
            thresholds,
            n_workers=2,
            shards=3,
            checkpoint_path=str(path),
            resume=True,
        )
        assert cube_triples(resumed) == cube_triples(clean)
        assert resumed.stats.extra["recovery"]["chunks_resumed"] == keep - 1
        assert (
            resumed.stats.metrics.as_dict() == clean.stats.metrics.as_dict()
        )

    def test_resume_rejects_different_shard_count(self, tmp_path):
        dataset = random_tensor((6, 10, 14), 0.4, seed=13)
        thresholds = Thresholds(2, 2, 2)
        path = tmp_path / "journal.ckpt"
        parallel_rsm_mine(
            dataset,
            thresholds,
            n_workers=2,
            shards=3,
            checkpoint_path=str(path),
        )
        from repro.parallel import CheckpointMismatchError

        with pytest.raises(CheckpointMismatchError):
            parallel_rsm_mine(
                dataset,
                thresholds,
                n_workers=2,
                shards=2,
                checkpoint_path=str(path),
                resume=True,
            )


# ----------------------------------------------------------------------
# Closure sanity on merged output
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(tensors_with_thresholds(), st.integers(2, 3))
def test_every_merged_cube_is_closed_and_frequent(case, shards):
    from repro.core.closure import is_closed_cube

    dataset, thresholds = case
    result = parallel_rsm_mine(
        dataset, thresholds, n_workers=1, base_axis="height", shards=shards
    )
    for cube in result:
        assert thresholds.satisfied_by(cube)
        assert is_closed_cube(dataset, cube)
        assert isinstance(cube, Cube)
