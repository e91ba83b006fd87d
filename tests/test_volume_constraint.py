"""Tests for the minimum-volume constraint (min_volume).

The volume constraint is monotone down CubeMiner's tree (sons only
lose cells), so it prunes branches; RSM applies it as an exact filter.
Every miner must produce the same answer as the oracle under it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import mine
from repro.core.constraints import Thresholds
from repro.core.cube import Cube
from repro.core.dataset import Dataset3D
from repro.core.reference import reference_mine
from repro.cubeminer import cubeminer_mine
from repro.cubeminer.trace import PruneReason, trace_tree
from repro.options import ParallelOptions
from repro.rsm import rsm_mine
from repro.stream import AppendSlice, maintain
from tests.conftest import random_dataset


class TestThresholdsWithVolume:
    def test_default_is_inert(self):
        assert Thresholds(2, 2, 2).min_volume == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="min_volume"):
            Thresholds(1, 1, 1, min_volume=0)

    def test_satisfied_by_includes_volume(self):
        th = Thresholds(1, 1, 1, min_volume=9)
        assert th.satisfied_by(Cube.from_indices(range(3), range(3), range(1)))
        assert not th.satisfied_by(Cube.from_indices(range(2), range(2), range(2)))

    def test_permute_carries_volume(self):
        th = Thresholds(2, 3, 4, min_volume=30)
        assert th.permute((2, 0, 1)).min_volume == 30

    def test_feasibility_includes_volume(self):
        th = Thresholds(1, 1, 1, min_volume=100)
        assert not th.feasible_for_shape((2, 2, 2))
        assert th.feasible_for_shape((5, 5, 5))

    def test_str_mentions_volume_when_set(self):
        assert "minVolume=8" in str(Thresholds(1, 1, 1, min_volume=8))
        assert "minVolume" not in str(Thresholds(1, 1, 1))


class TestPaperExampleWithVolume:
    def test_volume_filters_small_cubes(self, paper_ds):
        # Volumes of the 5 FCCs: 8, 18, 12, 18, 18.
        result = mine(paper_ds, Thresholds(2, 2, 2, min_volume=13))
        assert {cube.volume for cube in result} == {18}
        assert len(result) == 3

    def test_volume_one_is_identity(self, paper_ds, paper_thresholds):
        plain = mine(paper_ds, paper_thresholds)
        with_volume = mine(paper_ds, Thresholds(2, 2, 2, min_volume=1))
        assert plain.same_cubes(with_volume)

    def test_impossible_volume_empties_answer(self, paper_ds):
        assert len(mine(paper_ds, Thresholds(2, 2, 2, min_volume=61))) == 0


class TestMinerEquivalenceUnderVolume:
    def test_all_miners_match_oracle(self, rng):
        for _ in range(25):
            ds = random_dataset(rng)
            th = Thresholds(
                *(int(x) for x in rng.integers(1, 3, size=3)),
                min_volume=int(rng.integers(1, 15)),
            )
            ref = reference_mine(ds, th)
            assert cubeminer_mine(ds, th).same_cubes(ref)
            assert rsm_mine(ds, th).same_cubes(ref)

    def test_parallel_matches(self, rng):
        ds = random_dataset(rng, max_dim=5)
        th = Thresholds(1, 1, 1, min_volume=6)
        ref = reference_mine(ds, th)
        two_workers = ParallelOptions(n_workers=2)
        assert mine(
            ds, th, algorithm="parallel-cubeminer", options=two_workers
        ).same_cubes(ref)
        assert mine(
            ds, th, algorithm="parallel-rsm", options=two_workers
        ).same_cubes(ref)

    def test_volume_pruning_reduces_search(self):
        rng = np.random.default_rng(2)
        ds = Dataset3D(rng.random((6, 8, 30)) < 0.6)
        plain = cubeminer_mine(ds, Thresholds(2, 2, 2))
        constrained = cubeminer_mine(ds, Thresholds(2, 2, 2, min_volume=40))
        assert constrained.stats["nodes_visited"] <= plain.stats["nodes_visited"]
        assert constrained.stats["pruned_min_volume"] > 0

    def test_incremental_respects_volume(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, max_dim=4)
            th = Thresholds(1, 1, 1, min_volume=int(rng.integers(2, 10)))
            old_result = mine(ds, th)
            new_slice = rng.random((ds.n_rows, ds.n_columns)) < 0.6
            extended, updated = maintain(ds, old_result, [AppendSlice(0, new_slice)], th)
            assert updated.same_cubes(mine(extended, th))


class TestTraceWithVolume:
    def test_trace_matches_miner(self, paper_ds):
        th = Thresholds(2, 2, 2, min_volume=13)
        tree = trace_tree(paper_ds, th)
        from repro.cubeminer.cutter import HeightOrder

        mined = cubeminer_mine(paper_ds, th, order=HeightOrder.ORIGINAL)
        assert set(tree.leaves()) == mined.cube_set()

    def test_volume_prune_reason_appears(self, paper_ds):
        tree = trace_tree(paper_ds, Thresholds(2, 2, 2, min_volume=13))
        reasons = {node.pruned for node in tree.iter_nodes() if node.pruned}
        assert PruneReason.MIN_VOLUME in reasons
