"""Tests for the instrumentation layer (repro.obs).

Covers the acceptance criteria of the observability redesign:

* always-on ``MiningMetrics`` prune counters agree with ``trace_tree``'s
  ``PruneReason`` tallies (paper Figure 1 example + random datasets);
* the typed event stream is consistent with the counters;
* progress callbacks, cooperative cancellation and deadlines work for
  CubeMiner, RSM, the reference oracle and both parallel variants, with
  partial results attached to ``MiningCancelled``;
* ``MiningStats`` keeps dict-style access and round-trips through JSON;
* the CLI surfaces ``--deadline`` (exit 124) and ``--metrics-json``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests.conftest import random_dataset
from repro.api import mine
from repro.core.constraints import Thresholds
from repro.core.result import MiningResult, MiningStats
from repro.options import ParallelOptions
from repro.cubeminer import HeightOrder, cubeminer_mine, prune_counts, trace_tree
from repro.obs import (
    CollectingSink,
    MiningCancelled,
    MiningMetrics,
    ProgressController,
)
from repro.rsm.algorithm import rsm_mine

ALL_MINERS = ("cubeminer", "rsm", "reference", "parallel-cubeminer", "parallel-rsm")


# ----------------------------------------------------------------------
# Metrics parity with the traced tree
# ----------------------------------------------------------------------
class TestTraceParity:
    def test_paper_example_prune_counts(self, paper_ds, paper_thresholds):
        """Per-lemma counters match Figure 1's tree, rule by rule."""
        result = cubeminer_mine(
            paper_ds, paper_thresholds, order=HeightOrder.ORIGINAL
        )
        traced = prune_counts(trace_tree(paper_ds, paper_thresholds))
        assert result.stats.metrics.prune_counts() == traced

    def test_paper_example_nodes_and_leaves(self, paper_ds, paper_thresholds):
        result = cubeminer_mine(
            paper_ds, paper_thresholds, order=HeightOrder.ORIGINAL
        )
        root = trace_tree(paper_ds, paper_thresholds)
        live_nodes = [n for n in root.iter_nodes() if n.pruned is None]
        assert result.stats["nodes_visited"] == len(live_nodes)
        assert result.stats["leaves_emitted"] == len(root.leaves())
        assert result.stats["leaves_emitted"] == len(result)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_datasets_prune_counts(self, seed):
        rng = np.random.default_rng(1000 + seed)
        dataset = random_dataset(rng, max_dim=5)
        thresholds = Thresholds(1, 1, 1)
        result = cubeminer_mine(dataset, thresholds, order=HeightOrder.ORIGINAL)
        traced = prune_counts(trace_tree(dataset, thresholds))
        assert result.stats.metrics.prune_counts() == traced

    def test_total_pruned_sums_the_prune_fields(self, paper_ds, paper_thresholds):
        metrics = cubeminer_mine(paper_ds, paper_thresholds).stats.metrics
        assert metrics.total_pruned() == sum(metrics.prune_counts().values())


# ----------------------------------------------------------------------
# Event stream
# ----------------------------------------------------------------------
class TestEvents:
    def test_cubeminer_event_stream(self, paper_ds, paper_thresholds):
        sink = CollectingSink()
        result = cubeminer_mine(paper_ds, paper_thresholds, on_event=sink)
        assert sink.events[0].kind == "start"
        assert sink.events[-1].kind == "done"
        assert sink.events[-1].cancelled is False
        assert sink.events[-1].n_cubes == len(result)
        metrics = result.stats.metrics
        assert len(sink.of_kind("node")) == metrics.nodes_visited
        assert len(sink.of_kind("prune")) == metrics.total_pruned()
        leaf_nodes = [e for e in sink.of_kind("node") if e.is_leaf]
        assert len(leaf_nodes) == metrics.leaves_emitted

    def test_prune_events_tally_by_reason(self, paper_ds, paper_thresholds):
        sink = CollectingSink()
        result = cubeminer_mine(paper_ds, paper_thresholds, on_event=sink)
        by_reason: dict[str, int] = {}
        for event in sink.of_kind("prune"):
            by_reason[event.reason] = by_reason.get(event.reason, 0) + 1
        expected = {
            k: v for k, v in result.stats.metrics.prune_counts().items() if v
        }
        assert by_reason == expected

    def test_rsm_slice_events(self, paper_ds, paper_thresholds):
        sink = CollectingSink()
        result = rsm_mine(paper_ds, paper_thresholds, on_event=sink)
        slices = sink.of_kind("slice")
        # minH=2 over 3 heights: {h1h2} {h1h3} {h2h3} {h1h2h3}.
        assert len(slices) == 4
        assert result.stats["representative_slices"] == 4
        assert sum(e.n_kept for e in slices) == len(result)

    @pytest.mark.parametrize("algorithm", ALL_MINERS)
    def test_every_algorithm_emits_start_and_done(
        self, algorithm, paper_ds, paper_thresholds
    ):
        sink = CollectingSink()
        mine(paper_ds, paper_thresholds, algorithm=algorithm, on_event=sink)
        assert sink.events[0].kind == "start"
        assert sink.events[-1].kind == "done"
        # The start event records the full threshold tuple incl. volume.
        assert sink.events[0].thresholds == (2, 2, 2, 1)


# ----------------------------------------------------------------------
# Progress, cancellation, deadlines
# ----------------------------------------------------------------------
class TestCancellation:
    @pytest.mark.parametrize("algorithm", ALL_MINERS)
    def test_zero_deadline_cancels_any_algorithm(
        self, algorithm, paper_ds, paper_thresholds
    ):
        with pytest.raises(MiningCancelled) as excinfo:
            mine(paper_ds, paper_thresholds, algorithm=algorithm, deadline=0)
        exc = excinfo.value
        assert "deadline" in str(exc)
        assert isinstance(exc.partial, MiningResult)
        assert len(exc.partial) == 0
        assert isinstance(exc.metrics, MiningMetrics)
        assert exc.partial.stats.metrics is exc.metrics

    def test_cancel_from_progress_callback_keeps_partial(self):
        rng = np.random.default_rng(7)
        dataset = random_dataset(rng, max_dim=6, density_range=(0.6, 0.8))
        thresholds = Thresholds(1, 1, 1)
        full = cubeminer_mine(dataset, thresholds)
        assert len(full) >= 3, "workload too small for a mid-run cancel"

        updates = []

        def cancel_at_two(update):
            updates.append(update)
            if update.metrics.leaves_emitted >= 2:
                controller.cancel()

        controller = ProgressController(
            on_progress=cancel_at_two, check_every=1, min_interval=0
        )
        with pytest.raises(MiningCancelled) as excinfo:
            cubeminer_mine(dataset, thresholds, progress=controller)
        exc = excinfo.value
        assert exc.reason == "cancelled by caller"
        assert len(exc.partial) == 2
        assert exc.metrics.nodes_visited > 0
        assert updates, "progress callback never ran"

    def test_progress_updates_carry_phase_and_metrics(
        self, paper_ds, paper_thresholds
    ):
        updates = []
        controller = ProgressController(
            on_progress=updates.append, check_every=1, min_interval=0
        )
        cubeminer_mine(paper_ds, paper_thresholds, progress=controller)
        assert updates
        assert all(u.phase == "cubeminer" for u in updates)
        assert updates[-1].metrics.nodes_visited > 0
        assert "cubeminer" in updates[-1].format()

    @pytest.mark.parametrize("check_every", [1, 3, 7])
    def test_progress_snapshots_are_exact(self, check_every):
        """Each checkpoint sees every counter of the nodes before it."""
        rng = np.random.default_rng(11)
        dataset = random_dataset(rng, max_dim=6, density_range=(0.6, 0.8))
        thresholds = Thresholds(1, 1, 1)
        sink = CollectingSink()
        dones = []

        def snapshot(update):
            if update.done == 0:
                return  # the up-front checkpoint, before the drain
            nodes = sink.of_kind("node")
            prunes = {}
            for event in sink.of_kind("prune"):
                prunes[event.reason] = prunes.get(event.reason, 0) + 1
            dones.append(update.done)
            metrics = update.metrics
            # The checkpoint for node v runs after v is counted, before
            # its event: v - 1 node events are in the sink.
            assert metrics.nodes_visited == update.done == len(nodes) + 1
            assert metrics.leaves_emitted == sum(e.is_leaf for e in nodes)
            assert {
                reason: count
                for reason, count in metrics.prune_counts().items()
                if count
            } == prunes

        controller = ProgressController(
            on_progress=snapshot, check_every=check_every, min_interval=0
        )
        result = cubeminer_mine(
            dataset, thresholds, progress=controller, on_event=sink
        )
        plain = cubeminer_mine(dataset, thresholds)
        assert dones == list(
            range(check_every, plain.stats["nodes_visited"] + 1, check_every)
        )
        assert result.stats.metrics.as_dict() == plain.stats.metrics.as_dict()

    def test_rsm_cancel_mid_slices(self, paper_ds, paper_thresholds):
        def cancel_after_first_slice(update):
            if update.metrics.rs_slices_mined >= 1:
                controller.cancel()

        controller = ProgressController(
            on_progress=cancel_after_first_slice, check_every=1, min_interval=0
        )
        with pytest.raises(MiningCancelled) as excinfo:
            rsm_mine(paper_ds, paper_thresholds, progress=controller)
        exc = excinfo.value
        assert exc.partial is not None
        assert exc.metrics.rs_slices_mined >= 1

    def test_parallel_pool_deadline(self):
        rng = np.random.default_rng(42)
        dataset = random_dataset(rng, max_dim=6, density_range=(0.5, 0.7))
        with pytest.raises(MiningCancelled) as excinfo:
            mine(
                dataset,
                Thresholds(1, 1, 1),
                algorithm="parallel-cubeminer",
                deadline=0,
                options=ParallelOptions(n_workers=2),
            )
        assert excinfo.value.partial is not None
        assert "n_tasks" in excinfo.value.partial.stats

    def test_controller_reuse_counts_both_runs(self, paper_ds, paper_thresholds):
        metrics = MiningMetrics()
        cubeminer_mine(paper_ds, paper_thresholds, metrics=metrics)
        once = metrics.nodes_visited
        cubeminer_mine(paper_ds, paper_thresholds, metrics=metrics)
        assert metrics.nodes_visited == 2 * once


# ----------------------------------------------------------------------
# Parallel metric aggregation
# ----------------------------------------------------------------------
#: Counters a pool run may legitimately report differently: the deepest
#: stack is per drain, ``workers_merged`` counts merges, the pool's
#: dataset transport has no sequential counterpart, and the lane-union
#: memo is per drain, so only its hits + misses (= checks run) must agree.
_POOL_SPECIFIC_FIELDS = frozenset({
    "max_stack_depth",
    "workers_merged",
    "shm_datasets_published",
    "shm_copy_fallbacks",
    "closure_cache_hits",
    "closure_cache_misses",
})


class TestParallelAggregation:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize(
        "thresholds",
        [Thresholds(1, 1, 1), Thresholds(2, 2, 2), Thresholds(1, 1, 1, min_volume=6)],
        ids=["1-1-1", "2-2-2", "volume-6"],
    )
    def test_pool_counters_match_sequential(self, seed, thresholds):
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, max_dim=6, density_range=(0.5, 0.7))
        seq = mine(dataset, thresholds, algorithm="cubeminer")
        par = mine(
            dataset,
            thresholds,
            algorithm="parallel-cubeminer",
            options=ParallelOptions(n_workers=2),
        )
        assert set(par.cubes) == set(seq.cubes)
        # Expansion + worker counters == the sequential tree's, exactly.
        want, got = seq.stats.metrics, par.stats.metrics
        for name in want.as_dict().keys() - _POOL_SPECIFIC_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        assert (
            got.closure_cache_hits + got.closure_cache_misses
            == want.closure_cache_hits + want.closure_cache_misses
        )

    def test_pool_rsm_aggregates_slices(self):
        rng = np.random.default_rng(5)
        dataset = random_dataset(rng, max_dim=6, density_range=(0.5, 0.7))
        thresholds = Thresholds(1, 1, 1)
        par = mine(
            dataset,
            thresholds,
            algorithm="parallel-rsm",
            options=ParallelOptions(n_workers=2),
        )
        if par.stats["n_tasks"] > 1:
            assert par.stats["workers_merged"] > 0
        assert par.stats["rs_slices_mined"] == par.stats["n_tasks"]


# ----------------------------------------------------------------------
# MiningStats: mapping protocol + JSON schema
# ----------------------------------------------------------------------
class TestMiningStats:
    def test_dict_style_access(self, paper_ds, paper_thresholds):
        stats = cubeminer_mine(paper_ds, paper_thresholds).stats
        assert stats["nodes_visited"] > 0
        assert "nodes_visited" in stats
        assert dict(stats)["leaves_emitted"] == stats["leaves_emitted"]
        with pytest.raises(KeyError):
            stats["no_such_counter"]

    def test_round_trip(self, paper_ds, paper_thresholds):
        stats = rsm_mine(paper_ds, paper_thresholds).stats
        # A result stored before ``kernel_ops`` was removed still loads:
        # the unknown counter is ignored, every other one survives.
        stored = stats.to_dict()
        stored["metrics"] = dict(stored["metrics"], kernel_ops=13)
        for payload in (stats.to_dict(), stored):
            clone = MiningStats.from_dict(payload)
            assert clone.to_dict() == stats.to_dict()
            assert clone["representative_slices"] == stats["representative_slices"]
            assert clone.metrics.rs_slices_mined == stats.metrics.rs_slices_mined

    def test_legacy_flat_dict_coerced(self):
        stats = MiningStats.from_dict({"n_tasks": 7, "n_workers": 2})
        assert stats["n_tasks"] == 7
        assert stats.metrics is None
        assert stats.to_dict()["extra"] == {"n_tasks": 7, "n_workers": 2}

    def test_json_io_preserves_metrics(self, paper_ds, paper_thresholds, tmp_path):
        from repro.io import result_from_json, result_to_json

        result = cubeminer_mine(paper_ds, paper_thresholds)
        payload = result_to_json(result, paper_ds)
        loaded = result_from_json(payload)
        assert loaded.stats["nodes_visited"] == result.stats["nodes_visited"]
        assert loaded.stats.metrics.prune_counts() == (
            result.stats.metrics.prune_counts()
        )

    def test_metrics_merge_sums_and_maxes(self):
        a = MiningMetrics(nodes_visited=3, max_stack_depth=5)
        b = MiningMetrics(nodes_visited=4, max_stack_depth=2)
        a.merge(b)
        assert a.nodes_visited == 7
        assert a.max_stack_depth == 5


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestCLI:
    @pytest.fixture
    def dataset_path(self, paper_ds, tmp_path):
        path = tmp_path / "paper.npz"
        paper_ds.save_npz(str(path))
        return str(path)

    def test_metrics_json_flag(self, dataset_path, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "metrics.json"
        code = main(
            ["mine", "--input", dataset_path, "--show", "0",
             "--metrics-json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["algorithm"].startswith("cubeminer")
        assert payload["stats"]["metrics"]["nodes_visited"] > 0

    def test_deadline_exits_124_with_partial_metrics(
        self, dataset_path, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "metrics.json"
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["mine", "--input", dataset_path, "--show", "0",
                 "--deadline", "0", "--metrics-json", str(out)]
            )
        assert excinfo.value.code == 124
        assert "cancelled" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["n_cubes"] == 0

    def test_progress_flag_prints_to_stderr(self, dataset_path, capsys):
        from repro.cli import main

        code = main(
            ["mine", "--input", dataset_path, "--show", "0", "--progress"]
        )
        assert code == 0
        assert "[progress]" in capsys.readouterr().err
