"""Correctness of closure memoization: the lane-packed CubeMiner checks
and the bounded support cache.

CubeMiner's drain answers Lemmas 4-5 with lane-packed big-int tests
(:class:`repro.cubeminer.checks.LaneClosure`) memoized per drain; they
must agree with the per-check kernel sweeps on arbitrary regions and on
every registered kernel, including the lane-edge shapes, and the drain
that inlines them must reproduce the sweep-checked tree exactly.  The
support cache (:class:`repro.core.closure.ClosureCache`) must be
semantically invisible under any bound.  The drain's union-memo
counters must surface through ``MiningResult.stats`` with
``hits + misses`` equal to the number of closure checks run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closure import (
    ClosureCache,
    close,
    column_support,
    height_support,
    is_closed_cube,
    row_support,
)
from repro.core.constraints import Thresholds
from repro.core.cube import Cube
from repro.core.kernels import available_kernels
from repro.cubeminer import trace as trace_module
from repro.cubeminer.algorithm import cubeminer_mine
from repro.cubeminer.checks import LaneClosure, height_set_closed, row_set_closed
from repro.cubeminer.cutter import HeightOrder
from repro.cubeminer.trace import trace_tree
from repro.datasets import paper_example, random_tensor

KERNELS = list(available_kernels())


@st.composite
def datasets_and_queries(draw, shapes=None):
    """A small random dataset plus a batch of random region queries."""
    if shapes is None:
        l = draw(st.integers(min_value=1, max_value=4))
        n = draw(st.integers(min_value=1, max_value=5))
        m = draw(st.sampled_from([3, 8, 70]))
    else:
        l, n, m = draw(st.sampled_from(shapes))
    density = draw(st.sampled_from([0.2, 0.5, 0.8]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    region = st.tuples(
        st.integers(min_value=0, max_value=(1 << l) - 1),
        st.integers(min_value=0, max_value=(1 << n) - 1),
        st.integers(min_value=0, max_value=(1 << m) - 1),
    )
    # Full H'/R' (no outside element) and empty C' are the lanes' edges.
    edges = st.sampled_from(
        [
            ((1 << l) - 1, (1 << n) - 1, (1 << m) - 1),
            ((1 << l) - 1, (1 << n) - 1, 0),
            (0, (1 << n) - 1, (1 << m) - 1),
            ((1 << l) - 1, 0, (1 << m) - 1),
            (1, 1, 0),
        ]
    )
    queries = draw(st.lists(st.one_of(region, edges), min_size=1, max_size=30))
    return (l, n, m), density, seed, queries


@settings(max_examples=60, deadline=None)
@given(datasets_and_queries())
def test_cached_queries_match_fresh_computation(case):
    """Memoized closure work == fresh work over arbitrary query streams.

    The same query can repeat (exercising memo hits), regions shrink and
    grow arbitrarily, one ``LaneClosure`` answers the whole stream
    against the kernel sweeps, and a tiny support-cache bound
    (max_entries=2) forces constant eviction in a second cache that must
    still agree.
    """
    shape, density, seed, queries = case
    dataset = random_tensor(shape, density, seed=seed)
    lanes = LaneClosure(dataset)
    caches = [ClosureCache(), ClosureCache(max_entries=2)]
    for heights, rows, columns in queries:
        assert lanes.height_closed(heights, rows, columns) == height_set_closed(
            dataset, heights, rows, columns
        )
        assert lanes.row_closed(heights, rows, columns) == row_set_closed(
            dataset, heights, rows, columns
        )
        expected_hs = height_support(dataset, rows, columns)
        expected_rs = row_support(dataset, heights, columns)
        expected_cs = column_support(dataset, heights, rows)
        for cache in caches:
            assert cache.height_support(dataset, rows, columns) == expected_hs
            assert cache.row_support(dataset, heights, columns) == expected_rs
            assert cache.column_support(dataset, heights, rows) == expected_cs
            assert len(cache) <= cache.max_entries
    small = caches[1]
    assert small.hits + small.misses > 0


#: Lane widths around the 64-bit word boundary, and single-row /
#: single-height tensors whose lane tables hold one lane.
LANE_EDGE_SHAPES = [
    (3, 4, 1),
    (2, 3, 63),
    (3, 2, 64),
    (2, 2, 65),
    (4, 1, 9),
    (1, 5, 9),
    (1, 1, 64),
]


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=40, deadline=None)
@given(case=datasets_and_queries(shapes=LANE_EDGE_SHAPES))
def test_lane_checks_match_kernel_sweep(kernel, case):
    """Lane answer == kernel sweep on every kernel, at the lane edges."""
    shape, density, seed, queries = case
    dataset = random_tensor(shape, density, seed=seed).with_kernel(kernel)
    lanes = LaneClosure(dataset)
    for heights, rows, columns in queries:
        assert lanes.height_closed(heights, rows, columns) == height_set_closed(
            dataset, heights, rows, columns
        )
        assert lanes.row_closed(heights, rows, columns) == row_set_closed(
            dataset, heights, rows, columns
        )


@settings(max_examples=30, deadline=None)
@given(datasets_and_queries())
def test_cached_close_and_predicates_match(case):
    """``close`` and ``is_closed_cube`` agree with their uncached selves."""
    shape, density, seed, queries = case
    dataset = random_tensor(shape, density, seed=seed)
    cache = ClosureCache(max_entries=3)
    for heights, rows, columns in queries:
        cube = Cube(heights, rows, columns)
        assert is_closed_cube(dataset, cube, cache=cache) == is_closed_cube(
            dataset, cube
        )
        if not cube.is_empty():
            try:
                expected = close(dataset, cube)
            except ValueError:
                continue
            assert close(dataset, cube, cache=cache) == expected


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "shape,density,seed",
    [((4, 5, 12), 0.5, 3), ((5, 4, 20), 0.6, 7), ((4, 6, 70), 0.35, 11)],
)
def test_miner_cached_equals_uncached(kernel, shape, density, seed):
    """The lane-checked drain reproduces the sweep-checked tree exactly.

    ``trace_tree`` runs the same search with the kernel-sweep checks, so
    its leaves and prune tallies must match the drain's bit for bit.
    """
    dataset = random_tensor(shape, density, seed=seed).with_kernel(kernel)
    thresholds = Thresholds(2, 2, 2)
    swept = trace_tree(dataset, thresholds, order=HeightOrder.ORIGINAL)
    laned = cubeminer_mine(dataset, thresholds, order=HeightOrder.ORIGINAL)
    assert laned.cubes == sorted(swept.leaves(), key=Cube.sort_key)
    assert laned.stats.metrics.prune_counts() == trace_module.prune_counts(swept)
    assert laned.stats["leaves_emitted"] == len(swept.leaves())


@pytest.mark.parametrize("shape", LANE_EDGE_SHAPES)
def test_drain_matches_sweep_at_lane_edges(shape):
    """The drain's inlined lane tests at the lane edges == sweep tree."""
    dataset = random_tensor(shape, 0.6, seed=sum(shape))
    thresholds = Thresholds(1, 1, 1)
    swept = trace_tree(dataset, thresholds, order=HeightOrder.ORIGINAL)
    laned = cubeminer_mine(dataset, thresholds, order=HeightOrder.ORIGINAL)
    assert laned.cubes == sorted(swept.leaves(), key=Cube.sort_key)
    assert laned.stats.metrics.prune_counts() == trace_module.prune_counts(swept)


def _count_sweep_checks(monkeypatch, dataset, thresholds):
    """Closure checks ``trace_tree`` runs, and the distinct memo keys.

    A Rcheck needs the union keyed by ``H'`` and a Hcheck the one keyed
    by ``R'``, so the distinct keys are the unions a drain builds.
    """
    calls = {"checks": 0}
    row_keys: set[int] = set()
    height_keys: set[int] = set()

    def counting_row(dataset, heights, rows, columns):
        calls["checks"] += 1
        row_keys.add(heights)
        return row_set_closed(dataset, heights, rows, columns)

    def counting_height(dataset, heights, rows, columns):
        calls["checks"] += 1
        height_keys.add(rows)
        return height_set_closed(dataset, heights, rows, columns)

    monkeypatch.setattr(trace_module, "row_set_closed", counting_row)
    monkeypatch.setattr(trace_module, "height_set_closed", counting_height)
    trace_tree(dataset, thresholds, order=HeightOrder.ORIGINAL)
    return calls["checks"], len(row_keys) + len(height_keys)


@pytest.mark.parametrize(
    "dataset",
    [paper_example(), random_tensor((4, 6, 40), 0.55, seed=23)],
    ids=["paper", "random"],
)
def test_memo_counters_count_the_closure_checks(monkeypatch, dataset):
    """hits + misses = Lemma 4-5 checks run; misses = unions built."""
    thresholds = Thresholds(2, 2, 2)
    checks, unions = _count_sweep_checks(monkeypatch, dataset, thresholds)
    result = cubeminer_mine(dataset, thresholds, order=HeightOrder.ORIGINAL)
    stats = result.stats
    assert checks > 0
    assert stats["closure_cache_hits"] + stats["closure_cache_misses"] == checks
    assert stats["closure_cache_misses"] == unions
    assert stats["kernel_ops"] == stats["nodes_visited"] + checks


@pytest.mark.parametrize("max_entries", [1, 2, 5])
def test_bounded_cache_evicts_without_changing_output(max_entries):
    """Heavy eviction of the support memo degrades to recomputation,
    never to different closures."""
    dataset = random_tensor((5, 6, 24), 0.5, seed=19)
    seeds = [
        Cube(1 << k, 1 << i, 1 << j)
        for k in range(dataset.n_heights)
        for i in range(dataset.n_rows)
        for j in range(dataset.n_columns)
        if dataset.ones_masks()[k][i] >> j & 1
    ]
    cache = ClosureCache(max_entries=max_entries)
    for seed in seeds:
        assert close(dataset, seed, cache=cache) == close(dataset, seed)
    assert len(cache) <= max_entries
    assert cache.evictions > 0


def test_counters_surface_through_result_stats():
    result = cubeminer_mine(paper_example(), Thresholds(2, 2, 2))
    stats = result.stats
    assert stats["closure_cache_hits"] > 0
    assert stats["closure_cache_misses"] > 0
    serialized = stats.to_dict()["metrics"]
    assert serialized["closure_cache_hits"] == stats["closure_cache_hits"]
    assert serialized["closure_cache_misses"] == stats["closure_cache_misses"]


def test_union_memo_is_per_drain():
    """A run starts with an empty memo: no state carries between runs."""
    dataset = random_tensor((5, 6, 24), 0.5, seed=19)
    thresholds = Thresholds(2, 2, 2)
    first = cubeminer_mine(dataset, thresholds)
    second = cubeminer_mine(dataset, thresholds)
    assert second.cubes == first.cubes
    assert second.stats.metrics.as_dict() == first.stats.metrics.as_dict()


def test_cache_rebinds_on_a_different_dataset():
    a = random_tensor((3, 4, 8), 0.5, seed=1)
    b = random_tensor((4, 3, 10), 0.5, seed=2)
    cache = ClosureCache()
    for dataset in (a, b, a):
        columns = (1 << dataset.n_columns) - 1
        for rows in range(1 << dataset.n_rows):
            assert cache.height_support(dataset, rows, columns) == height_support(
                dataset, rows, columns
            )


def test_closure_cache_rejects_a_non_positive_budget():
    with pytest.raises(ValueError):
        ClosureCache(max_entries=0)


def test_closure_cache_knob_is_gone():
    """The witness-cache knob was removed, with no replacement option."""
    from repro.options import CubeMinerOptions

    with pytest.raises(TypeError):
        cubeminer_mine(paper_example(), Thresholds(2, 2, 2), closure_cache=0)
    with pytest.raises(TypeError):
        CubeMinerOptions(closure_cache_size=0)
