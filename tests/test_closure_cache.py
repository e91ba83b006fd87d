"""Correctness of the lane-packed closure engine.

:class:`repro.core.closure.LaneClosure` answers every in-memory closure
question — CubeMiner's Lemma 4-5 checks, RSM's Lemma-1 post-prune, the
support sets, Definition 3.2 and ``close`` for stream maintenance and the
shard merge — with lane-packed big-int tests memoized per run.  Every
answer must equal the reference in :mod:`repro.core.closure` and
:mod:`repro.cubeminer.checks` (per-call kernel sweeps) on arbitrary
regions and on every registered kernel, including the lane-edge shapes,
and the drain that inlines the Lemma tests must reproduce the
sweep-checked tree exactly.  The drain's union-memo counters must
surface through ``MiningResult.stats`` with ``hits + misses`` equal to
the number of closure checks run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closure import (
    LaneClosure,
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
from repro.cubeminer.checks import height_set_closed, row_set_closed
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


def assert_lanes_match_reference(dataset, lanes, heights, rows, columns):
    """Every lane answer on one region == the kernel-sweep reference."""
    assert lanes.height_closed(heights, rows, columns) == height_set_closed(
        dataset, heights, rows, columns
    )
    assert lanes.row_closed(heights, rows, columns) == row_set_closed(
        dataset, heights, rows, columns
    )
    assert lanes.height_support(rows, columns) == height_support(
        dataset, rows, columns
    )
    assert lanes.row_support(heights, columns) == row_support(
        dataset, heights, columns
    )
    assert lanes.column_support(heights, rows) == column_support(
        dataset, heights, rows
    )
    cube = Cube(heights, rows, columns)
    assert lanes.is_closed(heights, rows, columns) == is_closed_cube(dataset, cube)
    # The region itself (usually not complete, so both must refuse it),
    # then the one-cell seed at its lowest members (complete when set).
    low = Cube(heights & -heights, rows & -rows, columns & -columns)
    for seed in (cube, low):
        try:
            expected = close(dataset, seed)
        except ValueError:
            with pytest.raises(ValueError):
                lanes.close(seed.heights, seed.rows, seed.columns)
            continue
        assert lanes.close(seed.heights, seed.rows, seed.columns) == expected


@settings(max_examples=60, deadline=None)
@given(datasets_and_queries())
def test_cached_queries_match_fresh_computation(case):
    """Memoized lane answers == fresh kernel sweeps over arbitrary query
    streams.

    The same query can repeat (exercising memo hits), regions shrink and
    grow arbitrarily, and one ``LaneClosure`` answers the whole stream.
    """
    shape, density, seed, queries = case
    dataset = random_tensor(shape, density, seed=seed)
    lanes = LaneClosure(dataset)
    for heights, rows, columns in queries:
        assert_lanes_match_reference(dataset, lanes, heights, rows, columns)
    assert lanes.height_unions or lanes.row_unions


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
        assert_lanes_match_reference(dataset, lanes, heights, rows, columns)


@settings(max_examples=30, deadline=None)
@given(datasets_and_queries())
def test_cached_close_and_predicates_match(case):
    """``close`` and ``is_closed`` agree with the reference, from every
    complete one-cell seed and on every closed cube they reach."""
    shape, density, seed, queries = case
    dataset = random_tensor(shape, density, seed=seed)
    lanes = LaneClosure(dataset)
    for k, per_height in enumerate(dataset.ones_masks()):
        for i, mask in enumerate(per_height):
            for j in range(dataset.n_columns):
                if not mask >> j & 1:
                    continue
                seed_cube = Cube(1 << k, 1 << i, 1 << j)
                closed = lanes.close(1 << k, 1 << i, 1 << j)
                assert closed == close(dataset, seed_cube)
                assert lanes.is_closed(closed.heights, closed.rows, closed.columns)
                assert is_closed_cube(dataset, closed)
    for heights, rows, columns in queries:
        assert lanes.is_closed(heights, rows, columns) == is_closed_cube(
            dataset, Cube(heights, rows, columns)
        )


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
    """An engine answers for its own dataset only: engines over different
    tensors, queried interleaved with the same memo keys, never mix."""
    a = random_tensor((3, 4, 8), 0.5, seed=1)
    b = random_tensor((4, 3, 10), 0.5, seed=2)
    engines = {id(a): LaneClosure(a), id(b): LaneClosure(b)}
    for dataset in (a, b, a):
        lanes = engines[id(dataset)]
        columns = (1 << dataset.n_columns) - 1
        for rows in range(1 << dataset.n_rows):
            assert lanes.height_support(rows, columns) == height_support(
                dataset, rows, columns
            )
        for heights in range(1 << dataset.n_heights):
            assert lanes.row_support(heights, columns) == row_support(
                dataset, heights, columns
            )


def test_closure_cache_knob_is_gone():
    """The witness-cache knob was removed, with no replacement option."""
    from repro.options import CubeMinerOptions

    with pytest.raises(TypeError):
        cubeminer_mine(paper_example(), Thresholds(2, 2, 2), closure_cache=0)
    with pytest.raises(TypeError):
        CubeMinerOptions(closure_cache_size=0)
