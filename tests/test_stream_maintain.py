"""The incremental maintainer must be bit-identical to a fresh mine.

The hypothesis differential below is the subsystem's load-bearing
guarantee: for arbitrary small tensors and arbitrary *valid* delta
sequences — cell flips plus slice appends/drops on every axis —
:func:`repro.stream.maintain` yields exactly the cube list a fresh RSM
mine of the edited tensor returns, on both kernels.  ``maintain`` may
re-mine instead of patching when that is cheaper, so the differential
also runs the patch pass itself on every example: the fallback cannot
hide a patch bug.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import mine
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.datasets import planted_tensor, random_tensor
from repro.obs.metrics import MiningMetrics
from repro.rsm.postprune import height_closed_in
from repro.stream import (
    AppendSlice,
    ClearCell,
    DropSlice,
    IncrementalMaintainer,
    SetCell,
    apply_deltas,
    maintain,
)
from tests.conftest import record_lemma1

# The package re-exports the function under the module's name.
maintain_module = importlib.import_module("repro.stream.maintain")

KERNELS = ("python-int", "numpy")


def _keys(result):
    return [(c.heights, c.rows, c.columns) for c in result.cubes]


# ----------------------------------------------------------------------
# Strategies: delta sequences valid against the evolving shape
# ----------------------------------------------------------------------
@st.composite
def tensor_and_deltas(draw, max_dim: int = 4, max_deltas: int = 4):
    l = draw(st.integers(2, max_dim))
    n = draw(st.integers(2, max_dim))
    m = draw(st.integers(2, max_dim))
    cells = draw(
        st.lists(st.booleans(), min_size=l * n * m, max_size=l * n * m)
    )
    tensor = np.array(cells, dtype=bool).reshape(l, n, m)

    shape = [l, n, m]
    deltas = []
    for _ in range(draw(st.integers(1, max_deltas))):
        kind = draw(st.sampled_from(("set", "clear", "append", "drop")))
        axis = draw(st.integers(0, 2))
        if kind in ("set", "clear"):
            coords = [draw(st.integers(0, shape[a] - 1)) for a in range(3)]
            cls = SetCell if kind == "set" else ClearCell
            deltas.append(cls(*coords))
        elif kind == "append":
            rest = tuple(d for a, d in enumerate(shape) if a != axis)
            count = rest[0] * rest[1]
            bits = draw(
                st.lists(st.booleans(), min_size=count, max_size=count)
            )
            values = np.array(bits, dtype=int).reshape(rest)
            deltas.append(AppendSlice(axis, values))
            shape[axis] += 1
        else:
            if shape[axis] == 1:
                continue  # never drop the last slice
            deltas.append(DropSlice(axis, draw(st.integers(0, shape[axis] - 1))))
            shape[axis] -= 1
    return Dataset3D(tensor), deltas


@settings(max_examples=40, deadline=None)
@given(data=tensor_and_deltas())
@pytest.mark.parametrize("kernel", KERNELS)
def test_maintain_equals_fresh_mine(kernel, data):
    dataset, deltas = data
    dataset = dataset.with_kernel(kernel)
    thresholds = Thresholds(2, 2, 2)
    base = mine(dataset, thresholds, algorithm="rsm")
    new_dataset, maintained = maintain(dataset, base, deltas, thresholds)
    fresh = mine(new_dataset, thresholds, algorithm="rsm")
    assert _keys(maintained) == _keys(fresh)
    assert maintained.thresholds == thresholds
    assert maintained.dataset_shape == new_dataset.shape
    patched = maintain_module.patch(apply_deltas(dataset, deltas), base, thresholds)
    assert _keys(patched) == _keys(fresh)


@settings(max_examples=20, deadline=None)
@given(data=tensor_and_deltas(max_deltas=3))
def test_maintain_with_volume_constraint(data):
    dataset, deltas = data
    thresholds = Thresholds(1, 2, 1, min_volume=4)
    base = mine(dataset, thresholds, algorithm="rsm")
    new_dataset, maintained = maintain(dataset, base, deltas, thresholds)
    fresh = mine(new_dataset, thresholds, algorithm="rsm")
    assert _keys(maintained) == _keys(fresh)
    patched = maintain_module.patch(apply_deltas(dataset, deltas), base, thresholds)
    assert _keys(patched) == _keys(fresh)


# ----------------------------------------------------------------------
# Directed cases
# ----------------------------------------------------------------------
def planted() -> Dataset3D:
    rng = np.random.default_rng(11)
    data = rng.random((4, 8, 10)) < 0.35
    data[:3, 1:5, 2:7] = True
    return Dataset3D(data)


@pytest.mark.parametrize("kernel", KERNELS)
def test_single_cell_edit_each_axis_slice(kernel):
    ds = planted().with_kernel(kernel)
    th = Thresholds(2, 2, 2)
    base = mine(ds, th, algorithm="rsm")
    for delta in (SetCell(0, 0, 0), ClearCell(1, 2, 3), SetCell(3, 7, 9)):
        new_ds, maintained = maintain(ds, base, [delta], th)
        assert _keys(maintained) == _keys(mine(new_ds, th, algorithm="rsm"))


@pytest.mark.parametrize("axis", ("height", "row", "column"))
def test_append_then_drop_on_every_axis(axis):
    ds = planted()
    th = Thresholds(2, 2, 2)
    base = mine(ds, th, algorithm="rsm")
    rest = tuple(
        d
        for a, d in enumerate(ds.shape)
        if a != ("height", "row", "column").index(axis)
    )
    deltas = [
        AppendSlice(axis, np.ones(rest, dtype=int)),
        DropSlice(axis, 0),
    ]
    new_ds, maintained = maintain(ds, base, deltas, th)
    assert _keys(maintained) == _keys(mine(new_ds, th, algorithm="rsm"))


def test_maintainer_carries_state_across_batches():
    ds = planted()
    th = Thresholds(2, 2, 2)
    maintainer = IncrementalMaintainer(ds, mine(ds, th, algorithm="rsm"), th)
    batches = [
        [SetCell(0, 0, 0)],
        [AppendSlice("height", np.zeros((8, 10), dtype=int))],
        [DropSlice("row", 3), ClearCell(0, 0, 5)],
    ]
    for batch in batches:
        maintained = maintainer.apply(batch)
        fresh = mine(maintainer.dataset, th, algorithm="rsm")
        assert _keys(maintained) == _keys(fresh)
    assert maintainer.result is maintained


def test_thresholds_default_from_base_result():
    ds = planted()
    th = Thresholds(2, 2, 2)
    base = mine(ds, th, algorithm="rsm")
    for delta in (SetCell(0, 0, 0), AppendSlice("height", np.ones((8, 10), dtype=int))):
        _, maintained = maintain(ds, base, [delta])
        assert maintained.thresholds == th


def test_metrics_counters_and_stream_extra():
    ds = planted()
    th = Thresholds(2, 2, 2)
    base = mine(ds, th, algorithm="rsm")
    metrics = MiningMetrics()
    _, maintained = maintain(
        ds, base, [SetCell(0, 0, 0)], th, metrics=metrics
    )
    assert metrics.deltas_applied == 1
    assert metrics.cubes_patched >= 1
    assert metrics.subsets_remined >= 1
    stream = maintained.stats.extra["stream"]
    # The tensor lies outside the cost model's domain, so the plan has
    # no estimate and maintenance patches.
    assert stream["path"] == "patch"
    chosen = maintained.stats.extra["plan"]
    assert chosen["algorithm"] == "cubeminer"
    assert chosen["est_cost"] is None
    assert chosen["features"]["in_domain"] is False
    assert stream["deltas_applied"] == 1
    assert stream["dirty_heights"] == 1
    assert stream["cubes_patched"] == metrics.cubes_patched
    assert stream["subsets_remined"] == metrics.subsets_remined
    # Counters survive the serialization round-trip.
    restored = MiningMetrics.from_dict(metrics.to_dict())
    assert restored.deltas_applied == 1


@pytest.mark.parametrize("min_volume", [1, 10])
def test_remine_postprune_matches_the_kernel_sweep(monkeypatch, min_volume):
    """Pass 2's lane-packed Lemma 1 keeps and discards exactly what the
    kernel sweep does on a random cell-edit batch."""
    ds = random_tensor((5, 6, 7), 0.6, seed=29)
    th = Thresholds(2, 2, 2, min_volume=min_volume)
    base = mine(ds, th, algorithm="rsm")
    rng = np.random.default_rng(min_volume)
    deltas = [
        (SetCell if rng.random() < 0.5 else ClearCell)(
            *(int(rng.integers(size)) for size in ds.shape)
        )
        for _ in range(4)
    ]
    answers = record_lemma1(monkeypatch, maintain_module)
    metrics = MiningMetrics()
    application = apply_deltas(ds, deltas)
    new_ds = application.dataset
    maintained = maintain_module.patch(application, base, th, metrics=metrics)
    assert True in answers and False in answers
    assert _keys(maintained) == _keys(mine(new_ds, th, algorithm="rsm"))
    for cube in maintained:
        assert height_closed_in(new_ds, cube.heights, cube.rows, cube.columns)


def test_algorithm_tag_does_not_nest():
    ds = planted()
    th = Thresholds(2, 2, 2)
    maintainer = IncrementalMaintainer(ds, mine(ds, th, algorithm="rsm"), th)
    maintainer.apply([SetCell(0, 0, 0)])
    second = maintainer.apply([ClearCell(0, 0, 0)])
    assert second.algorithm.count("stream[") == 1


def test_maintain_without_thresholds_anywhere_raises():
    ds = planted()
    base = mine(ds, Thresholds(2, 2, 2), algorithm="rsm")
    stripped = type(base)(
        cubes=list(base.cubes), algorithm=base.algorithm, thresholds=None
    )
    for delta in (SetCell(0, 0, 0), AppendSlice("height", np.ones((8, 10), dtype=int))):
        with pytest.raises(ValueError, match="thresholds"):
            maintain(ds, stripped, [delta])


def test_batch_dirtying_most_heights_remines_without_reading_the_base():
    """Edits on 10 of 14 heights leave pass 2 nearly every height subset;
    on the perfbench tensor family, RSM over its 9 rows is far cheaper,
    so maintenance re-mines, and the choice needs no old result."""
    ds = planted_tensor(
        (14, 9, 250), n_blocks=6, block_shape=(4, 4, 30),
        background_density=0.6, seed=0,
    ).dataset
    th = Thresholds(3, 4, 14, min_volume=200)
    deltas = [
        (SetCell if not ds.data[k, 0, k] else ClearCell)(k, 0, k) for k in range(10)
    ]
    application = apply_deltas(ds, deltas)
    path, chosen = maintain_module.choose_path(application, th)
    assert path == "remine"
    assert chosen.features["patch_est_s"] > chosen.est_cost

    new_dataset, maintained = maintain(ds, mine(ds, th, algorithm="rsm"), deltas, th)
    stream = maintained.stats.extra["stream"]
    assert stream["path"] == "remine"
    assert stream["subsets_remined"] == 0
    assert maintained.stats.extra["plan"]["algorithm"] == chosen.algorithm
    assert maintained.algorithm.startswith("stream[")
    assert maintained.stats.extra["plan"]["options"] == {"base_axis": "row"}
    fresh = mine(new_dataset, th, algorithm="rsm")
    assert _keys(maintained) == _keys(fresh)

