"""Property-based tests (hypothesis) for the extension layers.

Same philosophy as tests/test_properties.py: arbitrary small tensors,
strong invariants — verification must bless every miner output,
serialization must be lossless, incremental maintenance must equal
re-mining, and the N-dimensional miner must agree with the 3D one.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import derive_rules, greedy_cover
from repro.api import mine
from repro.core import verify_result
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.cubeminer import cubeminer_mine
from repro.io import result_from_json, result_to_json
from repro.ndim import mine_nd
from repro.stream import AppendSlice, maintain

# ----------------------------------------------------------------------
# Strategies (kept in sync with tests/test_properties.py)
# ----------------------------------------------------------------------


@st.composite
def tensors(draw, max_dim: int = 5):
    l = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    cells = draw(st.lists(st.booleans(), min_size=l * n * m, max_size=l * n * m))
    return Dataset3D(np.array(cells, dtype=bool).reshape(l, n, m))


@st.composite
def tensor_with_thresholds(draw):
    ds = draw(tensors())
    th = Thresholds(
        draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    )
    return ds, th


# ----------------------------------------------------------------------
# Verification closes the loop on every miner
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(tensor_with_thresholds())
def test_verify_blesses_cubeminer_output(case):
    ds, th = case
    result = cubeminer_mine(ds, th)
    report = verify_result(ds, result, th, check_completeness=True)
    assert report.ok, [str(v) for v in report.violations]


@settings(max_examples=30, deadline=None)
@given(tensor_with_thresholds())
def test_verify_catches_injected_corruption(case):
    ds, th = case
    result = cubeminer_mine(ds, th)
    if len(result) == 0:
        return
    # Corrupt the dataset under the first cube: verification must fail.
    cube = result.cubes[0]
    data = ds.data.copy()
    k = cube.height_indices()[0]
    i = cube.row_indices()[0]
    j = cube.column_indices()[0]
    data[k, i, j] = False
    assert not verify_result(Dataset3D(data), result, th).ok


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(tensor_with_thresholds())
def test_json_round_trip_property(case):
    ds, th = case
    result = cubeminer_mine(ds, th)
    rebuilt = result_from_json(result_to_json(result, ds))
    assert rebuilt.same_cubes(result)
    assert rebuilt.thresholds == result.thresholds


# ----------------------------------------------------------------------
# Incremental maintenance == re-mining
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(tensor_with_thresholds(), st.data())
def test_incremental_append_equals_remine(case, data):
    ds, th = case
    old_result = mine(ds, th)
    cells = data.draw(
        st.lists(
            st.booleans(),
            min_size=ds.n_rows * ds.n_columns,
            max_size=ds.n_rows * ds.n_columns,
        )
    )
    new_slice = np.array(cells, dtype=bool).reshape(ds.n_rows, ds.n_columns)
    extended, updated = maintain(ds, old_result, [AppendSlice(0, new_slice)], th)
    assert updated.same_cubes(mine(extended, th))


# ----------------------------------------------------------------------
# N-dimensional miner agrees with the 3D one at rank 3
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(tensor_with_thresholds())
def test_mine_nd_rank3_equals_cubeminer(case):
    ds, th = case
    nd = mine_nd(ds.data, th.as_tuple())
    primary = cubeminer_mine(ds, th)
    expected = {
        (c.height_indices(), c.row_indices(), c.column_indices())
        for c in primary
    }
    assert {p.indices for p in nd} == expected


# ----------------------------------------------------------------------
# Analysis invariants
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(tensor_with_thresholds())
def test_rules_metrics_in_range(case):
    ds, th = case
    result = cubeminer_mine(ds, th)
    for rule in derive_rules(ds, result, min_confidence=0.01, max_antecedent=2):
        assert 0.0 < rule.support <= 1.0
        assert 0.0 < rule.confidence <= 1.0
        assert rule.antecedent and rule.consequent
        assert rule.antecedent & rule.consequent == 0


@settings(max_examples=30, deadline=None)
@given(tensors())
def test_greedy_cover_invariants(ds):
    result = cubeminer_mine(ds, Thresholds(1, 1, 1))
    steps = greedy_cover(ds, result)
    fractions = [step.cumulative_fraction for step in steps]
    assert all(0.0 < f <= 1.0 + 1e-9 for f in fractions)
    assert fractions == sorted(fractions)
    if ds.count_ones() and result:
        # At (1,1,1) the FCCs cover every one-cell, so greedy finishes
        # the job (it only stops when no cube adds anything).
        assert fractions[-1] == 1.0
