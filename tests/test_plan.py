"""The planner's domain: estimates inside the cost model's fit,
CubeMiner with no estimate outside it."""

from __future__ import annotations

import pytest

from repro.api import mine
from repro.core.constraints import Thresholds
from repro.datasets import planted_tensor
from repro.plan import COST_MODEL, DOMAIN_MARGIN, in_domain, plan


def perf_tensor():
    return planted_tensor(
        (14, 9, 250), n_blocks=6, block_shape=(4, 4, 30),
        background_density=0.6, seed=0,
    ).dataset


def test_in_domain_input_is_planned_from_estimates():
    dataset = perf_tensor()
    chosen = plan(dataset.shape, dataset.count_ones(), Thresholds(2, 3, 10))
    assert chosen.features["in_domain"] is True
    assert (chosen.algorithm, chosen.options) == ("rsm", {"base_axis": "row"})
    assert chosen.est_cost == pytest.approx(chosen.features["est_s"]["rsm-row"], abs=1e-6)
    # 250 columns are past MAX_RSM_AXIS: no RSM over columns.
    assert set(chosen.features["est_s"]) == {"cubeminer", "rsm-height", "rsm-row"}
    assert chosen.features["subsets"]["column"] is None


def test_off_domain_input_falls_back_to_cubeminer():
    # bench_stream's maintainer tensor: 12 x 48 x 72 at density ~0.1.
    chosen = plan((12, 48, 72), 4058, Thresholds(3, 3, 4))
    assert chosen.algorithm == "cubeminer"
    assert chosen.options == {}
    assert chosen.est_cost is None
    assert chosen.features["in_domain"] is False
    assert "est_s" not in chosen.features


def test_domain_ranges_widen_by_the_margin():
    (low, high) = COST_MODEL["domain"][0]
    slack = DOMAIN_MARGIN * (high - low)
    mins = (3, 3, 12, 1)
    ones = 20_000
    assert in_domain((high, 9, 250), mins, ones)
    assert not in_domain((int(high + slack) + 1, 9, 250), mins, ones)
    # Zero-width ranges (the fit saw one row and one column count) admit
    # only that value.
    assert not in_domain((14, 10, 250), mins, ones)


def test_auto_mines_the_same_cubes_through_its_rsm_pick():
    dataset = perf_tensor()
    thresholds = Thresholds(3, 4, 14, min_volume=200)
    auto = mine(dataset, thresholds, algorithm="auto")
    assert auto.stats.extra["plan"]["algorithm"] == "rsm"
    assert auto.cubes == mine(dataset, thresholds, algorithm="cubeminer").cubes
