"""Differential verification: every kernel backend mines identical cubes.

The python-int backend is the behavioural baseline (it is the original
implementation, verified against the paper's running example and the
exponential reference miner elsewhere in the suite).  Every other
registered kernel must reproduce its canonically-ordered
:class:`MiningResult` exactly — on the paper example and on a grid of
seeded synthetic datasets spanning densities, thresholds and universes
wider than one 64-bit word — for CubeMiner, for RSM under each 2D FCP
miner, and for the inline parallel drivers.  An RSM run whose 2D phase
is the exhaustive ``oracle_mine_2d`` ties the whole stack back to
ground truth.
"""

from __future__ import annotations

import pytest

from repro.api import mine
from repro.core import reference_mine
from repro.core.constraints import Thresholds
from repro.core.kernels import available_kernels
from repro.cubeminer.algorithm import cubeminer_mine
from repro.datasets import paper_example, random_tensor
from repro.fcp import FCP_MINERS, FCPMiner, oracle_mine_2d
from repro.parallel import parallel_cubeminer_mine, parallel_rsm_mine
from repro.rsm.algorithm import rsm_mine

BASELINE = "python-int"
OTHER_KERNELS = [name for name in available_kernels() if name != BASELINE]
ALL_KERNELS = list(available_kernels())

# ----------------------------------------------------------------------
# Seeded synthetic grid: shapes x densities x thresholds, 30 configs.
# Column counts 33 and 70 cross the 64-bit word boundary so the packed
# uint64 kernels exercise multi-word masks, not just the first word.
# ----------------------------------------------------------------------
_SHAPES = [(3, 4, 8), (4, 5, 12), (5, 4, 20), (4, 6, 70), (6, 5, 33)]
_DENSITIES = [0.35, 0.6, 0.85]
_THRESHOLDS = [(1, 1, 1), (2, 2, 2)]

GRID = [
    pytest.param(shape, density, mins, 1000 + i, id=f"g{i:02d}-{shape}-d{density}-t{mins}")
    for i, (shape, density, mins) in enumerate(
        (shape, density, mins)
        for shape in _SHAPES
        for density in _DENSITIES
        for mins in _THRESHOLDS
    )
]
assert len(GRID) == 30

# A cheaper subsample for the quadratic sweeps (every third config).
GRID_SAMPLE = GRID[::3]

_DATASETS: dict = {}
_BASELINES: dict = {}


def _dataset(shape, density, seed):
    key = (shape, density, seed)
    if key not in _DATASETS:
        _DATASETS[key] = random_tensor(shape, density, seed=seed)
    return _DATASETS[key]


def _baseline_cubes(dataset, thresholds, runner, tag):
    """Cubes from the python-int baseline, computed once per workload."""
    key = (id(dataset), thresholds, tag)
    if key not in _BASELINES:
        _BASELINES[key] = runner(dataset.with_kernel(BASELINE)).cubes
    return _BASELINES[key]


class _OracleMiner(FCPMiner):
    """The exhaustive 2D oracle dressed as an FCP miner (tests only)."""

    name = "oracle2d"

    def mine(self, matrix, min_rows=1, min_columns=1):
        return oracle_mine_2d(matrix, min_rows=min_rows, min_columns=min_columns)


# ----------------------------------------------------------------------
# Paper running example: every kernel, every miner, vs ground truth.
# ----------------------------------------------------------------------
class TestPaperExample:
    @pytest.fixture(scope="class")
    def truth(self, request):
        dataset = paper_example()
        thresholds = Thresholds(2, 2, 2)
        return dataset, thresholds, reference_mine(dataset, thresholds).cubes

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_cubeminer(self, truth, kernel):
        dataset, thresholds, expected = truth
        result = cubeminer_mine(dataset.with_kernel(kernel), thresholds)
        assert result.cubes == expected

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    @pytest.mark.parametrize("fcp", sorted(FCP_MINERS))
    def test_rsm_every_fcp_miner(self, truth, kernel, fcp):
        dataset, thresholds, expected = truth
        result = rsm_mine(dataset.with_kernel(kernel), thresholds, fcp_miner=fcp)
        assert result.cubes == expected

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_rsm_oracle_substrate(self, truth, kernel):
        dataset, thresholds, expected = truth
        result = rsm_mine(
            dataset.with_kernel(kernel), thresholds, fcp_miner=_OracleMiner()
        )
        assert result.cubes == expected


# ----------------------------------------------------------------------
# Synthetic grid: non-baseline kernels vs the python-int baseline.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", OTHER_KERNELS)
@pytest.mark.parametrize("shape,density,mins,seed", GRID)
def test_cubeminer_matches_baseline(kernel, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed)
    thresholds = Thresholds(*mins)
    expected = _baseline_cubes(
        dataset, thresholds, lambda ds: cubeminer_mine(ds, thresholds), "cubeminer"
    )
    result = cubeminer_mine(dataset.with_kernel(kernel), thresholds)
    assert result.cubes == expected


@pytest.mark.parametrize("kernel", OTHER_KERNELS)
@pytest.mark.parametrize("shape,density,mins,seed", GRID)
def test_rsm_dminer_matches_baseline(kernel, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed)
    thresholds = Thresholds(*mins)
    expected = _baseline_cubes(
        dataset, thresholds, lambda ds: rsm_mine(ds, thresholds), "rsm-dminer"
    )
    result = rsm_mine(dataset.with_kernel(kernel), thresholds)
    assert result.cubes == expected


@pytest.mark.parametrize("kernel", OTHER_KERNELS)
@pytest.mark.parametrize("fcp", sorted(set(FCP_MINERS) - {"dminer"}))
@pytest.mark.parametrize("shape,density,mins,seed", GRID_SAMPLE)
def test_rsm_other_fcp_miners_match_baseline(kernel, fcp, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed)
    thresholds = Thresholds(*mins)
    expected = _baseline_cubes(
        dataset, thresholds, lambda ds: rsm_mine(ds, thresholds), "rsm-dminer"
    )
    result = rsm_mine(dataset.with_kernel(kernel), thresholds, fcp_miner=fcp)
    assert result.cubes == expected


@pytest.mark.parametrize("kernel", OTHER_KERNELS)
@pytest.mark.parametrize("shape,density,mins,seed", GRID_SAMPLE)
def test_rsm_oracle_matches_baseline(kernel, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed)
    thresholds = Thresholds(*mins)
    expected = _baseline_cubes(
        dataset, thresholds, lambda ds: rsm_mine(ds, thresholds), "rsm-dminer"
    )
    result = rsm_mine(
        dataset.with_kernel(kernel), thresholds, fcp_miner=_OracleMiner()
    )
    assert result.cubes == expected


@pytest.mark.parametrize("kernel", ALL_KERNELS)
@pytest.mark.parametrize("shape,density,mins,seed", GRID)
def test_auto_matches_baseline(kernel, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed)
    thresholds = Thresholds(*mins)
    expected = _baseline_cubes(
        dataset, thresholds, lambda ds: cubeminer_mine(ds, thresholds), "cubeminer"
    )
    result = mine(dataset.with_kernel(kernel), thresholds, algorithm="auto")
    assert result.cubes == expected
    assert result.stats.extra["plan"]["algorithm"] in ("cubeminer", "rsm")


# ----------------------------------------------------------------------
# CubeMiner and RSM agree with each other under every kernel, and the
# reference miner agrees on the smallest configs (it is exponential).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ALL_KERNELS)
@pytest.mark.parametrize("shape,density,mins,seed", GRID_SAMPLE)
def test_cubeminer_and_rsm_agree(kernel, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed).with_kernel(kernel)
    thresholds = Thresholds(*mins)
    assert (
        cubeminer_mine(dataset, thresholds).cubes
        == rsm_mine(dataset, thresholds).cubes
    )


@pytest.mark.parametrize("kernel", ALL_KERNELS)
@pytest.mark.parametrize("shape,density,mins,seed", GRID[:6])
def test_reference_agrees_on_small_configs(kernel, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed).with_kernel(kernel)
    thresholds = Thresholds(*mins)
    expected = reference_mine(dataset, thresholds).cubes
    assert cubeminer_mine(dataset, thresholds).cubes == expected


# ----------------------------------------------------------------------
# Inline parallel drivers (n_workers=1 avoids process-spawn cost while
# still exercising the worker init + chunk code paths per kernel).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ALL_KERNELS)
@pytest.mark.parametrize("shape,density,mins,seed", GRID_SAMPLE[:4])
def test_parallel_drivers_match_baseline(kernel, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed)
    thresholds = Thresholds(*mins)
    expected = _baseline_cubes(
        dataset, thresholds, lambda ds: cubeminer_mine(ds, thresholds), "cubeminer"
    )
    rsm = parallel_rsm_mine(dataset, thresholds, n_workers=1, kernel=kernel)
    cm = parallel_cubeminer_mine(dataset, thresholds, n_workers=1, kernel=kernel)
    assert rsm.cubes == expected
    assert cm.cubes == expected


@pytest.mark.parametrize("kernel", OTHER_KERNELS)
def test_parallel_two_workers_paper_example(kernel):
    dataset = paper_example()
    thresholds = Thresholds(2, 2, 2)
    expected = cubeminer_mine(dataset.with_kernel(BASELINE), thresholds).cubes
    result = parallel_rsm_mine(dataset, thresholds, n_workers=2, kernel=kernel)
    assert result.cubes == expected
