"""repro — Frequent Closed Cube mining in 3D binary datasets.

A full reproduction of "Mining Frequent Closed Cubes in 3D Datasets"
(Ji, Tan, Tung — VLDB 2006): the FCC model, the RSM framework on top of
a from-scratch 2D closed-pattern substrate (D-Miner and friends), the
CubeMiner algorithm, and parallel variants of both.

Quickstart::

    from repro import Dataset3D, Thresholds, mine

    dataset = Dataset3D(binary_tensor)            # (heights, rows, cols)
    result = mine(dataset, Thresholds(2, 2, 2))   # CubeMiner by default
    for cube in result:
        print(cube.format(dataset))

Every run is instrumented: ``result.stats.metrics`` carries the node /
prune / kernel counters, and ``mine(..., on_event=, progress=,
deadline=)`` adds typed event streams, periodic progress callbacks and
cooperative cancellation (see :mod:`repro.obs` and
``docs/observability.md``).
"""

from .api import ALGORITHMS, mine, register_algorithm, unregister_algorithm
from .core import Cube, Dataset3D, MiningResult, MiningStats, Thresholds, reference_mine
from .cubeminer import CubeMiner, HeightOrder, cubeminer_mine
from .obs import (
    CollectingSink,
    MiningCancelled,
    MiningMetrics,
    ProgressController,
    ProgressUpdate,
)
from .options import CubeMinerOptions, ParallelOptions, ReferenceOptions, RSMOptions

__version__ = "7.0.0"

__all__ = [
    "mine",
    "ALGORITHMS",
    "register_algorithm",
    "unregister_algorithm",
    "Cube",
    "Dataset3D",
    "MiningResult",
    "MiningStats",
    "Thresholds",
    "reference_mine",
    "CubeMiner",
    "HeightOrder",
    "cubeminer_mine",
    "CubeMinerOptions",
    "RSMOptions",
    "ParallelOptions",
    "ReferenceOptions",
    "MiningMetrics",
    "MiningCancelled",
    "ProgressController",
    "ProgressUpdate",
    "CollectingSink",
    "__version__",
]
