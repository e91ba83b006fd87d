"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.datasets import paper_example


def pytest_configure(config: pytest.Config) -> None:
    """Fail fast when a required kernel backend cannot run.

    CI legs that exist to exercise a specific backend (the native build
    matrix, the kernel-matrix job) export ``REPRO_REQUIRE_KERNELS`` so
    that a broken extension fails the run loudly instead of letting
    kernel auto-selection degrade to numpy and pass on the wrong
    backend.
    """
    required = os.environ.get("REPRO_REQUIRE_KERNELS", "")
    if not required:
        return
    from repro.core.kernels import available_kernels, native_import_error

    missing = {
        name.strip() for name in required.split(",") if name.strip()
    } - set(available_kernels())
    if missing:
        detail = ""
        if "native" in missing:
            detail = f" (native: {native_import_error() or 'not built'})"
        raise pytest.UsageError(
            f"REPRO_REQUIRE_KERNELS demands unavailable kernel backends "
            f"{sorted(missing)}{detail}; refusing to run the suite on a "
            f"silent fallback"
        )


@pytest.fixture
def paper_ds() -> Dataset3D:
    """The paper's Table 1 running example (3 x 4 x 5)."""
    return paper_example()


@pytest.fixture
def paper_thresholds() -> Thresholds:
    """The thresholds used throughout the paper's example: all 2."""
    return Thresholds(2, 2, 2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_dataset(
    rng: np.random.Generator,
    max_dim: int = 6,
    density_range: tuple[float, float] = (0.2, 0.95),
) -> Dataset3D:
    """A small random dataset for oracle comparisons."""
    l, n, m = rng.integers(1, max_dim + 1, size=3)
    density = rng.uniform(*density_range)
    return Dataset3D(rng.random((l, n, m)) < density)


def record_lemma1(monkeypatch: pytest.MonkeyPatch, module) -> list[bool]:
    """Route ``module``'s Lemma-1 checks through a recording engine.

    ``module.LaneClosure`` is replaced by a subclass whose
    ``height_closed`` also asks the kernel-sweep reference
    (:func:`repro.rsm.postprune.height_closed_in`) on the same pattern,
    asserts the two agree, and appends the answer to the returned list.
    Only engines that ``module`` builds are affected.
    """
    from repro.core.closure import LaneClosure
    from repro.rsm.postprune import height_closed_in

    answers: list[bool] = []

    class RecordingLanes(LaneClosure):
        def __init__(self, dataset: Dataset3D) -> None:
            super().__init__(dataset)
            self.dataset = dataset

        def height_closed(self, heights: int, rows: int, columns: int) -> bool:
            kept = super().height_closed(heights, rows, columns)
            assert kept == height_closed_in(self.dataset, heights, rows, columns)
            answers.append(kept)
            return kept

    monkeypatch.setattr(module, "LaneClosure", RecordingLanes)
    return answers
