"""Closure operators on 3D binary datasets.

These implement the paper's support-set operators (Definition 3.1):

* ``H(R' x C')`` — the maximal set of heights simultaneously containing
  the rows ``R'`` and columns ``C'`` (:func:`height_support`),
* ``R(H' x C')`` — :func:`row_support`,
* ``C(H' x R')`` — :func:`column_support`,

together with the closed-cube predicate of Definition 3.2 and a fixpoint
``close`` operator that grows a seed cube to a closed one.

All set arguments and return values are integer bitmasks
(see :mod:`repro.core.bitset`); the batch work — one fold or subset
sweep over the dataset's (height, row) mask grid per operator call —
runs on the dataset's kernel backend (:mod:`repro.core.kernels`).
"""

from __future__ import annotations

from .bitset import is_subset
from .cube import Cube
from .dataset import Dataset3D

__all__ = [
    "ClosureCache",
    "column_support",
    "row_support",
    "height_support",
    "is_all_ones",
    "is_closed_cube",
    "close",
]

#: Default entry budget for :class:`ClosureCache` — comfortably above the
#: support queries a typical run issues, so eviction only triggers under
#: an explicit bound.
DEFAULT_CACHE_ENTRIES = 1 << 16


class ClosureCache:
    """Bounded memoization of the support operators.

    Entries are keyed by an axis tag and the opposing pair of set
    fingerprints, memoizing the full ``H(R' x C')`` / ``R(H' x C')`` /
    ``C(H' x R')`` support sets, so repeated closures over one dataset
    (:func:`close`, :func:`is_closed_cube`) reuse each other's work.

    Eviction is FIFO (oldest entry first), so a bounded cache degrades to
    recomputation — never to different answers.  ``hits`` / ``misses`` /
    ``evictions`` count the cache's own lookups.

    A cache binds lazily to the first dataset it serves and rebinds
    (dropping all entries) when handed a different one, so a run-scoped
    cache needs no explicit setup.
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_dataset", "_supports")

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._dataset: Dataset3D | None = None
        self._supports: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        self._supports.clear()

    def __len__(self) -> int:
        return len(self._supports)

    # ------------------------------------------------------------------
    # Memoized support operators
    # ------------------------------------------------------------------
    def _memoized(self, dataset: Dataset3D, key: tuple, compute) -> int:
        supports = self._supports
        if self._dataset is not dataset:
            supports.clear()
            self._dataset = dataset
        value = supports.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = compute()
        if len(supports) >= self.max_entries:
            # Evict the oldest entry (FIFO).
            supports.pop(next(iter(supports)))
            self.evictions += 1
        supports[key] = value
        return value

    def height_support(self, dataset: Dataset3D, rows: int, columns: int) -> int:
        return self._memoized(
            dataset,
            ("H", rows, columns),
            lambda: dataset.kernel.grid_supporting_heights(
                dataset.ones_grid(), rows, columns
            ),
        )

    def row_support(self, dataset: Dataset3D, heights: int, columns: int) -> int:
        return self._memoized(
            dataset,
            ("R", heights, columns),
            lambda: dataset.kernel.grid_supporting_rows(
                dataset.ones_grid(), heights, columns
            ),
        )

    def column_support(self, dataset: Dataset3D, heights: int, rows: int) -> int:
        return self._memoized(
            dataset,
            ("C", heights, rows),
            lambda: dataset.kernel.grid_fold_and(
                dataset.ones_grid(), heights, rows, dataset.n_columns
            ),
        )

    def __repr__(self) -> str:
        return (
            f"ClosureCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


def column_support(
    dataset: Dataset3D, heights: int, rows: int, *, cache: ClosureCache | None = None
) -> int:
    """Return ``C(R' x H')``: columns that are 1 on every (height, row) pair.

    For empty ``heights`` or ``rows`` the intersection runs over an empty
    family and therefore returns the full column universe; callers that
    need a different convention must special-case empty inputs.
    """
    if cache is not None:
        return cache.column_support(dataset, heights, rows)
    return dataset.kernel.grid_fold_and(
        dataset.ones_grid(), heights, rows, dataset.n_columns
    )


def height_support(
    dataset: Dataset3D, rows: int, columns: int, *, cache: ClosureCache | None = None
) -> int:
    """Return ``H(R' x C')``: heights whose slices are all-ones on R' x C'."""
    if cache is not None:
        return cache.height_support(dataset, rows, columns)
    return dataset.kernel.grid_supporting_heights(dataset.ones_grid(), rows, columns)


def row_support(
    dataset: Dataset3D, heights: int, columns: int, *, cache: ClosureCache | None = None
) -> int:
    """Return ``R(H' x C')``: rows that are all-ones on H' x C'."""
    if cache is not None:
        return cache.row_support(dataset, heights, columns)
    return dataset.kernel.grid_supporting_rows(dataset.ones_grid(), heights, columns)


def is_all_ones(
    dataset: Dataset3D, cube: Cube, *, cache: ClosureCache | None = None
) -> bool:
    """True when every cell covered by ``cube`` holds 1 (a *complete* cube)."""
    return is_subset(
        cube.columns, column_support(dataset, cube.heights, cube.rows, cache=cache)
    )


def is_closed_cube(
    dataset: Dataset3D, cube: Cube, *, cache: ClosureCache | None = None
) -> bool:
    """Definition 3.2: the cube is complete and maximal in all three axes.

    Empty cubes are never closed here: the paper's support thresholds are
    at least 1 in any meaningful configuration, and treating the empty
    cube as closed would only complicate every caller.
    """
    if cube.is_empty():
        return False
    if not is_all_ones(dataset, cube, cache=cache):
        return False
    return (
        cube.heights == height_support(dataset, cube.rows, cube.columns, cache=cache)
        and cube.rows == row_support(dataset, cube.heights, cube.columns, cache=cache)
        and cube.columns == column_support(dataset, cube.heights, cube.rows, cache=cache)
    )


def close(
    dataset: Dataset3D,
    cube: Cube,
    max_iterations: int = 64,
    *,
    cache: ClosureCache | None = None,
) -> Cube:
    """Grow ``cube`` to a fixpoint of the three support operators.

    The input must be complete (all ones); the result is then a closed
    cube containing it.  Each pass recomputes the three support sets from
    the current pair of the other two axes; the sets only ever grow, so
    the loop terminates.  ``max_iterations`` is a safety valve against
    implementation bugs, not a tuning knob.  ``cache`` memoizes the
    support queries — repeated closures over one dataset (e.g. RSM's
    Lemma-1 phase, result auditing) reuse each other's work.
    """
    if cube.is_empty():
        raise ValueError("cannot close an empty cube")
    if not is_all_ones(dataset, cube, cache=cache):
        raise ValueError("cannot close a cube that covers zero cells")
    heights, rows, columns = cube.heights, cube.rows, cube.columns
    for _ in range(max_iterations):
        new_heights = height_support(dataset, rows, columns, cache=cache)
        new_rows = row_support(dataset, new_heights, columns, cache=cache)
        new_columns = column_support(dataset, new_heights, new_rows, cache=cache)
        if (new_heights, new_rows, new_columns) == (heights, rows, columns):
            return Cube(heights, rows, columns)
        heights, rows, columns = new_heights, new_rows, new_columns
    raise RuntimeError("closure did not converge — this indicates a bug")
