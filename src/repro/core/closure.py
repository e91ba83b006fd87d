"""Closure operators on 3D binary datasets.

These implement the paper's support-set operators (Definition 3.1):

* ``H(R' x C')`` — the maximal set of heights simultaneously containing
  the rows ``R'`` and columns ``C'`` (:func:`height_support`),
* ``R(H' x C')`` — :func:`row_support`,
* ``C(H' x R')`` — :func:`column_support`,

together with the closed-cube predicate of Definition 3.2 and a fixpoint
``close`` operator that grows a seed cube to a closed one.

All set arguments and return values are integer bitmasks
(see :mod:`repro.core.bitset`).  The module-level functions run one fold
or subset sweep over the dataset's (height, row) mask grid per call, on
the dataset's kernel backend (:mod:`repro.core.kernels`); they are the
reference.  :class:`LaneClosure` answers the same questions for one
dataset with lane-packed big-int tests and memos; the miners, the
stream maintainer and the shard merge build one per run and ask it
every in-memory closure question.
"""

from __future__ import annotations

from .bitset import full_mask, is_subset, iter_bits
from .cube import Cube
from .dataset import Dataset3D

__all__ = [
    "LaneClosure",
    "column_support",
    "row_support",
    "height_support",
    "is_all_ones",
    "is_closed_cube",
    "close",
]


def column_support(dataset: Dataset3D, heights: int, rows: int) -> int:
    """Return ``C(R' x H')``: columns that are 1 on every (height, row) pair.

    For empty ``heights`` or ``rows`` the intersection runs over an empty
    family and therefore returns the full column universe; callers that
    need a different convention must special-case empty inputs.
    """
    return dataset.kernel.grid_fold_and(
        dataset.ones_grid(), heights, rows, dataset.n_columns
    )


def height_support(dataset: Dataset3D, rows: int, columns: int) -> int:
    """Return ``H(R' x C')``: heights whose slices are all-ones on R' x C'."""
    return dataset.kernel.grid_supporting_heights(dataset.ones_grid(), rows, columns)


def row_support(dataset: Dataset3D, heights: int, columns: int) -> int:
    """Return ``R(H' x C')``: rows that are all-ones on H' x C'."""
    return dataset.kernel.grid_supporting_rows(dataset.ones_grid(), heights, columns)


def is_all_ones(dataset: Dataset3D, cube: Cube) -> bool:
    """True when every cell covered by ``cube`` holds 1 (a *complete* cube)."""
    return is_subset(cube.columns, column_support(dataset, cube.heights, cube.rows))


def is_closed_cube(dataset: Dataset3D, cube: Cube) -> bool:
    """Definition 3.2: the cube is complete and maximal in all three axes.

    Empty cubes are never closed here: the paper's support thresholds are
    at least 1 in any meaningful configuration, and treating the empty
    cube as closed would only complicate every caller.
    """
    if cube.is_empty():
        return False
    if not is_all_ones(dataset, cube):
        return False
    return (
        cube.heights == height_support(dataset, cube.rows, cube.columns)
        and cube.rows == row_support(dataset, cube.heights, cube.columns)
        and cube.columns == column_support(dataset, cube.heights, cube.rows)
    )


def close(dataset: Dataset3D, cube: Cube, max_iterations: int = 64) -> Cube:
    """Grow ``cube`` to a fixpoint of the three support operators.

    The input must be complete (all ones); the result is then a closed
    cube containing it.  Each pass recomputes the three support sets from
    the current pair of the other two axes; the sets only ever grow, so
    the loop terminates.  ``max_iterations`` is a safety valve against
    implementation bugs, not a tuning knob.
    """
    if cube.is_empty():
        raise ValueError("cannot close an empty cube")
    if not is_all_ones(dataset, cube):
        raise ValueError("cannot close a cube that covers zero cells")
    heights, rows, columns = cube.heights, cube.rows, cube.columns
    for _ in range(max_iterations):
        new_heights = height_support(dataset, rows, columns)
        new_rows = row_support(dataset, new_heights, columns)
        new_columns = column_support(dataset, new_heights, new_rows)
        if (new_heights, new_rows, new_columns) == (heights, rows, columns):
            return Cube(heights, rows, columns)
        heights, rows, columns = new_heights, new_rows, new_columns
    raise RuntimeError("closure did not converge — this indicates a bug")


class LaneClosure:
    """Lane-packed support sets and closure tests over one dataset.

    With lane width ``L = m + 1`` (``m`` columns), ``zr[k]`` packs the
    zero-column masks of height ``k``'s rows (row ``i`` at bit offset
    ``i * L``) and ``zh[i]`` those of row ``i``'s heights (height ``k``
    at offset ``k * L``), so one big-int operation tests every row (or
    height) at once.

    For ``R(H' x C')``: ``U`` is the OR of ``zr[k]`` over ``k in H'`` and
    ``spread(C')`` copies ``C'`` into every lane, so lane ``i`` of ``U &
    spread(C')`` holds row ``i``'s zero columns inside ``H' x C'``.
    Adding ``FILL`` (``2**m - 1`` in every lane) sets bit ``m`` of a lane
    iff the lane is non-zero, and no lane carries into the next: a lane
    holds at most ``(2**m - 1) + (2**m - 1) = 2**(m+1) - 2``.  The rows
    whose lane stays zero are the support set (:meth:`row_support`).
    Lemma 5 (Rcheck) only asks whether every row outside ``R'`` keeps a
    zero; with ``s`` one bit at the start of the lane of every outside
    row::

        ((U & spread(C')) + FILL) >> m & s == s

    The final ``& s`` ignores the lanes of rows inside ``R'``, so this is
    the same test as with ``C' * s`` (``C'`` in the outside lanes only)
    in place of ``spread(C')``; ``spread`` copies by doubling shifts,
    cheaper than that big-int multiplication on wide tensors.
    ``H(R' x C')`` and Lemma 4 (Hcheck, RSM's Lemma 1) are the same
    expressions on ``zh``.  ``C(H' x R')`` folds the ones masks.

    ``U`` is memoized by ``H'`` (row side) or ``R'`` (height side) and
    ``s`` by the opposite set; the memos live as long as the instance —
    one run.  The tables hold the whole tensor, so out-of-core mining
    keeps the kernel sweeps.  CubeMiner's drain
    (:func:`repro.cubeminer.algorithm._run`) inlines the two Lemma tests
    over the same memo dicts and calls the ``*_union`` / ``outside_*``
    builders on a miss.
    """

    __slots__ = (
        "m",
        "lane",
        "universe",
        "fill",
        "_doubling",
        "ones",
        "zr",
        "zh",
        "all_heights",
        "all_rows",
        "_height_starts",
        "_row_starts",
        "row_unions",
        "height_unions",
        "rows_outside",
        "heights_outside",
    )

    def __init__(self, dataset: Dataset3D) -> None:
        m = dataset.n_columns
        lane = m + 1
        universe = full_mask(m)
        self.ones = dataset.ones_masks()
        zeros = [[universe & ~mask for mask in per_height] for per_height in self.ones]
        self.m = m
        self.lane = lane
        self.universe = universe
        lanes = max(dataset.n_heights, dataset.n_rows)
        self.fill = universe * sum(1 << (j * lane) for j in range(lanes))
        # Shifts that copy lane 0 into 2, 4, 8, ... >= ``lanes`` lanes.
        self._doubling = []
        copies = 1
        while copies < lanes:
            self._doubling.append(copies * lane)
            copies *= 2
        self.zr = [
            sum(zero << (i * lane) for i, zero in enumerate(per_height))
            for per_height in zeros
        ]
        self.zh = [
            sum(zeros[k][i] << (k * lane) for k in range(dataset.n_heights))
            for i in range(dataset.n_rows)
        ]
        self.all_heights = full_mask(dataset.n_heights)
        self.all_rows = full_mask(dataset.n_rows)
        self._height_starts = self._lane_starts(self.all_heights)
        self._row_starts = self._lane_starts(self.all_rows)
        #: Row-side unions by ``H'`` and height-side unions by ``R'``.
        self.row_unions: dict[int, int] = {}
        self.height_unions: dict[int, int] = {}
        #: Lane starts of the rows outside ``R'`` / heights outside ``H'``.
        self.rows_outside: dict[int, int] = {}
        self.heights_outside: dict[int, int] = {}

    def row_union(self, heights: int) -> int:
        """Build and memoize ``U`` for Rcheck: OR of ``zr[k]``, ``k in H'``."""
        union = 0
        zr = self.zr
        rest = heights
        while rest:
            low = rest & -rest
            union |= zr[low.bit_length() - 1]
            rest ^= low
        self.row_unions[heights] = union
        return union

    def height_union(self, rows: int) -> int:
        """Build and memoize ``U`` for Hcheck: OR of ``zh[i]``, ``i in R'``."""
        union = 0
        zh = self.zh
        rest = rows
        while rest:
            low = rest & -rest
            union |= zh[low.bit_length() - 1]
            rest ^= low
        self.height_unions[rows] = union
        return union

    def outside_rows(self, rows: int) -> int:
        """Build and memoize ``s`` for Rcheck: lane starts of rows not in ``R'``."""
        spots = self._lane_starts(self.all_rows & ~rows)
        self.rows_outside[rows] = spots
        return spots

    def outside_heights(self, heights: int) -> int:
        """Build and memoize ``s`` for Hcheck: lane starts of heights not in ``H'``."""
        spots = self._lane_starts(self.all_heights & ~heights)
        self.heights_outside[heights] = spots
        return spots

    def spread(self, columns: int) -> int:
        """``columns`` copied into every lane (and possibly a few beyond:
        those meet no lane of a union, so they never matter)."""
        for shift in self._doubling:
            columns |= columns << shift
        return columns

    def _lane_starts(self, members: int) -> int:
        lane = self.lane
        spots = 0
        for j in iter_bits(members):
            spots |= 1 << (j * lane)
        return spots

    def _zero_lanes(self, masked: int, starts: int) -> int:
        """Members (given by their lane ``starts``) whose lane of ``masked``
        is zero, as a plain bitmask."""
        zero = starts & ~((masked + self.fill) >> self.m)
        lane = self.lane
        members = 0
        while zero:
            low = zero & -zero
            members |= 1 << ((low.bit_length() - 1) // lane)
            zero ^= low
        return members

    def height_support(self, rows: int, columns: int) -> int:
        """``H(R' x C')``; equals :func:`height_support`."""
        union = self.height_unions.get(rows)
        if union is None:
            union = self.height_union(rows)
        return self._zero_lanes(union & self.spread(columns), self._height_starts)

    def row_support(self, heights: int, columns: int) -> int:
        """``R(H' x C')``; equals :func:`row_support`."""
        union = self.row_unions.get(heights)
        if union is None:
            union = self.row_union(heights)
        return self._zero_lanes(union & self.spread(columns), self._row_starts)

    def column_support(self, heights: int, rows: int) -> int:
        """``C(H' x R')``; equals :func:`column_support`."""
        acc = self.universe
        ones = self.ones
        for k in iter_bits(heights):
            per_height = ones[k]
            for i in iter_bits(rows):
                acc &= per_height[i]
                if acc == 0:
                    return 0
        return acc

    def row_closed(self, heights: int, rows: int, columns: int) -> bool:
        """Lemma 5 (Rcheck): no row outside ``R'`` covers ``H' x C'``."""
        union = self.row_unions.get(heights)
        if union is None:
            union = self.row_union(heights)
        spots = self.rows_outside.get(rows)
        if spots is None:
            spots = self.outside_rows(rows)
        return (
            (union & self.spread(columns)) + self.fill
        ) >> self.m & spots == spots

    def height_closed(self, heights: int, rows: int, columns: int) -> bool:
        """Lemma 4 (Hcheck) and RSM's Lemma 1: no height outside ``H'``
        covers ``R' x C'``."""
        union = self.height_unions.get(rows)
        if union is None:
            union = self.height_union(rows)
        spots = self.heights_outside.get(heights)
        if spots is None:
            spots = self.outside_heights(heights)
        return (
            (union & self.spread(columns)) + self.fill
        ) >> self.m & spots == spots

    def is_closed(self, heights: int, rows: int, columns: int) -> bool:
        """Definition 3.2; equals :func:`is_closed_cube`.

        ``C' == C(H' x R')`` makes the cube complete and column-maximal;
        a complete cube is height- (row-) maximal iff no outside height
        (row) covers it, which is Lemma 4 (5).
        """
        return (
            heights != 0
            and rows != 0
            and columns != 0
            and columns == self.column_support(heights, rows)
            and self.height_closed(heights, rows, columns)
            and self.row_closed(heights, rows, columns)
        )

    def close(
        self, heights: int, rows: int, columns: int, max_iterations: int = 64
    ) -> Cube:
        """The fixpoint :func:`close` reaches from the seed ``(H', R', C')``."""
        if heights == 0 or rows == 0 or columns == 0:
            raise ValueError("cannot close an empty cube")
        if not is_subset(columns, self.column_support(heights, rows)):
            raise ValueError("cannot close a cube that covers zero cells")
        for _ in range(max_iterations):
            new_heights = self.height_support(rows, columns)
            new_rows = self.row_support(new_heights, columns)
            new_columns = self.column_support(new_heights, new_rows)
            if (new_heights, new_rows, new_columns) == (heights, rows, columns):
                return Cube(heights, rows, columns)
            heights, rows, columns = new_heights, new_rows, new_columns
        raise RuntimeError("closure did not converge — this indicates a bug")
