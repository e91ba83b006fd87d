"""Closure checks for CubeMiner nodes (Lemmas 4 and 5).

Both checks ask the same question from two angles: does there exist an
element *outside* the node that the node's cells do not rule out?  If a
height ``h`` outside ``H'`` has no zero inside ``R' x C'``, then
``(H' + h, R', C')`` is a strictly larger complete cube and the node can
never become height-closed — prune it (Lemma 4).  Symmetrically for an
absent row (Lemma 5).

"``h`` has no zero inside ``R' x C'``" is exactly "``h`` supports
``R' x C'``", so both lemmas are one kernel support sweep restricted to
the elements outside the node: the node is closed iff no outside
candidate supports it.

CubeMiner's drain runs both tests lane-packed (:class:`LaneClosure`):
one big-int expression checks every outside element at once.  The
per-check kernel sweeps below are the reference the lane form is
tested against; the parallel task expansion and the tree tracer call
them directly.
"""

from __future__ import annotations

from ..core.bitset import full_mask, iter_bits
from ..core.dataset import Dataset3D

__all__ = ["LaneClosure", "height_set_closed", "row_set_closed"]


def height_set_closed(
    dataset: Dataset3D,
    heights: int,
    rows: int,
    columns: int,
) -> bool:
    """Lemma 4 (Hcheck): False when some absent height covers R' x C'."""
    outside = full_mask(dataset.n_heights) & ~heights
    return (
        dataset.kernel.grid_supporting_heights(
            dataset.ones_grid(), rows, columns, candidates=outside
        )
        == 0
    )


def row_set_closed(
    dataset: Dataset3D,
    heights: int,
    rows: int,
    columns: int,
) -> bool:
    """Lemma 5 (Rcheck): False when some absent row covers H' x C'."""
    outside = full_mask(dataset.n_rows) & ~rows
    return (
        dataset.kernel.grid_supporting_rows(
            dataset.ones_grid(), heights, columns, candidates=outside
        )
        == 0
    )


class LaneClosure:
    """Lane-packed Lemma 4-5 tests over one dataset, with their memos.

    With lane width ``L = m + 1`` (``m`` columns), ``zr[k]`` packs the
    zero-column masks of height ``k``'s rows (row ``i`` at bit offset
    ``i * L``) and ``zh[i]`` those of row ``i``'s heights (height ``k``
    at offset ``k * L``), so one big-int operation tests every row (or
    height) at once.

    Rcheck on ``(H', R', C')``: ``U`` is the OR of ``zr[k]`` over ``k in
    H'``, ``spread(C')`` copies ``C'`` into every lane, and ``s`` has one
    bit at the start of the lane of every row outside ``R'``.  Lane ``i``
    of ``U & spread(C')`` holds row ``i``'s zero columns inside ``H' x
    C'``.  Adding ``FILL`` (``2**m - 1`` in every lane) sets bit ``m`` of
    a lane iff the lane is non-zero, and no lane carries into the next:
    a lane holds at most ``(2**m - 1) + (2**m - 1) = 2**(m+1) - 2``.  The
    node is row-closed iff every outside row keeps a zero::

        ((U & spread(C')) + FILL) >> m & s == s

    The final ``& s`` ignores the lanes of rows inside ``R'``, so this is
    the same test as with ``C' * s`` (``C'`` in the outside lanes only)
    in place of ``spread(C')``; ``spread`` copies by doubling shifts,
    cheaper than that big-int multiplication on wide tensors.  Hcheck is
    the same test on ``zh``.  ``U`` is memoized by ``H'`` (Rcheck) or
    ``R'`` (Hcheck) and ``s`` by the opposite set; the memos live as
    long as the instance — one CubeMiner drain.

    :meth:`row_closed` / :meth:`height_closed` are the reference form of
    the test; the drain (:func:`repro.cubeminer.algorithm._run`) inlines
    it over the same memo dicts, builds ``spread(C')`` once per node and
    calls the ``*_union`` / ``outside_*`` builders on a miss.
    """

    __slots__ = (
        "m",
        "lane",
        "universe",
        "fill",
        "_doubling",
        "zr",
        "zh",
        "all_heights",
        "all_rows",
        "row_unions",
        "height_unions",
        "rows_outside",
        "heights_outside",
    )

    def __init__(self, dataset: Dataset3D) -> None:
        m = dataset.n_columns
        lane = m + 1
        universe = full_mask(m)
        zeros = [
            [universe & ~mask for mask in per_height]
            for per_height in dataset.ones_masks()
        ]
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
        #: Rcheck unions by ``H'`` and Hcheck unions by ``R'``.
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

    def row_closed(self, heights: int, rows: int, columns: int) -> bool:
        """Lemma 5 (Rcheck), lane-packed; equals :func:`row_set_closed`."""
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
        """Lemma 4 (Hcheck), lane-packed; equals :func:`height_set_closed`."""
        union = self.height_unions.get(rows)
        if union is None:
            union = self.height_union(rows)
        spots = self.heights_outside.get(heights)
        if spots is None:
            spots = self.outside_heights(heights)
        return (
            (union & self.spread(columns)) + self.fill
        ) >> self.m & spots == spots
