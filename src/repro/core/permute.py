"""Axis-permutation helpers shared by RSM and the top-level API.

An axis ``order`` is a tuple where ``order[new_axis] == old_axis``,
matching :meth:`repro.core.dataset.Dataset3D.transpose`.  Mining on a
transposed tensor yields cubes in the transposed index space; these
helpers map them back.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from .cube import Cube

__all__ = [
    "cube_builder",
    "inverse_order",
    "map_cube_from_transposed",
    "order_moving_axis_first",
]


def inverse_order(order: tuple[int, int, int]) -> tuple[int, int, int]:
    """Return ``inv`` with ``inv[old_axis] == new_axis``."""
    if sorted(order) != [0, 1, 2]:
        raise ValueError(f"order {order!r} is not a permutation of the 3 axes")
    inv = [0, 0, 0]
    for new_axis, old_axis in enumerate(order):
        inv[old_axis] = new_axis
    return tuple(inv)  # type: ignore[return-value]


def cube_builder(order: tuple[int, int, int]) -> Callable[[int, int, int], Cube]:
    """A ``build(a, b, c) -> Cube`` for masks found in a transposed dataset.

    The permutation is resolved once here, so a miner can build each
    result cube once, directly in the original axis order.
    """
    if order == (0, 1, 2):
        return Cube
    pick = itemgetter(*inverse_order(order))

    def build(a: int, b: int, c: int) -> Cube:
        return Cube(*pick((a, b, c)))

    return build


def map_cube_from_transposed(cube: Cube, order: tuple[int, int, int]) -> Cube:
    """Map a cube found in a transposed dataset back to original axes."""
    return cube_builder(order)(cube.heights, cube.rows, cube.columns)


def order_moving_axis_first(axis: int) -> tuple[int, int, int]:
    """An order that brings ``axis`` to position 0, others in place."""
    if axis == 0:
        return (0, 1, 2)
    if axis == 1:
        return (1, 0, 2)
    if axis == 2:
        return (2, 0, 1)
    raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
