"""Representative Slice Mining: FCCs via 2D FCP miners (Section 4)."""

from .algorithm import RSMMiner, resolve_base_axis, rsm_mine
from .postprune import height_closed_in
from .slices import (
    count_height_subsets,
    enumerate_height_subsets,
    iter_representative_slices,
    representative_slice,
)

__all__ = [
    "RSMMiner",
    "rsm_mine",
    "resolve_base_axis",
    "height_closed_in",
    "count_height_subsets",
    "enumerate_height_subsets",
    "iter_representative_slices",
    "representative_slice",
]
