"""Cost-based algorithm choice: ``mine(..., algorithm="auto")``.

The paper's evaluation (Section 7, Figures 3-5) says RSM should
enumerate the smallest dimension, and that CubeMiner catches up as the
thresholds rise.  :func:`plan` turns that advice into numbers: it
estimates the wall time of CubeMiner and of RSM over each axis, and
picks the cheapest.  Its features are the shape, the number of ones and
the thresholds — what the service's dataset registry already stores —
so planning never reads the tensor.

Both estimates are log-linear in a handful of features (seconds):

* RSM over a base axis of size ``N``:
  ``log t = w0 + w1·log S + w2·log M + w3·fp + w4·fq``, where ``S`` is
  the number of base subsets of a feasible size (at least the axis
  threshold, and able to reach ``min_volume``), ``M = Σ C(N,k)·d^k·P·Q``
  the expected number of ones summed over their representative slices
  at density ``d`` (``P x Q`` is the slice shape), and ``fp``/``fq``
  the other two thresholds as fractions of their axes.
* CubeMiner: ``log t = c0 + c1·minH/l + c2·minR/n + c3·minC/m +
  c4·log(ones)``.

:data:`COST_MODEL` holds the weights, fitted by ``python
benchmarks/bench_plan.py --fit`` on the 35 points of the Figure 3-5
sweeps plus the perfbench input family (14 x 9 x 250 planted tensors at
the service-session and mine-* thresholds); ``BENCH_plan.json`` records
how the choice compares with each algorithm on those points.  The fit
holds near those inputs only, and off them the CubeMiner estimate is
wrong by orders of magnitude (on a 12 x 48 x 72 tensor at density 0.1
it reads 11 s for a 0.09 s mine).  So :func:`plan` first checks the
input against the fit's domain, ``COST_MODEL["domain"]``: the range
each of the shape, the three threshold fractions and ``log(ones)``
spans in the fit, widened by :data:`DOMAIN_MARGIN` of its width on
each side.  Outside it, the plan is CubeMiner, the algorithm the
service mined with before the planner existed, with no estimate
(``est_cost`` is ``None``).  Fitting on off-domain tensors too does not
help: the same log-linear form then mispicks the Figure 3 and 5 points.

:func:`repro.stream.maintain` asks the same model whether patching an
old result costs more than re-mining the edited tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb

from .core.constraints import Thresholds
from .core.dataset import AXIS_NAMES

__all__ = [
    "COST_MODEL", "DOMAIN_MARGIN", "Plan", "feasible_sizes", "in_domain", "plan"
]

#: Fitted weights of the two log-linear cost models (module docstring).
COST_MODEL = {
    "rsm": (-7.6722, 0.6243, 0.185, -1.5593, -6.872),
    "cubeminer": (38.5568, -2.7495, -8.7624, -42.5985, -3.3826),
    #: heights, rows, columns, minH/l, minR/n, minC/m, log(ones)
    "domain": (
        (14, 19), (9, 9), (250, 250),
        (0.1428, 0.6429), (0.2222, 0.7778), (0.04, 0.224), (9.2025, 9.9083),
    ),
}

#: Share of a domain range's width it is widened by on each side.
DOMAIN_MARGIN = 0.1

#: RSM is not considered over an axis longer than this (2^40 subsets).
MAX_RSM_AXIS = 40


@dataclass(frozen=True)
class Plan:
    """The chosen algorithm, its JSON options, and why it was chosen."""

    algorithm: str
    options: dict = field(default_factory=dict)
    #: Shape, ones, density, thresholds, per-axis subset counts and the
    #: estimated seconds of every candidate (``est_s``).
    features: dict = field(default_factory=dict)
    #: Estimated seconds of the chosen algorithm; ``None`` outside the
    #: cost model's domain.
    est_cost: float | None = 0.0

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "options": dict(self.options),
            "est_cost": self.est_cost,
            "features": dict(self.features),
        }


def feasible_sizes(
    size: int, minimum: int, slice_cells: int, min_volume: int
) -> range:
    """Base-subset sizes RSM enumerates: at least ``minimum`` members,
    and large enough that ``k * slice_cells`` reaches ``min_volume``."""
    smallest = max(minimum, 1, -(-min_volume // max(slice_cells, 1)))
    return range(smallest, size + 1)


def rsm_features(
    shape: tuple[int, int, int], mins: tuple[int, int, int, int],
    density: float, axis: int,
) -> tuple[int, list[float]]:
    """``(S, [1, log S, log M, fp, fq])`` of RSM over ``axis`` (module
    docstring); ``S`` is 0, with no features, when no size is feasible."""
    p, q = (a for a in range(3) if a != axis)
    size, slice_cells = shape[axis], shape[p] * shape[q]
    sizes = feasible_sizes(size, mins[axis], slice_cells, mins[3])
    subsets = sum(comb(size, k) for k in sizes)
    if subsets == 0:
        return 0, []
    mass = sum(comb(size, k) * density**k for k in sizes) * slice_cells
    return subsets, [
        1.0,
        math.log(subsets),
        math.log(max(mass, 1e-300)),
        mins[p] / shape[p],
        mins[q] / shape[q],
    ]


def cubeminer_features(
    shape: tuple[int, int, int], mins: tuple[int, int, int, int], n_ones: int
) -> list[float]:
    """``[1, minH/l, minR/n, minC/m, log(ones)]`` (module docstring)."""
    return [1.0, *(mins[a] / shape[a] for a in range(3)), math.log(n_ones)]


def _estimate(weights, features: list[float]) -> float:
    return math.exp(sum(w * x for w, x in zip(weights, features)))


def in_domain(shape, mins, n_ones: int) -> bool:
    """Whether the input lies in ``COST_MODEL["domain"]`` (module
    docstring), each range widened by :data:`DOMAIN_MARGIN`."""
    values = [*shape, *cubeminer_features(shape, mins, n_ones)[1:]]
    for value, (low, high) in zip(values, COST_MODEL["domain"]):
        slack = DOMAIN_MARGIN * (high - low)
        if not low - slack <= value <= high + slack:
            return False
    return True


def plan(shape, n_ones: int, thresholds: Thresholds) -> Plan:
    """Choose CubeMiner or RSM (and its base axis) for one mine.

    ``shape`` is ``(heights, rows, columns)`` and ``n_ones`` the number
    of one-cells.  Thresholds no cube can meet, and an all-zero tensor,
    plan CubeMiner at zero cost: it returns at once.  An input outside
    the cost model's domain plans CubeMiner with no estimate.
    """
    l, n, m = (int(size) for size in shape)
    shape = (l, n, m)
    cells = l * n * m
    density = n_ones / cells if cells else 0.0
    mins = (*thresholds.as_tuple(), thresholds.min_volume)
    features: dict = {
        "shape": list(shape),
        "n_ones": int(n_ones),
        "density": round(density, 6),
        "thresholds": list(mins),
    }
    if n_ones == 0 or not thresholds.feasible_for_shape(shape):
        features["est_s"] = {"cubeminer": 0.0}
        return Plan("cubeminer", {}, features, 0.0)
    features["in_domain"] = in_domain(shape, mins, n_ones)
    if not features["in_domain"]:
        return Plan("cubeminer", {}, features, None)
    estimates = {
        "cubeminer": _estimate(
            COST_MODEL["cubeminer"], cubeminer_features(shape, mins, n_ones)
        )
    }
    subsets: dict = {}
    for axis, name in enumerate(AXIS_NAMES):
        if shape[axis] > MAX_RSM_AXIS:
            subsets[name] = None
            continue
        subsets[name], features_rsm = rsm_features(shape, mins, density, axis)
        if subsets[name]:
            estimates[f"rsm-{name}"] = _estimate(COST_MODEL["rsm"], features_rsm)
    features["subsets"] = subsets
    features["est_s"] = {key: round(value, 6) for key, value in estimates.items()}
    choice = min(estimates, key=lambda key: (estimates[key], key))
    if choice == "cubeminer":
        return Plan("cubeminer", {}, features, estimates[choice])
    base_axis = choice[len("rsm-"):]
    return Plan("rsm", {"base_axis": base_axis}, features, estimates[choice])


def plan_mine(dataset, thresholds: Thresholds, **kwargs):
    """The ``"auto"`` registry entry: plan, then mine with the choice.

    ``kwargs`` are the instrumentation keywords of
    :func:`repro.api.mine`; the plan lands in ``stats.extra["plan"]``.
    """
    from .api import get_algorithm
    from .options import options_from_dict

    chosen = plan(dataset.shape, dataset.count_ones(), thresholds)
    options = options_from_dict(chosen.algorithm, chosen.options)
    miner = get_algorithm(chosen.algorithm).resolve()
    result = miner(
        dataset, thresholds, **options.to_kwargs(chosen.algorithm), **kwargs
    )
    result.stats.extra["plan"] = chosen.to_dict()
    return result
