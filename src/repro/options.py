"""Typed per-algorithm option dataclasses for :func:`repro.api.mine`.

Instead of loose ``**options`` keywords (still accepted, but
deprecated), callers pass one frozen dataclass matching the selected
algorithm::

    from repro import mine, CubeMinerOptions, HeightOrder

    result = mine(
        dataset, thresholds,
        algorithm="cubeminer",
        options=CubeMinerOptions(order=HeightOrder.ORIGINAL),
    )

Each class knows which algorithms it configures (``algorithms``) and
renders itself into the keyword arguments of the target mining function
with :meth:`to_kwargs`.  Passing an options object to an algorithm it
does not configure raises :class:`TypeError` — mismatches fail loudly
instead of silently ignoring knobs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import ClassVar, Union

from .cubeminer.cutter import HeightOrder

__all__ = [
    "CubeMinerOptions",
    "RSMOptions",
    "ParallelOptions",
    "ReferenceOptions",
    "AlgorithmOptions",
    "options_class_for",
    "options_from_dict",
    "options_to_dict",
]


class _OptionsBase:
    """Shared validation: an options object names its algorithms."""

    #: Algorithm names this options class configures.
    algorithms: ClassVar[tuple[str, ...]] = ()

    def _check(self, algorithm: str) -> None:
        if algorithm not in self.algorithms:
            raise TypeError(
                f"{type(self).__name__} configures {self.algorithms}, "
                f"not algorithm {algorithm!r}"
            )


@dataclass(frozen=True)
class CubeMinerOptions(_OptionsBase):
    """Options for the sequential CubeMiner (Section 5)."""

    algorithms: ClassVar[tuple[str, ...]] = ("cubeminer",)

    #: Height-slice ordering heuristic for the cutter list.
    order: HeightOrder = HeightOrder.ZERO_DECREASING

    def to_kwargs(self, algorithm: str = "cubeminer") -> dict:
        self._check(algorithm)
        return {"order": self.order}


@dataclass(frozen=True)
class RSMOptions(_OptionsBase):
    """Options for the sequential RSM framework (Section 4)."""

    algorithms: ClassVar[tuple[str, ...]] = ("rsm",)

    #: Dimension to enumerate: ``"height"``/``"row"``/``"column"``, an
    #: axis index, or ``"auto"`` for the smallest dimension.
    base_axis: int | str = "height"
    #: Registry name of the 2D closed-pattern miner for phase 2.
    fcp_miner: str = "dminer"

    def to_kwargs(self, algorithm: str = "rsm") -> dict:
        self._check(algorithm)
        return {"base_axis": self.base_axis, "fcp_miner": self.fcp_miner}


@dataclass(frozen=True)
class ParallelOptions(_OptionsBase):
    """Options for both parallel variants (Section 6).

    Carries the union of both algorithms' knobs; :meth:`to_kwargs`
    selects the subset the chosen variant understands (``order`` /
    ``min_tasks`` are CubeMiner-only, ``base_axis`` / ``fcp_miner`` are
    RSM-only).
    """

    algorithms: ClassVar[tuple[str, ...]] = ("parallel-cubeminer", "parallel-rsm")

    #: Worker process count (1 falls back to inline execution).
    n_workers: int = 2
    #: Task chunks handed to each worker (load-balancing granularity).
    chunks_per_worker: int = 4
    #: Partition the enumerated dimension's task space into this many
    #: independently minable shards (results merge with closure
    #: re-validation at the shard boundary).
    shards: int = 1
    #: Dimension to shard along: must match the enumerated base
    #: dimension for parallel-rsm; parallel-cubeminer only accepts
    #: ``"auto"`` (its frontier has no named axis).
    shard_dim: int | str = "auto"
    #: Dataset transport: ``None`` auto-selects shared memory for pooled
    #: runs, ``True`` forces it, ``False`` keeps the pickled copy path.
    use_shm: bool | None = None
    #: parallel-cubeminer: cutter ordering heuristic.
    order: HeightOrder = HeightOrder.ZERO_DECREASING
    #: parallel-cubeminer: frontier size floor for task expansion
    #: (``None`` = ``8 * n_workers``).
    min_tasks: int | None = None
    #: parallel-rsm: base dimension to enumerate.
    base_axis: int | str = "auto"
    #: parallel-rsm: 2D miner name for phase 2.
    fcp_miner: str = "dminer"
    #: Retry budget per task chunk beyond the first attempt.
    retries: int = 2
    #: Per-chunk wall-clock timeout in seconds (``None`` = none); a
    #: chunk past it is treated as hung and the pool is re-spawned.
    task_timeout: float | None = None
    #: Base delay (seconds) of the exponential retry backoff.
    backoff: float = 0.1
    #: Path of the chunk-level checkpoint journal (``None`` = off).
    checkpoint_path: str | None = None
    #: Resume from ``checkpoint_path`` instead of truncating it.
    resume: bool = False

    def to_kwargs(self, algorithm: str = "parallel-cubeminer") -> dict:
        self._check(algorithm)
        kwargs = {
            "n_workers": self.n_workers,
            "chunks_per_worker": self.chunks_per_worker,
            "shards": self.shards,
            "shard_dim": self.shard_dim,
            "use_shm": self.use_shm,
            "retries": self.retries,
            "task_timeout": self.task_timeout,
            "backoff": self.backoff,
            "checkpoint_path": self.checkpoint_path,
            "resume": self.resume,
        }
        if algorithm == "parallel-cubeminer":
            kwargs["order"] = self.order
            kwargs["min_tasks"] = self.min_tasks
        else:
            kwargs["base_axis"] = self.base_axis
            kwargs["fcp_miner"] = self.fcp_miner
        return kwargs


@dataclass(frozen=True)
class ReferenceOptions(_OptionsBase):
    """Options for the brute-force oracle (it has no knobs)."""

    algorithms: ClassVar[tuple[str, ...]] = ("reference",)

    def to_kwargs(self, algorithm: str = "reference") -> dict:
        self._check(algorithm)
        return {}


#: Any typed options object accepted by :func:`repro.api.mine`.
AlgorithmOptions = Union[
    CubeMinerOptions, RSMOptions, ParallelOptions, ReferenceOptions
]

_OPTION_CLASSES: tuple[type, ...] = (
    CubeMinerOptions,
    RSMOptions,
    ParallelOptions,
    ReferenceOptions,
)


def options_class_for(algorithm: str) -> type:
    """The typed options class configuring ``algorithm``.

    Covers the built-in option classes only; third-party algorithms
    registered through :func:`repro.api.register_algorithm` carry their
    own ``options_type`` on the registry spec.
    """
    for cls in _OPTION_CLASSES:
        if algorithm in cls.algorithms:
            return cls
    raise ValueError(f"no built-in options class configures {algorithm!r}")


def options_from_dict(algorithm: str, payload: dict | None) -> AlgorithmOptions:
    """Build the typed options object for ``algorithm`` from a JSON dict.

    This is the wire-to-dataclass step of the service API: a request's
    ``options`` object (plain JSON — enum fields as their string values)
    becomes the same frozen dataclass a library caller would construct.
    Unknown keys raise :class:`ValueError` so typos fail loudly.
    """
    cls = options_class_for(algorithm)
    payload = dict(payload or {})
    known = {f.name: f for f in fields(cls)}
    unknown = set(payload) - set(known)
    if unknown:
        raise ValueError(
            f"unknown option key(s) {sorted(unknown)} for {cls.__name__} "
            f"(algorithm {algorithm!r}); valid keys: {sorted(known)}"
        )
    kwargs = {}
    for name, value in payload.items():
        if name == "order" and not isinstance(value, HeightOrder):
            value = HeightOrder(value)
        kwargs[name] = value
    return cls(**kwargs)


def options_to_dict(options: AlgorithmOptions) -> dict:
    """Render a typed options object as a JSON-ready dict.

    The inverse of :func:`options_from_dict`: enum fields serialize to
    their string values, everything else is already JSON-native.
    """
    payload = asdict(options)  # type: ignore[call-overload]
    return {
        name: value.value if isinstance(value, Enum) else value
        for name, value in payload.items()
    }
