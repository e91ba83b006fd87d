"""Turn a measured run into metrics: summaries, the environment stamp, output.

The metric names and units are the ones ``BENCHMARK.json`` declares;
``run.py`` emits exactly its ``end_to_end`` set untraced and exactly its
``per_layer`` set traced, on every workload.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Metrics a user sees, one value per run, on every workload: name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

#: Per-layer metrics of the traced run: name -> unit.  A layer a workload
#: does not exercise reads 0 there (e.g. cubeminer.* on mine-rsm).
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Ladder of percentiles a tail is chosen from.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if values else None,
           "tail": None, "tail_pct": None, "beyond_tail": 0}
    for pct in TAIL_LADDER:
        beyond = int(n * (1 - pct / 100))
        if beyond >= 10:
            out.update(
                tail=statistics.quantiles(values, n=1000, method="inclusive")[
                    round(pct * 10) - 1
                ],
                tail_pct=pct,
                beyond_tail=beyond,
            )
            break
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment(kernel: str, nproc: int) -> dict:
    """What a comparison between two result sets must hold equal."""
    return {
        "kernel": kernel,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": nproc,
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
    }


def median_of(rows: list[dict], key: str) -> float:
    values = [row[key] for row in rows if key in row]
    return float(statistics.median(values)) if values else 0.0


def input_mean(values: list[float], inputs: list[int]) -> float:
    """Mean over the run's inputs of the median time on each."""
    by_input: dict[int, list[float]] = {}
    for value, index in zip(values, inputs):
        by_input.setdefault(index, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def per_layer(run, setup_trials: list[dict], slowdown: float) -> dict:
    layers = {name: median_of(run.layers, name) for name in PER_LAYER}
    steps = run.steps
    for name, step in (
        ("service.cold_job_s_p50", "cold"),
        ("service.cached_query_s_p50", "cached"),
        ("stream.update_s_p50", "update"),
    ):
        layers[name] = statistics.median(steps[step]) if step in steps else 0.0
    layers["stream.post_update_cache_misses"] = run.post_update_cache_misses
    for phase in ("import_s", "input_s", "daemon_ready_s"):
        layers[f"setup.{phase}"] = median_of(setup_trials, phase)
    untraced = input_mean(run.op_scaled, run.op_inputs)
    traced = input_mean(run.traced_scaled, run.traced_inputs)
    layers["trace.overhead_share"] = (traced - untraced) / untraced
    for key in ("root_share", "self_sum_share"):
        layers[f"trace.{key}"] = median_of(run.coverage, key)
    layers["wall.op_s_p50"] = input_mean(run.op_seconds, run.op_inputs)
    layers["wall.slowdown"] = slowdown
    layers["error_rate"] = run.failed / run.attempted if run.attempted else 1.0
    return layers


def end_to_end(run, setup_trials: list[dict]) -> dict:
    """Times are scaled to the reference CPU speed (speed.py).

    ``op_s_p50`` is the median op time; a mine-* run, which takes
    several inputs in turn, reports the mean of their medians.
    """
    return {
        "setup_s": statistics.median(t["setup_scaled_s"] for t in setup_trials),
        "op_s_p50": input_mean(run.op_scaled, run.op_inputs),
        "peak_rss_mb": peak_rss_mb(),
    }


def design_table(run, setup_trials: list[dict]) -> list[tuple[str, str, str]]:
    """The eleven user-visible metrics of the design, as measured (unscaled).

    ``n/a`` where the workload has no such op, or too few samples for a tail.
    """
    is_mine = run.workload.startswith("mine-")
    least = min(10 / (1 - pct / 100) for pct in TAIL_LADDER)

    def timing(values, tail=False):
        if not values:
            return "n/a"
        s = summary(values)
        if not tail:
            return f"{s['p50']:.4f}  (n={s['n']})"
        if s["tail"] is None:
            return f"n/a (n={s['n']}; a tail needs >= {least:.0f} samples)"
        return f"{s['tail']:.4f}  (p{s['tail_pct']:g}, {s['beyond_tail']} beyond, n={s['n']})"

    ops = run.op_seconds
    steps = run.steps
    rate = run.failed / run.attempted if run.attempted else 1.0
    setup = statistics.median(t["setup_s"] for t in setup_trials)
    return [
        ("setup_s", "s", f"{setup:.4f}  (median of {len(setup_trials)})"),
        ("mine_s_p50", "s", timing(ops if is_mine else [])),
        ("mine_s_tail", "s", timing(ops if is_mine else [], True)),
        ("session_s_p50", "s", timing([] if is_mine else ops)),
        ("cold_job_s_p50", "s", timing(steps.get("cold", []))),
        ("cold_job_s_tail", "s", timing(steps.get("cold", []), True)),
        ("cached_query_s_p50", "s", timing(steps.get("cached", []))),
        ("cached_query_s_tail", "s", timing(steps.get("cached", []), True)),
        ("update_s_p50", "s", timing(steps.get("update", []))),
        ("error_rate", "ratio", f"{rate:.4f}  ({run.failed}/{run.attempted})"),
        ("peak_rss_mb", "MB", f"{peak_rss_mb():.1f}"),
    ]
