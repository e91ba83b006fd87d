"""Planner benchmark: does ``algorithm="auto"`` pick the faster miner?

For each of the 35 points of the Figure 3-5 sweeps (Elutriation and
CDC15 substitutes, 14/19 x 9 x 250), times CubeMiner and RSM over the
smallest axis (rows: RSM-R, the paper's heuristic), each the best of
``--rounds`` runs, and records auto's pick.  ``auto``'s time is the
time of the algorithm it picks (timed on its own if it is neither)
plus the time of planning, so it is measured under the same conditions
as the columns it is compared with; the order of the timed algorithms
rotates from point to point.  ``--check`` gates:

* summed over the 35 points, ``auto`` takes at most ``MAX_RATIO``
  times the per-point best of CubeMiner and RSM-R;
* at every point whose faster run takes at least ``DECISIVE_S``,
  ``auto`` picks the faster algorithm.

Cheaper points are left to the sum: there the two runs differ by a few
milliseconds, within the noise of a single run.

The same columns are recorded on 13 points off the cost model's domain
(bench_stream's 12 x 48 x 72 maintainer tensor, the Figure 7 tensors,
the skewed-slice tensor).  There the planner falls back to CubeMiner,
the service's algorithm before the planner existed, and ``--check``
gates that ``auto`` is never slower than CubeMiner wherever CubeMiner
takes at least ``DECISIVE_S``.

``--fit`` re-measures CubeMiner and RSM over every axis with at most
2^16 base subsets, on the 35 points plus the perfbench input family
(planted 14 x 9 x 250 tensors at the service-session and mine-*
thresholds), and prints the least-squares ``COST_MODEL`` for
``src/repro/plan.py``, with the domain those points span.

Usage::

    PYTHONPATH=src python benchmarks/bench_plan.py --output BENCH_plan.json
    PYTHONPATH=src python benchmarks/bench_plan.py --check
    PYTHONPATH=src python benchmarks/bench_plan.py --fit
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    cdc15_bench,
    elutriation_bench,
    scale_minc,
    skewed_slices_bench,
    synthetic_heights_bench,
)
from repro.api import mine  # noqa: E402
from repro.core.constraints import Thresholds  # noqa: E402
from repro.core.dataset import AXIS_NAMES  # noqa: E402
from repro.datasets.synthetic import planted_tensor  # noqa: E402
from repro.options import RSMOptions  # noqa: E402
from repro.plan import cubeminer_features, plan, rsm_features  # noqa: E402

#: Bump when the report layout changes incompatibly.
SCHEMA = 2
#: A point whose faster run takes at least this long must be picked right.
DECISIVE_S = 0.05
#: Summed over the Figure 3-5 points, auto's bound against the per-point best.
MAX_RATIO = 1.05

#: perfbench's input family (perfbench/workloads.py: SHAPE, N_BLOCKS,
#: BLOCK_SHAPE, DENSITY and the mine-* / service-session thresholds).
PERF_SHAPE = (14, 9, 250)
PERF_THRESHOLDS = [
    (3, 2, 10, 1),
    (2, 3, 10, 1),
    (2, 3, 12, 1),
    (3, 3, 12, 1),
    (3, 3, 14, 1),
    (3, 4, 14, 200),
    (4, 4, 16, 300),
]


def figure_points() -> list[tuple[str, object, Thresholds]]:
    """The 35 (panel, dataset, thresholds) points of Figures 3-5."""
    elu, cdc = elutriation_bench(), cdc15_bench()
    elu_minc, cdc_minc = scale_minc(1000, 7161), scale_minc(1100, 7761)
    points = []
    for v in (900, 1000, 1100, 1200, 1300, 1450, 1600):
        points.append(("fig3a", elu, Thresholds(3, 3, scale_minc(v, 7161))))
    for v in (1000, 1100, 1200, 1300, 1400, 1550, 1700):
        points.append(("fig3b", cdc, Thresholds(3, 3, scale_minc(v, 7761))))
    for h in (5, 6, 7, 8, 9):
        points.append(("fig4a", elu, Thresholds(h, 3, elu_minc)))
    for h in (5, 6, 7, 8, 9, 10):
        points.append(("fig4b", cdc, Thresholds(h, 3, cdc_minc)))
    for r in (3, 4, 5, 6, 7):
        points.append(("fig5a", elu, Thresholds(3, r, elu_minc)))
    for r in (3, 4, 5, 6, 7):
        points.append(("fig5b", cdc, Thresholds(3, r, cdc_minc)))
    return points


def off_domain_points() -> list[tuple[str, object, Thresholds]]:
    """13 points outside the cost model's domain: bench_stream's
    maintainer tensor, the Figure 7 tensors at their thresholds, and
    the skewed-slice tensor of the Figure 2 benchmark."""
    maintainer = planted_tensor(
        (12, 48, 72), n_blocks=4, block_shape=(4, 6, 9),
        background_density=0.08, seed=23,
    ).dataset
    points = [
        ("maint", maintainer, Thresholds(*mins))
        for mins in ((3, 3, 4), (3, 4, 6), (4, 3, 5))
    ]
    for n_heights in (6, 8, 10, 12, 14, 16):
        dataset = synthetic_heights_bench(n_heights)
        points.append((f"fig7h{n_heights}", dataset, Thresholds(3, 3, 8)))
    skewed = skewed_slices_bench()
    for mins in ((3, 3, 25), (3, 3, 15), (4, 3, 25), (3, 4, 25)):
        points.append(("skew", skewed, Thresholds(*mins)))
    return points


def perf_points() -> list[tuple[str, object, Thresholds]]:
    points = []
    for seed in (0, 1):
        dataset = planted_tensor(
            PERF_SHAPE, n_blocks=6, block_shape=(4, 4, 30),
            background_density=0.6, seed=seed,
        ).dataset
        for h, r, c, v in PERF_THRESHOLDS:
            points.append((f"perf{seed}", dataset, Thresholds(h, r, c, min_volume=v)))
    return points


def best_of(rounds: int, run) -> tuple[float, object]:
    best, result = math.inf, None
    for _ in range(rounds):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def cube_keys(result) -> list[tuple[int, int, int]]:
    return [(c.heights, c.rows, c.columns) for c in result.cubes]


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------
def pick_name(chosen) -> str:
    if chosen.algorithm == "rsm":
        return "rsm-" + chosen.options["base_axis"]
    return chosen.algorithm


def measure(index: int, family: str, panel: str, dataset, th, rounds: int) -> dict:
    """One report row; ``index`` rotates the order of the timed runs."""
    smallest = AXIS_NAMES[min(range(3), key=lambda axis: dataset.shape[axis])]
    plan_s, chosen = best_of(
        rounds, lambda: plan(dataset.shape, dataset.count_ones(), th)
    )
    runs = {
        "cubeminer": lambda: mine(dataset, th, algorithm="cubeminer"),
        f"rsm-{smallest}": lambda: mine(
            dataset, th, algorithm="rsm", options=RSMOptions(base_axis=smallest)),
    }
    pick = pick_name(chosen)
    if pick not in runs:
        runs[pick] = lambda: mine(
            dataset, th, algorithm="rsm", options=RSMOptions(**chosen.options))
    order = list(runs)
    order = order[index % len(order):] + order[:index % len(order)]
    times, keys = {}, {}
    for name in order:
        times[name], result = best_of(rounds, runs[name])
        keys[name] = cube_keys(result)
    auto = mine(dataset, th, algorithm="auto")
    if any(found != cube_keys(auto) for found in keys.values()):
        raise AssertionError(f"{panel} {th}: algorithms disagree")
    return {
        "family": family,
        "panel": panel,
        "shape": list(dataset.shape),
        "thresholds": list(th.as_tuple()),
        "cubes": len(auto),
        "cubeminer_s": round(times["cubeminer"], 4),
        "rsm_axis": smallest,
        "rsm_s": round(times[f"rsm-{smallest}"], 4),
        "auto_pick": pick,
        "pick_s": round(times[pick], 4),
        "plan_s": round(plan_s, 5),
        "auto_s": round(times[pick] + plan_s, 4),
    }


def run_bench(rounds: int) -> dict:
    rows = [
        measure(index, "figures", panel, dataset, th, rounds)
        for index, (panel, dataset, th) in enumerate(figure_points())
    ]
    rows += [
        measure(index, "off-domain", panel, dataset, th, rounds)
        for index, (panel, dataset, th) in enumerate(off_domain_points())
    ]
    figures = [row for row in rows if row["family"] == "figures"]
    sums = {
        key: round(sum(row[key] for row in figures), 4)
        for key in ("cubeminer_s", "rsm_s", "auto_s")
    }
    sums["best_s"] = round(
        sum(min(row["cubeminer_s"], row["rsm_s"]) for row in figures), 4
    )
    return {
        "schema": SCHEMA,
        "rounds": rounds,
        "points": rows,
        "figure_sums": sums,
        "auto_over_best": round(sums["auto_s"] / sums["best_s"], 3),
        "cubeminer_wins": sum(row["cubeminer_s"] < row["rsm_s"] for row in figures),
    }


def check(report: dict) -> list[str]:
    failures = []
    if report["auto_over_best"] > MAX_RATIO:
        failures.append(
            f"auto takes {report['auto_over_best']}x the per-point best "
            f"(allowed {MAX_RATIO}x)"
        )
    for row in report["points"]:
        times = {
            "cubeminer": row["cubeminer_s"],
            f"rsm-{row['rsm_axis']}": row["rsm_s"],
        }
        where = f"{row['panel']} {row['thresholds']}: auto picked {row['auto_pick']}"
        if row["family"] == "off-domain":
            if times["cubeminer"] >= DECISIVE_S and row["pick_s"] > times["cubeminer"]:
                failures.append(
                    f"{where} ({row['pick_s']}s), "
                    f"slower than cubeminer ({times['cubeminer']}s)"
                )
            continue
        faster = min(times, key=times.get)
        if times[faster] >= DECISIVE_S and row["auto_pick"] != faster:
            failures.append(
                f"{where}, {faster} is faster "
                f"({times[faster]}s vs {row['pick_s']}s)"
            )
    return failures


def _print(report: dict) -> None:
    print("planner benchmark (seconds, best of %d)" % report["rounds"])
    print(f"  {'point':<7} {'thresholds':<13} {'cubeminer':>9} {'rsm':>10} "
          f"{'auto':>7}  pick")
    for row in report["points"]:
        rsm = f"{row['rsm_s']:.4f}-{row['rsm_axis'][0].upper()}"
        print(f"  {row['panel']:<7} {str(row['thresholds']):<13} "
              f"{row['cubeminer_s']:>9.4f} {rsm:>10} "
              f"{row['auto_s']:>7.4f}  {row['auto_pick']}")
    sums = report["figure_sums"]
    print(f"  figure sums: cubeminer {sums['cubeminer_s']}s, rsm-r {sums['rsm_s']}s, "
          f"auto {sums['auto_s']}s, per-point best {sums['best_s']}s "
          f"-> auto/best {report['auto_over_best']}x; "
          f"cubeminer wins {report['cubeminer_wins']} of 35")


# ----------------------------------------------------------------------
# Fitting the cost model
# ----------------------------------------------------------------------
def fit(rounds: int) -> dict:
    rsm_x, rsm_y, cm_x, cm_y, domain_x = [], [], [], [], []
    for panel, dataset, th in figure_points() + perf_points():
        mins = (*th.as_tuple(), th.min_volume)
        ones = dataset.count_ones()
        density = ones / (dataset.shape[0] * dataset.shape[1] * dataset.shape[2])
        seconds, _ = best_of(rounds, lambda: mine(dataset, th, algorithm="cubeminer"))
        cm_x.append(cubeminer_features(dataset.shape, mins, ones))
        domain_x.append([*dataset.shape, *cm_x[-1][1:]])
        cm_y.append(math.log(seconds))
        line = f"  {panel:<6} {str(mins):<18} cubeminer {seconds:.4f}"
        for axis, name in enumerate(AXIS_NAMES):
            if dataset.shape[axis] > 16:
                continue
            seconds, _ = best_of(rounds, lambda: mine(
                dataset, th, algorithm="rsm", options=RSMOptions(base_axis=name)))
            rsm_x.append(rsm_features(dataset.shape, mins, density, axis)[1])
            rsm_y.append(math.log(seconds))
            line += f"  rsm-{name} {seconds:.4f}"
        print(line, flush=True)
    rsm_w = np.linalg.lstsq(np.array(rsm_x), np.array(rsm_y), rcond=None)[0]
    cm_w = np.linalg.lstsq(np.array(cm_x), np.array(cm_y), rcond=None)[0]
    domain = np.array(domain_x)
    return {
        "rsm": tuple(round(float(w), 4) for w in rsm_w),
        "cubeminer": tuple(round(float(w), 4) for w in cm_w),
        "domain": tuple(
            (math.floor(lo * 1e4) / 1e4, math.ceil(hi * 1e4) / 1e4)
            for lo, hi in zip(domain.min(axis=0), domain.max(axis=0))
        ),
    }


def sweep() -> None:
    """Entry point for ``run_all.py``."""
    _print(run_bench(rounds=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write the report as JSON to this path")
    parser.add_argument("--check", action="store_true",
                        help="fail unless auto's sum and picks hold")
    parser.add_argument("--rounds", type=int, default=3,
                        help="best-of rounds per algorithm and point")
    parser.add_argument("--fit", action="store_true",
                        help="re-measure and print a fitted COST_MODEL")
    args = parser.parse_args(argv)

    if args.fit:
        print("COST_MODEL =", json.dumps(fit(args.rounds), indent=4))
        return 0
    report = run_bench(args.rounds)
    _print(report)
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    if args.check:
        failures = check(report)
        for failure in failures:
            print("FAIL:", failure)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
