"""End-to-end benchmark of the FCC system.

Run from the repository root::

    python3 perfbench/run.py --workload mine-cubeminer --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, op_s_p50,
peak_rss_mb); ``--trace 1`` runs untraced and traced ops alternately and
prints the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable table with the environment stamp.  ``--report
FILE`` also writes the full result set, which ``compare.py`` reads.
See README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_TRIALS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mine-cubeminer", "mine-rsm", "mine-parallel",
                                 "service-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="op time to measure (ops start while they fit)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None,
                        help="also write the full result set as JSON here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_environment() -> Path:
    """Point imports at this checkout's source and temp files inside it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: {source / 'repro'} not found; run from a checkout of the repository"
        )
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))
    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = str(workdir / "tmp")
    return workdir


def setup_probe(args, workdir: Path) -> dict:
    """One set-up, as a fresh process of a user would do it."""
    import workloads

    workloads.import_program(args.workload)
    phases = {"import_s": time.perf_counter() - PROCESS_T0}
    start = time.perf_counter()
    if args.workload == "service-session":
        base = workloads.session_base(args.seed)
        shift = workloads.round_shift(args.seed, 0, workloads.SHAPE[2])
        workloads.rotated_round(base, shift)
    else:
        workloads.mine_inputs(args.seed)
    phases["input_s"] = time.perf_counter() - start
    phases["daemon_ready_s"] = 0.0
    if args.workload == "service-session":
        phases.update(workloads.setup_phase_service(ROOT, workdir / "probe-daemon"))
    phases["setup_s"] = sum(phases.values())
    return phases


def probe_in_subprocess(args) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                          cwd=str(ROOT))
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    # A SIGTERM unwinds like an error, so the daemon and the speed
    # samplers are stopped and the run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = prepare_environment()
    import children

    children.become_subreaper()
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args, workdir)))
            return 0
        return benchmark(args, workdir)
    finally:
        # Nothing this run started may outlive it: not the program's
        # pool workers or resource tracker, nor the daemon's workers.
        children.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def benchmark(args, workdir: Path) -> int:
    import workloads

    workloads.import_program(args.workload)
    import_s = time.perf_counter() - PROCESS_T0

    import report

    nproc = len(os.sched_getaffinity(0))  # before a mine-* run pins itself
    run = workloads.Run(args.workload, args.seconds, bool(args.trace), workdir)
    try:
        if args.workload == "service-session":
            workloads.run_session(run, args.seed, ROOT)
        else:
            workloads.run_mine(run, args.seed)
        first = {"import_s": import_s, **run.setup}
        first["setup_s"] = sum(first.values())
        # This process set up before the speed samplers started.
        first["setup_scaled_s"] = first["setup_s"] / run.probe.slowdown()
        trials = [first]
        for _ in range(SETUP_TRIALS - 1):
            start = time.perf_counter()
            trial = probe_in_subprocess(args)
            trial["setup_scaled_s"] = run.probe.scale(
                trial["setup_s"], start, time.perf_counter()
            )
            trials.append(trial)
        slowdown = run.probe.slowdown()
    finally:
        if run.probe is not None:
            run.probe.close()

    if not run.op_seconds or (args.trace and not run.traced_seconds):
        print("error: no op completed: " + "; ".join(run.failures), file=sys.stderr)
        return 1
    env = report.environment(run.kernel, nproc)
    if args.trace:
        metrics = report.per_layer(run, trials, slowdown)
        units = report.PER_LAYER
    else:
        metrics = report.end_to_end(run, trials)
        units = report.END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(run.op_seconds)} untraced / {len(run.traced_seconds)} traced")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"speed: the CPUs ran {slowdown:.3f}x slower than the reference state "
          "(times in the JSON line are scaled by it, op by op; see speed.py)")
    if not args.trace:
        print("wall times as measured:")
        for name, unit, text in report.design_table(run, trials):
            print(f"  {name:<22} {unit:<6} {text}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    if args.report:
        with open(args.report, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "environment": env,
                       "setup_trials": trials, "op_seconds": run.op_seconds,
                       "op_scaled": run.op_scaled, "slowdown": slowdown,
                       "traced_seconds": run.traced_seconds, "steps": run.steps,
                       "coverage": run.coverage, "failures": run.failures,
                       **result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
