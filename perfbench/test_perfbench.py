"""Tests of the benchmark itself (about five minutes).

    python3 -m pytest perfbench -q

A seconds-long run of every workload, traced and untraced, must emit
exactly the metrics BENCHMARK.json declares, pass its correctness gate and
account for each traced op's wall time; a wrong oracle must show up as a
failed op; the mine-* input's work must stay in its seed band; and the
comparison guard must refuse unlike result sets.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_benchmark(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=170,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_runs_emit_every_metric_and_pass_the_gate(workload):
    untraced = run_benchmark(workload, 0)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= 1
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == report.END_TO_END
    assert all(v["value"] > 0 for v in untraced["metrics"].values())

    traced = run_benchmark(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == report.PER_LAYER
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert 0.97 <= layers["trace.root_share"] <= 1.03
    assert 0.97 <= layers["trace.self_sum_share"] <= 1.03
    assert layers["error_rate"] == 0
    assert layers["result.cubes"] > 0
    if workload == "service-session":
        assert layers["service.cold.worker_mine_s"] > 0
        assert layers["stream.deltas_applied"] == 2 * workloads.N_EDITS
    else:
        assert layers["api.dispatch_s"] > 0


def test_benchmark_json_declares_what_the_run_emits():
    bench = report.BENCHMARK
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture
def in_process_run():
    """A ``Run`` under the checkout's scratch directory; cleaned up after."""
    scratch = ROOT / ".perfbench_run"
    affinity = os.sched_getaffinity(0)
    runs = []

    def make(workload: str):
        runs.append(workloads.Run(workload, 0.1, False, scratch / f"test-{os.getpid()}"))
        return runs[-1]

    yield make
    for run in runs:
        if run.probe is not None:
            run.probe.close()
        shutil.rmtree(run.workdir, ignore_errors=True)
    os.sched_setaffinity(0, affinity)  # mine-* runs pin the process
    if scratch.is_dir() and not any(scratch.iterdir()):
        scratch.rmdir()


def test_a_wrong_oracle_is_a_failed_op(in_process_run):
    run = in_process_run("mine-rsm")
    workloads.run_mine(run, 0, wrong_oracle=True)
    assert run.attempted >= 1 and run.failed == run.attempted
    # Even a short run times every one of its inputs.
    assert sorted(set(run.op_inputs)) == list(range(workloads.MINE_INPUTS))


def test_a_wrong_oracle_fails_service_ops(in_process_run):
    run = in_process_run("service-session")
    workloads.run_session(run, 0, ROOT, wrong_oracle=True)
    # Every checked result of the round (cold, cached, update) is wrong.
    assert run.failed >= 2 + len(workloads.CACHED_THRESHOLDS)


def test_op_time_is_the_mean_of_per_input_medians():
    times = [1.0, 3.0, 2.0, 10.0, 2.0, 4.0]
    inputs = [0, 1, 0, 1, 0, 1]
    assert report.input_mean(times, inputs) == (2.0 + 4.0) / 2
    assert report.input_mean([5.0, 1.0, 2.0], [0, 0, 0]) == 2.0


def test_mine_input_work_stays_in_its_seed_band():
    import repro

    th = workloads.thresholds(workloads.MINE_THRESHOLDS)
    for seed in (0, 1, 2):
        dataset = workloads.planted(seed)
        cubeminer = repro.mine(dataset, th)
        rsm = repro.mine(dataset, th, algorithm="rsm",
                         options=repro.RSMOptions(base_axis="row"))
        assert workloads.cube_list(cubeminer) == workloads.cube_list(rsm)
        observed = {
            "cubeminer.nodes": cubeminer.stats.metrics.nodes_visited,
            "fcp.patterns": rsm.stats.metrics.fcp_patterns,
            "result.cubes": len(cubeminer),
        }
        for name, (low, high) in workloads.SEED_BANDS.items():
            assert low <= observed[name] <= high, (seed, name, observed[name])


def test_rotated_rounds_keep_the_cubes():
    import repro

    base = workloads.session_base(5, (6, 5, 40), (3, 3, 10))
    th = workloads.thresholds((2, 2, 4))
    expected = workloads.cube_list(repro.mine(base["dataset"], th))
    for shift in (1, 17, 39):
        rotated = workloads.rotated_round(base, shift)
        got = repro.mine(rotated["dataset"], th)
        assert workloads.same_cubes(got, workloads.rotate_cubes(expected, shift, 40))


def test_compare_refuses_unlike_result_sets(tmp_path):
    base = {
        "workload": "mine-rsm", "trace": 0,
        "environment": report.environment("python-int", 2),
        "metrics": {"op_s_p50": {"value": 1.0, "unit": "s"}},
    }
    assert compare.differences(base, dict(base)) == []
    other_kernel = dict(base, environment={**base["environment"], "kernel": "numpy"})
    traced = dict(base, trace=1)
    for other in (other_kernel, traced):
        assert compare.differences(base, other)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, content in zip(paths, (base, other)):
            path.write_text(json.dumps(content))
        assert compare.main([str(p) for p in paths]) == 2


def test_span_tree_self_times_add_up():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    with tracing.Patches(tracer) as patches:
        holder = type("Holder", (), {"leaf": staticmethod(leaf)})
        patches.patch(holder, "leaf", "leaf")

        def parent():
            return [holder.leaf() for _ in range(5)]

        traced_parent = tracer.wrap("parent", parent)
        tracer.begin_op("op")
        traced_parent()
        traced_parent()
        root = tracer.end_op()
    assert holder.leaf is leaf
    node = root.children["parent"]
    assert node.count == 2 and node.children["leaf"].count == 10
    total_self = sum(span.self_time for span in root.walk())
    assert total_self == pytest.approx(root.total, rel=1e-9)


def session_members(sid: int) -> list[str]:
    """Live (not zombie) processes of session ``sid``, from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            found.append(stat)
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_parallel_run_leaves_no_process_behind():
    # parallel-cubeminer starts pool workers and a multiprocessing
    # resource tracker; both must be gone when the run has exited.
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "mine-parallel",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=str(ROOT),
        start_new_session=True,
    )
    assert process.wait(timeout=170) == 0
    assert session_members(process.pid) == []


def test_stop_all_reaps_orphaned_grandchildren():
    script = (
        "import subprocess, sys, children\n"
        "children.become_subreaper()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 &'])\n"
        "left = children.child_pids()\n"
        "children.stop_all(grace_s=0.5)\n"
        "print(len(left), len(children.child_pids()))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=str(HERE), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "0"]
