"""Fault-injection tests for the supervised parallel drivers.

The acceptance bar: under a :class:`ChaosPlan` injecting crash, hang
and exception faults into pool dispatches, both parallel drivers
return results identical to a clean run — same cube list (set *and*
order) and the same merged metric totals — and recovery never
double-counts a retried chunk's tallies.
"""

from __future__ import annotations

import pickle

import pytest

from repro.chaos import ChaosPlan, ChaosRule, FaultInjected, chunk_path
from repro.chaos.worker import worker_block
from repro.core.constraints import Thresholds
from repro.datasets import random_tensor
from repro.obs import (
    CollectingSink,
    MiningCancelled,
    PoolRestarted,
    TaskFailed,
    TaskRetried,
)
from repro.parallel import (
    RetryPolicy,
    TaskFailedError,
    parallel_cubeminer_mine,
    parallel_rsm_mine,
)

DRIVERS = [parallel_rsm_mine, parallel_cubeminer_mine]


def worker_rule(kind: str, chunk: int, attempt: "int | None" = 0, **kwargs):
    """A rule striking pool dispatches of ``chunk`` — one attempt, or
    every attempt when ``attempt`` is ``None``."""
    return ChaosRule(
        kind, site="worker", op="dispatch",
        path=chunk_path(chunk, attempt), calls=None, **kwargs,
    )


def single(kind: str, chunk: int, attempt: "int | None" = 0, **kwargs):
    return ChaosPlan((worker_rule(kind, chunk, attempt, **kwargs),))


@pytest.fixture(scope="module")
def dataset():
    return random_tensor((6, 12, 18), 0.35, seed=3)


@pytest.fixture(scope="module")
def thresholds():
    return Thresholds(2, 2, 2)


def assert_same_run(clean, recovered):
    """Cube list (set and order) and metric totals must match exactly."""
    assert list(recovered) == list(clean)
    assert recovered.stats.metrics.as_dict() == clean.stats.metrics.as_dict()


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff=0.5, backoff_factor=2.0, max_backoff=1.5)
        assert policy.delay_before(1) == pytest.approx(0.5)
        assert policy.delay_before(2) == pytest.approx(1.0)
        assert policy.delay_before(3) == pytest.approx(1.5)  # capped
        assert policy.delay_before(9) == pytest.approx(1.5)

    def test_zero_backoff(self):
        assert RetryPolicy(backoff=0.0).delay_before(3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="task_timeout"):
            RetryPolicy(task_timeout=0.0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="max_pool_restarts"):
            RetryPolicy(max_pool_restarts=-2)


class TestFaultPlan:
    """The worker-fault vocabulary of :mod:`repro.chaos`, without a pool."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            ChaosRule("meteor")

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError, match="seconds"):
            ChaosRule("slow", seconds=-1.0)

    def test_default_fires_on_first_attempt_only(self):
        rule = worker_rule("exception", 0)
        assert rule.matches("worker", "dispatch", chunk_path(0, 0), 0)
        assert not rule.matches("worker", "dispatch", chunk_path(0, 1), 1)

    def test_permanent_fault_fires_always(self):
        rule = worker_rule("crash", 0, attempt=None)
        for call, attempt in enumerate((0, 1, 7)):
            assert rule.matches("worker", "dispatch", chunk_path(0, attempt), call)

    def test_path_addressing_is_exact(self):
        """``path`` is a substring match; the key must not let chunk 1
        fire on chunk 11, nor attempt 1 on attempt 10."""
        chunk_one = worker_rule("crash", 1, attempt=None)
        assert chunk_one.matches("worker", "dispatch", chunk_path(1, 3), 0)
        assert not chunk_one.matches("worker", "dispatch", chunk_path(11, 0), 0)
        assert not chunk_one.matches("worker", "dispatch", chunk_path(21, 1), 0)
        attempt_one = worker_rule("crash", 0, attempt=1)
        assert attempt_one.matches("worker", "dispatch", chunk_path(0, 1), 0)
        assert not attempt_one.matches("worker", "dispatch", chunk_path(0, 10), 0)
        assert not attempt_one.matches("worker", "dispatch", chunk_path(10, 1), 0)
        plan = ChaosPlan((chunk_one,))
        fired = [
            plan.draw("worker", "dispatch", chunk_path(chunk, attempt))
            is not None
            for chunk, attempt in ((1, 0), (11, 0), (1, 1), (1, 10), (10, 1))
        ]
        assert fired == [True, False, True, True, False]

    def test_random_is_seeded_and_bounded(self):
        paths = [chunk_path(chunk, 0) for chunk in range(40)]

        def draws(seed):
            plan = ChaosPlan.random(
                seed, rate=0.3, kinds=("crash", "exception"), sites=("worker",)
            )
            assert plan.draw("cache", "write", "x") is None  # site-bounded
            for path in paths:
                plan.draw("worker", "dispatch", path)
            return plan.trace()

        trace = draws(42)
        assert trace == draws(42)
        assert 0 < len(trace) < len(paths)
        assert {entry["kind"] for entry in trace} == {"crash", "exception"}
        assert all(entry["site"] == "worker" for entry in trace)

    def test_fire_is_noop_in_driver_process(self, dataset, thresholds):
        """The inline path never draws, so it cannot fault."""
        plan = single("crash", 0, attempt=None)
        clean = parallel_rsm_mine(dataset, thresholds, n_workers=1)
        inline = parallel_rsm_mine(
            dataset, thresholds, n_workers=1, fault_plan=plan
        )
        assert_same_run(clean, inline)
        assert plan.trace() == []

    def test_block_survives_pickling(self):
        for rule in (
            worker_rule("crash", 0),
            worker_rule("hang", 0, seconds=2.0),
            worker_rule("slow", 0, seconds=0.5),
            worker_rule("exception", 0),
        ):
            block = worker_block(rule)
            assert pickle.loads(pickle.dumps(block)) == block
        assert worker_block(worker_rule("hang", 0, seconds=2.0)) == {
            "kind": "hang", "seconds": 2.0,
        }
        assert worker_block(ChaosRule("enospc")) is None
        assert worker_block(None) is None


class TestFaultRecovery:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_crash_hang_exception_parity(self, dataset, thresholds, driver):
        """The headline guarantee: a faulty run equals a clean run."""
        clean = driver(dataset, thresholds, n_workers=2)
        plan = ChaosPlan((
            worker_rule("crash", 0),
            worker_rule("exception", 2),
            worker_rule("hang", 4, seconds=30.0),
        ))
        recovered = driver(
            dataset,
            thresholds,
            n_workers=2,
            fault_plan=plan,
            task_timeout=2.0,
            backoff=0.01,
        )
        assert_same_run(clean, recovered)
        recovery = recovered.stats.extra["recovery"]
        # Only the crash is guaranteed to fire: a chunk whose attempt-0
        # dispatch is in flight when the pool breaks is requeued as an
        # innocent victim at attempt 1, where a first-attempt fault no
        # longer applies.  Per-kind counters are pinned by the
        # single-fault tests below.
        assert recovery["pool_restarts"] >= 1
        assert not recovery["degraded_inline"]

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_seeded_random_plan_parity(self, dataset, thresholds, driver):
        clean = driver(dataset, thresholds, n_workers=2)
        # Eight chunks, so at most 8 + 2 * (faults fired) dispatches:
        # within that bound this seed fires crash, exception, crash, all
        # among the first eight draws — never three exceptions on one
        # chunk, whatever the completion order, so the retry budget
        # cannot run out.
        plan = ChaosPlan.random(
            2, rate=0.2, kinds=("crash", "exception"), sites=("worker",)
        )
        recovered = driver(
            dataset, thresholds, n_workers=2, fault_plan=plan, backoff=0.01
        )
        assert_same_run(clean, recovered)

    def test_slow_fault_is_benign(self, dataset, thresholds):
        clean = parallel_rsm_mine(dataset, thresholds, n_workers=2)
        plan = single("slow", 1, seconds=0.2)
        recovered = parallel_rsm_mine(
            dataset, thresholds, n_workers=2, fault_plan=plan
        )
        assert_same_run(clean, recovered)
        recovery = recovered.stats.extra["recovery"]
        assert recovery["task_failures"] == 0
        assert recovery["pool_restarts"] == 0

    def test_retry_budget_exhaustion_raises(self, dataset, thresholds):
        plan = single("exception", 1, attempt=None)
        with pytest.raises(TaskFailedError) as excinfo:
            parallel_rsm_mine(
                dataset,
                thresholds,
                n_workers=2,
                fault_plan=plan,
                retries=1,
                backoff=0.01,
            )
        assert excinfo.value.chunk == 1
        assert excinfo.value.attempts == 2  # retries + 1
        assert "FaultInjected" in excinfo.value.error

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_permanent_crash_degrades_inline(self, dataset, thresholds, driver):
        """An irrecoverable pool falls back to sequential execution."""
        clean = driver(dataset, thresholds, n_workers=2)
        plan = single("crash", 0, attempt=None)
        recovered = driver(
            dataset, thresholds, n_workers=2, fault_plan=plan, backoff=0.01
        )
        assert_same_run(clean, recovered)
        recovery = recovered.stats.extra["recovery"]
        assert recovery["degraded_inline"]
        assert recovery["pool_restarts"] == RetryPolicy().max_pool_restarts + 1

    def test_hang_detected_by_timeout(self, dataset, thresholds):
        """A lone hang fault deterministically trips the task timeout."""
        clean = parallel_rsm_mine(dataset, thresholds, n_workers=2)
        plan = single("hang", 1, seconds=30.0)
        recovered = parallel_rsm_mine(
            dataset,
            thresholds,
            n_workers=2,
            fault_plan=plan,
            task_timeout=0.5,
            backoff=0.01,
        )
        assert_same_run(clean, recovered)
        recovery = recovered.stats.extra["recovery"]
        assert recovery["pool_restarts"] >= 1
        assert recovery["task_failures"] >= 1

    def test_supervision_events_emitted(self, dataset, thresholds):
        # Single-kind plans keep this deterministic: with no pool break
        # in flight, an attempt-0 fault is guaranteed to fire.
        sink = CollectingSink()
        plan = single("exception", 2)
        parallel_rsm_mine(
            dataset,
            thresholds,
            n_workers=2,
            fault_plan=plan,
            backoff=0.01,
            on_event=sink,
        )
        kinds = {type(event) for event in sink.events}
        assert TaskFailed in kinds
        assert TaskRetried in kinds
        assert PoolRestarted not in kinds
        failed = [e for e in sink.events if isinstance(e, TaskFailed)]
        assert any(e.cause == "exception" and e.chunk == 2 for e in failed)

        sink = CollectingSink()
        parallel_rsm_mine(
            dataset,
            thresholds,
            n_workers=2,
            fault_plan=single("crash", 0),
            backoff=0.01,
            on_event=sink,
        )
        assert PoolRestarted in {type(event) for event in sink.events}

    def test_clean_run_reports_zero_recovery(self, dataset, thresholds):
        result = parallel_cubeminer_mine(dataset, thresholds, n_workers=2)
        recovery = result.stats.extra["recovery"]
        assert recovery == {
            "task_failures": 0,
            "task_retries": 0,
            "pool_restarts": 0,
            "chunks_resumed": 0,
            "degraded_inline": False,
        }

    def test_fault_injected_survives_pickling(self):
        error = pickle.loads(pickle.dumps(FaultInjected("chunk 3")))
        assert type(error) is FaultInjected
        assert str(error) == "chunk 3"


class TestCancellationShapeParity:
    """Inline (n_workers=1) and pool cancellations must look alike."""

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_inline_and_pool_partial_shapes_match(
        self, dataset, thresholds, driver
    ):
        partials = {}
        for n_workers in (1, 2):
            with pytest.raises(MiningCancelled) as excinfo:
                driver(dataset, thresholds, n_workers=n_workers, deadline=0.0)
            exc = excinfo.value
            assert exc.partial is not None
            assert exc.metrics is not None
            assert exc.partial.stats.metrics is exc.metrics
            partials[n_workers] = exc.partial
        assert set(partials[1].stats.extra) == set(partials[2].stats.extra)
        assert partials[1].algorithm.rsplit("x", 1)[0] == (
            partials[2].algorithm.rsplit("x", 1)[0]
        )

    def test_mid_run_cancel_carries_partial_cubes(self, dataset, thresholds):
        """A cancel between chunks yields completed chunks' cubes."""
        from repro.obs import CheckpointWritten, ProgressController

        import tempfile, os

        path = tempfile.mktemp(suffix=".jsonl")
        controller = ProgressController()
        seen = []

        def sink(event):
            if isinstance(event, CheckpointWritten):
                seen.append(event)
                if len(seen) >= 2:
                    controller.cancel()

        try:
            with pytest.raises(MiningCancelled) as excinfo:
                parallel_rsm_mine(
                    dataset,
                    thresholds,
                    n_workers=2,
                    checkpoint_path=path,
                    on_event=sink,
                    progress=controller,
                )
            partial = excinfo.value.partial
            assert partial is not None
            assert len(partial) == sum(event.n_cubes for event in seen)
        finally:
            os.unlink(path)
