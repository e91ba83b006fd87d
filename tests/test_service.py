"""Tests for the mining-service daemon: routing, jobs, and restart.

Most tests drive :class:`ServiceApp.handle` in-process — the router is
a pure function, no sockets needed.  One class boots the real HTTP
adapter and exercises the typed client against it, including
concurrent submissions.  The restart class rebuilds a
:class:`JobManager` over a crashed predecessor's directory and proves
the job resumes from its checkpoint journal instead of re-mining
finished chunks.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import mine
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.result import MiningResult
from repro.io import dataset_fingerprint, dataset_to_payload
from repro.service import (
    DatasetRegistry,
    JobManager,
    JobSpec,
    Request,
    ServiceApp,
    ServiceClient,
    ThresholdLatticeCache,
    serve,
)

def small_dataset(seed: int = 11) -> Dataset3D:
    rng = np.random.default_rng(seed)
    return Dataset3D(rng.random((3, 6, 6)) < 0.5)


def cube_set(result) -> set:
    return {(c.heights, c.rows, c.columns) for c in result}


def wait_terminal(app: ServiceApp, job_id: str, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = app.jobs.get(job_id)
        if record.terminal:
            return record
        time.sleep(0.1)
    raise TimeoutError(f"job {job_id} never finished")


@pytest.fixture
def app(tmp_path):
    application = ServiceApp(tmp_path / "data", max_workers=2)
    yield application
    application.close()


def post(app: ServiceApp, path: str, payload: dict):
    return app.handle(
        Request(method="POST", path=path, body=json.dumps(payload).encode())
    )


def get(app: ServiceApp, path: str, query: dict | None = None):
    return app.handle(Request(method="GET", path=path, query=query or {}))


# ----------------------------------------------------------------------
# Routing & error paths (in-process)
# ----------------------------------------------------------------------
class TestRouting:
    def test_health(self, app):
        response = get(app, "/health")
        assert response.status == 200
        assert response.payload["status"] == "ok"

    def test_unknown_route_404(self, app):
        assert get(app, "/v2/nope").status == 404

    def test_register_and_fetch_dataset(self, app):
        dataset = small_dataset()
        response = post(app, "/v1/datasets", dataset_to_payload(dataset))
        assert response.status == 201
        fp = response.payload["fingerprint"]
        assert fp == dataset_fingerprint(dataset)
        assert get(app, f"/v1/datasets/{fp}").status == 200
        listing = get(app, "/v1/datasets")
        assert [e["fingerprint"] for e in listing.payload["datasets"]] == [fp]

    def test_register_is_idempotent(self, app):
        dataset = small_dataset()
        first = post(app, "/v1/datasets", dataset_to_payload(dataset))
        second = post(app, "/v1/datasets", dataset_to_payload(dataset))
        assert first.payload["fingerprint"] == second.payload["fingerprint"]

    def test_malformed_dataset_400(self, app):
        response = post(app, "/v1/datasets", {"schema": 1, "shape": [0, 1]})
        assert response.status == 400
        assert response.payload["error"]["code"] == "bad-dataset"

    def test_bad_json_body_400(self, app):
        response = app.handle(
            Request(method="POST", path="/v1/datasets", body=b"{nope")
        )
        assert response.status == 400
        assert response.payload["error"]["code"] == "bad-json"

    def test_unknown_dataset_404(self, app):
        assert get(app, f"/v1/datasets/{'0' * 64}").status == 404

    def test_submit_against_unregistered_dataset_404(self, app):
        response = post(
            app,
            "/v1/jobs",
            {"dataset": "f" * 64, "thresholds": {"min_h": 1, "min_r": 1, "min_c": 1}},
        )
        assert response.status == 404
        assert response.payload["error"]["code"] == "unknown-dataset"

    def test_bad_spec_400(self, app):
        fp = app.registry.register(small_dataset()).fingerprint
        response = post(
            app,
            "/v1/jobs",
            {
                "dataset": fp,
                "algorithm": "cubeminer",
                "thresholds": {"min_h": 1, "min_r": 1, "min_c": 1},
                "options": {"no_such_knob": 3},
            },
        )
        assert response.status == 400

    def test_unknown_job_404(self, app):
        assert get(app, "/v1/jobs/deadbeef0000").status == 404

    def test_result_of_unfinished_job_409(self, app, monkeypatch):
        fp = app.registry.register(small_dataset()).fingerprint
        # Stall the queue so the job stays queued while we poke at it.
        monkeypatch.setattr(app.jobs, "max_workers", 0)
        response = post(
            app,
            "/v1/jobs",
            {"dataset": fp, "thresholds": {"min_h": 1, "min_r": 1, "min_c": 1}},
        )
        job_id = response.payload["id"]
        result = get(app, f"/v1/jobs/{job_id}/result")
        assert result.status == 409
        assert result.payload["error"]["code"] == "not-done"

    def test_cancel_queued_job(self, app, monkeypatch):
        fp = app.registry.register(small_dataset()).fingerprint
        monkeypatch.setattr(app.jobs, "max_workers", 0)
        job_id = post(
            app,
            "/v1/jobs",
            {"dataset": fp, "thresholds": {"min_h": 1, "min_r": 1, "min_c": 1}},
        ).payload["id"]
        response = post(app, f"/v1/jobs/{job_id}/cancel", {})
        assert response.payload["status"] == "cancelled"


# ----------------------------------------------------------------------
# The mining path (in-process, real workers)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestMiningJobs:
    def test_submit_runs_and_caches(self, app):
        dataset = small_dataset()
        fp = app.registry.register(dataset).fingerprint
        thresholds = Thresholds(1, 2, 2)
        response = post(
            app,
            "/v1/jobs",
            {"dataset": fp, "thresholds": thresholds.to_dict()},
        )
        assert response.status == 202
        record = wait_terminal(app, response.payload["id"])
        assert record.status == "done"
        payload = get(app, f"/v1/jobs/{record.id}/result").payload
        assert payload["cache_hit"] is False
        served = MiningResult.from_payload(payload["result"])
        assert cube_set(served) == cube_set(mine(dataset, thresholds))

        # The same submission again is answered instantly by the cache.
        repeat = post(
            app,
            "/v1/jobs",
            {"dataset": fp, "thresholds": thresholds.to_dict()},
        )
        assert repeat.status == 200
        assert repeat.payload["status"] == "done"
        assert repeat.payload["cache_hit"] is True

    def test_tighter_query_served_from_lattice(self, app):
        dataset = small_dataset()
        fp = app.registry.register(dataset).fingerprint
        loose = Thresholds(1, 1, 1)
        job_id = post(
            app, "/v1/jobs", {"dataset": fp, "thresholds": loose.to_dict()}
        ).payload["id"]
        wait_terminal(app, job_id)

        tight = Thresholds(2, 2, 2)
        response = post(
            app,
            "/v1/query",
            {"dataset": fp, "thresholds": tight.to_dict()},
        )
        assert response.status == 200
        assert response.payload["filtered_from"] == loose.to_dict()
        served = MiningResult.from_payload(response.payload["result"])
        assert cube_set(served) == cube_set(mine(dataset, tight))
        cache_note = served.stats.extra["cache"]
        assert cache_note["hit"] and not cache_note["exact"]

    def test_cache_miss_404(self, app):
        fp = app.registry.register(small_dataset()).fingerprint
        response = post(
            app,
            "/v1/query",
            {"dataset": fp, "thresholds": Thresholds(1, 1, 1).to_dict()},
        )
        assert response.status == 404
        assert response.payload["error"]["code"] == "cache-miss"

    def test_events_journal_has_lifecycle(self, app):
        fp = app.registry.register(small_dataset()).fingerprint
        job_id = post(
            app,
            "/v1/jobs",
            {"dataset": fp, "thresholds": Thresholds(1, 1, 1).to_dict()},
        ).payload["id"]
        wait_terminal(app, job_id)
        payload = get(app, f"/v1/jobs/{job_id}/events").payload
        kinds = [event["kind"] for event in payload["events"]]
        assert "job-done" in kinds
        assert "node" not in kinds and "prune" not in kinds
        # Paging: asking past the end returns nothing new.
        again = get(
            app,
            f"/v1/jobs/{job_id}/events",
            {"after": str(payload["next"])},
        ).payload
        assert again["events"] == []


# ----------------------------------------------------------------------
# Job completion ordering
# ----------------------------------------------------------------------
class _BlockingCache(ThresholdLatticeCache):
    """A lattice cache whose ``put`` waits until the test releases it."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.stored = threading.Event()

    def put(self, fingerprint, algorithm, result) -> None:
        self.entered.set()
        assert self.release.wait(120), "test never released the cache put"
        super().put(fingerprint, algorithm, result)
        self.stored.set()


class TestDonePublishOrder:
    def test_done_is_published_only_after_the_cache_put(self, tmp_path):
        """A client that sees ``done`` must also hit the lattice cache."""
        registry = DatasetRegistry(tmp_path / "datasets")
        cache = _BlockingCache(tmp_path / "cache")
        manager = JobManager(tmp_path / "jobs", registry, cache, max_workers=1)
        try:
            dataset = small_dataset()
            fp = registry.register(dataset).fingerprint
            thresholds = Thresholds(1, 2, 2)
            record = manager.submit(JobSpec(dataset=fp, thresholds=thresholds))
            assert cache.entered.wait(120), "the job never reached the cache put"
            # The put is blocked: however long we look, the job is not done.
            for _ in range(5):
                assert manager.get(record.id).status != "done"
                time.sleep(0.05)
            cache.release.set()
            deadline = time.monotonic() + 120
            while manager.get(record.id).status != "done":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert cache.stored.is_set()
            assert cache.lookup(fp, "cubeminer", thresholds) is not None
        finally:
            cache.release.set()
            manager.shutdown()


# ----------------------------------------------------------------------
# Over HTTP, with the typed client
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestOverHTTP:
    @pytest.fixture
    def server(self, app):
        http_server = serve(app, port=0)
        thread = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        thread.start()
        yield http_server
        http_server.shutdown()
        http_server.server_close()

    def test_full_client_roundtrip(self, app, server):
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        dataset = small_dataset()
        served = client.mine(dataset, Thresholds(1, 2, 2), timeout=120)
        assert not served.cache_hit
        assert cube_set(served.result) == cube_set(
            mine(dataset, Thresholds(1, 2, 2))
        )
        again = client.mine(dataset, Thresholds(2, 2, 2), timeout=120)
        assert again.cache_hit
        assert again.filtered_from == Thresholds(1, 2, 2)

    def test_concurrent_submissions(self, app, server):
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        datasets = [small_dataset(seed) for seed in (21, 22, 23, 24)]
        thresholds = Thresholds(1, 2, 2)
        records = [None] * len(datasets)

        def submit(i: int) -> None:
            records[i] = client.submit(datasets[i], thresholds, use_cache=False)

        threads = [
            threading.Thread(target=submit, args=(i,))
            for i in range(len(datasets))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({record.id for record in records}) == len(datasets)
        for i, record in enumerate(records):
            final = client.wait(record.id, timeout=240)
            assert final.status == "done"
            served = client.result(record.id)
            assert cube_set(served.result) == cube_set(
                mine(datasets[i], thresholds)
            )

    def test_long_poll_returns_promptly_on_terminal(self, app, server):
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        record = client.submit(small_dataset(), Thresholds(1, 1, 1))
        client.wait(record.id, timeout=120)
        start = time.monotonic()
        events, _ = client.events(record.id, after=10_000, wait=30.0)
        assert time.monotonic() - start < 10.0  # early-out, not a 30s stall
        assert events == []


# ----------------------------------------------------------------------
# Daemon restart & checkpoint resume
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestRestartResume:
    def _manager(self, tmp_path) -> tuple[JobManager, DatasetRegistry, ThresholdLatticeCache]:
        registry = DatasetRegistry(tmp_path / "datasets")
        cache = ThresholdLatticeCache(tmp_path / "cache")
        manager = JobManager(
            tmp_path / "jobs", registry, cache, max_workers=1
        )
        return manager, registry, cache

    def test_restart_resumes_from_journal(self, tmp_path):
        """A daemon killed mid-parallel-job replays finished chunks."""
        manager, registry, cache = self._manager(tmp_path)
        rng = np.random.default_rng(5)
        dataset = Dataset3D(rng.random((6, 7, 7)) < 0.5)
        fp = registry.register(dataset).fingerprint
        thresholds = Thresholds(1, 1, 1)
        spec = JobSpec(
            dataset=fp,
            thresholds=thresholds,
            algorithm="parallel-cubeminer",
            options={"n_workers": 2},
            use_cache=False,
        )
        record = manager.submit(spec)
        deadline = time.monotonic() + 240
        while manager.get(record.id).status != "done":
            assert time.monotonic() < deadline
            time.sleep(0.1)
        manager.shutdown()

        job_dir = tmp_path / "jobs" / record.id
        journal = job_dir / "checkpoint.jsonl"
        lines = journal.read_text().splitlines()
        assert len(lines) >= 3  # header + >= 2 chunks

        # Rewind to a mid-crash snapshot: one chunk survived, the
        # result never landed, and the daemon died with the job running.
        journal.write_text("\n".join(lines[:2]) + "\n")
        (job_dir / "result.json").unlink()
        state = json.loads((job_dir / "job.json").read_text())
        state["status"] = "running"
        (job_dir / "job.json").write_text(json.dumps(state))

        reborn = JobManager(tmp_path / "jobs", registry, cache, max_workers=1)
        try:
            deadline = time.monotonic() + 240
            while reborn.get(record.id).status != "done":
                assert time.monotonic() < deadline
                time.sleep(0.1)
            payload = reborn.result_payload(record.id)
            resumed = MiningResult.from_payload(payload)
            assert cube_set(resumed) == cube_set(mine(dataset, thresholds))
            recovery = resumed.stats.extra["recovery"]
            assert recovery["chunks_resumed"] == 1
            final = reborn.get(record.id)
            assert final.attempts >= 2
        finally:
            reborn.shutdown()

    def test_queued_jobs_survive_restart(self, tmp_path):
        manager, registry, cache = self._manager(tmp_path)
        dataset = small_dataset(31)
        fp = registry.register(dataset).fingerprint
        manager.shutdown()  # no dispatching from here on

        # Persist a queued job by hand, as the dead daemon left it.
        record_dir = tmp_path / "jobs" / "feedc0ffee01"
        record_dir.mkdir(parents=True)
        spec = JobSpec(dataset=fp, thresholds=Thresholds(1, 1, 1))
        (record_dir / "job.json").write_text(
            json.dumps(
                {
                    "schema": 1,
                    "id": "feedc0ffee01",
                    "spec": spec.to_dict(),
                    "status": "queued",
                    "created": time.time(),
                    "started": None,
                    "finished": None,
                    "error": None,
                    "cache_hit": False,
                    "filtered_from": None,
                    "n_cubes": None,
                    "attempts": 0,
                    "progress": {},
                }
            )
        )

        reborn = JobManager(tmp_path / "jobs", registry, cache, max_workers=1)
        try:
            deadline = time.monotonic() + 240
            while reborn.get("feedc0ffee01").status != "done":
                assert time.monotonic() < deadline
                time.sleep(0.1)
            payload = reborn.result_payload("feedc0ffee01")
            assert MiningResult.from_payload(payload).algorithm.startswith(
                "cubeminer"
            )
        finally:
            reborn.shutdown()

    def test_kill_workers_then_restart_recovers(self, tmp_path):
        """SIGKILLed workers + dead daemon still converge after restart."""
        manager, registry, cache = self._manager(tmp_path)
        rng = np.random.default_rng(17)
        dataset = Dataset3D(rng.random((8, 10, 10)) < 0.6)
        fp = registry.register(dataset).fingerprint
        thresholds = Thresholds(1, 1, 1)
        spec = JobSpec(
            dataset=fp,
            thresholds=thresholds,
            algorithm="parallel-cubeminer",
            options={"n_workers": 2},
            use_cache=False,
        )
        record = manager.submit(spec)
        deadline = time.monotonic() + 120
        while True:
            with manager._lock:  # noqa: SLF001
                live = record.id in manager._procs  # noqa: SLF001
            if live or manager.get(record.id).terminal:
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)
        manager.kill_workers()
        manager.shutdown()

        reborn = JobManager(tmp_path / "jobs", registry, cache, max_workers=1)
        try:
            deadline = time.monotonic() + 240
            while not reborn.get(record.id).terminal:
                assert time.monotonic() < deadline
                time.sleep(0.1)
            final = reborn.get(record.id)
            assert final.status == "done", final.error
            resumed = MiningResult.from_payload(
                reborn.result_payload(record.id)
            )
            assert cube_set(resumed) == cube_set(mine(dataset, thresholds))
        finally:
            reborn.shutdown()
