"""Campaign endpoints over real HTTP + the crash-resume guarantee.

Module-local server fixture: the shared ``tests/service`` fixture keeps
``job_queue=2`` to exercise backpressure, which is far too small for a
campaign's child-job fan-out, so this module runs its own daemon with a
deeper queue.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service import ServiceClient, ServiceConfig, create_server
from repro.service.client import ServiceError

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        port=0,
        batch_window_seconds=0.005,
        job_workers=2,
        job_queue=64,
        job_timeout_seconds=120.0,
        cache_dir=str(tmp_path_factory.mktemp("campaign-cache")),
        campaign_fanout=4,
    )
    instance = create_server(config)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.service.shutdown()
    instance.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.bound_port, timeout=60.0) as instance:
        yield instance


def small_spec(name="http-campaign", n_accesses=20_000) -> dict:
    return {
        "name": name,
        "workloads": ["spec2000"],
        "policies": ["lru"],
        "calibration": {"n_accesses": n_accesses},
        "matrix": {"l1_sizes_kb": [4, 8], "l1_assocs": [2],
                   "l2_sizes_kb": [128], "l2_assocs": [8]},
        "amat": {"l1_sizes_kb": [8], "l1_assocs": [2],
                 "l2_sizes_kb": [1024], "l2_assocs": [8]},
        "sweeps": [{"cache": {"size_kb": 16}, "vth": [0.25, 0.3],
                    "tox": [12.0], "components": ["array"]}],
        "optimize": {"caches": [{"size_kb": 16}], "schemes": ["1", "3"],
                     "target_ps": 1200},
        "constraints": {"max_amat_ps": 1e6},
    }


class TestEndpoints:
    def test_round_trip_and_reuse(self, client):
        spec = small_spec("round-trip")
        submitted = client.submit_campaign(spec)
        assert submitted["campaign_id"].startswith("campaign-")
        assert submitted["units"]["total"] == 8  # 1+3 matrix, 1 amat,
        final = client.wait_for_campaign(       # 1 sweep, 2 optimize
            submitted["campaign_id"], timeout=120
        )
        assert final["status"] == "done"
        assert final["units"]["done"] == 8
        assert set(final["results"]) >= {"point", "amat", "sweep",
                                         "optimize"}
        assert final["summary"]["best_amat"]["workload"] == "spec2000"
        # A heavy pool pass per profile/sweep/optimize at most: the
        # matrix points and the amat cell ride along for free.
        assert final["engine_passes"] < final["units"]["total"]

        again = client.submit_campaign(spec)
        assert again["status"] == "done"
        resumed = client.campaign(again["campaign_id"])
        assert resumed["units"]["reused"] == resumed["units"]["total"]
        assert resumed["engine_passes"] == 0
        assert json.dumps(final["results"], sort_keys=True) == \
            json.dumps(resumed["results"], sort_keys=True)

    def test_progress_poll_skips_results(self, client):
        submitted = client.submit_campaign(small_spec("progress"))
        campaign_id = submitted["campaign_id"]
        progress = client.campaign(campaign_id, wait=0.05, results=False)
        assert "results" not in progress
        assert "summary" not in progress
        assert progress["units"]["total"] == 8
        final = client.wait_for_campaign(campaign_id, timeout=120)
        assert "results" in final

    def test_campaign_long_poll_returns_early(self, client):
        campaign_id = client.submit_campaign(
            small_spec("longpoll")
        )["campaign_id"]
        start = time.monotonic()
        snapshot = client.campaign(campaign_id, wait=60.0, results=False)
        elapsed = time.monotonic() - start
        # The wait parameter is a ceiling, not a sleep: the read returns
        # as soon as the campaign is terminal.
        assert snapshot["status"] == "done"
        assert elapsed < 60.0

    def test_unknown_campaign_404(self, client):
        with pytest.raises(ServiceError) as error:
            client.campaign("campaign-424242")
        assert error.value.status == 404

    def test_bad_wait_value_400(self, client):
        campaign_id = client.submit_campaign(
            small_spec("badwait")
        )["campaign_id"]
        with pytest.raises(ServiceError) as error:
            client.request("GET", f"/v1/campaigns/{campaign_id}?wait=soon")
        assert error.value.status == 400
        assert "wait" in str(error.value)

    def test_budget_overflow_is_a_structured_400(self, client):
        with pytest.raises(ServiceError) as error:
            client.submit_campaign({
                "workloads": ["spec2000", "specweb", "tpcc"],
                "policies": ["lru", "fifo", "random"],
                "matrix": {},
                "max_units": 50,
            })
        assert error.value.status == 400
        message = str(error.value)
        assert "campaign.matrix expands to 108 units" in message
        assert "the limit is 50" in message

    def test_metrics_expose_campaign_counters(self, client):
        client.run_campaign(small_spec("metrics"), timeout=120)
        payload = client.metrics()
        counters = payload["counters"]
        for name in ("campaigns.submitted", "campaigns.completed",
                     "campaigns.units_done", "campaigns.engine_passes"):
            assert counters.get(name, 0) >= 1, name
        assert "campaigns.active" in payload["gauges"]


class TestJobLongPoll:
    def test_jobs_wait_blocks_until_done(self, client):
        job = client.calibrate(workload="tpcc", n_accesses=40_000)
        if job["status"] == "done":  # served synchronously from cache
            pytest.skip("calibration answered synchronously")
        snapshot = client.job(job["job_id"], wait=30.0)
        # One long-poll read rides out the whole computation.
        assert snapshot["status"] == "done"

    def test_jobs_bad_wait_400(self, client):
        with pytest.raises(ServiceError) as error:
            client.request("GET", "/v1/jobs/job-1?wait=-3")
        assert error.value.status == 400


class TestCancellation:
    def test_cancel_propagates_to_queued_child_jobs(self, client):
        # Fill both pool workers with slow foreground jobs so the
        # campaign's heavy units stay queued and cancellable.
        blockers = [
            client.calibrate(workload=workload, n_accesses=1_500_000)
            for workload in ("spec2000", "specweb")
        ]
        try:
            spec = {
                "name": "cancel-me",
                "calibration": {"n_accesses": 20_000},
                "sweeps": [{"cache": {"size_kb": 16},
                            "vth": [0.25, 0.3], "tox": [12.0]}],
                "optimize": {"caches": [{"size_kb": 16}, {"size_kb": 32}],
                             "schemes": ["1", "2", "3"],
                             "target_ps": 1200},
            }
            submitted = client.submit_campaign(spec)
            campaign_id = submitted["campaign_id"]
            deadline = time.monotonic() + 30
            while True:
                snapshot = client.campaign(campaign_id, results=False)
                if snapshot["jobs"] or snapshot["status"] != "running":
                    break
                assert time.monotonic() < deadline, "no child jobs appeared"
                time.sleep(0.02)
            assert snapshot["status"] == "running"
            child_jobs = snapshot["jobs"]
            assert child_jobs

            cancelled = client.cancel_campaign(campaign_id)
            assert cancelled["status"] == "cancelled"
            assert cancelled["units"]["cancelled"] >= 1
            for job_id in child_jobs:
                assert client.job(job_id)["status"] == "cancelled"
            # Cancelling twice is a no-op, not an error.
            assert client.cancel_campaign(campaign_id)["status"] == \
                "cancelled"
        finally:
            for blocker in blockers:
                if blocker.get("job_id"):
                    client.cancel_job(blocker["job_id"])


class TestClientBackoff:
    def test_polling_backs_off_exponentially_with_jitter(self, monkeypatch):
        import repro.service.client as client_module

        pauses = []

        class FakeTime:
            monotonic = staticmethod(time.monotonic)

            @staticmethod
            def sleep(seconds):
                pauses.append(seconds)

        monkeypatch.setattr(client_module, "time", FakeTime)
        instance = ServiceClient(port=1)
        instance._random = random.Random(7)
        snapshots = iter(
            [{"status": "running"}] * 6 + [{"status": "done"}]
        )

        final = instance._poll(
            lambda wait: next(snapshots), "job job-x",
            timeout=300.0, poll_interval=None, long_poll=False,
        )
        assert final["status"] == "done"
        assert len(pauses) == 6
        # Jittered exponential: each pause is delay * U[0.5, 1.5) with
        # delay doubling from 50 ms, so windows never overlap two steps
        # apart and the later pauses dominate the earlier ones.
        assert 0.025 <= pauses[0] <= 0.075
        assert 0.2 <= pauses[3] <= 0.6
        assert pauses[3] > pauses[0]
        assert max(pauses) <= 3.0

    def test_explicit_poll_interval_restores_fixed_cadence(self,
                                                           monkeypatch):
        import repro.service.client as client_module

        pauses = []

        class FakeTime:
            monotonic = staticmethod(time.monotonic)

            @staticmethod
            def sleep(seconds):
                pauses.append(seconds)

        monkeypatch.setattr(client_module, "time", FakeTime)
        instance = ServiceClient(port=1)
        snapshots = iter(
            [{"status": "running"}] * 4 + [{"status": "done"}]
        )
        instance._poll(
            lambda wait: next(snapshots), "job job-y",
            timeout=300.0, poll_interval=0.25, long_poll=False,
        )
        assert pauses == [0.25] * 4


class TestCrashResume:
    """kill -9 mid-campaign; a restarted daemon resumes from checkpoints."""

    SPEC = {
        "name": "crash-resume",
        "workloads": ["spec2000"],
        "policies": ["lru"],
        "calibration": {"n_accesses": 60_000},
        "matrix": {"l1_sizes_kb": [4, 8, 16], "l1_assocs": [2],
                   "l2_sizes_kb": [256], "l2_assocs": [8]},
        "optimize": {
            "caches": [{"size_kb": kb} for kb in (8, 16, 32)],
            "schemes": ["1", "2", "3"],
            "target_ps": [900, 1200],
        },
    }

    def _spawn(self, tmp_path, cache_dir):
        port_file = tmp_path / f"port-{time.monotonic_ns()}"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.path.abspath(SRC) + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file),
             "--cache-dir", str(cache_dir)],
            env=environment,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            # Its own process group, so a kill -9 takes the daemon's job
            # pool down with it instead of orphaning the pool workers.
            start_new_session=True,
        )
        deadline = time.time() + 60
        while not port_file.exists():
            if process.poll() is not None:
                pytest.fail(
                    f"daemon exited early:\n{process.stdout.read()}"
                )
            if time.time() > deadline:
                self._kill(process)
                pytest.fail("daemon never wrote its port file")
            time.sleep(0.05)
        return process, int(port_file.read_text().strip())

    @staticmethod
    def _kill(process):
        """kill -9 the daemon and every process it started."""
        os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=10)

    def test_kill_dash_nine_then_resume_bit_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"

        # Phase 1: run the campaign and kill -9 mid-flight.
        process, port = self._spawn(tmp_path, cache_dir)
        observed_done = 0
        try:
            with ServiceClient(port=port, timeout=30.0) as client:
                campaign_id = client.submit_campaign(
                    self.SPEC
                )["campaign_id"]
                deadline = time.monotonic() + 90
                while time.monotonic() < deadline:
                    snapshot = client.campaign(
                        campaign_id, wait=0.2, results=False
                    )
                    observed_done = snapshot["units"]["done"]
                    if observed_done >= 2 or snapshot["status"] != \
                            "running":
                        break
            assert observed_done >= 2, "campaign made no visible progress"
        finally:
            self._kill(process)

        # Phase 2: restart on the same cache dir and resubmit.
        process, port = self._spawn(tmp_path, cache_dir)
        try:
            with ServiceClient(port=port, timeout=30.0) as client:
                resumed_id = client.submit_campaign(
                    self.SPEC
                )["campaign_id"]
                snapshot = client.campaign(resumed_id, results=False)
                # Every unit the killed daemon checkpointed is reused:
                # observed_done is a lower bound (checkpoints land
                # before the status flip we polled).
                assert snapshot["units"]["reused"] >= observed_done
                resumed = client.wait_for_campaign(resumed_id,
                                                   timeout=180)
                assert resumed["status"] == "done"
        finally:
            self._kill(process)

        # Phase 3: an uninterrupted run on a fresh cache dir must agree
        # bit for bit.
        process, port = self._spawn(tmp_path, tmp_path / "fresh-cache")
        try:
            with ServiceClient(port=port, timeout=30.0) as client:
                clean = client.run_campaign(self.SPEC, timeout=180)
                assert clean["status"] == "done"
        finally:
            self._kill(process)

        assert json.dumps(resumed["results"], sort_keys=True) == \
            json.dumps(clean["results"], sort_keys=True)
