"""Job lifecycle: queueing, polling, cancellation, timeouts, admission.

The HTTP-level tests use the module-scoped daemon (1 worker, queue of
2 — see conftest) so queue states are easy to construct; the watchdog
timeout is unit-tested directly on a :class:`JobManager` with a short
deadline, since forcing a 120 s HTTP timeout would be absurd in CI.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.client import ServiceError
from repro.service.jobs import CANCELLED, JobManager, TIMEOUT

CALIBRATE_SLOW = {
    "workload": "spec2000",
    "n_accesses": 1_000_000,
}
CALIBRATE_FAST = {
    "workload": "tpcc",
    "n_accesses": 20_000,
}


def test_job_runs_to_done_with_poll_transitions(client):
    job = client.calibrate(**CALIBRATE_FAST)
    assert job["status"] == "queued"
    assert job["poll"] == f"/v1/jobs/{job['job_id']}"
    done = client.wait_for_job(job["job_id"], timeout=180)
    assert done["status"] == "done"
    assert done["finished_at"] >= done["submitted_at"]
    assert len(done["result"]["l1_curve"]) > 0


def test_cancel_queued_job_never_runs(client):
    # 1 worker: the slow occupier pins it, so the victim stays queued.
    # The victim needs a fresh seed: a request whose curves are already
    # disk-cached (or profile-store resident) is born done and there is
    # nothing left to cancel.
    occupier = client.calibrate(**CALIBRATE_SLOW)
    victim = client.calibrate(seed=31, **CALIBRATE_FAST)
    verdict = client.cancel_job(victim["job_id"])
    assert verdict["status"] == "cancelled"
    assert verdict.get("started_at") is None
    # Idempotent: cancelling again just returns the snapshot.
    again = client.cancel_job(victim["job_id"])
    assert again["status"] == "cancelled"
    final = client.wait_for_job(occupier["job_id"], timeout=180)
    assert final["status"] == "done"


def test_queue_saturation_returns_503(client):
    # Queue limit is 2: pile on until the admission check trips.  Each
    # submission gets a fresh seed so none is answered from the disk
    # cache (a cached job drains instantly and the queue never fills).
    submitted = []
    try:
        with pytest.raises(ServiceError) as caught:
            for index in range(5):
                submitted.append(
                    client.calibrate(seed=100 + index,
                                     **CALIBRATE_SLOW)["job_id"]
                )
        assert caught.value.status == 503
        assert "queue" in caught.value.envelope["error"]["message"]
    finally:
        for job_id in submitted:
            client.cancel_job(job_id)
        # Let the worker pool drain the one job that may be running, so
        # later modules don't inherit a busy pool.
        deadline = time.time() + 180
        for job_id in submitted:
            while (client.job(job_id)["status"] in ("queued", "running")
                   and time.time() < deadline):
                time.sleep(0.2)


def test_cancelled_running_job_discards_result(client):
    # Fresh seed: a disk-cached calibration would finish before the
    # cancel could land on a *running* job.
    job = client.calibrate(seed=999, **CALIBRATE_SLOW)
    deadline = time.time() + 60
    while (client.job(job["job_id"])["status"] == "queued"
           and time.time() < deadline):
        time.sleep(0.05)
    verdict = client.cancel_job(job["job_id"])
    assert verdict["status"] == "cancelled"
    final = client.wait_for_job(job["job_id"], timeout=180)
    assert final["status"] == "cancelled"
    assert "result" not in final


def _settled_statuses(manager, job_ids, still=0.3, timeout=5.0):
    """Poll the jobs' statuses until they have not changed for ``still``
    seconds; returns job id -> status."""
    deadline = time.monotonic() + timeout
    statuses = None
    since = time.monotonic()
    while time.monotonic() < deadline:
        now = {job_id: manager.get(job_id)["status"] for job_id in job_ids}
        if now != statuses:
            statuses, since = now, time.monotonic()
        elif time.monotonic() - since >= still:
            return statuses
        time.sleep(0.02)
    raise AssertionError(f"job statuses never settled: {statuses}")


class TestJobManagerUnit:
    def test_timeout_expires_running_job(self):
        manager = JobManager(max_workers=1, timeout_seconds=0.6)
        job_id = manager.submit("nap", time.sleep, 3.0)
        deadline = time.time() + 10
        while time.time() < deadline:
            if manager.get(job_id)["status"] == TIMEOUT:
                break
            time.sleep(0.1)
        snapshot = manager.get(job_id)
        assert snapshot["status"] == TIMEOUT
        assert "timeout" in snapshot["error"]
        manager.shutdown(wait_seconds=5.0)

    def test_shutdown_cancels_queued_and_reports(self):
        # durable=False: the persist-at-submit disk write would give the
        # pool's management thread time to prefetch a second work item,
        # and this test pins the queue-withdrawal timing, not the store.
        manager = JobManager(max_workers=1, max_queue=8, durable=False)
        manager.submit("nap", time.sleep, 2.0)
        queued = [manager.submit("nap", time.sleep, 0.2)
                  for _ in range(3)]
        # ProcessPoolExecutor prefetches up to max_workers + 1 work items
        # into RUNNING, where Future.cancel() fails; how many it takes
        # depends on when its management thread ran.  It takes no more
        # until the first job finishes, so states that have held still
        # for a moment hold through shutdown's cancel pass.
        before = _settled_statuses(manager, queued)
        pending = [job_id for job_id in queued if before[job_id] == "queued"]
        summary = manager.shutdown(wait_seconds=10.0)
        for job_id in pending:
            assert manager.get(job_id)["status"] == CANCELLED
        assert summary["cancelled"] == len(pending)
        assert summary["cancelled"] + summary["drained"] == 4

    def test_submit_after_shutdown_is_rejected(self):
        from repro.errors import ServiceUnavailableError

        manager = JobManager(max_workers=1)
        manager.shutdown(wait_seconds=1.0)
        with pytest.raises(ServiceUnavailableError):
            manager.submit("nap", time.sleep, 0.1)

    def test_cancel_of_pending_future_does_not_deadlock(self):
        # ProcessPoolExecutor prefetches max_workers + 1 work items into
        # RUNNING state, where Future.cancel() returns False harmlessly.
        # A submission beyond that depth keeps a genuinely PENDING
        # future, and cancelling one runs the done callbacks
        # synchronously on the cancelling thread — which self-deadlocked
        # when cancel() still held the manager lock.  Regression for
        # that: the cancel must return promptly.
        manager = JobManager(max_workers=1, max_queue=8,
                             timeout_seconds=30.0)
        try:
            job_ids = [manager.submit("nap", time.sleep, 0.5)
                       for _ in range(6)]
            result = {}

            def do_cancel():
                result["snapshot"] = manager.cancel(job_ids[-1])

            worker = threading.Thread(target=do_cancel, daemon=True)
            worker.start()
            worker.join(timeout=5.0)
            assert not worker.is_alive(), \
                "cancel() deadlocked on a pending future"
            assert result["snapshot"]["status"] == CANCELLED
            # The manager lock must still be usable afterwards.
            assert manager.get(job_ids[-1])["status"] == CANCELLED
        finally:
            manager.shutdown(wait_seconds=10.0)

    def test_failed_job_carries_error_string(self):
        manager = JobManager(max_workers=1)
        job_id = manager.submit("bad", time.sleep, "not-a-number")
        deadline = time.time() + 10
        while time.time() < deadline:
            snapshot = manager.get(job_id)
            if snapshot["status"] not in ("queued", "running"):
                break
            time.sleep(0.05)
        assert snapshot["status"] == "failed"
        assert "TypeError" in snapshot["error"]
        manager.shutdown(wait_seconds=5.0)
