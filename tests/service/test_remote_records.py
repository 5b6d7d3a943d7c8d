"""Remote-record branches of the job and campaign managers.

Two managers sharing one cache directory stand in for two workers of a
fleet: the *owner* runs the work, the *peer* only sees the shared
records.  Both live in this process, so the owner counts as a live
sibling.  Pinned here:

* ``cancel`` of work another live worker owns returns that worker's
  record plus an "owned by another worker" note, and changes nothing;
* ``wait_for`` / ``wait`` on a remote record return as soon as the
  owner's record turns terminal (long before the wait expires);
* a job result that cannot be serialised is stored flagged
  ``result_unserializable: true``;
* ``jobs.store_serves`` / ``campaigns.store_serves`` count remote reads.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.campaign.runner import CampaignManager
from repro.errors import ValidationError
from repro.service.jobs import JobManager
from repro.service.metrics import MetricsRegistry
from tests.campaign.test_runner import (
    InlineJobs,
    MATRIX,
    ManualJobs,
    make_spec,
    wait_until,
)


@pytest.fixture()
def fleet(tmp_path):
    """An owner and a peer job manager on one shared store."""
    owner = JobManager(max_workers=1, cache_dir=str(tmp_path),
                       worker_id="w-owner", metrics=MetricsRegistry())
    peer_metrics = MetricsRegistry()
    peer = JobManager(max_workers=1, cache_dir=str(tmp_path),
                      worker_id="w-peer", metrics=peer_metrics)
    yield owner, peer, peer_metrics
    owner.shutdown(wait_seconds=10.0)
    peer.shutdown(wait_seconds=1.0)


class TestRemoteJobs:
    def test_cancel_of_live_siblings_job_is_a_note(self, fleet):
        owner, peer, _ = fleet
        job_id = owner.submit("nap", time.sleep, 0.5)
        snapshot = peer.cancel(job_id)
        assert snapshot["job_id"] == job_id
        assert snapshot["status"] in ("queued", "running")
        assert "owned by another worker" in snapshot["note"]
        assert snapshot["served_by"] == "w-owner"
        assert "owner_pid" not in snapshot
        # No effect: the owner's job still runs to completion.
        assert owner.wait_for(job_id, 30.0)["status"] == "done"
        assert peer.get(job_id)["status"] == "done"

    def test_cancel_of_finished_remote_job_serves_the_verdict(self, fleet):
        owner, peer, _ = fleet
        job_id = owner.submit_completed("instant", {"answer": 42})
        snapshot = peer.cancel(job_id)
        assert snapshot["status"] == "done"
        assert snapshot["result"] == {"answer": 42}
        assert "note" not in snapshot

    def test_wait_for_remote_job_returns_when_it_turns_terminal(
        self, fleet
    ):
        owner, peer, peer_metrics = fleet
        job_id = owner.submit("nap", time.sleep, 0.6)
        started = time.monotonic()
        snapshot = peer.wait_for(job_id, 30.0)
        elapsed = time.monotonic() - started
        assert snapshot["status"] == "done"
        assert snapshot["served_by"] == "w-owner"
        assert elapsed < 10.0
        # The remote wait polled the shared record more than once.
        assert peer_metrics.counter("jobs.store_serves") >= 2

    def test_wait_for_remote_job_expires_with_its_record(self, fleet):
        owner, peer, _ = fleet
        job_id = owner.submit("nap", time.sleep, 1.0)
        snapshot = peer.wait_for(job_id, 0.3)
        assert snapshot["status"] in ("queued", "running")
        assert owner.wait_for(job_id, 30.0)["status"] == "done"

    def test_unserialisable_result_is_stored_flagged(self, fleet):
        owner, peer, _ = fleet
        job_id = owner.submit_completed("odd", object())
        snapshot = peer.get(job_id)
        assert snapshot["status"] == "done"
        assert snapshot["result_unserializable"] is True
        assert "result" not in snapshot

    def test_store_serves_counts_remote_reads(self, fleet):
        owner, peer, peer_metrics = fleet
        job_id = owner.submit_completed("instant", 7)
        owner.get(job_id)  # a local read touches no store
        assert peer_metrics.counter("jobs.store_serves") == 0
        peer.get(job_id)
        peer.get(job_id)
        assert peer_metrics.counter("jobs.store_serves") == 2
        with pytest.raises(ValidationError):
            peer.get("job-unknown-1")
        assert peer_metrics.counter("jobs.store_serves") == 2


@pytest.fixture()
def campaign_fleet(tmp_path):
    """An owner campaign manager with hand-driven jobs, plus a peer."""
    jobs = ManualJobs()
    owner = CampaignManager(jobs=jobs, cache_dir=str(tmp_path),
                            poll_interval=0.005, worker_id="w-owner")
    peer_metrics = MetricsRegistry()
    peer = CampaignManager(jobs=InlineJobs(), cache_dir=str(tmp_path),
                           metrics=peer_metrics, poll_interval=0.005,
                           worker_id="w-peer")
    yield owner, jobs, peer, peer_metrics
    peer.shutdown()
    owner.shutdown()


def _finish_all(jobs):
    for job_id in list(jobs.pending):
        jobs.finish(job_id)


class TestRemoteCampaigns:
    def test_cancel_of_live_siblings_campaign_is_a_note(
        self, campaign_fleet
    ):
        owner, jobs, peer, _ = campaign_fleet
        campaign_id = owner.submit(make_spec(matrix=MATRIX))["campaign_id"]
        wait_until(lambda: jobs.pending)
        snapshot = peer.cancel(campaign_id)
        assert snapshot["campaign_id"] == campaign_id
        assert snapshot["status"] == "running"
        assert "owned by another worker" in snapshot["note"]
        assert snapshot["served_by"] == "w-owner"
        assert "owner_pid" not in snapshot
        # No effect: nothing was cancelled on the owner.
        assert not jobs.cancelled
        assert owner.get(campaign_id)["status"] == "running"
        _finish_all(jobs)
        assert owner.wait(campaign_id, 30.0)["status"] == "done"

    def test_wait_on_remote_campaign_returns_when_it_turns_terminal(
        self, campaign_fleet
    ):
        owner, jobs, peer, peer_metrics = campaign_fleet
        campaign_id = owner.submit(make_spec(matrix=MATRIX))["campaign_id"]
        wait_until(lambda: jobs.pending)
        outcome = {}

        def _wait():
            started = time.monotonic()
            outcome["snapshot"] = peer.wait(campaign_id, 30.0)
            outcome["elapsed"] = time.monotonic() - started

        waiter = threading.Thread(target=_wait)
        waiter.start()
        time.sleep(0.4)
        _finish_all(jobs)
        waiter.join(timeout=40.0)
        assert not waiter.is_alive()
        assert outcome["snapshot"]["status"] == "done"
        assert outcome["snapshot"]["served_by"] == "w-owner"
        assert "adopted" not in outcome["snapshot"]
        assert outcome["elapsed"] < 10.0
        assert peer_metrics.counter("campaigns.store_serves") >= 2

    def test_store_serves_counts_remote_reads(self, campaign_fleet):
        owner, jobs, peer, peer_metrics = campaign_fleet
        campaign_id = owner.submit(make_spec(matrix=MATRIX))["campaign_id"]
        wait_until(lambda: jobs.pending)
        owner.get(campaign_id)
        assert peer_metrics.counter("campaigns.store_serves") == 0
        peer.get(campaign_id)
        peer.get(campaign_id)
        assert peer_metrics.counter("campaigns.store_serves") == 2
        with pytest.raises(ValidationError):
            peer.get("campaign-unknown-1")
        assert peer_metrics.counter("campaigns.store_serves") == 2
        _finish_all(jobs)
