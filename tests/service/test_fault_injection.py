"""Fault injection at every persistence step of jobs and campaigns.

A crash can only leave the shared store in a state some prefix of the
writes produced: ``DiskCache.store`` renames a finished temp file into
place, so a kill before, during or right after write *k* leaves the
directory as it was after write *k - 1* or *k*.  These tests wrap
``DiskCache.store`` to copy the whole cache root after every write to
the namespace under test, then treat each copy as a crashed fleet:
every record's owner is repainted dead (pid 1 with a start-ticks stamp
that cannot match) and a fresh manager reads the copy back.

Invariants, per copy:

* a ``done`` job or campaign comes back bit-identical;
* a client-cancelled item stays cancelled and never runs again;
* an in-flight job comes back ``failed`` and ``retryable``;
* an in-flight or shutdown-drained campaign is adopted and ends with
  the same results as the clean run.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.runner import CampaignManager
from repro.errors import ValidationError
from repro.perf.disk_cache import DiskCache
from repro.service.jobs import JobManager
from tests.campaign.test_runner import (
    InlineJobs,
    MATRIX,
    ManualJobs,
    SWEEPS,
    make_spec,
    wait_until,
)

#: A start-ticks stamp no incarnation of pid 1 carries.
DEAD_TICKS = 123456789


@contextlib.contextmanager
def copy_after_each_store(root: Path, namespace: str, out: Path):
    """Copy ``root`` into ``out/<n>`` after every store to ``namespace``.

    Yields the list the copies are appended to, in write order.
    """
    original = DiskCache.store
    copies = []
    guard = threading.Lock()

    def store(self, fingerprint, payload):
        path = original(self, fingerprint, payload)
        if self.directory == root / namespace:
            with guard:
                target = out / f"{len(copies):03d}"
                shutil.copytree(
                    root, target,
                    ignore=shutil.ignore_patterns("*.tmp", "*.lock"),
                )
                copies.append(target)
        return path

    DiskCache.store = store
    try:
        yield copies
    finally:
        DiskCache.store = original


def kill_owner(disk: DiskCache, key: str):
    """Repaint one record's owner as a dead process; returns the record."""
    record = disk.load(key)
    if record is not None:
        record["owner_pid"] = 1
        record["owner_start_ticks"] = DEAD_TICKS
        disk.store(key, record)
    return record


class TestJobFaults:
    def test_every_job_write_recovers(self, tmp_path):
        root = tmp_path / "clean"
        owner = JobManager(max_workers=1, cache_dir=str(root),
                           worker_id="w0")
        with copy_after_each_store(root, "jobs", tmp_path / "copies") \
                as copies:
            done_id = owner.submit("pow", pow, 2, 10)
            assert owner.wait_for(done_id, 30.0)["status"] == "done"
            born_id = owner.submit_completed("instant", {"answer": 42})
            # One worker: the blocker pins it, so the victim is queued
            # (or at most pre-dispatched) when the client cancels it.
            blocker_id = owner.submit("nap", time.sleep, 0.3)
            victim_id = owner.submit("pow", pow, 3, 3)
            assert owner.cancel(victim_id)["status"] == "cancelled"
            assert owner.wait_for(blocker_id, 30.0)["status"] == "done"
        owner.shutdown(wait_seconds=10.0)
        ids = (done_id, born_id, blocker_id, victim_id)
        served = {
            job_id: {**owner.get(job_id), "owner_worker": "w0",
                     "served_by": "w0"}
            for job_id in ids
        }
        # Admission + verdict for each pool job, one born-done record.
        assert len(copies) == 7

        seen = set()
        for copy in copies:
            disk = DiskCache("jobs", directory=copy)
            fresh = JobManager(max_workers=1, cache_dir=str(copy),
                               worker_id="w-fresh")
            for job_id in ids:
                record = kill_owner(disk, f"job-record:{job_id}")
                if record is None:
                    with pytest.raises(ValidationError):
                        fresh.get(job_id)
                    continue
                status = record["status"]
                seen.add(status)
                view = fresh.get(job_id)
                if status == "done":
                    assert view == served[job_id]
                    assert json.dumps(view, sort_keys=True) == \
                        json.dumps(served[job_id], sort_keys=True)
                elif status == "cancelled":
                    assert view["status"] == "cancelled"
                    assert fresh.get(job_id)["status"] == "cancelled"
                else:
                    assert status in ("queued", "running")
                    assert view["status"] == "failed"
                    assert view["retryable"] is True
                    # The verdict was rewritten: later reads agree.
                    assert fresh.get(job_id)["status"] == "failed"
            fresh.shutdown(wait_seconds=1.0)
        assert seen == {"queued", "done", "cancelled"}


BODY = {"fault-injection": True}


def _disk_status(root, campaign_id):
    record = DiskCache("campaigns", directory=root).load(
        f"campaign-state:{campaign_id}"
    )
    return None if record is None else record["status"]


def _profile_job(jobs):
    for job_id, (fn, _, _) in jobs.pending.items():
        if fn.__name__ == "_profile_task":
            return job_id
    return None


class TestCampaignFaults:
    SPEC = make_spec(name="faults", matrix=MATRIX, sweeps=SWEEPS)

    def _manager(self, jobs, root, worker_id):
        return CampaignManager(
            jobs=jobs, cache_dir=str(root), poll_interval=0.005,
            spec_parser=lambda body: self.SPEC, worker_id=worker_id,
        )

    def _run_clean(self, root, out):
        m = self._manager(InlineJobs(), root, "w0")
        with copy_after_each_store(root, "campaigns", out) as copies:
            campaign_id = m.submit(self.SPEC, spec_body=BODY)["campaign_id"]
            final = m.wait(campaign_id, 30.0)
            # The coordinator persists the verdict just after it turns
            # visible locally; let that last write land in the copies.
            wait_until(lambda: _disk_status(root, campaign_id) == "done")
        m.shutdown()
        assert final["status"] == "done"
        return campaign_id, final, copies

    def _run_interrupted(self, root, out, how):
        """Finish the profile and its points, then cancel or drain."""
        jobs = ManualJobs()
        m = self._manager(jobs, root, "w0")
        with copy_after_each_store(root, "campaigns", out) as copies:
            campaign_id = m.submit(self.SPEC, spec_body=BODY)["campaign_id"]
            wait_until(lambda: _profile_job(jobs) is not None)
            jobs.finish(_profile_job(jobs))
            wait_until(lambda: m.get(campaign_id)["units"]["done"] >= 4)
            if how == "client":
                assert m.cancel(campaign_id)["status"] == "cancelled"
            else:
                m.shutdown()
        m.shutdown()
        return campaign_id, copies

    def _check_copies(self, campaign_id, copies, clean):
        seen = set()
        for copy in copies:
            disk = DiskCache("campaigns", directory=copy)
            record = kill_owner(disk, f"campaign-state:{campaign_id}")
            assert record is not None  # the state record is written first
            jobs = InlineJobs()
            fresh = self._manager(jobs, copy, "w-fresh")
            final = fresh.wait(campaign_id, 30.0)
            state = record["status"]
            if state == "cancelled" and record.get("cancelled_by") != \
                    "shutdown":
                seen.add("client-cancelled")
                assert final["status"] == "cancelled"
                assert "adopted" not in final
                assert fresh.get(campaign_id)["status"] == "cancelled"
                assert jobs.counter == 0  # nothing ran again
            else:
                seen.add(record.get("cancelled_by") or state)
                assert final["status"] == "done"
                assert final["adopted"] is True
                assert json.dumps(final["results"], sort_keys=True) == \
                    json.dumps(clean["results"], sort_keys=True)
                assert final.get("summary") == clean.get("summary")
            fresh.shutdown()
        return seen

    def test_done_campaign_every_write_recovers(self, tmp_path):
        campaign_id, clean, copies = self._run_clean(
            tmp_path / "clean", tmp_path / "copies"
        )
        assert self._check_copies(campaign_id, copies, clean) == \
            {"running", "done"}

    def test_client_cancelled_campaign_every_write_recovers(
        self, tmp_path
    ):
        _, clean, _ = self._run_clean(tmp_path / "ref", tmp_path / "ref-c")
        campaign_id, copies = self._run_interrupted(
            tmp_path / "clean", tmp_path / "copies", "client"
        )
        assert self._check_copies(campaign_id, copies, clean) == \
            {"running", "client-cancelled"}

    def test_drained_campaign_every_write_recovers(self, tmp_path):
        _, clean, _ = self._run_clean(tmp_path / "ref", tmp_path / "ref-c")
        campaign_id, copies = self._run_interrupted(
            tmp_path / "clean", tmp_path / "copies", "shutdown"
        )
        assert self._check_copies(campaign_id, copies, clean) == \
            {"running", "shutdown"}


@contextlib.contextmanager
def count_stores(root: Path):
    """Count ``DiskCache.store`` calls per namespace under ``root``.

    Stores under other roots (a coordinator thread an earlier test left
    winding down) are not counted.
    """
    original = DiskCache.store
    counts = {}
    guard = threading.Lock()

    def store(self, fingerprint, payload):
        if self.directory.parent == root:
            with guard:
                name = self.directory.name
                counts[name] = counts.get(name, 0) + 1
        return original(self, fingerprint, payload)

    DiskCache.store = store
    try:
        yield counts
    finally:
        DiskCache.store = original


class TestWriteCounts:
    """The number of disk writes behind one job and one campaign.

    Every write here is a persistence step the fault-injection tests
    above cover; a new one would be an unpinned crash point (and extra
    latency on the service's ``jobs`` and ``campaign`` routes).
    """

    def test_born_done_job_is_one_write(self, tmp_path):
        jobs = JobManager(max_workers=1, cache_dir=str(tmp_path))
        with count_stores(tmp_path) as counts:
            jobs.submit_completed("instant", {"answer": 42})
        jobs.shutdown()
        assert counts == {"jobs": 1}

    def test_pool_job_is_two_writes(self, tmp_path):
        jobs = JobManager(max_workers=1, cache_dir=str(tmp_path))
        with count_stores(tmp_path) as counts:
            job_id = jobs.submit("pow", pow, 2, 10)
            assert jobs.wait_for(job_id, 30.0)["status"] == "done"
        jobs.shutdown()
        assert counts == {"jobs": 2}

    def test_small_campaign_write_count(self, tmp_path):
        m = CampaignManager(jobs=InlineJobs(), cache_dir=str(tmp_path),
                            poll_interval=0.005)
        with count_stores(tmp_path) as counts:
            campaign_id = m.submit(make_spec(matrix=MATRIX))["campaign_id"]
            assert m.wait(campaign_id, 30.0)["status"] == "done"
            wait_until(
                lambda: _disk_status(tmp_path, campaign_id) == "done"
            )
        m.shutdown()
        # State records: submit, one progress checkpoint, the verdict;
        # plus one checkpoint per unit (profile + 3 points).
        assert counts.get("campaigns") == 7
