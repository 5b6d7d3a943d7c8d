"""Shared job-record tests: orphan detection and pid-recycling defense.

The subprocess end (real ``kill -9`` against a forked deployment) lives
in ``test_multiworker.py``; here the record-level liveness verdicts are
pinned deterministically by crafting owner stamps and reading the
records back through a :class:`JobManager` that does not own them.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.perf import records
from repro.perf.disk_cache import DiskCache
from repro.procutil import owner_alive, pid_alive, proc_start_ticks
from repro.service.jobs import JobManager


def _dead_pid() -> int:
    corpse = subprocess.Popen([sys.executable, "-c", "pass"])
    corpse.wait()
    return corpse.pid


class TestProcutil:
    def test_own_process_is_alive(self):
        assert pid_alive(os.getpid())
        assert owner_alive(os.getpid(), proc_start_ticks(os.getpid()))

    def test_dead_pid_is_dead(self):
        pid = _dead_pid()
        assert not pid_alive(pid)
        assert not owner_alive(pid, None)

    def test_recycled_pid_is_not_the_owner(self):
        # pid 1 is alive, but its start ticks cannot match this bogus
        # stamp: the record's writer is a different incarnation.
        assert pid_alive(1)
        if proc_start_ticks(1) is None:  # no /proc: degrade gracefully
            assert owner_alive(1, 123456789)
        else:
            assert not owner_alive(1, 123456789)

    def test_record_without_stamp_degrades_to_pid_probe(self):
        assert owner_alive(os.getpid(), None)
        assert not owner_alive(_dead_pid(), None)


class _Store:
    """Write job records directly; read them through a JobManager."""

    def __init__(self, tmp_path, worker_id="w0", instance=""):
        self.disk = DiskCache("jobs", directory=str(tmp_path))
        self.jobs = JobManager(cache_dir=str(tmp_path), worker_id="w-peer")
        self.worker_id = worker_id
        self.instance = instance

    def write(self, snapshot):
        records.write(self.disk, f"job-record:{snapshot['job_id']}",
                      snapshot, worker=self.worker_id,
                      instance=self.instance)

    def raw(self, job_id):
        return records.read(self.disk, f"job-record:{job_id}", "job_id")

    def load(self, job_id):
        return self.jobs.get(job_id)


class TestJobStore:
    def test_roundtrip_stamps_owner(self, tmp_path):
        store = _Store(tmp_path, worker_id="w0", instance="abc")
        store.write({"job_id": "j1", "status": "done", "result": 42})
        record = store.raw("j1")
        assert record["status"] == "done"
        assert record["result"] == 42
        assert record["owner_pid"] == os.getpid()
        assert record["owner_start_ticks"] == proc_start_ticks(os.getpid())
        assert record["owner_instance"] == "abc"
        # Client-facing snapshots shed the bookkeeping fields.
        snapshot = records.client_view(record)
        assert "owner_pid" not in snapshot
        assert "owner_start_ticks" not in snapshot
        assert snapshot["served_by"] == "w0"
        assert store.load("j1") == snapshot

    def test_running_record_of_live_owner_stays_running(self, tmp_path):
        store = _Store(tmp_path)
        store.write({"job_id": "j1", "status": "running"})
        assert store.load("j1")["status"] == "running"

    def test_dead_owner_resolves_to_retryable_failure(self, tmp_path):
        store = _Store(tmp_path)
        store.write({
            "job_id": "j1", "status": "running",
            "owner_pid": _dead_pid(),
        })
        record = store.load("j1")
        assert record["status"] == "failed"
        assert record["retryable"] is True
        # The verdict was rewritten in place: every later reader
        # (any worker) sees it without re-judging liveness.
        assert store.raw("j1")["status"] == "failed"
        assert store.load("j1")["status"] == "failed"

    def test_recycled_owner_pid_resolves_to_retryable_failure(self, tmp_path):
        if proc_start_ticks(1) is None:  # no /proc on this host
            return
        store = _Store(tmp_path)
        # pid 1 is alive, but the stamp belongs to a dead incarnation:
        # without the start-ticks check this job would stay 'running'
        # forever behind the squatting process.
        store.write({
            "job_id": "j1", "status": "running",
            "owner_pid": 1, "owner_start_ticks": 123456789,
        })
        record = store.load("j1")
        assert record["status"] == "failed"
        assert record["retryable"] is True

    def test_terminal_records_never_rejudged(self, tmp_path):
        store = _Store(tmp_path)
        store.write({
            "job_id": "j1", "status": "done", "result": 7,
            "owner_pid": _dead_pid(),
        })
        assert store.load("j1")["status"] == "done"
