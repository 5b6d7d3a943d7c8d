"""The shared-record format behind durable jobs and campaigns.

``fixtures/job_record.json`` and ``fixtures/campaign_state.json`` are
disk-cache entries exactly as earlier releases wrote them (a born-done
job, a shutdown-drained campaign).  Their client views are pinned as
literals below, so a worker on this code serves records that older
workers of a fleet left behind unchanged.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from repro.campaign.runner import CampaignManager
from repro.errors import ServiceUnavailableError, ValidationError
from repro.perf import records
from repro.perf.disk_cache import DiskCache
from repro.procutil import proc_start_ticks
from repro.service.jobs import JobManager

FIXTURES = Path(__file__).parent / "fixtures"

JOB_ID = "job-b4b69cf0-1"
CAMPAIGN_ID = "campaign-b8a1d64e-1"

JOB_VIEW = {
    "job_id": "job-b4b69cf0-1",
    "kind": "calibrate",
    "status": "done",
    "submitted_at": 1792391571.5520167,
    "started_at": 1792391571.5520167,
    "finished_at": 1792391571.5520167,
    "result": {"l1_curve": [[16, 0.0421]], "l2_curve": [[1024, 0.1875]]},
    "workload": "spec2000",
    "served_from": "profile_store",
    "owner_worker": "w1",
    "served_by": "w1",
}

CAMPAIGN_VIEW = {
    "campaign_id": "campaign-b8a1d64e-1",
    "name": "run-test",
    "status": "cancelled",
    "created_at": 1792391571.5541508,
    "finished_at": 1792391571.7553067,
    "units": {
        "total": 4, "done": 0, "failed": 0, "cancelled": 4,
        "pending": 0, "running": 0, "reused": 0, "deduped": 0,
    },
    "engine_passes": 0,
    "jobs": ["job-1"],
    "child_jobs": ["job-1"],
    "poll": "/v1/campaigns/campaign-b8a1d64e-1",
    "cancelled_by": "shutdown",
    "owner_worker": "w0",
    "served_by": "w0",
}


def _install(fixture: str, disk: DiskCache, key: str) -> None:
    """Drop a checked-in entry where ``disk`` looks for ``key``."""
    disk.directory.mkdir(parents=True)
    shutil.copyfile(FIXTURES / fixture, disk.path_for(key))


def _dead_pid() -> int:
    corpse = subprocess.Popen([sys.executable, "-c", "pass"])
    corpse.wait()
    return corpse.pid


class TestRecordCompatibility:
    def test_job_record_client_view(self, tmp_path):
        disk = DiskCache("jobs", directory=tmp_path)
        _install("job_record.json", disk, f"job-record:{JOB_ID}")
        record = records.read(disk, f"job-record:{JOB_ID}", "job_id")
        assert list(records.client_view(record).items()) == \
            list(JOB_VIEW.items())
        jobs = JobManager(cache_dir=str(tmp_path))
        assert jobs.get(JOB_ID) == JOB_VIEW

    def test_campaign_state_client_view(self, tmp_path):
        disk = DiskCache("campaigns", directory=tmp_path)
        _install("campaign_state.json", disk, f"campaign-state:{CAMPAIGN_ID}")
        record = records.read(
            disk, f"campaign-state:{CAMPAIGN_ID}", "campaign_id"
        )
        assert list(records.client_view(record).items()) == \
            list(CAMPAIGN_VIEW.items())
        # Without a spec parser the record cannot be adopted: it is
        # served as it stands.
        campaigns = CampaignManager(jobs=None, cache_dir=str(tmp_path))
        assert campaigns.get(CAMPAIGN_ID) == CAMPAIGN_VIEW

    def test_rewritten_record_keeps_its_bytes_but_the_stamp(self, tmp_path):
        disk = DiskCache("jobs", directory=tmp_path)
        key = f"job-record:{JOB_ID}"
        _install("job_record.json", disk, key)
        record = records.read(disk, key, "job_id")
        records.write(disk, key, record, worker="w9", instance="other")
        rewritten = records.read(disk, key, "job_id")
        # The original owner stays; only the persist time moves.
        assert {k: v for k, v in rewritten.items() if k != "persisted_at"} \
            == {k: v for k, v in record.items() if k != "persisted_at"}


class TestRead:
    def test_read_rejects_foreign_shapes(self, tmp_path):
        disk = DiskCache("jobs", directory=tmp_path)
        disk.store("list", [1, 2])
        disk.store("other", {"campaign_id": "c1"})
        assert records.read(disk, "missing", "job_id") is None
        assert records.read(disk, "list", "job_id") is None
        assert records.read(disk, "other", "job_id") is None


class TestLiveness:
    def test_orphaned_needs_a_dead_owner_and_an_open_status(self):
        dead = _dead_pid()
        assert records.orphaned({"status": "running", "owner_pid": dead})
        assert not records.orphaned({"status": "done", "owner_pid": dead})
        assert not records.orphaned(
            {"status": "running", "owner_pid": os.getpid()}
        )
        assert not records.orphaned({"status": "running"})

    def test_owned_by_sibling_excludes_this_process(self):
        assert not records.owned_by_sibling({"owner_pid": os.getpid()})
        assert not records.owned_by_sibling({"owner_pid": _dead_pid()})
        assert records.owned_by_sibling(
            {"owner_pid": 1, "owner_start_ticks": proc_start_ticks(1)}
        )
        if proc_start_ticks(1) is not None:
            assert not records.owned_by_sibling(
                {"owner_pid": 1, "owner_start_ticks": 123456789}
            )


@dataclass
class _Item:
    item_id: str
    status: str = "queued"
    note: Optional[str] = None


def _table(tmp_path, resolve=records.client_view):
    return records.WorkTable(
        "item", DiskCache("items", directory=tmp_path), "item-record",
        lambda item: {"item_id": item.item_id, "status": item.status,
                      "note": item.note},
        resolve,
    )


class TestWorkTable:
    def test_terminal_statuses_have_no_exits(self, tmp_path):
        table = _table(tmp_path)
        item = table.add(_Item(table.new_id()))
        assert not table.advance(item, "queued")
        assert table.advance(item, "running")
        assert not table.advance(item, "running")
        assert table.advance(item, "done", note="first")
        for status in records.TRANSITIONS:
            assert not table.advance(item, status, note="late")
        assert (item.status, item.note) == ("done", "first")
        assert set(records.TERMINAL) == {
            status for status, exits in records.TRANSITIONS.items()
            if not exits
        }

    def test_racing_verdicts_one_wins_on_disk_and_in_memory(self, tmp_path):
        """Threads race four verdicts per item; exactly one lands, and
        the record on disk agrees with memory."""
        table = _table(tmp_path)
        disk = DiskCache("items", directory=tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(25):
                item = table.add(_Item(table.new_id()))
                statuses = records.TERMINAL * 2
                start = threading.Barrier(len(statuses))
                wins = []

                def race(status, item=item, start=start, wins=wins):
                    start.wait(timeout=10.0)
                    wins.append(table.advance(item, status, note=status))

                threads = [
                    threading.Thread(target=race, args=(status,))
                    for status in statuses
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert wins.count(True) == 1
                record = disk.load(f"item-record:{item.item_id}")
                assert record["status"] == item.status == item.note
        finally:
            sys.setswitchinterval(interval)

    def test_closed_table_refuses_new_items(self, tmp_path):
        table = _table(tmp_path)
        table.close()
        with pytest.raises(ServiceUnavailableError):
            table.add(_Item(table.new_id()))

    def test_foreign_ids_resolve_through_the_store(self, tmp_path):
        owner = _table(tmp_path)
        item = owner.add(_Item(owner.new_id()))
        peer = _table(tmp_path)
        assert peer.lookup(item.item_id)["status"] == "queued"
        # Owned elsewhere and open: a cancel is a note, not an effect.
        answer = peer.cancel(item.item_id, cancel_held=None)
        assert "owned by another worker" in answer["note"]
        with pytest.raises(ValidationError) as error:
            peer.lookup("item-unknown-1")
        assert error.value.status == 404
