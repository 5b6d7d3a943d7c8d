"""Stateful test of the durable work-item lifecycle across two workers.

Two simulated workers (slots ``a`` and ``b``) share one store.  Each
slot holds one incarnation: a :class:`JobManager` whose process pool is
replaced by a hand-driven one, and a :class:`CampaignManager` whose
child jobs run on :class:`ManualJobs`.  Hypothesis interleaves submit,
start/finish, cancel, GET, crash and restart across them.  Every
record is stamped with a live owner other than this process (pid 1),
so the workers treat each other as live siblings.

* **crash** — the incarnation dies: from then on its record writes are
  dropped (its threads are stopped), every record it owns is repainted
  dead (as ``kill_owner`` does), and a fresh incarnation takes the slot;
* **restart** — a graceful shutdown, then a fresh incarnation on the
  same store.

Pinned on every answer and for every item at the end of each run:

* no completed result is lost: once a job or campaign is seen ``done``,
  every later answer from any worker is ``done`` with the same result;
* a cancelled item never runs again: a cancelled job stays cancelled
  and its work never starts; a cancelled campaign stays cancelled with
  the unit counts it was cancelled at;
* every id handed out stays known (never a 404), and a failure (only a
  job orphaned by a crash fails here) stays a retryable failure.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future
from types import SimpleNamespace
from unittest import mock

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.cache.config import l1_config
from repro.campaign.runner import CampaignManager
from repro.campaign.spec import SweepBlock
from repro.perf import records
from repro.perf.disk_cache import DiskCache
from repro.service import jobs as jobs_module
from repro.service.jobs import JobManager
from tests.campaign.test_runner import ManualJobs, make_spec
from repro.procutil import proc_start_ticks
from tests.service.test_fault_injection import kill_owner

SLOTS = ("a", "b")

#: pid 1's start-time stamp: a record carrying it has a live owner.
LIVE_TICKS = proc_start_ticks(1)

#: Two campaigns of two sweep groups each; they share one sweep unit,
#: so a checkpoint of one is reused by the other.
SPECS = [
    make_spec(
        name=f"stateful-{index}",
        sweeps=(
            SweepBlock(l1_config(16), (0.25 + 0.05 * index,), (12.0,),
                       ("array",)),
            SweepBlock(l1_config(8), (0.3,), (12.0,), ("array",)),
        ),
    )
    for index in range(2)
]

#: Where each kind keeps its record.
STORES = {
    "job": ("jobs", "job-record"),
    "campaign": ("campaigns", "campaign-state"),
}


class ManualPool:
    """Process-pool double: a future stays pending until a rule runs it."""

    def __init__(self, entries: list, owner: str) -> None:
        self._entries = entries
        self._owner = owner
        self._mine = []

    def submit(self, fn, *args, **kwargs) -> Future:
        entry = {"future": Future(), "call": (fn, args, kwargs),
                 "worker": self._owner, "job_id": None}
        self._entries.append(entry)
        self._mine.append(entry)
        return entry["future"]

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        for entry in self._mine:
            entry["future"].cancel()


class WatchedJobs(ManualJobs):
    """ManualJobs that remembers which finished jobs a coordinator read."""

    def __init__(self) -> None:
        super().__init__()
        self.collected = set()

    def get(self, job_id):
        record = super().get(job_id)
        if record["status"] != "running":
            self.collected.add(job_id)
        return record


class WorkItemMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="work-items-")
        self.entries = []
        self.dead = set()
        self.write_guard = threading.Lock()
        self.submitting = None
        original_write = records.write

        def write(disk, key, snapshot, worker=None, instance=""):
            # Every worker is stamped as a live process other than this
            # one (pid 1), so workers see each other as siblings; a dead
            # worker writes nothing more.  The guard makes the check and
            # the write one step against a concurrent crash.
            snapshot = {"owner_pid": 1, "owner_start_ticks": LIVE_TICKS,
                        **snapshot}
            with self.write_guard:
                if worker not in self.dead:
                    original_write(disk, key, snapshot, worker=worker,
                                   instance=instance)

        self.patches = [
            mock.patch.object(records, "write", write),
            mock.patch.object(
                jobs_module, "ProcessPoolExecutor",
                lambda max_workers, **_: ManualPool(self.entries,
                                                    self.submitting),
            ),
        ]
        for patch in self.patches:
            patch.start()
        self.incarnations = 0
        self.slots = {slot: self._spawn() for slot in SLOTS}
        self.items = []
        self.kind = {}
        #: id -> result when first seen done (None until a GET shows it).
        self.done = {}
        #: id -> None (job) or the unit counts (campaign) when cancelled.
        self.cancelled = {}
        self.failed = set()

    def _spawn(self) -> SimpleNamespace:
        self.incarnations += 1
        worker = f"w{self.incarnations}"
        manual = WatchedJobs()
        incarnation = SimpleNamespace(
            worker=worker,
            manual=manual,
            jobs=JobManager(max_workers=1, max_queue=64,
                            cache_dir=self.root, worker_id=worker),
            campaigns=CampaignManager(
                jobs=manual, cache_dir=self.root, poll_interval=0.005,
                spec_parser=lambda body: SPECS[body["spec"]],
                worker_id=worker,
            ),
        )
        return incarnation

    def _track(self, item_id: str, kind: str) -> None:
        if item_id not in self.kind:
            self.items.append(item_id)
            self.kind[item_id] = kind

    def _pick(self, index: int):
        return self.items[index % len(self.items)] if self.items else None

    def _answer(self, incarnation, item_id: str, cancel=False) -> dict:
        manager = (
            incarnation.jobs if self.kind[item_id] == "job"
            else incarnation.campaigns
        )
        return manager.cancel(item_id) if cancel else manager.get(item_id)

    def _observe(self, item_id: str, view: dict) -> None:
        """Check one answer against everything seen before it."""
        is_job = self.kind[item_id] == "job"
        status = view["status"]
        result = view.get("result" if is_job else "results")
        if result is not None:
            result = json.dumps(result, sort_keys=True)
        if item_id in self.done:
            assert status == "done", f"{item_id} was done, now {status}"
            if self.done[item_id] is None:
                self.done[item_id] = result
            elif result is not None:
                assert result == self.done[item_id], f"{item_id} changed"
        elif item_id in self.cancelled:
            assert status == "cancelled", \
                f"{item_id} was cancelled, now {status}"
            if not is_job:
                assert view["units"] == self.cancelled[item_id]
        elif item_id in self.failed:
            assert status == "failed", f"{item_id} was failed, now {status}"
        elif status == "done":
            self.done[item_id] = result
        elif status == "cancelled":
            self.cancelled[item_id] = None if is_job else view["units"]
        elif status == "failed":
            self.failed.add(item_id)
        if is_job and status == "cancelled":
            assert "result" not in view
        if status == "failed":
            assert view.get("retryable") is True

    # -- submissions -------------------------------------------------------

    @rule(slot=st.sampled_from(SLOTS), n=st.integers(0, 30))
    def submit_job(self, slot, n):
        incarnation = self.slots[slot]
        self.submitting = incarnation.worker
        job_id = incarnation.jobs.submit("pow", pow, 2, n)
        self.entries[-1]["job_id"] = job_id
        self._track(job_id, "job")

    @rule(slot=st.sampled_from(SLOTS), n=st.integers(0, 30))
    def submit_done_job(self, slot, n):
        job_id = self.slots[slot].jobs.submit_completed("instant", {"n": n})
        self._track(job_id, "job")

    @rule(slot=st.sampled_from(SLOTS), spec=st.integers(0, len(SPECS) - 1))
    def submit_campaign(self, slot, spec):
        view = self.slots[slot].campaigns.submit(
            SPECS[spec], spec_body={"spec": spec}
        )
        self._track(view["campaign_id"], "campaign")

    # -- work --------------------------------------------------------------

    @rule(index=st.integers(0, 63), finish=st.booleans())
    def run_job(self, index, finish):
        """Start one pool job of a live worker, and maybe finish it."""
        live = {incarnation.worker for incarnation in self.slots.values()}
        open_entries = [
            entry for entry in self.entries
            if entry["worker"] in live and not entry["future"].done()
        ]
        if not open_entries:
            return
        entry = open_entries[index % len(open_entries)]
        future = entry["future"]
        if not future.running():
            if not future.set_running_or_notify_cancel():
                return  # withdrawn by a cancel: it never starts
            assert entry["job_id"] not in self.cancelled, \
                f"cancelled job {entry['job_id']} started"
        if finish:
            fn, args, kwargs = entry["call"]
            future.set_result(fn(*args, **kwargs))

    @rule(slot=st.sampled_from(SLOTS))
    def finish_children(self, slot):
        """Finish every campaign child job one live worker waits on."""
        manual = self.slots[slot].manual
        for job_id in list(manual.pending):
            if manual.records[job_id]["status"] != "running":
                continue  # withdrawn by a cancel: it never runs
            manual.finish(job_id)
            # Give the coordinator a moment to fold the result in, so
            # campaigns get to finish between the other rules.
            deadline = time.monotonic() + 2.0
            while job_id not in manual.collected and \
                    time.monotonic() < deadline:
                time.sleep(0.002)

    # -- client calls ------------------------------------------------------

    @rule(slot=st.sampled_from(SLOTS), index=st.integers(0, 63))
    def cancel(self, slot, index):
        item_id = self._pick(index)
        if item_id is not None:
            self._observe(
                item_id, self._answer(self.slots[slot], item_id, cancel=True)
            )

    @rule(slot=st.sampled_from(SLOTS), index=st.integers(0, 63))
    def get(self, slot, index):
        item_id = self._pick(index)
        if item_id is not None:
            self._observe(item_id, self._answer(self.slots[slot], item_id))

    # -- worker deaths -----------------------------------------------------

    @precondition(lambda self: self.items)
    @rule(slot=st.sampled_from(SLOTS))
    def crash(self, slot):
        victim = self.slots[slot]
        with self.write_guard:
            self.dead.add(victim.worker)
        # Its threads stop too; every write they make is dropped.
        self._stop(victim)
        for item_id in self.items:
            namespace, prefix = STORES[self.kind[item_id]]
            disk = DiskCache(namespace, directory=self.root)
            key = f"{prefix}:{item_id}"
            record = disk.load(key)
            if record is not None and \
                    record.get("owner_worker") == victim.worker:
                kill_owner(disk, key)
        self.slots[slot] = self._spawn()

    @precondition(lambda self: self.items)
    @rule(slot=st.sampled_from(SLOTS))
    def restart(self, slot):
        self._stop(self.slots[slot])
        self.slots[slot] = self._spawn()

    @staticmethod
    def _stop(incarnation) -> None:
        incarnation.campaigns.shutdown(wait_seconds=2.0)
        incarnation.jobs.shutdown(wait_seconds=0.0)

    def teardown(self):
        try:
            for item_id in self.items:
                self._observe(item_id, self._answer(self.slots["a"], item_id))
        finally:
            for incarnation in self.slots.values():
                self._stop(incarnation)
            for patch in self.patches:
                patch.stop()
            shutil.rmtree(self.root, ignore_errors=True)


TestWorkItems = WorkItemMachine.TestCase
TestWorkItems.settings = settings(
    max_examples=120,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
