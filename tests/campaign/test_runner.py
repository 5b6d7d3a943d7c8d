"""Runner tests: checkpointing, resume, retry, cancellation, failure.

These drive :class:`CampaignManager` with fake job managers that run
pool tasks inline (or on demand), so every scheduling path is exercised
deterministically without a process pool.
"""

from __future__ import annotations

import json
import sys
import time

import pytest

from repro.archsim.workloads import STANDARD_WORKLOADS
from repro.cache.assignment import knobs
from repro.cache.config import l1_config
from repro.campaign.planner import build_plan
from repro.campaign.runner import CampaignManager
from repro.campaign.spec import (
    AmatBlock,
    CampaignCalibration,
    CampaignSpec,
    MatrixBlock,
    OptimizeBlock,
    SweepBlock,
)
from repro.perf.disk_cache import DiskCache
from repro.procutil import proc_start_ticks

CALIBRATION = CampaignCalibration(n_accesses=5_000, seed=1)

MATRIX = MatrixBlock(
    l1_sizes_kb=(4, 8), l1_assocs=(2,),
    l2_sizes_kb=(128,), l2_assocs=(8,),
)

AMAT = AmatBlock(
    l1_sizes_kb=(8,), l1_assocs=(2,),
    l2_sizes_kb=(1024,), l2_assocs=(8,),
    l1_knobs=knobs(0.3, 12.0), l2_knobs=knobs(0.35, 14.0),
)

OPTIMIZE = OptimizeBlock(
    configs=(l1_config(16),), schemes=("1", "3"), targets_ps=(1200.0,),
)

SWEEPS = (
    SweepBlock(l1_config(16), (0.25, 0.3), (12.0,), ("array",)),
    SweepBlock(l1_config(16), (0.3, 0.35), (12.0,), ("array",)),
)


def make_spec(name="run-test", **blocks) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        workloads=(STANDARD_WORKLOADS["spec2000"],),
        policies=("lru",),
        calibration=CALIBRATION,
        **blocks,
    )


class InlineJobs:
    """Job manager double: runs every submission synchronously.

    ``fail_first[target] = n`` makes the first n submissions for that
    unit/group id fail before work runs (drives the retry path).
    """

    def __init__(self, fail_first=None):
        self.records = {}
        self.counter = 0
        self.fail_first = dict(fail_first or {})
        self.cancelled = []

    def submit(self, kind, fn, *args, detail=None, **kwargs):
        self.counter += 1
        job_id = f"job-{self.counter}"
        target = (detail or {}).get("unit")
        if self.fail_first.get(target, 0) > 0:
            self.fail_first[target] -= 1
            self.records[job_id] = {
                "status": "failed", "error": "injected failure"
            }
            return job_id
        try:
            result = fn(*args, **kwargs)
            self.records[job_id] = {"status": "done", "result": result}
        except Exception as error:  # noqa: BLE001 - mirror the real pool
            self.records[job_id] = {
                "status": "failed", "error": f"{type(error).__name__}: {error}"
            }
        return job_id

    def get(self, job_id):
        return self.records[job_id]

    def cancel(self, job_id):
        self.cancelled.append(job_id)
        self.records[job_id] = {"status": "cancelled"}
        return self.records[job_id]


class ManualJobs(InlineJobs):
    """Submissions stay 'running' until the test finishes them."""

    def __init__(self):
        super().__init__()
        self.pending = {}

    def submit(self, kind, fn, *args, detail=None, **kwargs):
        self.counter += 1
        job_id = f"job-{self.counter}"
        self.records[job_id] = {"status": "running"}
        self.pending[job_id] = (fn, args, kwargs)
        return job_id

    def finish(self, job_id):
        fn, args, kwargs = self.pending.pop(job_id)
        self.records[job_id] = {"status": "done", "result": fn(*args, **kwargs)}

    def fail(self, job_id, error="injected failure"):
        self.pending.pop(job_id)
        self.records[job_id] = {"status": "failed", "error": error}


def manager(jobs, tmp_path, **kwargs) -> CampaignManager:
    kwargs.setdefault("poll_interval", 0.005)
    return CampaignManager(jobs=jobs, cache_dir=str(tmp_path), **kwargs)


def wait_until(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


class TestExecution:
    def test_full_campaign_runs_to_done(self, tmp_path):
        jobs = InlineJobs()
        m = manager(jobs, tmp_path)
        spec = make_spec(matrix=MATRIX, amat=AMAT,
                         sweeps=SWEEPS, optimize=OPTIMIZE)
        submitted = m.submit(spec)
        final = m.wait(submitted["campaign_id"], seconds=30.0)
        assert final["status"] == "done"
        units = final["units"]
        # 1 profile + 3 points + 1 amat + 2 sweeps + 2 optimize.
        assert units["total"] == 9
        assert units["done"] == 9
        assert units["failed"] == 0
        # Engine passes: profile + one sweep group + two optimisations —
        # far fewer than units (points and amat are inline slices).
        assert final["engine_passes"] == 4
        assert set(final["results"]) == {
            "profile", "point", "amat", "sweep", "optimize"
        }
        # Every result must be JSON-serializable (checkpoint contract).
        json.dumps(final["results"])
        m.shutdown()

    def test_light_units_cost_no_engine_pass(self, tmp_path):
        jobs = InlineJobs()
        m = manager(jobs, tmp_path)
        final_id = m.submit(make_spec(matrix=MATRIX))["campaign_id"]
        final = m.wait(final_id, seconds=30.0)
        assert final["status"] == "done"
        assert final["units"]["done"] == 4  # profile + 3 points
        assert final["engine_passes"] == 1  # only the profile hit the pool
        m.shutdown()

    def test_resubmission_is_born_done_and_bit_identical(self, tmp_path):
        spec = make_spec(matrix=MATRIX, sweeps=SWEEPS, optimize=OPTIMIZE)
        m = manager(InlineJobs(), tmp_path)
        first = m.wait(m.submit(spec)["campaign_id"], seconds=30.0)
        assert first["status"] == "done"
        second_snapshot = m.submit(spec)
        # Born done: no coordinator, no engine passes, everything reused.
        assert second_snapshot["status"] == "done"
        second = m.get(second_snapshot["campaign_id"])
        assert second["engine_passes"] == 0
        assert second["units"]["reused"] == second["units"]["total"]
        assert json.dumps(first["results"], sort_keys=True) == \
            json.dumps(second["results"], sort_keys=True)
        m.shutdown()

    def test_checkpoints_survive_a_new_manager(self, tmp_path):
        """A fresh manager (daemon restart) resumes from disk."""
        spec = make_spec(matrix=MATRIX, optimize=OPTIMIZE)
        first_manager = manager(InlineJobs(), tmp_path)
        first = first_manager.wait(
            first_manager.submit(spec)["campaign_id"], seconds=30.0
        )
        assert first["status"] == "done"
        first_manager.shutdown()

        restarted = manager(InlineJobs(), tmp_path)
        snapshot = restarted.submit(spec)
        assert snapshot["status"] == "done"
        final = restarted.get(snapshot["campaign_id"])
        assert final["units"]["reused"] == final["units"]["total"]
        assert json.dumps(first["results"], sort_keys=True) == \
            json.dumps(final["results"], sort_keys=True)
        restarted.shutdown()

    def test_infeasible_target_is_a_result_not_a_failure(self, tmp_path):
        block = OptimizeBlock(
            configs=(l1_config(16),), schemes=("3",), targets_ps=(1.0,),
        )
        m = manager(InlineJobs(), tmp_path)
        final = m.wait(
            m.submit(make_spec(optimize=block))["campaign_id"], seconds=30.0
        )
        assert final["status"] == "done"
        entry = final["results"]["optimize"][0]
        assert entry["feasible"] is False
        assert entry["best_achievable_ps"] > 1.0
        m.shutdown()


class TestRetry:
    def test_failed_unit_is_retried_then_succeeds(self, tmp_path):
        jobs = InlineJobs(fail_first={"optimize-1": 1})
        m = manager(jobs, tmp_path, unit_retries=1)
        final = m.wait(
            m.submit(make_spec(optimize=OPTIMIZE))["campaign_id"],
            seconds=30.0,
        )
        assert final["status"] == "done"
        assert final["units"]["failed"] == 0
        m.shutdown()

    def test_retries_exhausted_fails_the_unit(self, tmp_path):
        jobs = InlineJobs(fail_first={"optimize-1": 5})
        m = manager(jobs, tmp_path, unit_retries=1)
        final = m.wait(
            m.submit(make_spec(optimize=OPTIMIZE))["campaign_id"],
            seconds=30.0,
        )
        assert final["status"] == "failed"
        assert final["units"]["failed"] == 1
        assert final["units"]["done"] == 1  # the other cell still ran
        assert "injected failure" in final["failures"]["optimize-1"]
        m.shutdown()

    def test_failed_dependency_fails_dependents(self, tmp_path):
        jobs = ManualJobs()
        m = manager(jobs, tmp_path, unit_retries=0)
        campaign_id = m.submit(make_spec(matrix=MATRIX))["campaign_id"]
        wait_until(lambda: jobs.pending)
        jobs.fail(next(iter(jobs.pending)), "surface computation died")
        final = m.wait(campaign_id, seconds=30.0)
        assert final["status"] == "failed"
        assert final["units"]["failed"] == 4  # profile + its 3 points
        assert "dependency failed" in final["failures"]["point-1"]
        m.shutdown()


class TestCancellation:
    def test_cancel_stops_children_and_keeps_checkpoints(self, tmp_path):
        jobs = ManualJobs()
        m = manager(jobs, tmp_path)
        spec = make_spec(matrix=MATRIX, optimize=OPTIMIZE)
        campaign_id = m.submit(spec)["campaign_id"]

        # Let the profile finish so the points run and checkpoint.
        wait_until(lambda: jobs.pending)
        jobs.finish(next(iter(jobs.pending)))
        wait_until(
            lambda: m.get(campaign_id)["units"]["done"] >= 4
            and m.get(campaign_id)["jobs"]
        )

        snapshot = m.cancel(campaign_id)
        assert snapshot["status"] == "cancelled"
        assert snapshot["units"]["done"] >= 4
        assert snapshot["units"]["cancelled"] >= 1
        # Outstanding optimize jobs were cancelled on the job manager.
        assert jobs.cancelled
        # Checkpoints of finished units are still on disk.
        store = DiskCache("campaigns", directory=str(tmp_path))
        plan = build_plan(spec, cache_dir=str(tmp_path))
        done_points = [u for u in plan.units if u.kind == "point"]
        assert all(
            store.load(unit.fingerprint) is not None for unit in done_points
        )
        m.shutdown()

    def test_resubmit_after_cancel_resumes_from_checkpoints(self, tmp_path):
        jobs = ManualJobs()
        m = manager(jobs, tmp_path)
        spec = make_spec(matrix=MATRIX, optimize=OPTIMIZE)
        campaign_id = m.submit(spec)["campaign_id"]
        wait_until(lambda: jobs.pending)
        jobs.finish(next(iter(jobs.pending)))
        wait_until(lambda: m.get(campaign_id)["units"]["done"] >= 4)
        cancelled = m.cancel(campaign_id)
        finished = cancelled["units"]["done"]

        resumed_id = m.submit(spec)["campaign_id"]
        snapshot = m.get(resumed_id)
        assert snapshot["units"]["reused"] >= finished
        # Finish whatever work remains.
        deadline = time.monotonic() + 20.0
        while m.get(resumed_id)["status"] == "running":
            for job_id in list(jobs.pending):
                jobs.finish(job_id)
            if time.monotonic() > deadline:
                raise AssertionError("resumed campaign never finished")
            time.sleep(0.01)
        final = m.wait(resumed_id, seconds=10.0)
        assert final["status"] == "done"
        assert final["units"]["done"] == final["units"]["total"]
        m.shutdown()

    def test_drained_record_keeps_no_child_jobs(self, tmp_path):
        jobs = ManualJobs()
        m = manager(jobs, tmp_path)
        campaign_id = m.submit(
            make_spec(matrix=MATRIX, optimize=OPTIMIZE)
        )["campaign_id"]
        wait_until(lambda: jobs.pending)
        jobs.finish(next(iter(jobs.pending)))
        wait_until(lambda: m.get(campaign_id)["jobs"])
        m.shutdown()
        record = DiskCache("campaigns", directory=str(tmp_path)).load(
            f"campaign-state:{campaign_id}"
        )
        assert record["status"] == "cancelled"
        assert record["cancelled_by"] == "shutdown"
        assert record["jobs"] == []

    def test_cancel_racing_the_verdict_agrees_with_disk(self, tmp_path):
        """Whichever of cancel and verdict wins, the record agrees."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            m = manager(InlineJobs(), tmp_path)
            store = DiskCache("campaigns", directory=str(tmp_path))
            seen = set()
            for index in range(16):
                campaign_id = m.submit(
                    make_spec(name=f"race-{index}", matrix=MATRIX)
                )["campaign_id"]
                time.sleep(0.002 * (index % 4))
                status = m.cancel(campaign_id)["status"]
                seen.add(status)
                record = store.load(f"campaign-state:{campaign_id}")
                assert record["status"] == status
                assert m.get(campaign_id)["status"] == status
            m.shutdown()
        finally:
            sys.setswitchinterval(interval)
        assert seen <= {"done", "cancelled"}

    def test_cancel_unknown_campaign_404(self, tmp_path):
        from repro.errors import ValidationError

        m = manager(InlineJobs(), tmp_path)
        with pytest.raises(ValidationError) as error:
            m.cancel("campaign-999")
        assert error.value.status == 404
        m.shutdown()


class TestRecovery:
    """Shared state records: serving foreign campaigns and adoption."""

    SPEC_BODY = {"recovery-test": True}

    @staticmethod
    def _parser(spec):
        """A spec "parser" that reconstructs the campaign from its body."""
        return lambda body: spec

    def test_terminal_campaign_is_adopted_bit_identically(self, tmp_path):
        spec = make_spec(matrix=MATRIX, optimize=OPTIMIZE)
        first = manager(InlineJobs(), tmp_path,
                        spec_parser=self._parser(spec))
        campaign_id = first.submit(
            spec, spec_body=self.SPEC_BODY
        )["campaign_id"]
        original = first.wait(campaign_id, seconds=30.0)
        assert original["status"] == "done"
        first.shutdown()

        # A different worker (fresh manager, no in-memory state) answers
        # for the id: the terminal record is adopted and re-assembles
        # entirely from checkpoints.
        second = manager(InlineJobs(), tmp_path,
                         spec_parser=self._parser(spec))
        final = second.wait(campaign_id, seconds=30.0)
        assert final["status"] == "done"
        assert final["adopted"] is True
        assert final["units"]["reused"] == final["units"]["total"]
        assert json.dumps(final["results"], sort_keys=True) == \
            json.dumps(original["results"], sort_keys=True)
        second.shutdown()

    def test_running_campaign_of_dead_owner_is_adopted(self, tmp_path):
        import subprocess
        import sys

        spec = make_spec(matrix=MATRIX)
        jobs = ManualJobs()
        abandoned = manager(jobs, tmp_path, spec_parser=self._parser(spec))
        campaign_id = abandoned.submit(
            spec, spec_body=self.SPEC_BODY
        )["campaign_id"]
        wait_until(lambda: jobs.pending)

        # Rewrite the state record as if its owner process had been
        # kill -9'd mid-run: a real dead pid, status still running.
        corpse = subprocess.Popen([sys.executable, "-c", "pass"])
        corpse.wait()
        store = DiskCache("campaigns", directory=str(tmp_path))
        key = f"campaign-state:{campaign_id}"
        record = store.load(key)
        assert record is not None and record["status"] == "running"
        record["owner_pid"] = corpse.pid
        store.store(key, record)

        survivor = manager(InlineJobs(), tmp_path,
                           spec_parser=self._parser(spec))
        final = survivor.wait(campaign_id, seconds=30.0)
        assert final["status"] == "done"
        assert final["adopted"] is True
        assert final["units"]["done"] == final["units"]["total"]
        survivor.shutdown()
        abandoned.shutdown()

    def test_client_cancelled_campaign_is_not_resurrected(self, tmp_path):
        """A cancel verdict is final everywhere: no worker may adopt
        and silently re-run a campaign the client killed."""
        spec = make_spec(matrix=MATRIX)
        jobs = ManualJobs()
        first = manager(jobs, tmp_path, spec_parser=self._parser(spec))
        campaign_id = first.submit(
            spec, spec_body=self.SPEC_BODY
        )["campaign_id"]
        wait_until(lambda: jobs.pending)
        assert first.cancel(campaign_id)["status"] == "cancelled"

        second = manager(InlineJobs(), tmp_path,
                         spec_parser=self._parser(spec))
        snapshot = second.get(campaign_id)
        assert snapshot["status"] == "cancelled"
        assert "adopted" not in snapshot
        # wait() must not resurrect it either, and repeat polls agree.
        assert second.wait(campaign_id, seconds=0.5)["status"] == "cancelled"
        assert second.get(campaign_id)["status"] == "cancelled"
        second.shutdown()
        first.shutdown()

    def test_drain_cancelled_campaign_is_adopted_and_resumed(self, tmp_path):
        """A graceful-shutdown cancel is an interruption, not a client
        verdict: a sibling resumes it from checkpoints."""
        spec = make_spec(matrix=MATRIX)
        jobs = ManualJobs()
        first = manager(jobs, tmp_path, spec_parser=self._parser(spec))
        campaign_id = first.submit(
            spec, spec_body=self.SPEC_BODY
        )["campaign_id"]
        wait_until(lambda: jobs.pending)
        first.shutdown()  # persists the record with cancelled_by=shutdown

        second = manager(InlineJobs(), tmp_path,
                         spec_parser=self._parser(spec))
        final = second.wait(campaign_id, seconds=30.0)
        assert final["status"] == "done"
        assert final["adopted"] is True
        second.shutdown()

    def test_recycled_owner_pid_counts_as_dead(self, tmp_path):
        """A running record whose pid was recycled by another process
        (start-ticks mismatch) is an orphan and gets adopted."""
        spec = make_spec(matrix=MATRIX)
        jobs = ManualJobs()
        abandoned = manager(jobs, tmp_path, spec_parser=self._parser(spec))
        campaign_id = abandoned.submit(
            spec, spec_body=self.SPEC_BODY
        )["campaign_id"]
        wait_until(lambda: jobs.pending)

        store = DiskCache("campaigns", directory=str(tmp_path))
        key = f"campaign-state:{campaign_id}"

        def _repaint_owner():
            record = store.load(key)
            record["owner_pid"] = 1  # alive, but a different incarnation
            record["owner_start_ticks"] = 123456789
            store.store(key, record)
            time.sleep(0.05)
            return store.load(key)["owner_pid"] == 1

        wait_until(_repaint_owner)

        survivor = manager(InlineJobs(), tmp_path,
                           spec_parser=self._parser(spec))
        final = survivor.wait(campaign_id, seconds=30.0)
        assert final["status"] == "done"
        assert final["adopted"] is True
        survivor.shutdown()
        abandoned.shutdown()

    def test_live_foreign_owner_is_served_from_store(self, tmp_path):
        spec = make_spec(matrix=MATRIX)
        jobs = ManualJobs()
        owner = manager(jobs, tmp_path, spec_parser=self._parser(spec))
        campaign_id = owner.submit(
            spec, spec_body=self.SPEC_BODY
        )["campaign_id"]
        wait_until(lambda: jobs.pending)

        # Pretend the owner is another live process (pid 1 always is).
        # The owner's coordinator persists once more right after
        # launching the profile job, so rewrite until the record sticks
        # (with ManualJobs pending it then goes quiet).
        store = DiskCache("campaigns", directory=str(tmp_path))
        key = f"campaign-state:{campaign_id}"

        def _repaint_owner():
            record = store.load(key)
            record["owner_pid"] = 1
            # Liveness now checks the pid *incarnation* too: stamp the
            # record with pid 1's real start ticks so it reads as a
            # live foreign owner rather than a recycled pid.
            record["owner_start_ticks"] = proc_start_ticks(1)
            store.store(key, record)
            time.sleep(0.05)
            return store.load(key)["owner_pid"] == 1

        wait_until(_repaint_owner)

        observer = manager(InlineJobs(), tmp_path,
                           spec_parser=self._parser(spec))
        snapshot = observer.get(campaign_id)
        assert snapshot["status"] == "running"
        assert "another worker" in snapshot["note"]
        assert "adopted" not in snapshot
        # Not adopted: the observer runs nothing.
        assert observer.get(campaign_id)["campaign_id"] == campaign_id
        observer.shutdown()
        owner.shutdown()

    def test_same_process_sibling_is_served_not_adopted(self, tmp_path):
        """Two managers in one process: a GET of the other's running
        campaign serves its record and starts no coordinator."""
        spec = make_spec(matrix=MATRIX)
        jobs = ManualJobs()
        owner = manager(jobs, tmp_path, spec_parser=self._parser(spec))
        campaign_id = owner.submit(
            spec, spec_body=self.SPEC_BODY
        )["campaign_id"]
        wait_until(lambda: jobs.pending)

        observer_jobs = InlineJobs()
        observer = manager(observer_jobs, tmp_path,
                           spec_parser=self._parser(spec))
        snapshot = observer.get(campaign_id)
        assert snapshot["status"] == "running"
        assert "another worker" in snapshot["note"]
        assert "adopted" not in snapshot
        assert observer.active_count() == 0
        assert observer_jobs.counter == 0
        # The owner still runs it to the end.
        for job_id in list(jobs.pending):
            jobs.finish(job_id)
        assert owner.wait(campaign_id, 30.0)["status"] == "done"
        observer.shutdown()
        owner.shutdown()

    def test_unknown_campaign_is_still_a_404(self, tmp_path):
        from repro.errors import ValidationError

        m = manager(InlineJobs(), tmp_path)
        with pytest.raises(ValidationError) as error:
            m.get("campaign-never-existed")
        assert error.value.status == 404
        m.shutdown()


class TestSnapshots:
    def test_progress_snapshot_has_no_results(self, tmp_path):
        m = manager(InlineJobs(), tmp_path)
        campaign_id = m.submit(make_spec(sweeps=SWEEPS))["campaign_id"]
        final = m.wait(campaign_id, seconds=30.0, include_results=False)
        assert final["status"] == "done"
        assert "results" not in final
        assert "summary" not in final
        m.shutdown()

    def test_summary_picks_feasible_minimum_leakage(self, tmp_path):
        from repro.campaign.spec import CampaignConstraints

        amat = AmatBlock(
            l1_sizes_kb=(4, 8), l1_assocs=(2,),
            l2_sizes_kb=(1024,), l2_assocs=(8,),
            l1_knobs=knobs(0.3, 12.0), l2_knobs=knobs(0.35, 14.0),
        )
        m = manager(InlineJobs(), tmp_path)
        final = m.wait(
            m.submit(make_spec(
                amat=amat,
                constraints=CampaignConstraints(max_amat_ps=1e6),
            ))["campaign_id"],
            seconds=30.0,
        )
        assert final["status"] == "done"
        best = final["summary"]["best_amat"]
        leakages = [
            entry["total_leakage_mw"] for entry in final["results"]["amat"]
            if entry["feasible"]
        ]
        assert best["total_leakage_mw"] == min(leakages)
        m.shutdown()
