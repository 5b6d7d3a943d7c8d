"""Bounded background-job execution for the calibration endpoint.

Calibration runs are seconds-to-minutes of pure CPU — far too long to
hold an HTTP connection open, and heavy enough that an unbounded fan-out
would starve the sweep path.  :class:`JobManager` therefore runs them on
a fixed-size :class:`~concurrent.futures.ProcessPoolExecutor` behind a
bounded queue, and gives every submission a job id the client polls via
``GET /v1/jobs/<id>``.

Lifecycle: ``queued -> running -> done | failed | cancelled | timeout``.
Cancellation is cooperative at the queue boundary: a queued job is
withdrawn before it ever starts; a running job cannot be interrupted
mid-simulation (POSIX offers no safe way to stop a worker mid-numpy),
so cancelling it marks the job and discards its result on arrival.  The
watchdog thread applies the same discard to jobs that exceed their
timeout.  ``shutdown`` drains or cancels everything — it is the SIGTERM
path, so it must never hang.

Durability: the jobs live in a :class:`~repro.perf.records.WorkTable`
(disk namespace ``jobs``, key ``job-record:<id>``), which owns the ids,
the admission check, the transitions and the shared record — written at
submit and at the verdict, each before it is visible.  Any worker
therefore answers ``GET /v1/jobs/<id>`` for work another process
finished, even after the owner was killed.  This module adds the pool,
the watchdog and the two per-kind rules: what a job's record holds
(:meth:`JobManager._record`) and what an orphan becomes (a retryable
failure, :meth:`JobManager._resolve`).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ServiceUnavailableError
from repro.perf import records
from repro.perf.disk_cache import DiskCache
from repro.perf.records import TERMINAL

from repro.service.metrics import MetricsRegistry

#: States a job can be observed in.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMEOUT = "timeout"


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this pool process once ``parent`` is gone.

    A manager that dies without a shutdown (kill -9, ``os._exit``)
    leaves its pool processes blocked on the call queue forever.  A
    daemon thread notices the re-parenting and exits the process.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="repro-pool-parent-watch",
                     daemon=True).start()


@dataclass
class _Job:
    job_id: str
    kind: str
    submitted_at: float
    timeout_seconds: float
    future: Optional[Future] = None
    status: str = QUEUED
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[object] = None
    error: Optional[str] = None
    detail: dict = field(default_factory=dict)


class JobManager:
    """Submit, observe, cancel, and drain background jobs."""

    def __init__(
        self,
        max_workers: int = 2,
        max_queue: int = 16,
        timeout_seconds: float = 600.0,
        metrics: Optional[MetricsRegistry] = None,
        cache_dir: Optional[str] = None,
        worker_id: Optional[str] = None,
        durable: bool = True,
    ) -> None:
        self._table = records.WorkTable(
            "job",
            DiskCache("jobs", directory=cache_dir) if durable else None,
            "job-record",
            self._record,
            self._resolve,
            worker=worker_id,
        )
        self._lock = self._table.lock
        self._max_workers = max_workers
        self._max_queue = max_queue
        self._timeout_seconds = timeout_seconds
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._watchdog: Optional[threading.Thread] = None
        self._metrics.register_gauge("jobs.queue_depth", self.queue_depth)
        self._metrics.register_gauge("jobs.running", self.running_count)

    # -- observability -----------------------------------------------------

    def _count(self, status: str) -> int:
        with self._lock:
            return sum(1 for job in self._table.items.values()
                       if job.status == status)

    def queue_depth(self) -> int:
        """Jobs admitted but not yet started."""
        return self._count(QUEUED)

    def running_count(self) -> int:
        return self._count(RUNNING)

    # -- lifecycle ---------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._max_workers,
                initializer=_exit_with_parent,
                initargs=(os.getpid(),),
            )
        if self._watchdog is None:
            self._watchdog = threading.Thread(
                target=self._watch, name="repro-job-watchdog", daemon=True
            )
            self._watchdog.start()
        return self._executor

    def _admit(self) -> None:
        """The queue budget (runs under the lock at admission)."""
        queued = self._count(QUEUED)
        if queued >= self._max_queue:
            raise ServiceUnavailableError(
                f"job queue is full ({queued} queued, limit "
                f"{self._max_queue}); retry later"
            )

    def submit(
        self,
        kind: str,
        fn: Callable,
        /,
        *args,
        detail: Optional[dict] = None,
        **kwargs,
    ) -> str:
        """Admit one job; returns its id or raises when saturated.

        ``detail`` entries are merged into every snapshot of the job, so
        an endpoint can label a submission (workload, engine, …) and a
        poller sees the labels alongside the status.
        """
        job = _Job(
            job_id=self._table.new_id(),
            kind=kind,
            submitted_at=time.time(),
            timeout_seconds=self._timeout_seconds,
            detail=dict(detail or {}),
        )
        # The admission record is on disk before any work starts: if
        # this worker dies mid-job, any reader of the shared store sees
        # an orphaned in-flight record (-> failed/retryable), never a
        # missing one.
        self._table.add(job, admit=self._admit)
        self._metrics.increment("jobs.submitted")
        future = self._ensure_executor().submit(fn, *args, **kwargs)
        with self._lock:
            job.future = future
        future.add_done_callback(lambda done: self._on_done(job, done))
        return job.job_id

    def submit_completed(
        self,
        kind: str,
        result: object,
        detail: Optional[dict] = None,
    ) -> str:
        """Record a job that was answered synchronously (already done).

        The profile-store hit path on ``/v1/calibrate`` computes nothing:
        the result exists before a worker could even be scheduled.  It
        still gets a job id — the polling contract is uniform — but the
        job is born DONE, skips the executor entirely, and never counts
        against the queue budget.
        """
        now = time.time()
        job = _Job(
            job_id=self._table.new_id(),
            kind=kind,
            submitted_at=now,
            timeout_seconds=self._timeout_seconds,
            status=DONE,
            started_at=now,
            finished_at=now,
            result=result,
            detail=dict(detail or {}),
        )
        self._table.add(job)
        self._metrics.increment("jobs.submitted")
        self._metrics.increment("jobs.done")
        self._metrics.observe("jobs.duration_seconds", 0.0)
        return job.job_id

    def _on_done(self, job: _Job, future: Future) -> None:
        finished_at = time.time()
        error = None if future.cancelled() else future.exception()
        if future.cancelled():
            status, changes = CANCELLED, {}
        elif error is not None:
            status = FAILED
            changes = {"error": f"{type(error).__name__}: {error}"}
        else:
            status, changes = DONE, {"result": future.result()}
        if not self._table.advance(
            job, status, finished_at=finished_at, **changes
        ):
            return  # a cancel or timeout verdict came first: discard
        self._metrics.increment(f"jobs.{status}")
        if status in (DONE, FAILED):
            self._metrics.observe(
                "jobs.duration_seconds", finished_at - job.submitted_at
            )

    def _refresh(self, job: _Job) -> None:
        """QUEUED -> RUNNING once the pool has picked the job up."""
        if job.status == QUEUED and job.future is not None \
                and job.future.running():
            self._table.advance(job, RUNNING, started_at=time.time())

    def _watch(self) -> None:
        """Mark RUNNING, and expire jobs past their timeout."""
        while True:
            time.sleep(0.2)
            with self._lock:
                if self._table.closed:
                    return
                now = time.time()
                expired = []
                for job in self._table.items.values():
                    self._refresh(job)
                    if job.status in (QUEUED, RUNNING) \
                            and now - job.submitted_at > job.timeout_seconds:
                        expired.append(job)
            # Future.cancel() on a still-pending future runs the done
            # callbacks synchronously on this thread, and _on_done takes
            # the locks — so the cancel happens after they are
            # released.  The status is already TIMEOUT: _on_done
            # discards.
            for job in expired:
                if self._table.advance(
                    job, TIMEOUT, finished_at=now,
                    error=f"job exceeded its {job.timeout_seconds:.0f} s "
                          f"timeout",
                ):
                    if job.future is not None:
                        job.future.cancel()
                    self._metrics.increment("jobs.timeout")

    def cancel(self, job_id: str) -> dict:
        """Cancel a job if it has not finished; returns its snapshot.

        Cancellation is a local act: a job owned by *another* live
        worker cannot be interrupted from here (there is no
        cross-process job control), so for remote records the snapshot
        comes back with a note instead of an effect — unless the record
        is already terminal, in which case the verdict is simply served.
        """
        return self._table.cancel(job_id, self._cancel_held)

    def _cancel_held(self, job: _Job) -> dict:
        with self._lock:
            future = job.future
        # Never call Future.cancel() while holding a lock: a pending
        # future runs its done callbacks on the cancelling thread, and
        # _on_done records the cancel verdict from there.
        if future is None or not future.cancel():
            changes = {}
            if future is not None:
                # Already on a worker: the result is discarded on arrival.
                changes["detail"] = {
                    **job.detail,
                    "note": "job was already running; its result will be "
                            "discarded",
                }
            if self._table.advance(
                job, CANCELLED, finished_at=time.time(), **changes
            ):
                self._metrics.increment("jobs.cancelled")
        with self._lock:
            return self._view(job)

    def _resolve(self, record: dict) -> dict:
        """A job record this process does not hold, as a client sees it.

        A non-terminal record whose owner process is dead is rewritten
        in place as a retryable failure before it is returned: the
        worker took the in-flight job down with it, and every later
        reader (on any worker) must see that verdict rather than an
        eternally ``running`` ghost.
        """
        if records.orphaned(record):
            self._table.settle(
                record, FAILED,
                error=f"worker (pid {record['owner_pid']}) died with the "
                      f"job in flight",
                retryable=True,
                finished_at=time.time(),
            )
        self._metrics.increment("jobs.store_serves")
        return records.client_view(record)

    def _view(self, job: _Job) -> dict:
        # The watchdog polls at 5 Hz; refresh RUNNING on read so a fast
        # poller never sees a stale QUEUED for a started job.
        self._refresh(job)
        return self._record(job)

    def get(self, job_id: str) -> dict:
        return self._table.lookup(job_id, self._view)

    def wait_for(self, job_id: str, seconds: float) -> dict:
        """Block until the job is terminal or ``seconds`` elapse.

        The long-poll behind ``GET /v1/jobs/<id>?wait=<seconds>``: one
        blocked handler thread instead of a client hammering ``get``.
        Returns the job's snapshot either way — the caller checks
        ``status`` to tell a finished job from an expired wait.  A job
        owned by another worker is long-polled against the shared store
        (:func:`repro.perf.records.long_poll`).
        """
        return self._table.wait(job_id, seconds, self._view)

    @staticmethod
    def _record(job: _Job) -> dict:
        payload = {
            "job_id": job.job_id,
            "kind": job.kind,
            "status": job.status,
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
        }
        if job.result is not None:
            payload["result"] = job.result
        if job.error is not None:
            payload["error"] = job.error
        payload.update(job.detail)
        return payload

    def shutdown(self, wait_seconds: float = 5.0) -> dict:
        """Drain on SIGTERM: cancel the queue, give runners a grace window.

        Returns a summary of what happened to in-flight work (logged by
        the server so an operator can see nothing was silently lost).
        """
        jobs = self._table.close()
        cancelled = drained = 0
        for job in jobs:
            with self._lock:
                future = None if job.status in TERMINAL else job.future
            # A withdrawn future's done callback records the verdict.
            if future is not None and future.cancel():
                cancelled += 1
        deadline = time.time() + wait_seconds
        for job in jobs:
            with self._lock:
                future = job.future
                status = job.status
            if status in TERMINAL or future is None:
                continue
            remaining = deadline - time.time()
            try:
                future.result(timeout=max(0.0, remaining))
                drained += 1
            except Exception:
                self._table.advance(job, CANCELLED, finished_at=time.time())
                cancelled += 1
        if self._executor is not None:
            with self._lock:
                overstayed = any(
                    job.future is not None and job.future.running()
                    for job in jobs
                )
            if overstayed:
                # A worker outlived the grace window; its result is
                # already discarded, so end it rather than block exit.
                for process in list(
                    getattr(self._executor, "_processes", {}).values()
                ):
                    process.terminate()
            # wait=True reaps the worker processes here — leaving them to
            # the interpreter's atexit hook races its own fd teardown.
            self._executor.shutdown(wait=True, cancel_futures=True)
        return {"drained": drained, "cancelled": cancelled}
