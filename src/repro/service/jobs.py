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

Durability: every submission is mirrored into a shared record
(:mod:`repro.perf.records`, disk namespace ``jobs``; written at submit,
atomically rewritten at every terminal transition), and
``get``/``wait_for`` consult that record on a local miss.  In a
multi-worker deployment any worker therefore answers
``GET /v1/jobs/<id>`` for work another process finished — including
after the owning worker (or the whole daemon) was killed — and a job
that died in flight with its worker resurfaces as a retryable failure
instead of a 404.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import ServiceUnavailableError, ValidationError
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
        self._lock = threading.Lock()
        # Long-pollers (wait_for) sleep on this; every terminal
        # transition notifies it.  Shares _lock, so any holder may notify.
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, _Job] = {}
        self._ids = itertools.count(1)
        # Job ids must be unique across every worker process (and every
        # restart) that shares one job store: a per-instance random
        # token namespaces the sequential counter.
        self._instance = os.urandom(4).hex()
        self._max_workers = max_workers
        self._max_queue = max_queue
        self._timeout_seconds = timeout_seconds
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._worker_id = worker_id
        self._disk: Optional[DiskCache] = (
            DiskCache("jobs", directory=cache_dir) if durable else None
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        self._shutdown = False
        self._watchdog: Optional[threading.Thread] = None
        self._metrics.register_gauge("jobs.queue_depth", self.queue_depth)
        self._metrics.register_gauge("jobs.running", self.running_count)

    # -- observability -----------------------------------------------------

    def queue_depth(self) -> int:
        """Jobs admitted but not yet started."""
        with self._lock:
            return sum(1 for job in self._jobs.values()
                       if job.status == QUEUED)

    def running_count(self) -> int:
        with self._lock:
            return sum(1 for job in self._jobs.values()
                       if job.status == RUNNING)

    # -- lifecycle ---------------------------------------------------------

    def _next_id(self) -> str:
        """A job id unique across workers, restarts, and processes."""
        return f"job-{self._instance}-{next(self._ids)}"

    @staticmethod
    def _record_key(job_id: str) -> str:
        return f"job-record:{job_id}"

    def _write(self, snapshot: dict) -> None:
        """Write one snapshot as the job's shared record."""
        if self._disk is not None:
            records.write(
                self._disk, self._record_key(snapshot["job_id"]), snapshot,
                worker=self._worker_id, instance=self._instance,
            )

    def _persist(self, job: _Job) -> None:
        """Mirror one job's current snapshot into its shared record."""
        with self._lock:
            snapshot = self._snapshot(job)
        self._write(snapshot)

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._max_workers
            )
        if self._watchdog is None:
            self._watchdog = threading.Thread(
                target=self._watch, name="repro-job-watchdog", daemon=True
            )
            self._watchdog.start()
        return self._executor

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
        with self._lock:
            if self._shutdown:
                raise ServiceUnavailableError(
                    "the service is shutting down; no new jobs accepted"
                )
            queued = sum(1 for job in self._jobs.values()
                         if job.status == QUEUED)
            if queued >= self._max_queue:
                raise ServiceUnavailableError(
                    f"job queue is full ({queued} queued, limit "
                    f"{self._max_queue}); retry later"
                )
            job_id = self._next_id()
            job = _Job(
                job_id=job_id,
                kind=kind,
                submitted_at=time.time(),
                timeout_seconds=self._timeout_seconds,
            )
            if detail:
                job.detail.update(detail)
            self._jobs[job_id] = job
        self._metrics.increment("jobs.submitted")
        # Persist the admission before any work starts: if this worker
        # dies mid-job, any reader of the shared store sees an orphaned
        # in-flight record (-> failed/retryable), never a missing one.
        self._persist(job)
        future = self._ensure_executor().submit(fn, *args, **kwargs)
        with self._lock:
            job.future = future
        future.add_done_callback(lambda done: self._on_done(job_id, done))
        return job_id

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
        with self._lock:
            if self._shutdown:
                raise ServiceUnavailableError(
                    "the service is shutting down; no new jobs accepted"
                )
            job_id = self._next_id()
            now = time.time()
            job = _Job(
                job_id=job_id,
                kind=kind,
                submitted_at=now,
                timeout_seconds=self._timeout_seconds,
                status=DONE,
                started_at=now,
                finished_at=now,
                result=result,
            )
            if detail:
                job.detail.update(detail)
        # Durability before visibility (as in _on_done): the born-done
        # record reaches the store before the id is ever handed out.
        self._write(self._snapshot(job))
        with self._lock:
            self._jobs[job_id] = job
            self._cond.notify_all()
        self._metrics.increment("jobs.submitted")
        self._metrics.increment("jobs.done")
        self._metrics.observe("jobs.duration_seconds", 0.0)
        return job_id

    def _on_done(self, job_id: str, future: Future) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return
            if job.status in (CANCELLED, TIMEOUT):
                job.finished_at = time.time()
                return  # result arrived after the verdict: discard it
            # Resolve the verdict on a private copy first: the terminal
            # state must reach the shared store *before* any poller can
            # observe it, or a kill -9 in the gap turns a job a client
            # already saw as done into an orphaned in-flight record
            # (-> failed/retryable) on re-read.
            pending = _Job(**{f: getattr(job, f)
                              for f in job.__dataclass_fields__})
        pending.finished_at = time.time()
        if future.cancelled():
            pending.status = CANCELLED
        else:
            error = future.exception()
            if error is not None:
                pending.status = FAILED
                pending.error = f"{type(error).__name__}: {error}"
            else:
                pending.status = DONE
                pending.result = future.result()
        self._write(self._snapshot(pending))
        with self._lock:
            if job.status in (CANCELLED, TIMEOUT):
                # A cancel/timeout verdict landed while we persisted;
                # its snapshot must win on disk too.
                job.finished_at = pending.finished_at
                persist_verdict = True
            else:
                job.status = pending.status
                job.result = pending.result
                job.error = pending.error
                job.finished_at = pending.finished_at
                persist_verdict = False
            status = job.status
            duration = job.finished_at - job.submitted_at
            self._cond.notify_all()
        if persist_verdict:
            self._persist(job)
            return
        self._metrics.increment(f"jobs.{status}")
        if status in (DONE, FAILED):
            self._metrics.observe("jobs.duration_seconds", duration)

    def _watch(self) -> None:
        """Mark RUNNING, and expire jobs past their timeout."""
        while True:
            time.sleep(0.2)
            expired = []
            with self._lock:
                if self._shutdown:
                    return
                now = time.time()
                for job in self._jobs.values():
                    if job.status == QUEUED and job.future is not None \
                            and job.future.running():
                        job.status = RUNNING
                        job.started_at = now
                    if job.status in (QUEUED, RUNNING) \
                            and now - job.submitted_at > job.timeout_seconds:
                        job.status = TIMEOUT
                        job.finished_at = now
                        job.error = (
                            f"job exceeded its {job.timeout_seconds:.0f} s "
                            f"timeout"
                        )
                        expired.append(job)
                if expired:
                    self._cond.notify_all()
            # Future.cancel() on a still-pending future runs the done
            # callbacks synchronously on this thread, and _on_done takes
            # _lock — so the cancel must happen after the lock is
            # released.  Status is already TIMEOUT, so _on_done discards.
            for job in expired:
                if job.future is not None:
                    job.future.cancel()
                self._persist(job)
                self._metrics.increment("jobs.timeout")

    def cancel(self, job_id: str) -> dict:
        """Cancel a job if it has not finished; returns its snapshot.

        Cancellation is a local act: a job owned by *another* worker
        cannot be interrupted from here (there is no cross-process job
        control), so for remote records the snapshot comes back with a
        note instead of an effect — unless the record is already
        terminal, in which case the verdict is simply served.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return records.cancel_view(self._shared_record(job_id), "job")
        with self._lock:
            if job.status in TERMINAL:
                return self._snapshot(job)
            # Mark terminal *before* touching the future: _on_done (which
            # Future.cancel() may invoke synchronously on this thread once
            # the lock is released) early-returns on CANCELLED and never
            # double-counts or overwrites the verdict.
            job.status = CANCELLED
            job.finished_at = time.time()
            future = job.future
            self._cond.notify_all()
        # Never call Future.cancel() while holding _lock: a pending
        # future runs its done callbacks on the cancelling thread, and
        # _on_done acquires _lock — that is a self-deadlock.
        withdrawn = future.cancel() if future is not None else True
        with self._lock:
            if not withdrawn:
                # Already on a worker: the result is discarded on arrival.
                job.detail["note"] = (
                    "job was already running; its result will be discarded"
                )
            snapshot = self._snapshot(job)
        self._persist(job)
        self._metrics.increment("jobs.cancelled")
        return snapshot

    def _shared_record(self, job_id: str) -> dict:
        """Look a locally-unknown job up in the shared store (404 if absent).

        A non-terminal record whose owner process is dead is rewritten
        in place as a retryable failure before it is returned: the
        worker took the in-flight job down with it, and every later
        reader (on any worker) must see that verdict rather than an
        eternally ``running`` ghost.
        """
        key = self._record_key(job_id)
        record = (
            records.read(self._disk, key, "job_id")
            if self._disk is not None else None
        )
        if record is None:
            raise ValidationError(f"unknown job id {job_id!r}", status=404)
        if records.orphaned(record):
            record["status"] = FAILED
            record["error"] = (
                f"worker (pid {record['owner_pid']}) died with the job "
                f"in flight"
            )
            record["retryable"] = True
            record["finished_at"] = time.time()
            records.write(self._disk, key, record)
        self._metrics.increment("jobs.store_serves")
        return record

    def get(self, job_id: str) -> dict:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                # The watchdog polls at 5 Hz; refresh RUNNING on read so
                # a fast poller never sees a stale QUEUED for a started
                # job.
                if job.status == QUEUED and job.future is not None \
                        and job.future.running():
                    job.status = RUNNING
                    job.started_at = time.time()
                return self._snapshot(job)
        # Not ours: another worker may own (or have finished) it.  The
        # shared store serves completed work from any process — the
        # durability contract — and flips orphaned in-flight records to
        # failed/retryable on read.
        return records.client_view(self._shared_record(job_id))

    def wait_for(self, job_id: str, seconds: float) -> dict:
        """Block until the job is terminal or ``seconds`` elapse.

        The long-poll behind ``GET /v1/jobs/<id>?wait=<seconds>``: one
        blocked handler thread instead of a client hammering ``get``.
        Returns the job's snapshot either way — the caller checks
        ``status`` to tell a finished job from an expired wait.  A job
        owned by another worker is long-polled against the shared store
        (:func:`repro.perf.records.long_poll`) instead of the local
        condition variable.
        """
        deadline = time.monotonic() + max(0.0, seconds)
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    break
                if job.status == QUEUED and job.future is not None \
                        and job.future.running():
                    job.status = RUNNING
                    job.started_at = time.time()
                if job.status in TERMINAL:
                    return self._snapshot(job)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return self._snapshot(job)
                # Chunked waits double as a liveness poll: the QUEUED ->
                # RUNNING refresh above still happens while blocked.
                self._cond.wait(min(remaining, 0.25))
        # Remote job: poll the shared store until terminal or expired.
        return records.long_poll(
            lambda: records.client_view(self._shared_record(job_id)),
            deadline,
        )

    def _snapshot(self, job: _Job) -> dict:
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
        with self._lock:
            self._shutdown = True
            jobs = list(self._jobs.values())
        cancelled = drained = 0
        for job in jobs:
            with self._lock:
                if job.status in TERMINAL:
                    continue
                future = job.future
            if future is not None and future.cancel():
                with self._lock:
                    job.status = CANCELLED
                    job.finished_at = time.time()
                    self._cond.notify_all()
                self._persist(job)
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
                with self._lock:
                    if job.status not in TERMINAL:
                        job.status = CANCELLED
                        job.finished_at = time.time()
                        self._cond.notify_all()
                self._persist(job)
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
