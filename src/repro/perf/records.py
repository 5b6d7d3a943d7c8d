"""Durable work items: the one lifecycle behind jobs and campaigns.

A job (``JobManager``) and a campaign (``CampaignManager``) each keep
one small JSON record per id in a :class:`~repro.perf.disk_cache
.DiskCache` namespace every worker process shares, so *any* worker —
including a freshly restarted one — can answer a poll for work another
process owns or finished.  This module owns that record format and the
lifecycle both managers run on, :class:`WorkTable`; the managers keep
only what differs by kind (what a record holds, what a foreign record
resolves to) and their own execution (the pool, the coordinator).

Lifecycle (:data:`TRANSITIONS`): ``queued -> running -> done | failed |
cancelled | timeout``; a queued item may also end directly, and a
terminal status has no exits.  Every status change goes through
:meth:`WorkTable.advance`, and every record write through one call
under one persist lock: an item's first record is on disk before the
item is visible, and a verdict (a terminal status) is on disk before
it turns visible and is applied only if no other verdict got there
first.

* :func:`write` stamps the writer's identity — ``owner_pid``,
  ``owner_worker``, ``owner_instance`` and the pid's kernel start-time
  stamp ``owner_start_ticks`` — plus ``persisted_at``.  A record that
  already carries an owner keeps it, so rewriting an orphan's verdict
  does not claim the work for the rewriter.
* :func:`orphaned` / :func:`owned_by_sibling` judge the owner's
  liveness by pid *and* incarnation (:func:`repro.procutil
  .owner_alive`), so a recycled pid never masks a dead owner.
* :func:`client_view` strips the bookkeeping fields and labels the
  record with ``served_by`` (and an optional ``note``).
* :func:`long_poll` re-reads a remote record every
  :data:`POLL_SECONDS` until it is terminal or the deadline passes.

Writes inherit the disk cache's atomic rename and per-key lock, so a
record is never read half-written, even when its writer dies mid-store.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import ServiceUnavailableError, ValidationError
from repro.perf.disk_cache import DiskCache
from repro.procutil import owner_alive, proc_start_ticks

__all__ = [
    "POLL_SECONDS", "TERMINAL", "TRANSITIONS", "WorkTable", "client_view",
    "long_poll", "orphaned", "owned_by_sibling", "read", "write",
]

#: The statuses each status may change to.
TRANSITIONS = {
    "queued": ("running", "done", "failed", "cancelled", "timeout"),
    "running": ("done", "failed", "cancelled", "timeout"),
    "done": (),
    "failed": (),
    "cancelled": (),
    "timeout": (),
}

#: Statuses that end a job's or a campaign's lifecycle.
TERMINAL = tuple(status for status, exits in TRANSITIONS.items()
                 if not exits)

#: Re-read interval of a long-poll against a remote record.
POLL_SECONDS = 0.25

#: Bookkeeping fields a client never sees.
_HIDDEN = (
    "owner_pid", "owner_instance", "owner_start_ticks", "persisted_at",
    "spec_body",
)


def write(
    disk: DiskCache,
    key: str,
    snapshot: dict,
    worker: Optional[str] = None,
    instance: str = "",
) -> None:
    """Persist one snapshot under ``key`` (atomic; last writer wins).

    Results that do not serialise to JSON are stored without their
    payload and flagged ``result_unserializable`` — the shared record
    must never be the reason a submission fails — and an unwritable
    disk is ignored for the same reason.
    """
    record = dict(snapshot)
    record.setdefault("owner_pid", os.getpid())
    record.setdefault("owner_worker", worker)
    record.setdefault("owner_instance", instance)
    record.setdefault(
        "owner_start_ticks", proc_start_ticks(record["owner_pid"])
    )
    record["persisted_at"] = time.time()
    try:
        disk.store(key, record)
    except TypeError:
        record.pop("result", None)
        record["result_unserializable"] = True
        disk.store(key, record)
    except OSError:  # pragma: no cover - disk full / unwritable dir
        pass


def read(disk: DiskCache, key: str, id_field: str) -> Optional[dict]:
    """The record stored under ``key``, or None (missing or malformed)."""
    record = disk.load(key)
    if not isinstance(record, dict) or id_field not in record:
        return None
    return record


def _owner_pid(record: dict) -> Optional[int]:
    pid = record.get("owner_pid")
    return pid if isinstance(pid, int) else None


def orphaned(record: dict) -> bool:
    """True for a non-terminal record whose owner process is dead."""
    pid = _owner_pid(record)
    return (
        record.get("status") not in TERMINAL
        and pid is not None
        and not owner_alive(pid, record.get("owner_start_ticks"))
    )


def owned_by_sibling(record: dict) -> bool:
    """True when another live process (same incarnation) owns the record."""
    pid = _owner_pid(record)
    return (
        pid is not None
        and pid != os.getpid()
        and owner_alive(pid, record.get("owner_start_ticks"))
    )


def client_view(record: dict, note: Optional[str] = None) -> dict:
    """The record as a client sees it: bookkeeping stripped.

    The result is shaped like the owning manager's own snapshot plus a
    ``served_by`` label naming the worker that wrote it (and ``note``,
    when given).
    """
    view = {
        key: value for key, value in record.items() if key not in _HIDDEN
    }
    owner = record.get("owner_worker")
    if owner is not None:
        view.setdefault("served_by", owner)
    if note:
        view["note"] = note
    return view


def long_poll(fetch: Callable[[], dict], deadline: float) -> dict:
    """Call ``fetch`` until its view is terminal or ``deadline`` passes.

    ``deadline`` is a :func:`time.monotonic` instant; ``fetch`` returns
    a client view (and raises for an unknown id).
    """
    while True:
        view = fetch()
        remaining = deadline - time.monotonic()
        if view.get("status") in TERMINAL or remaining <= 0:
            return view
        time.sleep(min(remaining, POLL_SECONDS))


class WorkTable:
    """One kind of durable work item: ids, admission, status, records.

    Items are the manager's dataclass objects with a ``<kind>_id`` and
    a ``status``; the table sets ``status`` and the fields a transition
    names, nothing else.  What differs by kind enters through two
    functions: ``snapshot(item)`` is the record written for an item,
    and ``resolve(record)`` turns another process's record into the
    answer served here (it may :meth:`settle` an orphan, or adopt the
    work and :meth:`add` it).

    ``lock`` (re-entrant; ``cond`` waits on it) guards the items and the
    fields the manager keeps on them.  Verdicts are never advanced with
    ``lock`` held, and ``Future.cancel()`` — which may run a done
    callback that advances one — is never called under either lock.
    """

    def __init__(self, kind: str, disk: Optional[DiskCache],
                 key_prefix: str, snapshot: Callable[[object], dict],
                 resolve: Callable[[dict], dict],
                 worker: Optional[str] = None) -> None:
        self.kind = kind
        self.lock = threading.RLock()
        self.cond = threading.Condition(self.lock)
        self.items: Dict[str, object] = {}
        self.closed = False
        self._id_field = f"{kind}_id"
        self._disk = disk
        self._key_prefix = key_prefix
        self._snapshot = snapshot
        self._resolve = resolve
        self._worker = worker
        # A per-instance random token namespaces the counter, so ids
        # are unique across every worker sharing one store and across
        # restarts.
        self._instance = os.urandom(4).hex()
        self._ids = itertools.count(1)
        # Held around every snapshot-and-write, so records land in
        # snapshot order and verdicts are serialised.
        self._persist_lock = threading.Lock()

    def new_id(self) -> str:
        return f"{self.kind}-{self._instance}-{next(self._ids)}"

    def _key(self, item_id: str) -> str:
        return f"{self._key_prefix}:{item_id}"

    def _write(self, record: dict) -> None:
        """The one record write; callers hold the persist lock."""
        if self._disk is not None:
            write(self._disk, self._key(record[self._id_field]), record,
                  worker=self._worker, instance=self._instance)

    def add(self, item, admit: Optional[Callable[[], None]] = None):
        """Register a new item; its record is on disk before it is visible.

        Refused (503) once the table is closed; ``admit``, run under
        the lock, may refuse it too.  Returns the registered item: the
        incumbent when another thread registered the same id first.
        """
        item_id = getattr(item, self._id_field)
        with self._persist_lock:
            with self.lock:
                if self.closed:
                    raise ServiceUnavailableError(
                        f"the service is shutting down; no new "
                        f"{self.kind}s accepted"
                    )
                if item_id in self.items:
                    return self.items[item_id]
                if admit is not None:
                    admit()
                record = self._snapshot(item)
            self._write(record)
            with self.lock:
                self.items[item_id] = item
                self.cond.notify_all()
        return item

    def advance(self, item, status: str, **changes) -> bool:
        """Move ``item`` to ``status`` with ``changes``; True if it moved.

        :data:`TRANSITIONS` decides what may move.  A verdict is
        snapshotted from a copy that carries it, written, and only then
        applied, so the first verdict wins on disk and in memory alike.
        """
        if status not in TERMINAL:
            with self.lock:
                if status not in TRANSITIONS[item.status]:
                    return False
                self._apply(item, status, changes)
            return True
        with self._persist_lock:
            with self.lock:
                if status not in TRANSITIONS[item.status]:
                    return False
                record = self._snapshot(
                    dataclasses.replace(item, status=status, **changes)
                )
            self._write(record)
            with self.lock:
                self._apply(item, status, changes)
        return True

    def _apply(self, item, status: str, changes: dict) -> None:
        for name, value in changes.items():
            setattr(item, name, value)
        item.status = status
        self.cond.notify_all()

    def persist(self, item) -> None:
        """Rewrite a live item's record; a verdict's record is final."""
        with self._persist_lock:
            with self.lock:
                if item.status in TERMINAL:
                    return
                record = self._snapshot(item)
            self._write(record)

    def settle(self, record: dict, status: str, **fields) -> None:
        """Give another process's record a verdict and rewrite it."""
        if status in TRANSITIONS.get(record.get("status"), ()):
            record.update(fields, status=status)
            with self._persist_lock:
                self._write(record)

    def close(self) -> list:
        """Refuse new items from now on; returns the items held."""
        with self.lock:
            self.closed = True
            return list(self.items.values())

    def _foreign(self, item_id: str) -> dict:
        """Resolve an id this table does not hold (404 if unknown)."""
        record = None if self._disk is None else read(
            self._disk, self._key(item_id), self._id_field
        )
        if record is None:
            raise ValidationError(
                f"unknown {self.kind} id {item_id!r}", status=404
            )
        return self._resolve(record)

    def _wait_held(self, item_id: str, deadline: float, view):
        """``view`` of a held item once terminal or at ``deadline``.

        None when the table does not hold ``item_id``.
        """
        with self.cond:
            while item_id in self.items:
                item = self.items[item_id]
                remaining = deadline - time.monotonic()
                if item.status in TERMINAL or remaining <= 0:
                    return view(item)
                self.cond.wait(min(remaining, POLL_SECONDS))
        return None

    def wait(self, item_id: str, seconds: float, view=None) -> dict:
        """Block until the item is terminal or ``seconds`` elapse.

        A held item waits on the condition variable.  Any other id is
        resolved from the shared store and long-polled there, unless
        resolving it registered the item here (an adoption).  ``view``
        (default: the snapshot) shapes a held item's answer.
        """
        deadline = time.monotonic() + max(0.0, seconds)
        view = view or self._snapshot

        def fetch() -> dict:
            held = self._wait_held(item_id, deadline, view)
            if held is not None:
                return held
            resolved = self._foreign(item_id)
            return self._wait_held(item_id, deadline, view) or resolved

        return long_poll(fetch, deadline)

    def lookup(self, item_id: str, view=None) -> dict:
        """The item's answer now, held here or not."""
        return self.wait(item_id, 0.0, view)

    def cancel(self, item_id: str, cancel_held: Callable[[object], dict]):
        """``cancel_held(item)`` for a held item; a note for anything else.

        A foreign id is resolved first, so an adopted item is cancelled
        here.  Work another process still owns cannot be cancelled from
        here: a non-terminal answer comes back with a note instead of an
        effect, a terminal one as its verdict.
        """
        with self.lock:
            item = self.items.get(item_id)
        if item is None:
            resolved = self._foreign(item_id)
            with self.lock:
                item = self.items.get(item_id)
            if item is None:
                note = None if resolved.get("status") in TERMINAL else (
                    f"{self.kind} is owned by another worker; cancel it "
                    f"there or wait for its verdict"
                )
                return client_view(resolved, note)
        return cancel_held(item)
