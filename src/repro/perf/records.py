"""Durable worker-shared records: the one format jobs and campaigns use.

A job (``JobManager``) and a campaign (``CampaignManager``) each keep
one small JSON record per id in a :class:`~repro.perf.disk_cache
.DiskCache` namespace every worker process shares, so *any* worker —
including a freshly restarted one — can answer a poll for work another
process owns or finished.  This module owns that record format; the
managers own the policy (what an orphan becomes, who may adopt what).

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

import os
import time
from typing import Callable, Optional

from repro.perf.disk_cache import DiskCache
from repro.procutil import owner_alive, proc_start_ticks

__all__ = [
    "POLL_SECONDS", "TERMINAL", "cancel_view", "client_view",
    "long_poll", "orphaned", "owned_by_sibling", "read", "write",
]

#: Statuses that end a job's or a campaign's lifecycle.
TERMINAL = ("done", "failed", "cancelled", "timeout")

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


def cancel_view(record: dict, kind: str) -> dict:
    """The answer to cancelling work this process does not hold.

    There is no cross-process job control: a non-terminal record comes
    back with a note instead of an effect, a terminal one as its verdict.
    """
    note = None
    if record.get("status") not in TERMINAL:
        note = (
            f"{kind} is owned by another worker; cancel it there or "
            f"wait for its verdict"
        )
    return client_view(record, note)


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
