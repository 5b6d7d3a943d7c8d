"""Cross-worker observability board (DiskCache namespace ``metrics``).

Each worker in a multi-worker deployment periodically publishes its
whole :class:`~repro.service.metrics.MetricsRegistry` snapshot to this
shared disk board, keyed by worker id.  Any worker answering
``GET /metrics?scope=cluster`` collects every published record, reports
the per-worker views verbatim, and serves one merged view via
:func:`repro.service.metrics.merge_snapshots` — so the client sees
fleet totals no matter which worker the kernel handed its connection
to.  A single-process daemon publishes itself at scrape time and
answers as a cluster of one.

Records from *recently* dead workers are kept (their counters still
happened — a client computing deltas over the merged view across a run,
as the service smoke does, must not see traffic vanish when a worker
crashes mid-run) but carry an ``alive: false`` flag so operators can
tell a drained worker from a live one.  A dead record older than
:data:`STALE_RECORD_SECONDS` is expired from the board view: without
the cutoff, cache directories shared across many deployments would
accumulate one record per past worker id and the merged totals would
double-count every previous instance forever.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

from repro.perf.disk_cache import DiskCache
from repro.procutil import owner_alive, proc_start_ticks

#: Fingerprint prefix for per-worker metrics records.
_PREFIX = "worker-metrics:"

#: How long a dead worker's record stays in the board view.  Long
#: enough for any realistic load run to keep its deltas exact across a
#: mid-run crash; short enough that stale deployments age out.
STALE_RECORD_SECONDS = 900.0


class WorkerMetricsBoard:
    """Publish/collect per-worker metrics snapshots via the disk cache."""

    NAMESPACE = "metrics"

    def __init__(self, directory=None) -> None:
        self._disk = DiskCache(self.NAMESPACE, directory=directory)

    def publish(self, worker_id: str, snapshot: dict) -> None:
        """Write one worker's current snapshot (atomic, last write wins)."""
        record = {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "start_ticks": proc_start_ticks(os.getpid()),
            "published_at": time.time(),
            "snapshot": snapshot,
        }
        try:
            self._disk.store(_PREFIX + worker_id, record)
        except (TypeError, OSError):  # pragma: no cover - defensive
            pass

    def collect(self) -> Dict[str, dict]:
        """Return ``{worker_id: record}`` for every published worker.

        Entry filenames are fingerprint digests, but each entry stores
        its fingerprint in clear, so the namespace directory is scanned
        and filtered on the ``worker-metrics:`` prefix.  Unreadable or
        torn entries are skipped — the board is observability, never a
        correctness dependency.  Dead workers' records are served with
        ``alive: false`` until they are :data:`STALE_RECORD_SECONDS`
        old, then dropped from the view (and best-effort deleted).
        """
        records: Dict[str, dict] = {}
        directory = self._disk.directory
        if not directory.is_dir():
            return records
        for path in sorted(directory.glob("*.json")):
            try:
                with open(path) as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                continue
            if not isinstance(entry, dict):
                continue
            fingerprint = entry.get("fingerprint")
            record = entry.get("payload")
            if (
                not isinstance(fingerprint, str)
                or not fingerprint.startswith(_PREFIX)
                or not isinstance(record, dict)
            ):
                continue
            record = dict(record)
            alive = owner_alive(
                record.get("pid"), record.get("start_ticks")
            )
            record["alive"] = alive
            if not alive:
                published = record.get("published_at")
                if (
                    not isinstance(published, (int, float))
                    or time.time() - published > STALE_RECORD_SECONDS
                ):
                    # Long-dead incarnation: expire it from the board
                    # so merged totals stop double-counting it.
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                    continue
            records[fingerprint[len(_PREFIX):]] = record
        return records

    def clear(self) -> int:
        """Drop every published record (tests); returns the count."""
        return self._disk.clear()


def cluster_view(
    board: WorkerMetricsBoard,
    self_id: str,
    self_snapshot: Optional[dict] = None,
) -> dict:
    """Assemble the ``/metrics?scope=cluster`` document.

    ``self_snapshot`` (freshly taken by the answering worker) overrides
    that worker's possibly-stale published record, so the responder's
    own numbers are always current.
    """
    from repro.service.metrics import merge_snapshots

    records = board.collect()
    if self_snapshot is not None:
        records[self_id] = {
            "worker_id": self_id,
            "pid": os.getpid(),
            "start_ticks": proc_start_ticks(os.getpid()),
            "published_at": time.time(),
            "alive": True,
            "snapshot": self_snapshot,
        }
    per_worker = {
        worker_id: record.get("snapshot") or {}
        for worker_id, record in records.items()
    }
    return {
        "scope": "cluster",
        "served_by": self_id,
        "workers": {
            worker_id: {
                "pid": record.get("pid"),
                "alive": record.get("alive", False),
                "published_at": record.get("published_at"),
                "snapshot": record.get("snapshot") or {},
            }
            for worker_id, record in records.items()
        },
        "merged": merge_snapshots(per_worker),
    }
