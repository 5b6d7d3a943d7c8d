"""Process-liveness helpers shared by the durable stores.

The shared job and campaign records (:mod:`repro.perf.records`) and
the cluster metrics board both record which process owns a piece of
in-flight work and must later decide whether that owner is still
alive.  A bare ``kill(pid, 0)`` probe is not enough: pids are recycled,
and on a busy host (supervisor restarts included) an unrelated process
can inherit a dead worker's pid, making an orphaned record look owned
forever.  The cure is the
kernel's own incarnation stamp — ``/proc/<pid>/stat`` field 22, the
process start time in clock ticks — which writers persist alongside
their pid and readers compare before trusting liveness.

This module sits below every other repro package (it imports nothing
of repro), so the record format and the service layer share one
implementation without violating the import discipline.
"""

from __future__ import annotations

import os
from typing import Optional


def pid_alive(pid) -> bool:
    """True when a process with this pid exists on this host.

    ``PermissionError`` means the pid exists but belongs to another
    user — alive as far as signal 0 can tell.  Callers that must rule
    out pid recycling should use :func:`owner_alive` with a persisted
    start-ticks stamp instead of trusting this alone.
    """
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - defensive
        return False
    return True


def proc_start_ticks(pid) -> Optional[int]:
    """The kernel start time of a pid in clock ticks, or None.

    Read from ``/proc/<pid>/stat`` (world-readable even for foreign
    processes, so this works where ``kill(pid, 0)`` only says
    "exists").  The comm field may contain spaces and parentheses, so
    fields are counted from the *last* ``)``; starttime is field 22 of
    the stat line, i.e. index 19 after the closing parenthesis.
    Returns None where /proc is unavailable (non-Linux) or the pid is
    gone.
    """
    if not isinstance(pid, int) or pid <= 0:
        return None
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    fields = data.rsplit(b")", 1)[-1].split()
    try:
        return int(fields[19])
    except (IndexError, ValueError):  # pragma: no cover - malformed stat
        return None


def owner_alive(pid, start_ticks=None) -> bool:
    """True when ``pid`` is alive *and* is the incarnation that wrote
    ``start_ticks``.

    ``start_ticks`` is the stamp the owner persisted at write time
    (:func:`proc_start_ticks` on itself).  A live pid with a different
    start time is a recycled pid — the original owner is dead and its
    record is an orphan.  Records without a stamp (or hosts without
    /proc) degrade to the plain pid probe.
    """
    if not isinstance(pid, int) or pid <= 0:
        return False
    if not pid_alive(pid):
        return False
    if not isinstance(start_ticks, int):
        return True
    current = proc_start_ticks(pid)
    if current is None:
        return True
    return current == start_ticks
