"""Fingerprint-keyed JSON disk memo (the persistent tier of repro.perf.

The in-memory table cache (:mod:`repro.perf.table_cache`) makes repeated
work free *within* a process; this module makes expensive calibrations
free *across* processes and runs.  Entries are small JSON documents named
by the SHA-256 of a caller-supplied fingerprint string, so the same
invalidation contract applies: fold every input that determines the
payload into the fingerprint and stale reads become impossible.

The directory defaults to ``$REPRO_CACHE_DIR`` (or
``~/.cache/repro``) and is namespaced per consumer.  Writes are atomic
(temp file + ``os.replace``) so concurrent calibration workers can race
on the same key safely — last writer wins with identical content.  On
top of that, each ``store()`` holds an fcntl advisory lock on a per-key
sidecar file for the duration of the write, so two *processes* finishing
the same fingerprint serialise instead of interleaving, and the same
lock (:meth:`DiskCache.lock`) is what cross-process single-flight
consumers — the profile store's compute tier — take around their
compute-then-store step.  Corrupted entries (a torn write from a
``kill -9``, a bad disk) are deleted on load and reported as misses, so
the caller recomputes instead of raising forever.

Thread-safety: the per-instance hit/miss counters and the process-wide
aggregates (:func:`disk_cache_info`) are guarded by one module lock, so
the service layer — which loads cache entries from many request threads
at once — reports exact counts.  Consumers typically construct a fresh
:class:`DiskCache` per call, so the aggregates are what ``/metrics``
exposes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

try:  # pragma: no cover - always present on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

import numpy as np

from repro.errors import SimulationError

_stats_lock = threading.Lock()
_total_hits = 0
_total_misses = 0

#: Advisory-lock sidecar paths currently held, keyed by
#: ``(thread id, path)``.  flock treats a second descriptor on the same
#: file as an independent holder, so without this registry a consumer
#: holding :meth:`DiskCache.lock` around a compute step would
#: self-deadlock the moment its ``store()`` call tried to take the same
#: lock again.  The thread id matters: only the *same thread* re-taking
#: the lock is reentrant — a sibling thread must open its own
#: descriptor and genuinely wait (same-process flocks on separate
#: descriptors do contend), or single-flight would be silently defeated
#: within one process.
_held_locks_guard = threading.Lock()
_held_locks: set = set()


@dataclass(frozen=True)
class DiskCacheInfo:
    """Process-wide disk-cache counters, summed over all instances."""

    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def disk_cache_info() -> DiskCacheInfo:
    """Return the aggregate hit/miss counters for this process."""
    with _stats_lock:
        return DiskCacheInfo(hits=_total_hits, misses=_total_misses)


def reset_disk_cache_stats() -> None:
    """Zero the process-wide aggregate counters (instances keep theirs)."""
    global _total_hits, _total_misses
    with _stats_lock:
        _total_hits = 0
        _total_misses = 0


def _canonical(value) -> str:
    """Render one fingerprint part in a representation-independent form.

    ``repr`` alone forks keys on incidental representation choices:
    ``np.float64(0.3)`` vs ``0.3``, a list vs the tuple a later caller
    passes, dict insertion order.  This encoder strips all of that —
    numpy scalars coerce to their Python values, ndarrays and every
    sequence type flatten to one bracketed form, dict items sort by key,
    dataclasses encode as class name + field map — while keeping
    distinct *values* distinct (``1`` vs ``1.0`` vs ``True`` vs ``"1"``
    all differ).
    """
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, bool):
        return repr(value)
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        return f"f{value!r}"
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, np.ndarray):
        return "[" + ",".join(_canonical(v) for v in value.tolist()) + "]"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted(
            (_canonical(k), _canonical(v)) for k, v in value.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{field.name}={_canonical(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    return repr(value)


def make_fingerprint(*parts) -> str:
    """Fold every input that determines a cached payload into one string.

    The contract mirrors :class:`DiskCache`: callers pass *all* inputs
    (including format-version integers) and the resulting string keys
    the entry, so any input change — a new policy, a bumped format —
    reads as a clean miss instead of a stale hit.
    Parts are canonicalised (see :func:`_canonical`) so equal values key
    equally no matter how a caller spells them — a ``np.float64`` weight
    and the plain float it equals land on the same entry.
    """
    return "fp1(" + ",".join(_canonical(part) for part in parts) + ")"


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


class DiskCache:
    """One namespace of fingerprint-keyed JSON entries.

    Parameters
    ----------
    namespace:
        Subdirectory name (one per consumer, e.g. ``"missmodel"``).
    directory:
        Cache root override; defaults to :func:`default_cache_dir`.
    """

    def __init__(
        self, namespace: str, directory: Optional[os.PathLike] = None
    ) -> None:
        if not namespace or "/" in namespace:
            raise SimulationError(
                f"namespace must be a simple name, got {namespace!r}"
            )
        root = Path(directory) if directory is not None else default_cache_dir()
        self.directory = root / namespace
        self.hits = 0
        self.misses = 0

    def _count(self, hit: bool) -> None:
        global _total_hits, _total_misses
        with _stats_lock:
            if hit:
                self.hits += 1
                _total_hits += 1
            else:
                self.misses += 1
                _total_misses += 1

    def path_for(self, fingerprint: str) -> Path:
        """Return the entry path for a fingerprint."""
        digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
        return self.directory / f"{digest[:32]}.json"

    def load(self, fingerprint: str):
        """Return the stored payload, or None on a miss.

        Unreadable entries count as misses; *corrupt* entries (present
        but undecodable — a torn write from a ``kill -9``, disk damage)
        are deleted before the miss is reported, so the caller's
        recompute-and-store replaces them instead of tripping over the
        same bad bytes on every future load.
        """
        path = self.path_for(fingerprint)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except OSError:
            self._count(hit=False)
            return None
        except ValueError:
            # The file exists but does not decode: delete-and-recompute.
            try:
                os.unlink(path)
            except OSError:
                pass
            self._count(hit=False)
            return None
        # Guard against (astronomically unlikely) digest collisions and
        # format drift: the full fingerprint is stored alongside.  A
        # decodable entry of the wrong shape is corruption too.
        if not isinstance(entry, dict) or "payload" not in entry:
            try:
                os.unlink(path)
            except OSError:
                pass
            self._count(hit=False)
            return None
        if entry.get("fingerprint") != fingerprint:
            self._count(hit=False)
            return None
        self._count(hit=True)
        return entry["payload"]

    @contextlib.contextmanager
    def lock(self, fingerprint: str) -> Iterator[None]:
        """Hold the cross-process advisory lock for one fingerprint.

        Blocks until the lock is granted (fcntl ``LOCK_EX`` on a per-key
        sidecar file), so N processes racing to produce the same entry
        serialise: the winner computes and stores; the rest wake up,
        re-check :meth:`load`, and find the finished entry.  Advisory
        only — plain :meth:`store`/:meth:`load` calls remain safe via
        the atomic-rename discipline; the lock adds *waiting*, which is
        what single-flight needs.  On platforms without ``fcntl`` the
        context degrades to a no-op (atomic last-writer-wins survives).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = str(self.path_for(fingerprint).with_suffix(".lock"))
        holder = (threading.get_ident(), path)
        with _held_locks_guard:
            reentrant = holder in _held_locks
            if not reentrant:
                _held_locks.add(holder)
        if reentrant:
            # This thread already holds the flock (e.g. store() inside
            # a single-flight compute section): don't re-acquire — a
            # second descriptor counts as a *different* holder and
            # would deadlock against ourselves.
            yield
            return
        descriptor = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
            yield
        finally:
            # Closing drops the flock; the sidecar file is left behind
            # (unlinking it would race a fresh locker on the same name).
            os.close(descriptor)
            with _held_locks_guard:
                _held_locks.discard(holder)

    def store(self, fingerprint: str, payload) -> Path:
        """Persist a JSON-serialisable payload atomically; returns the path.

        The write happens under the per-key advisory lock, so two
        workers finishing the same fingerprint serialise their
        temp-write + rename instead of interleaving; the rename keeps
        readers safe even against writers that bypass the lock.
        """
        path = self.path_for(fingerprint)
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.lock(fingerprint):
            descriptor, temp_name = tempfile.mkstemp(
                dir=self.directory, suffix=".tmp"
            )
            try:
                with os.fdopen(descriptor, "w") as handle:
                    json.dump(
                        {"fingerprint": fingerprint, "payload": payload},
                        handle,
                    )
                os.replace(temp_name, path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        return path

    def clear(self) -> int:
        """Delete every entry in this namespace; returns the count."""
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
