"""Multi-worker supervisor: ``python -m repro serve --workers N``.

One parent process binds the listen socket exactly once (with
``SO_REUSEPORT`` set where the platform offers it) and forks N worker
processes that inherit the listening descriptor — the kernel then
balances incoming connections across whichever workers are blocked in
``accept``.  Binding once means ``--port 0`` works (every worker shares
the same ephemeral port) and a crashed worker's replacement needs no
rebind window during which connections would be refused.

The supervisor itself serves nothing.  It sits in ``waitpid``:

* a worker that **exits cleanly** during shutdown is reaped and
  forgotten;
* a worker that **crashes** (non-zero exit, or death by signal — a
  ``kill -9`` included) is restarted with capped exponential backoff
  (:data:`BACKOFF_BASE_SECONDS` doubling to
  :data:`BACKOFF_MAX_SECONDS`), reset after
  :data:`BACKOFF_RESET_SECONDS` of good behaviour so one bad request a
  day never escalates to the cap;
* **SIGTERM/SIGINT** on the supervisor fans out as SIGTERM to every
  worker, which runs the normal graceful drain (finish in-flight
  requests, persist job records, publish final metrics) before the
  supervisor reaps them all and exits 0.

Durability across worker death is the shared records' department
(:mod:`repro.perf.records`): every worker shares one cache
directory, so a restarted worker answers polls for work its dead
predecessor finished.
"""

from __future__ import annotations

import errno
import os
import signal
import socket
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.service.server import ServiceConfig, run

#: First-crash restart delay; doubles per consecutive crash.
BACKOFF_BASE_SECONDS = 0.25
#: Ceiling on the restart delay.
BACKOFF_MAX_SECONDS = 5.0
#: A worker alive this long has its crash streak forgiven.
BACKOFF_RESET_SECONDS = 30.0


def bind_listen_socket(host: str, port: int, backlog: int = 128) -> socket.socket:
    """Bind + listen once, supervisor-side, before any fork.

    ``SO_REUSEPORT`` is set when the platform has it — harmless for the
    inherited-descriptor model used here, and it leaves the door open
    for an operator to run a second supervisor on the same port during
    a rolling restart.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if hasattr(socket, "SO_REUSEPORT"):
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        except OSError:  # pragma: no cover - platform quirk
            pass
    sock.bind((host, port))
    sock.listen(backlog)
    return sock


@dataclass
class _WorkerSlot:
    """Supervisor bookkeeping for one worker index."""

    worker_id: str
    pid: Optional[int] = None
    started_at: float = 0.0
    crashes: int = 0
    restarts: int = 0
    #: Monotonic time before which this slot must not be respawned.
    not_before: float = field(default=0.0)


class Supervisor:
    """Fork, watch, restart, and drain N service workers."""

    def __init__(
        self,
        config: ServiceConfig,
        workers: int,
        listen_socket: socket.socket,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.config = config
        self.socket = listen_socket
        self.slots = [
            _WorkerSlot(worker_id=f"w{index}") for index in range(workers)
        ]
        self._shutdown = False

    # -- child side --------------------------------------------------------

    def _worker_main(self, slot: _WorkerSlot) -> int:
        """Runs in the forked child; never returns to supervisor code."""
        # The child starts from the supervisor's signal state: restore
        # defaults so run() installs its own graceful-drain handlers.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        config = ServiceConfig(
            **{
                **vars(self.config),
                "worker_id": slot.worker_id,
            }
        )
        return run(
            config,
            install_signal_handlers=True,
            listen_socket=self.socket,
        )

    def _spawn(self, slot: _WorkerSlot) -> None:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = self._worker_main(slot)
            finally:
                # Never unwind into the supervisor's stack from a child:
                # skip atexit/finally frames belonging to the parent.
                os._exit(code)
        slot.pid = pid
        slot.started_at = time.monotonic()
        print(
            f"supervisor: started {slot.worker_id} (pid {pid})",
            flush=True,
        )

    # -- parent side -------------------------------------------------------

    def _slot_for(self, pid: int) -> Optional[_WorkerSlot]:
        for slot in self.slots:
            if slot.pid == pid:
                return slot
        return None

    def _request_shutdown(self, signum, frame) -> None:
        self._shutdown = True
        for slot in self.slots:
            if slot.pid is not None:
                try:
                    os.kill(slot.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass

    def _handle_exit(self, slot: _WorkerSlot, status: int) -> None:
        uptime = time.monotonic() - slot.started_at
        slot.pid = None
        if self._shutdown:
            return
        clean = os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        if uptime >= BACKOFF_RESET_SECONDS:
            # A long-lived worker exiting 0 outside shutdown is unusual
            # but not a crash; restart it without penalty.
            slot.crashes = 0 if clean else 1
        else:
            # Any rapid exit — clean included — counts toward the
            # streak: a misconfiguration that makes workers exit 0
            # immediately must back off, not fork-loop.
            slot.crashes += 1
        delay = 0.0
        if slot.crashes:
            delay = min(
                BACKOFF_BASE_SECONDS * (2 ** (slot.crashes - 1)),
                BACKOFF_MAX_SECONDS,
            )
        slot.not_before = time.monotonic() + delay
        slot.restarts += 1
        verdict = (
            f"exit {os.WEXITSTATUS(status)}"
            if os.WIFEXITED(status)
            else f"signal {os.WTERMSIG(status)}"
        )
        print(
            f"supervisor: {slot.worker_id} died ({verdict}) after "
            f"{uptime:.1f} s; restarting in {delay:.2f} s",
            flush=True,
        )

    def _respawn_due(self) -> float:
        """Start every slot whose backoff has elapsed; returns next due."""
        soonest = float("inf")
        now = time.monotonic()
        for slot in self.slots:
            if slot.pid is not None:
                continue
            if now >= slot.not_before:
                self._spawn(slot)
            else:
                soonest = min(soonest, slot.not_before - now)
        return soonest

    def serve_forever(self) -> int:
        signal.signal(signal.SIGTERM, self._request_shutdown)
        signal.signal(signal.SIGINT, self._request_shutdown)
        for slot in self.slots:
            self._spawn(slot)
        while not self._shutdown:
            pending = self._respawn_due()
            try:
                if pending < float("inf"):
                    # A dead slot is waiting out its backoff: poll so
                    # the respawn happens on time even with no child
                    # events.
                    time.sleep(min(pending, 0.1))
                    pid, status = os.waitpid(-1, os.WNOHANG)
                    if pid == 0:
                        continue
                else:
                    pid, status = os.waitpid(-1, 0)
            except InterruptedError:
                continue
            except ChildProcessError:
                if self._shutdown:
                    break
                continue
            slot = self._slot_for(pid)
            if slot is not None:
                self._handle_exit(slot, status)
        # Shutdown: SIGTERM already fanned out by the handler; reap.
        deadline = time.monotonic() + 30.0
        for slot in self.slots:
            if slot.pid is None:
                continue
            while time.monotonic() < deadline:
                try:
                    pid, _ = os.waitpid(slot.pid, os.WNOHANG)
                except ChildProcessError:
                    break
                if pid == slot.pid:
                    break
                time.sleep(0.05)
            else:  # pragma: no cover - drain overstay
                try:
                    os.kill(slot.pid, signal.SIGKILL)
                    os.waitpid(slot.pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            slot.pid = None
        print("supervisor: all workers stopped", flush=True)
        return 0


def run_supervised(
    config: ServiceConfig,
    workers: int,
    port_file: Optional[str] = None,
) -> int:
    """Entry point behind ``python -m repro serve --workers N``.

    With ``workers == 1`` the supervisor still runs — a single worker
    then gets crash-restart for free — but callers wanting the exact
    historical single-process behaviour should call
    :func:`repro.service.server.run` directly (``--workers 1`` maps to
    that in the CLI).
    """
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
        print(
            "supervisor: os.fork unavailable; running single-process",
            file=sys.stderr,
            flush=True,
        )
        return run(config, port_file=port_file)
    try:
        sock = bind_listen_socket(config.host, config.port)
    except OSError as error:
        if error.errno in (errno.EADDRINUSE, errno.EACCES):
            print(f"supervisor: cannot bind: {error}", file=sys.stderr)
            return 1
        raise
    host, port = sock.getsockname()[:2]
    if port_file:
        with open(port_file, "w") as handle:
            handle.write(f"{port}\n")
    print(
        f"repro supervisor on http://{host}:{port} with "
        f"{workers} worker(s)",
        flush=True,
    )
    try:
        return Supervisor(config, workers, sock).serve_forever()
    finally:
        sock.close()
