"""Multi-worker durability: real supervisor, real ``kill -9``.

These tests exercise the parts of the scale-out design that cannot be
faked in-process: a fork supervisor sharing one listen socket between
worker processes, crash restart, and the durable job store that lets a
*different* (or freshly respawned) worker answer for a job whose owner
was killed.  One supervisor serves the whole module; each test leaves
the deployment healthy (both workers accepting) for the next.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.service.client import ServiceClient

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork supervisor is POSIX-only"
)

WORKERS = 2


def _child_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    source_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (source_root, env.get("PYTHONPATH")) if part
    )
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def _worker_pids(supervisor_pid: int) -> list:
    """Direct children of the supervisor, via /proc (Linux) or ps."""
    children = pathlib.Path(
        f"/proc/{supervisor_pid}/task/{supervisor_pid}/children"
    )
    try:
        return [int(pid) for pid in children.read_text().split()]
    except OSError:
        out = subprocess.run(
            ["ps", "-o", "pid=", "--ppid", str(supervisor_pid)],
            capture_output=True, text=True,
        ).stdout
        return [int(pid) for pid in out.split()]


def _wait_for_workers(supervisor_pid: int, count: int = WORKERS,
                      timeout: float = 60.0) -> list:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = _worker_pids(supervisor_pid)
        if len(pids) == count:
            return pids
        time.sleep(0.05)
    raise AssertionError(
        f"supervisor {supervisor_pid} never reached {count} workers"
    )


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("multiworker")
    cache_dir = str(tmp / "cache")
    port_file = tmp / "port"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--workers", str(WORKERS), "--port", "0",
            "--port-file", str(port_file),
            "--cache-dir", cache_dir,
            "--job-workers", "1", "--job-queue", "8",
        ],
        env=_child_env(cache_dir),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not port_file.exists():
            assert process.poll() is None, "supervisor died on startup"
            assert time.monotonic() < deadline, "port file never appeared"
            time.sleep(0.05)
        port = int(port_file.read_text().strip())
        _wait_for_workers(process.pid)
        # Wait until the socket actually answers (workers may still be
        # importing); generous retries absorb the startup window.
        with _client(port) as probe:
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    probe.healthz()
                    break
                except OSError:
                    assert time.monotonic() < deadline, "service never up"
                    time.sleep(0.2)
        yield {"process": process, "port": port, "cache_dir": cache_dir}
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)


def _client(port: int) -> ServiceClient:
    # Generous connect retries: tests talk to the service across worker
    # kill/respawn windows on purpose.
    return ServiceClient(port=port, timeout=60.0, connect_retries=8)


def _kill_all_workers(deployment) -> list:
    """SIGKILL every current worker; returns the doomed pids."""
    victims = _worker_pids(deployment["process"].pid)
    assert victims, "no workers to kill"
    for pid in victims:
        os.kill(pid, signal.SIGKILL)
    return victims


def _wait_for_respawn(deployment, victims, timeout: float = 60.0) -> list:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = _worker_pids(deployment["process"].pid)
        if len(pids) == WORKERS and not set(pids) & set(victims):
            # Fresh pids are forked; give them a beat to start accepting.
            return pids
        time.sleep(0.05)
    raise AssertionError("workers never respawned after kill -9")


def test_cluster_metrics_see_every_worker(deployment):
    with _client(deployment["port"]) as client:
        client.healthz()
        deadline = time.monotonic() + 30.0
        while True:
            merged = client.metrics(scope="cluster")
            alive = [
                worker_id
                for worker_id, record in merged["workers"].items()
                if record["alive"]
            ]
            if len(alive) >= WORKERS:
                break
            assert time.monotonic() < deadline, (
                f"cluster view never saw {WORKERS} workers: {alive}"
            )
            time.sleep(0.2)
        assert merged["scope"] == "cluster"
        assert merged["merged"]["workers"] >= WORKERS
        assert merged["merged"]["counters"].get("requests.healthz", 0) >= 1


def test_completed_job_survives_worker_kill(deployment):
    with _client(deployment["port"]) as client:
        job = client.calibrate(
            workload="tpcc", n_accesses=20_000
        )
        done = client.wait_for_job(job["job_id"], timeout=300)
    assert done["status"] == "done"
    original = json.dumps(done["result"], sort_keys=True)

    victims = _kill_all_workers(deployment)
    _wait_for_respawn(deployment, victims)

    # A fresh connection lands on a respawned worker that has never seen
    # this job: it must re-serve the persisted verdict bit-identically.
    with _client(deployment["port"]) as client:
        replayed = client.job(done["job_id"])
    assert replayed["status"] == "done"
    assert json.dumps(replayed["result"], sort_keys=True) == original


def test_inflight_job_resurfaces_failed_and_retryable(deployment):
    with _client(deployment["port"]) as client:
        # Fresh seed so no cache tier answers instantly, and a grid pass
        # heavy enough to still be running when the kill lands.
        job = client.calibrate(
            workload="spec2000", n_accesses=600_000,
            seed=int.from_bytes(os.urandom(3), "big"),
        )
        deadline = time.monotonic() + 60.0
        while client.job(job["job_id"])["status"] == "queued":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.05)

    victims = _kill_all_workers(deployment)
    _wait_for_respawn(deployment, victims)

    with _client(deployment["port"]) as client:
        verdict = client.job(job["job_id"])
    assert verdict["status"] == "failed"
    assert verdict["retryable"] is True
    assert "died" in verdict["error"]


def test_stale_keepalive_connection_survives_restart(deployment):
    # One client, one keep-alive connection, a kill in between: the
    # second request must transparently reconnect instead of failing on
    # the half-closed socket.
    with _client(deployment["port"]) as client:
        assert client.healthz()["status"] == "ok"
        victims = _kill_all_workers(deployment)
        _wait_for_respawn(deployment, victims)
        time.sleep(0.2)  # let the FIN of the dead worker reach us
        assert client.healthz()["status"] == "ok"
