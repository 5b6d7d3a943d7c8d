"""A real process death right after each durable write.

A child process runs one pool job, or one small campaign, and dies with
``os._exit`` right after its *k*-th write to the namespace under test,
for every *k* until a run completes without reaching *k*.  A fresh
manager in this process then reads the store back, with the child
really dead (no repainted owner):

* the pool job comes back ``failed`` and ``retryable`` when only its
  admission record landed, and ``done`` with its result once the
  verdict did;
* the campaign is adopted and ends ``done`` with the results of the
  run that completed.

The write counts the runs find are the ones ``TestWriteCounts`` pins.
Each child starts its own session and is reaped with ``os.killpg``, so
no pool worker outlives the test.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.campaign.runner import CampaignManager
from repro.service.jobs import JobManager
from tests.campaign.test_runner import InlineJobs, MATRIX, make_spec

REPO = Path(__file__).resolve().parents[2]

#: Exit status of a child that died at its write.
KILLED = 70

CHILD = r"""
import json, os, sys, threading
from repro.perf.disk_cache import DiskCache

mode, namespace, k, root = sys.argv[1:5]
k = int(k)
original = DiskCache.store
writes = []
guard = threading.Lock()

def store(self, fingerprint, payload):
    path = original(self, fingerprint, payload)
    if self.directory.name == namespace:
        with guard:
            writes.append(fingerprint)
            if len(writes) == k:
                os._exit(%d)
    return path

DiskCache.store = store
if mode == "job":
    from repro.service.jobs import JobManager
    jobs = JobManager(max_workers=1, cache_dir=root, worker_id="w-child")
    view = jobs.wait_for(jobs.submit("pow", pow, 2, 10), 60.0)
    jobs.shutdown()
else:
    from repro.campaign.runner import CampaignManager
    from tests.campaign.test_runner import InlineJobs, MATRIX, make_spec
    manager = CampaignManager(jobs=InlineJobs(), cache_dir=root,
                              poll_interval=0.005, worker_id="w-child")
    view = manager.wait(manager.submit(make_spec(matrix=MATRIX),
                                       spec_body={"kill": True})
                        ["campaign_id"], 60.0)
    manager.shutdown()
print(json.dumps(view))
""" % KILLED


def _run_child(mode: str, namespace: str, k: int, root: Path):
    """Run one child to its death or its end; returns (status, stdout).

    Output goes to files, not pipes: a pool worker the child leaves
    behind would hold a pipe open until ``killpg`` reaps it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
    )
    out_path = root.with_suffix(".out")
    err_path = root.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        process = subprocess.Popen(
            [sys.executable, "-c", CHILD, mode, namespace, str(k),
             str(root)],
            cwd=REPO, env=env, stdout=out, stderr=err,
            # Its own process group, so killpg also takes its pool
            # workers.
            start_new_session=True,
        )
        try:
            process.wait(timeout=120)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
    assert process.returncode in (0, KILLED), err_path.read_text()
    return process.returncode, out_path.read_text()


def _record_id(root: Path, namespace: str, prefix: str) -> str:
    """The one id with a record of ``prefix`` in ``namespace``."""
    ids = set()
    for path in (root / namespace).glob("*.json"):
        fingerprint = json.loads(path.read_text())["fingerprint"]
        if fingerprint.startswith(prefix + ":"):
            ids.add(fingerprint.split(":", 1)[1])
    assert len(ids) == 1, ids
    return ids.pop()


def _kill_at_every_write(tmp_path: Path, mode: str, namespace: str):
    """Kill a child after write k for k = 1, 2, … until one completes.

    Returns the stores the killed runs left (entry k - 1 died at write
    k) and the completed run's final view.
    """
    roots = []
    while True:
        root = tmp_path / f"k{len(roots) + 1}"
        status, out = _run_child(mode, namespace, len(roots) + 1, root)
        if status == 0:
            return roots, json.loads(out)
        roots.append(root)


def test_pool_job_killed_after_each_write(tmp_path):
    roots, clean = _kill_at_every_write(tmp_path, "job", "jobs")
    assert clean["status"] == "done" and clean["result"] == 1024
    assert len(roots) == 2  # admission, verdict
    for k, root in enumerate(roots, start=1):
        job_id = _record_id(root, "jobs", "job-record")
        fresh = JobManager(max_workers=1, cache_dir=str(root),
                           worker_id="w-fresh")
        view = fresh.get(job_id)
        if k == 1:
            assert view["status"] == "failed"
            assert view["retryable"] is True
        else:
            assert view["status"] == "done"
            assert view["result"] == 1024
        # The verdict is on disk: a second reader agrees.
        assert fresh.get(job_id)["status"] == view["status"]
        fresh.shutdown(wait_seconds=1.0)


def test_small_campaign_killed_after_each_write(tmp_path):
    roots, clean = _kill_at_every_write(tmp_path, "campaign", "campaigns")
    assert clean["status"] == "done"
    # State records (submit, one progress checkpoint, the verdict) and
    # one checkpoint per unit (profile + 3 points).
    assert len(roots) == 7
    spec = make_spec(matrix=MATRIX)
    for k, root in enumerate(roots, start=1):
        campaign_id = _record_id(root, "campaigns", "campaign-state")
        fresh = CampaignManager(
            jobs=InlineJobs(), cache_dir=str(root), poll_interval=0.005,
            spec_parser=lambda body: spec, worker_id="w-fresh",
        )
        final = fresh.wait(campaign_id, 30.0)
        fresh.shutdown()
        assert final["status"] == "done", k
        assert final["adopted"] is True
        assert json.dumps(final["results"], sort_keys=True) == \
            json.dumps(clean["results"], sort_keys=True)
