"""Minimal stdlib client for the repro service daemon.

Used by ``tools/service_smoke.py``, ``tools/campaign.py``, the serve
workload of ``perfbench/`` and the tests; also a reasonable starting
point for notebook use.  One :class:`ServiceClient` holds one
keep-alive HTTP connection, so it is cheap to issue many requests from
the same thread; it is NOT thread-safe — give each load generator
thread its own client.

Multi-worker deployments need two extra behaviours, both handled here:

* **Stale keep-alives.** When the worker on the other end of an idle
  keep-alive connection dies (crash, restart, drain), the next request
  used to fail opaquely after being written to a half-closed socket.
  The client now probes the socket *before* writing — a readable idle
  keep-alive connection means EOF or stray bytes, either of which
  disqualifies it — and transparently reconnects.  The probe happens
  pre-write, so it is safe for every method and never weakens the
  idempotent-GET-only post-write replay rule.
* **Restart windows.** A refused connect (the single worker of a
  ``--workers 1`` supervisor is mid-restart) can be retried with
  jittered exponential backoff: pass ``connect_retries`` > 1.  With a
  multi-address deployment (``addresses=[...]``, e.g. several
  single-process daemons behind no load balancer), reconnects rotate
  round-robin across the addresses, spreading load and skipping a dead
  worker on the next rotation.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import time
from typing import Optional, Sequence, Tuple


class ServiceError(RuntimeError):
    """A non-2xx response; carries the structured error envelope."""

    def __init__(self, status: int, envelope: dict) -> None:
        detail = envelope.get("error", {}) if isinstance(envelope, dict) else {}
        message = detail.get("message", "service error")
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.envelope = envelope


class ServiceClient:
    """One persistent connection to a running repro service."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8023,
        timeout: float = 60.0,
        addresses: Optional[Sequence[Tuple[str, int]]] = None,
        connect_retries: int = 1,
    ) -> None:
        if addresses:
            self.addresses = [
                (str(address_host), int(address_port))
                for address_host, address_port in addresses
            ]
        else:
            self.addresses = [(host, port)]
        self.host, self.port = self.addresses[0]
        self.timeout = timeout
        self.connect_retries = max(0, connect_retries)
        self._connection: Optional[http.client.HTTPConnection] = None
        self._address_index = 0
        self._random = random.Random()

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            host, port = self.addresses[
                self._address_index % len(self.addresses)
            ]
            self._address_index += 1
            self._connection = http.client.HTTPConnection(
                host, port, timeout=self.timeout
            )
        return self._connection

    @staticmethod
    def _is_stale(connection: http.client.HTTPConnection) -> bool:
        """True when an idle keep-alive connection is unusable.

        Nothing should be waiting to be read on an idle keep-alive
        connection; a readable socket therefore means the peer sent EOF
        (a dead/restarted worker) or garbage.  Either way, writing a
        request to it can only fail — reconnect first.
        """
        sock = connection.sock
        if sock is None:
            return False
        try:
            readable, _, _ = select.select([sock], [], [], 0)
        except (OSError, ValueError, TypeError):
            # Unselectable socket (closed out from under us, or a test
            # fake): let the write path decide.
            return False
        return bool(readable)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """Issue one request; returns the decoded JSON payload.

        Raises :class:`ServiceError` on a non-2xx status.  Failure
        handling preserves the replay discipline: anything that happens
        *before* the request bytes reach the wire — a refused connect
        (retried ``connect_retries`` times with jittered backoff,
        rotating across ``addresses``), any other connect failure
        (retried once), a stale keep-alive detected by the pre-write
        probe (reconnected transparently) — is retryable for every
        method.  A failure *after* the request was written is retried
        for GET only: a ``POST /v1/calibrate`` whose response never
        arrives may still have submitted its job, and replaying it
        would submit a second one, so the error propagates instead.
        """
        encoded = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if encoded else {}
        refused = 0
        connect_failures = 0
        write_failures = 0
        while True:
            connection = self._connect()
            try:
                if connection.sock is None:
                    connection.connect()
                elif self._is_stale(connection):
                    self.close()
                    connection = self._connect()
                    connection.connect()
            except ConnectionRefusedError:
                self.close()
                refused += 1
                if refused > self.connect_retries:
                    raise
                # A restarting worker needs a beat to start accepting;
                # jitter keeps a fan-out of clients from stampeding it.
                delay = min(0.05 * (2 ** (refused - 1)), 0.5)
                time.sleep(delay * (0.5 + self._random.random()))
                continue
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                connect_failures += 1
                if connect_failures > 1:
                    raise
                continue
            try:
                connection.request(method, path, body=encoded,
                                   headers=headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                write_failures += 1
                if write_failures > 1 or method != "GET":
                    raise
        payload = json.loads(raw) if raw else {}
        if response.status >= 400:
            raise ServiceError(response.status, payload)
        return payload

    # -- endpoint helpers --------------------------------------------------

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def metrics(self, scope: Optional[str] = None) -> dict:
        """Fetch /metrics; ``scope='cluster'`` merges across workers."""
        path = "/metrics"
        if scope:
            path += f"?scope={scope}"
        return self.request("GET", path)

    def sweep(self, cache: dict, vth, tox,
              components: Optional[Sequence[str]] = None) -> dict:
        body = {"cache": cache, "vth": vth, "tox": tox}
        if components is not None:
            body["components"] = list(components)
        return self.request("POST", "/v1/sweep", body)

    def optimize(self, cache: dict, scheme, target_ps: float,
                 vth=None, tox=None) -> dict:
        body = {"cache": cache, "scheme": str(scheme),
                "target_ps": target_ps}
        if vth is not None:
            body["vth"] = vth
        if tox is not None:
            body["tox"] = tox
        return self.request("POST", "/v1/optimize", body)

    def amat(self, **body) -> dict:
        return self.request("POST", "/v1/amat", body)

    def calibrate(self, **body) -> dict:
        return self.request("POST", "/v1/calibrate", body)

    def job(self, job_id: str, wait: Optional[float] = None) -> dict:
        path = f"/v1/jobs/{job_id}"
        if wait is not None and wait > 0:
            path += f"?wait={wait:g}"
        return self.request("GET", path)

    def cancel_job(self, job_id: str) -> dict:
        return self.request("DELETE", f"/v1/jobs/{job_id}")

    def _poll(self, fetch, describe, timeout: float,
              poll_interval: Optional[float], long_poll: bool) -> dict:
        """Shared wait loop for jobs and campaigns.

        ``fetch(wait_seconds)`` issues one status read; with ``long_poll``
        the server blocks up to 20 s per read, so the loop mostly sleeps
        inside the daemon.  Between reads (a long poll that expired, or a
        server too old for ``?wait=``) the delay backs off exponentially
        with +/-50% jitter so a fan-out of pollers cannot phase-lock into
        request bursts the way the old fixed 0.25 s cadence did.
        """
        deadline = time.monotonic() + timeout
        delay = poll_interval if poll_interval is not None else 0.05
        while True:
            remaining = deadline - time.monotonic()
            wait = min(20.0, max(0.0, remaining)) if long_poll else 0.0
            snapshot = fetch(wait)
            if snapshot["status"] in ("done", "failed", "cancelled",
                                      "timeout"):
                return snapshot
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{describe} still {snapshot['status']!r} after "
                    f"{timeout:.0f} s"
                )
            if poll_interval is not None:
                pause = poll_interval
            else:
                pause = delay * (0.5 + self._random.random())
                delay = min(delay * 2.0, 2.0)
            time.sleep(min(pause, max(0.0, deadline - time.monotonic())))

    def wait_for_job(self, job_id: str, timeout: float = 120.0,
                     poll_interval: Optional[float] = None,
                     long_poll: bool = True) -> dict:
        """Block until the job is terminal (or raise TimeoutError).

        By default each poll long-polls the server (``?wait=``) and any
        client-side pauses use jittered exponential backoff.  Passing an
        explicit ``poll_interval`` restores a fixed cadence.
        """
        return self._poll(
            lambda wait: self.job(job_id, wait=wait or None),
            f"job {job_id}", timeout, poll_interval, long_poll,
        )

    # -- campaigns ---------------------------------------------------------

    def submit_campaign(self, spec: dict) -> dict:
        return self.request("POST", "/v1/campaigns", spec)

    def campaign(self, campaign_id: str, wait: Optional[float] = None,
                 results: bool = True) -> dict:
        params = []
        if wait is not None and wait > 0:
            params.append(f"wait={wait:g}")
        if not results:
            params.append("results=0")
        path = f"/v1/campaigns/{campaign_id}"
        if params:
            path += "?" + "&".join(params)
        return self.request("GET", path)

    def cancel_campaign(self, campaign_id: str) -> dict:
        return self.request("DELETE", f"/v1/campaigns/{campaign_id}")

    def wait_for_campaign(self, campaign_id: str, timeout: float = 600.0,
                          poll_interval: Optional[float] = None,
                          long_poll: bool = True,
                          results: bool = True) -> dict:
        """Block until the campaign is terminal (or raise TimeoutError)."""
        return self._poll(
            # Progress polls skip the (possibly large) results payload;
            # one final read below carries it.
            lambda wait: self.campaign(campaign_id, wait=wait or None,
                                       results=False),
            f"campaign {campaign_id}", timeout, poll_interval, long_poll,
        ) if not results else self._poll_campaign_with_results(
            campaign_id, timeout, poll_interval, long_poll
        )

    def _poll_campaign_with_results(self, campaign_id, timeout,
                                    poll_interval, long_poll) -> dict:
        self._poll(
            lambda wait: self.campaign(campaign_id, wait=wait or None,
                                       results=False),
            f"campaign {campaign_id}", timeout, poll_interval, long_poll,
        )
        return self.campaign(campaign_id)

    def run_campaign(self, spec: dict, timeout: float = 600.0) -> dict:
        """Submit a campaign and block until its final snapshot."""
        submitted = self.submit_campaign(spec)
        if submitted["status"] in ("done", "failed", "cancelled"):
            return self.campaign(submitted["campaign_id"])
        return self.wait_for_campaign(
            submitted["campaign_id"], timeout=timeout
        )
