"""Stdlib HTTP client for the partitioning service.

:class:`ServiceClient` speaks the JSON API of
:mod:`repro.service.server` using only ``urllib`` — scripts, tests and
the benchmark load generator all share it.  The high-level
:meth:`ServiceClient.partition` submits (honoring 429 ``Retry-After``
backpressure with capped retries *and* a capped total wait), waits on
one held-open status request and returns the decoded payload dict with
numpy labels restored — the same shape
:func:`repro.harness.runner.execute_job` returns locally.

Tracing: every request carries an ``X-Repro-Trace`` header when a
:class:`~repro.obs.context.TraceContext` is available — either passed
explicitly to :meth:`submit` / :meth:`partition` or inherited from the
process tracer (``OBS.trace.context``, set by the CLI under
``--trace``) — so server-side spans parent under the caller's trace.
"""

import json
import time
import urllib.error
import urllib.request

from repro.harness.checkpoint import payload_from_jsonable
from repro.obs import OBS, TRACE_HEADER
from repro.service.errors import QueueFullError, ServiceError
from repro.utils.errors import ReproError

#: Upper bound on one backpressure sleep, whatever Retry-After says.
MAX_RETRY_AFTER_S = 5.0


def _retry_after_seconds(value, default=1.0):
    """Parse a Retry-After value defensively.

    Servers outside this repo send integers, floats, HTTP dates or
    garbage; a client must never crash on any of them.  Non-numeric or
    non-positive values fall back to ``default``.
    """
    if value is None:
        return float(default)
    try:
        parsed = float(value)
    except (TypeError, ValueError):
        return float(default)
    if not parsed > 0:
        return float(default)
    return parsed


class ServiceHTTPError(ServiceError):
    """A non-2xx response, carrying the decoded error body."""

    def __init__(self, status, body):
        self.status = status
        self.body = body if isinstance(body, dict) else {}
        message = self.body.get("message") or str(body)
        super().__init__(f"HTTP {status}: {message}")


class ServiceClient:
    """Talk to one server at ``base_url`` (e.g. ``http://127.0.0.1:8731``)."""

    def __init__(self, base_url, timeout=30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: 429 responses this client has slept out (mirrored into the
        #: ``service.client.backpressure_waits`` counter when OBS
        #: capture is on).
        self.backpressure_waits = 0

    # -- transport -----------------------------------------------------
    def _trace_header(self, ctx=None):
        """The ``X-Repro-Trace`` value to send, or ``None``."""
        if ctx is None:
            ctx = OBS.trace.context
        if ctx is None:
            return None
        return ctx.to_header()

    def _request(self, method, path, body=None, ctx=None):
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        trace = self._trace_header(ctx)
        if trace is not None:
            headers[TRACE_HEADER] = trace
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method, headers=headers,
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as error:
            try:
                decoded = json.loads(error.read() or b"{}")
            except ValueError:
                decoded = {}
            if error.code == 429:
                retry_after = _retry_after_seconds(
                    decoded.get("retry_after"),
                    default=_retry_after_seconds(
                        error.headers.get("Retry-After"), default=1.0
                    ),
                )
                raise QueueFullError(
                    decoded.get("message", "queue full"),
                    retry_after=retry_after,
                ) from None
            raise ServiceHTTPError(error.code, decoded) from None
        except urllib.error.URLError as error:
            raise ReproError(
                f"cannot reach service at {self.base_url}: {error.reason}"
            ) from None

    def _request_text(self, path, accept):
        """GET a non-JSON route; returns the raw text body."""
        request = urllib.request.Request(
            f"{self.base_url}{path}", headers={"Accept": accept}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode()
        except urllib.error.HTTPError as error:
            raise ServiceHTTPError(error.code, {}) from None
        except urllib.error.URLError as error:
            raise ReproError(
                f"cannot reach service at {self.base_url}: {error.reason}"
            ) from None

    # -- raw API -------------------------------------------------------
    def submit(self, request_body, ctx=None):
        """POST the request; returns the job status dict (raises on 4xx/5xx)."""
        _status, payload = self._request("POST", "/v1/jobs", request_body, ctx=ctx)
        return payload

    def eco_submit(self, request_key, body, ctx=None):
        """PATCH an edit (netlist diff) against a stored result.

        ``body`` is ``{"diff": <netlist diff>, "halo"?, "threshold"?,
        "quality_eps"?}``; returns the job status dict (raises on
        4xx/5xx — notably 404 when no result is stored under
        ``request_key``).
        """
        _status, payload = self._request(
            "PATCH", f"/v1/jobs/{request_key}", body, ctx=ctx
        )
        return payload

    def eco(self, request_key, body, timeout=300.0, ctx=None):
        """PATCH + wait + fetch; returns the decoded payload dict.

        The eco payload carries ``labels`` (numpy) plus an ``eco`` info
        dict (``mode`` warm|cold, region size, costs) from
        :func:`repro.core.incremental.incremental_partition`.
        """
        job = self.eco_submit(request_key, body, ctx=ctx)
        if job["state"] != "done":
            self.wait(job["id"], timeout=timeout)
        result = self.result(job["id"])
        return payload_from_jsonable(result["result"])

    def sweep_submit(self, request_body, ctx=None):
        """POST a Pareto sweep request to ``/v1/sweeps``.

        ``kind`` defaults to ``"sweep"`` server-side; returns the job
        status dict (raises on 4xx/5xx).
        """
        _status, payload = self._request("POST", "/v1/sweeps", request_body, ctx=ctx)
        return payload

    def sweep(self, request_body, timeout=600.0, ctx=None):
        """Submit a sweep + wait + fetch; returns the sweep payload dict.

        The payload is plain JSON (``points`` with metrics/energy and
        the ``frontier`` index list — see docs/planning.md); unlike
        :meth:`partition` there are no numpy labels to restore.
        """
        job = self.sweep_submit(request_body, ctx=ctx)
        if job["state"] != "done":
            self.wait(job["id"], timeout=timeout)
        return self.result(job["id"])["result"]

    def status(self, job_id, wait=None):
        """The job's status dict.

        With ``wait`` (seconds) the server holds the request open until
        the job finishes or the wait runs out (capped server-side at
        30 s), then answers the same body.
        """
        query = "" if wait is None else f"?wait={wait:.3f}"
        return self._request("GET", f"/v1/jobs/{job_id}{query}")[1]

    def result(self, job_id):
        return self._request("GET", f"/v1/jobs/{job_id}/result")[1]

    def cancel(self, job_id):
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")[1]

    def jobs(self):
        return self._request("GET", "/v1/jobs")[1]["jobs"]

    def job_events(self, job_id):
        """The job's lifecycle event records (see ``repro.obs.events``)."""
        return self._request("GET", f"/v1/jobs/{job_id}/events")[1]

    def health(self):
        return self._request("GET", "/healthz")[1]

    def metrics(self):
        return self._request("GET", "/metrics")[1]

    def metrics_text(self):
        """``GET /metrics`` in Prometheus text exposition format."""
        return self._request_text("/metrics?format=prometheus", "text/plain")

    def trace_text(self):
        """``GET /v1/trace`` — the server's JSONL trace document."""
        return self._request_text("/v1/trace", "application/x-ndjson")

    # -- high level ----------------------------------------------------
    def submit_with_backpressure(self, request_body, max_attempts=20,
                                 max_wait=60.0, ctx=None):
        """Submit, sleeping out 429 responses.

        Gives up (re-raising the last :class:`QueueFullError`) after
        ``max_attempts`` rejections *or* once the cumulative sleep would
        exceed ``max_wait`` seconds — an abusive or misconfigured
        Retry-After can therefore never park a caller indefinitely.
        """
        waited = 0.0
        for attempt in range(max_attempts):
            try:
                return self.submit(request_body, ctx=ctx)
            except QueueFullError as error:
                delay = min(
                    _retry_after_seconds(error.retry_after), MAX_RETRY_AFTER_S
                )
                if attempt == max_attempts - 1 or waited + delay > max_wait:
                    raise
                self.backpressure_waits += 1
                if OBS.enabled:
                    OBS.metrics.counter("service.client.backpressure_waits").inc()
                time.sleep(delay)
                waited += delay
        raise AssertionError("unreachable")

    def wait(self, job_id, timeout=300.0):
        """Block until the job finishes; returns its final status dict.

        Each status request is a waited one (see :meth:`status`) bounded
        by the time left before ``timeout`` and by half the socket
        timeout, so the server answers the moment the job finishes and
        a job of any length costs one request per window, not one per
        poll.
        """
        deadline = time.monotonic() + timeout
        while True:
            wait = max(0.0, deadline - time.monotonic())
            if self.timeout is not None:
                wait = min(wait, self.timeout / 2)
            status = self.status(job_id, wait=wait)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise ReproError(
                    f"job {job_id} still {status['state']} after {timeout} s"
                )

    def partition(self, request_body, timeout=300.0, max_attempts=20, ctx=None):
        """Submit + wait + fetch; returns the decoded payload dict.

        The returned dict has live numpy ``labels`` — the same shape a
        local :func:`repro.harness.runner.execute_job` call returns, so
        callers can diff the two bitwise.
        """
        job = self.submit_with_backpressure(
            request_body, max_attempts=max_attempts, ctx=ctx
        )
        if job["state"] != "done":
            self.wait(job["id"], timeout=timeout)
        result = self.result(job["id"])
        return payload_from_jsonable(result["result"])
