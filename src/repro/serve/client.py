"""A tiny stdlib HTTP client for the analysis service.

What ``repro jobs submit|status|logs|cancel`` talks through — and the
programmatic way to drive a running ``repro serve`` from a script.
Server-side typed failures come back as :class:`ServeClientError` with
the HTTP status and the original error type name attached, so callers
can distinguish backpressure (429, resubmit later) from a bad request
(400) without parsing message text.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional

from repro.errors import ServeError

#: $FRAGDROID_SERVE_URL overrides this; the CLI default.
DEFAULT_URL = "http://127.0.0.1:7340"


class ServeClientError(ServeError):
    """An HTTP call to the service failed.

    ``status`` is the HTTP code (0 when the service was unreachable);
    ``kind`` is the server-side error type name (``QueueFullError``,
    ``JobBudgetError``, ...) or ``""`` for transport failures.
    """

    def __init__(self, message: str, status: int = 0,
                 kind: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind


class ServeClient:
    """Talks JSON to one ``repro serve`` instance."""

    def __init__(self, url: str = DEFAULT_URL,
                 timeout_s: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s

    def _request(self, method: str, path: str,
                 payload: Optional[Dict] = None) -> Dict:
        data = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        request = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise _typed_error(exc) from None
        except urllib.error.URLError as exc:
            raise ServeClientError(
                f"cannot reach the service at {self.url}: {exc.reason} "
                f"(is `repro serve` running?)") from None
        except OSError as exc:
            # A mid-response connection reset (e.g. the service going
            # down right after /shutdown) is a transport failure too.
            raise ServeClientError(
                f"connection to {self.url} failed: {exc}") from None

    # -- operations ----------------------------------------------------------

    def health(self) -> Dict:
        return self._request("GET", "/health")

    def metrics(self) -> Dict:
        return self._request("GET", "/metrics")

    def metrics_prometheus(self) -> str:
        """The /metrics payload in Prometheus text exposition format."""
        request = urllib.request.Request(
            self.url + "/metrics?format=prometheus",
            headers={"Accept": "text/plain"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                return response.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as exc:
            raise ServeClientError(
                f"cannot scrape {self.url}/metrics: {exc}") from None

    def submit(self, apps: List[str], **options) -> Dict:
        """Submit a job; returns the admitted job dict."""
        payload: Dict = {"apps": list(apps)}
        payload.update({key: value for key, value in options.items()
                        if value is not None})
        return self._request("POST", "/jobs", payload)["job"]

    def jobs(self) -> List[Dict]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> Dict:
        return self._request("GET", f"/jobs/{job_id}")["job"]

    def logs(self, job_id: str) -> List[Dict]:
        return self._request("GET", f"/jobs/{job_id}/logs")["events"]

    def explanation(self, job_id: str) -> Dict:
        """The finished job's coverage explanation (miss causes)."""
        return self._request(
            "GET", f"/jobs/{job_id}/explanation")["explanation"]

    def cancel(self, job_id: str) -> Dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")["job"]

    def stream_events(self, job_id: str,
                      timeout_s: Optional[float] = None) -> Iterator[Dict]:
        """Follow one job's event stream live (SSE).

        Yields each event's dict as the service pushes it — the backlog
        first, then live — and returns when the service ends the stream
        (the job reached a terminal state) or goes away.  The service
        closes a stream that falls behind its buffer without ``end``;
        the client then reconnects with ``Last-Event-ID`` set to the
        last seq it yielded, so every event of the job is yielded
        exactly once, in seq order.  Heartbeat comments are consumed
        silently.  ``timeout_s`` is the socket read timeout between
        events; it must exceed the server's heartbeat interval (the
        default rides the client timeout).
        """
        timeout = timeout_s if timeout_s is not None else self.timeout_s
        last_seq = 0
        response = self._open_stream(job_id, last_seq, timeout)
        while True:
            progressed = False
            try:
                for data in _sse_frames(response):
                    if data is None:  # event: end
                        return
                    yield data
                    last_seq = int(data.get("seq", last_seq))
                    progressed = True
            except OSError:
                return  # the service went away mid-stream
            finally:
                response.close()
            if not progressed:
                return  # closed with nothing new: shutdown, not a lag
            try:
                response = self._open_stream(job_id, last_seq, timeout)
            except ServeClientError:
                return  # the service went away between streams

    def _open_stream(self, job_id: str, last_seq: int, timeout: float):
        headers = {"Accept": "text/event-stream"}
        if last_seq:
            headers["Last-Event-ID"] = str(last_seq)
        request = urllib.request.Request(
            self.url + f"/jobs/{job_id}/events", headers=headers)
        try:
            return urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            raise _typed_error(exc) from None
        except (urllib.error.URLError, OSError) as exc:
            raise ServeClientError(
                f"cannot reach the service at {self.url}: {exc} "
                f"(is `repro serve` running?)") from None

    def shutdown(self) -> Dict:
        return self._request("POST", "/shutdown")

    def wait(self, job_id: str, timeout_s: float = 600.0,
             poll_s: float = 0.2) -> Dict:
        """Poll until the job reaches a terminal state; returns it."""
        deadline = time.monotonic() + timeout_s
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    f"job {job_id} still {job['state']!r} after "
                    f"{timeout_s:g}s")
            time.sleep(poll_s)


def _typed_error(exc: urllib.error.HTTPError) -> ServeClientError:
    """The service's typed error body as a :class:`ServeClientError`."""
    try:
        body = json.loads(exc.read().decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        body = {}
    return ServeClientError(
        str(body.get("message", f"HTTP {exc.code}")),
        status=exc.code,
        kind=str(body.get("error", "")),
    )


def _sse_frames(response) -> Iterator[Optional[Dict]]:
    """Each SSE data frame's JSON payload; None for ``event: end``."""
    data_lines: List[str] = []
    event_name = ""
    for raw in response:
        line = raw.decode("utf-8").rstrip("\r\n")
        if not line:  # blank line = dispatch the pending event
            if event_name == "end":
                yield None
                return
            if data_lines:
                try:
                    yield json.loads("\n".join(data_lines))
                except ValueError:
                    pass  # a malformed frame never kills the tail
            data_lines = []
            event_name = ""
            continue
        if line.startswith(":"):
            continue  # heartbeat comment
        if line.startswith("event:"):
            event_name = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data_lines.append(line[len("data:"):].strip())
