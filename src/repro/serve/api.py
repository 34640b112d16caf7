"""REST/JSON API of the serve daemon (stdlib ``http.server``).

Endpoints::

    GET    /healthz                 daemon liveness + pool/queue stats,
                                    incl. ``runners``: zygote state
                                    (warm / starting / down), zygote
                                    starts, runners forked
    GET    /jobs[?state=...]        job summaries, submission order
    POST   /jobs                    submit {"spec": {...}, "priority": n}
    GET    /jobs/<id>               one full job record (+ result)
    POST   /jobs/<id>/cancel        cancel (idempotent)
    DELETE /jobs/<id>               alias for cancel
    GET    /jobs/<id>/metrics       NDJSON metric stream so far;
                                    ?follow=1 keeps the connection open
                                    and streams new lines until the job
                                    is terminal
    GET    /jobs/<id>/trace         post-hoc Chrome trace (spec.trace)

Errors are JSON ``{"error": ...}`` with 400 (bad request, including a
malformed ``Content-Length`` or body), 404 (unknown job/route), 405, or
413 (a body over :data:`MAX_BODY_BYTES`).  The server is a ``ThreadingHTTPServer``:
request handling never blocks the daemon's scheduling loop, and the
store's locking makes concurrent submits/cancels safe.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

__all__ = ["MAX_BODY_BYTES", "make_server"]

#: largest request body the API reads; a job spec is a few hundred bytes
MAX_BODY_BYTES = 1 << 20


class _BodyTooLarge(ValueError):
    """A declared body length over :data:`MAX_BODY_BYTES` (a 413)."""


class _ServeHandler(BaseHTTPRequestHandler):
    daemon = None  # injected by make_server
    protocol_version = "HTTP/1.0"

    # -- plumbing ---------------------------------------------------------
    def log_message(self, *args) -> None:
        """Silence per-request stderr logging."""

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        # a negative length would make rfile.read block until the
        # client hangs up, so the header is validated before any read
        if not header.strip().isdigit():
            raise ValueError(
                f"Content-Length must be a non-negative integer, got "
                f"{header!r}"
            )
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw or b"{}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _record_payload(self, record) -> dict:
        payload = record.to_dict()
        result = self.daemon.store.read_result(record.job_id)
        if result is not None and payload.get("result") is None:
            # surface a result the daemon has not reaped yet
            payload["result"] = result
        return payload

    # -- routing ----------------------------------------------------------
    def _route(self, method: str) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        try:
            if parts == ["healthz"] and method == "GET":
                return self._healthz()
            if parts == ["jobs"]:
                if method == "GET":
                    return self._list_jobs(query)
                if method == "POST":
                    return self._submit()
                return self._send_error(405, "use GET or POST on /jobs")
            if len(parts) == 2 and parts[0] == "jobs":
                job_id = parts[1]
                if method == "GET":
                    return self._get_job(job_id)
                if method == "DELETE":
                    return self._cancel(job_id)
                return self._send_error(
                    405, "use GET or DELETE on /jobs/<id>"
                )
            if len(parts) == 3 and parts[0] == "jobs":
                job_id, action = parts[1], parts[2]
                if action == "cancel" and method == "POST":
                    return self._cancel(job_id)
                if action == "metrics" and method == "GET":
                    return self._metrics(job_id, query)
                if action == "trace" and method == "GET":
                    return self._trace(job_id)
            return self._send_error(404, f"no route for {self.path}")
        except KeyError:
            return self._send_error(404, f"unknown job {parts[1]!r}")
        except _BodyTooLarge as exc:
            return self._send_error(413, str(exc))
        except (ValueError, TypeError) as exc:
            return self._send_error(400, str(exc))

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def do_DELETE(self) -> None:
        self._route("DELETE")

    # -- endpoints --------------------------------------------------------
    def _healthz(self) -> None:
        daemon = self.daemon
        self._send_json(200, {
            "ok": True,
            "uptime_s": time.time() - daemon.started_at,
            "max_ranks": daemon.max_ranks,
            "running_ranks": daemon.running_ranks(),
            "queue": daemon.queue.name,
            "scheduler": daemon.scheduler.name,
            "jobs": daemon.store.counts(),
            "runners": daemon.runners(),
        })

    def _list_jobs(self, query: dict) -> None:
        state = query.get("state", [None])[0]
        jobs = [
            {
                "job_id": r.job_id,
                "state": r.state,
                "priority": r.priority,
                "world_size": r.spec.world_size,
                "restarts": r.restarts,
            }
            for r in self.daemon.store.list(state)
        ]
        self._send_json(200, {"jobs": jobs})

    def _submit(self) -> None:
        body = self._read_body()
        if "spec" not in body:
            raise ValueError('body must carry a "spec" object')
        record = self.daemon.submit(
            body["spec"], priority=int(body.get("priority", 0))
        )
        self._send_json(201, self._record_payload(record))

    def _get_job(self, job_id: str) -> None:
        record = self.daemon.store.get(job_id)
        self._send_json(200, self._record_payload(record))

    def _cancel(self, job_id: str) -> None:
        record = self.daemon.cancel(job_id)
        self._send_json(200, self._record_payload(record))

    def _metrics(self, job_id: str, query: dict) -> None:
        self.daemon.store.get(job_id)  # 404 via KeyError
        path = self.daemon.store.metrics_path(job_id)
        follow = query.get("follow", ["0"])[0] not in ("0", "", "false")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        offset = 0
        while True:
            if path.exists():
                with open(path, "rb") as stream:
                    stream.seek(offset)
                    chunk = stream.read()
                if chunk:
                    self.wfile.write(chunk)
                    self.wfile.flush()
                    offset += len(chunk)
            if not follow:
                return
            record = self.daemon.store.get(job_id)
            if record.terminal:
                return
            time.sleep(0.05)

    def _trace(self, job_id: str) -> None:
        self.daemon.store.get(job_id)  # 404 via KeyError
        path = self.daemon.store.trace_path(job_id)
        if not path.exists():
            return self._send_error(
                404,
                "no trace for this job (submit with \"trace\": true "
                "and wait for it to finish)",
            )
        body = path.read_bytes()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def make_server(daemon, host: str = "127.0.0.1", port: int = 0):
    """Build a ``ThreadingHTTPServer`` bound to this daemon."""
    handler = type("ServeHandler", (_ServeHandler,), {"daemon": daemon})
    return ThreadingHTTPServer((host, port), handler)
