"""Asyncio HTTP/1.1 front end for the record/replay service.

Stdlib only (``asyncio.start_server`` + hand-rolled request parsing --
no framework dependency), one short-lived connection per request
(``Connection: close``) except the SSE streams, which stay open until
the watched job reaches a terminal state (or forever, for the global
feed).

Routes::

    GET  /healthz                 liveness + journal lsn
    POST /v1/jobs                 submit {"kind", "params", "tenant"}
                                  -> 202 job | 400 bad spec
                                  -> 429 + Retry-After when shed
    GET  /v1/jobs                 job listing (?tenant=&state=)
    GET  /v1/jobs/<id>            one job snapshot
    GET  /v1/jobs/<id>/events     SSE stream of that job's transitions
    GET  /v1/events               SSE stream of every transition
    GET  /v1/artifacts/<hash>     artifact fetch by content hash
    GET  /v1/stats                queue/fleet/admission/cache census
    GET  /v1/workers              fleet census (liveness, leases)
    POST /v1/workers/claim        {"worker"} -> job + lease | job:null
    POST /v1/workers/heartbeat    {"worker","job_id","lease_id"}
                                  -> lease | 409 lease lost
    POST /v1/workers/complete     {"worker","job_id","lease_id",
                                   "envelope","artifact_digest"}
                                  -> verified completion | 409/404

The worker endpoints are the fleet wire protocol (see
:mod:`repro.serve.worker` for the peer).  When the service carries a
shared-secret bearer token, submissions and every worker call must
present ``Authorization: Bearer <token>`` -- compared constant-time,
rejected 401 with no detail about which part was wrong.

SSE event ids are journal log sequence numbers; reconnecting with
``Last-Event-ID: N`` (or ``?after=N``) replays everything after N --
including transitions journaled by a *previous* server process,
because the event log is seeded from every recovered journal segment.
A cursor older than the journal's ``compacted_through`` LSN can no
longer be resumed exactly (compaction dissolved those events) and is
answered with the full retained snapshot instead of a silent gap.

Job execution happens on worker tasks (one per configured worker)
that pull from the durable queue through ``asyncio.to_thread``, so a
long simulation never blocks the accept loop: submissions, listings
and streams stay responsive while jobs run.  An idle worker task
sleeps until the queue observer reports a job entering ``queued``
(a submit or a lease-expiry requeue), and at most
``WORKER_IDLE_NAP``, which bounds how late it notices time-driven
changes such as the fleet degrading.  In fleet mode those
tasks idle while remote workers are heartbeating and take over
automatically when none is (graceful degradation); a once-a-second
sweeper task expires abandoned leases either way.  An artifact fetch
reads and checks the cache file in a thread too, and sends the stored
canonical bytes as they are rather than re-encoding the document.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import signal
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError
from repro.serve.lease import heartbeat_interval
from repro.serve.model import STATE_QUEUED, Job
from repro.serve.queue import read_journal_dir
from repro.serve.service import ReproService
from repro.serve.sse import EventLog, format_sse

_MAX_BODY = 1 << 20  # 1 MiB: job submissions are tiny

#: How often the server sweeps expired leases.
SWEEP_INTERVAL = 1.0

#: Longest an idle worker task waits before trying to claim again.
#: Queue arrivals wake it at once; the nap only bounds how late it
#: sees changes no transition announces (the fleet going degraded).
WORKER_IDLE_NAP = 0.02

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request",
    401: "Unauthorized", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}


def _json_body(status: int, payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


class ServeServer:
    """Bind a :class:`ReproService` to a TCP port."""

    def __init__(self, service: ReproService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.events: EventLog | None = None
        self._server: asyncio.AbstractServer | None = None
        self._workers: list[asyncio.Task] = []
        self._stopping = asyncio.Event()
        # One wake-up event per worker task, so one task clearing its
        # own event can never swallow another idle task's wake-up.
        self._work_ready: list[asyncio.Event] = []
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind, seed the event log, launch worker + sweeper tasks."""
        loop = self._loop = asyncio.get_running_loop()
        # Seed from every journal segment so SSE resume spans restarts
        # (and compactions), then attach live; the lsn guard in
        # EventLog dedupes any transition that lands in between.
        records, compacted = read_journal_dir(
            self.service.queue.data_dir)
        self.events = EventLog(loop, compacted_through=compacted)
        for record in records:
            self.events.seed(record["lsn"],
                             Job.from_dict(record["job"]))
        self.service.queue.subscribe(self.events.append)
        self.service.queue.subscribe(self._wake_workers)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        for index in range(self.service.jobs):
            self._work_ready.append(asyncio.Event())
            self._workers.append(
                loop.create_task(self._worker(index)))
        self._workers.append(loop.create_task(self._sweeper()))

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self.service.close()

    def _wake_workers(self, _lsn: int, job: Job) -> None:
        """Queue observer: a job entered ``queued`` -- submitted or
        requeued -- so wake every idle worker task.  Runs on
        whichever thread made the transition, under the queue lock."""
        if job.state == STATE_QUEUED:
            self._loop.call_soon_threadsafe(self._set_work_ready)

    def _set_work_ready(self) -> None:
        for ready in self._work_ready:
            ready.set()

    async def _worker(self, index: int) -> None:
        """Pull-and-run loop.  Idle, it waits for a queue arrival, or
        ``WORKER_IDLE_NAP`` at most."""
        ready = self._work_ready[index]
        while not self._stopping.is_set():
            # Clear before claiming: a job queued after this point
            # either is claimed below or sets the event again.
            ready.clear()
            job = await asyncio.to_thread(self.service.process_one)
            if job is None:
                try:
                    await asyncio.wait_for(ready.wait(), WORKER_IDLE_NAP)
                except asyncio.TimeoutError:
                    pass

    async def _sweeper(self) -> None:
        """Expire abandoned leases and refresh the SSE compaction
        horizon once a second."""
        while not self._stopping.is_set():
            await asyncio.sleep(SWEEP_INTERVAL)
            await asyncio.to_thread(self.service.sweep_leases)
            if self.events is not None:
                self.events.compacted_through = max(
                    self.events.compacted_through,
                    self.service.queue.compacted_through)

    # -- request plumbing -----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            await self._dispatch(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as error:  # noqa: BLE001 -- 500, not a crash
            try:
                await self._respond(writer, 500, {
                    "error": f"{type(error).__name__}: {error}"})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, reader, writer) -> None:
        request_line = (await reader.readline()).decode("latin-1")
        if not request_line.strip():
            return
        try:
            method, target, _version = request_line.split(None, 2)
        except ValueError:
            await self._respond(writer, 400,
                                {"error": "malformed request line"})
            return
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            await self._respond(writer, 413,
                                {"error": "request body too large"})
            return
        body = await reader.readexactly(length) if length else b""
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = {key: values[-1] for key, values in
                 parse_qs(parts.query).items()}
        await self._route(writer, method.upper(), path, query,
                          headers, body)

    async def _respond(self, writer, status: int, payload: dict,
                       extra_headers: dict | None = None) -> None:
        await self._send(writer, status, _json_body(status, payload),
                         extra_headers)

    async def _send(self, writer, status: int, body: bytes,
                    extra_headers: dict | None = None) -> None:
        """Write one JSON response whose body is already encoded."""
        headers = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode())
        writer.write(body)
        await writer.drain()

    # -- routing --------------------------------------------------------

    def _authorized(self, headers: dict) -> bool:
        """Constant-time bearer-token check (True when auth is off)."""
        token = self.service.auth_token
        if not token:
            return True
        provided = headers.get("authorization", "")
        if provided[:7].lower() == "bearer ":
            provided = provided[7:].strip()
        return hmac.compare_digest(provided.encode(), token.encode())

    async def _reject_unauthorized(self, writer) -> None:
        # Deliberately detail-free: no hint whether the token was
        # missing, malformed, or wrong.
        await self._respond(writer, 401, {"error": "unauthorized"},
                            extra_headers={"WWW-Authenticate":
                                           "Bearer"})

    async def _route(self, writer, method, path, query, headers,
                     body) -> None:
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, {
                "ok": True, "lsn": self.service.queue.lsn})
            return
        if path == "/v1/workers" or path.startswith("/v1/workers/"):
            await self._route_workers(writer, method, path, headers,
                                      body)
            return
        if path == "/v1/jobs":
            if method == "POST":
                if not self._authorized(headers):
                    await self._reject_unauthorized(writer)
                    return
                await self._submit(writer, body)
            elif method == "GET":
                jobs = self.service.queue.jobs(
                    tenant=query.get("tenant"),
                    state=query.get("state"))
                await self._respond(writer, 200, {
                    "jobs": [job.as_dict() for job in jobs]})
            else:
                await self._respond(writer, 405,
                                    {"error": "use GET or POST"})
            return
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                await self._stream_job(writer, rest[:-len("/events")],
                                       query, headers)
            else:
                job = self.service.queue.get(rest)
                if job is None:
                    await self._respond(writer, 404, {
                        "error": f"no job {rest!r}"})
                else:
                    await self._respond(writer, 200, job.as_dict())
            return
        if path == "/v1/events" and method == "GET":
            await self._stream_all(writer, query, headers)
            return
        if path.startswith("/v1/artifacts/") and method == "GET":
            artifact_hash = path[len("/v1/artifacts/"):]
            # Off the loop: the read and the spec-hash check parse a
            # quarter-megabyte document.  The body is the stored
            # canonical encoding, so nothing is re-encoded.
            body = await asyncio.to_thread(self.service.artifact_bytes,
                                           artifact_hash)
            if body is None:
                await self._respond(writer, 404, {
                    "error": f"no artifact {artifact_hash[:12]}..."})
            else:
                await self._send(writer, 200, body)
            return
        if path == "/v1/stats" and method == "GET":
            await self._respond(writer, 200, self.service.stats())
            return
        await self._respond(writer, 404,
                            {"error": f"no route {method} {path}"})

    async def _submit(self, writer, body: bytes) -> None:
        try:
            request = json.loads(body.decode() or "{}")
            if not isinstance(request, dict):
                raise ValueError("body must be a JSON object")
            kind = request.get("kind", "")
            params = request.get("params") or {}
            if not isinstance(params, dict):
                raise ValueError("params must be a JSON object")
            tenant = str(request.get("tenant") or "default")
        except (ValueError, UnicodeDecodeError) as error:
            await self._respond(writer, 400, {"error": str(error)})
            return
        try:
            job, decision = await asyncio.to_thread(
                self.service.submit, kind, params, tenant)
        except ConfigurationError as error:
            await self._respond(writer, 400, {"error": str(error)})
            return
        if job is None:
            await self._respond(
                writer, 429,
                {"error": decision.reason,
                 "retry_after": decision.retry_after},
                extra_headers={
                    "Retry-After":
                        str(max(1, int(decision.retry_after + 0.5)))})
            return
        await self._respond(writer, 202, job.as_dict())

    # -- the fleet wire protocol ----------------------------------------

    async def _route_workers(self, writer, method, path, headers,
                             body) -> None:
        """claim / heartbeat / complete / census -- all token-gated."""
        if not self._authorized(headers):
            await self._reject_unauthorized(writer)
            return
        if path == "/v1/workers" and method == "GET":
            now = self.service._now()
            fleet = self.service.fleet
            await self._respond(writer, 200, {
                "remote": fleet is not None,
                "degraded": (fleet.degraded(now)
                             if fleet is not None else False),
                "workers": (fleet.workers(now)
                            if fleet is not None else []),
                "leases": self.service.queue.lease_census(now)})
            return
        if method != "POST":
            await self._respond(writer, 405, {"error": "use POST"})
            return
        try:
            request = json.loads(body.decode() or "{}")
            if not isinstance(request, dict):
                raise ValueError("body must be a JSON object")
            worker = str(request.get("worker") or "")
            if not worker:
                raise ValueError("missing worker id")
        except (ValueError, UnicodeDecodeError) as error:
            await self._respond(writer, 400, {"error": str(error)})
            return
        action = path[len("/v1/workers/"):]
        try:
            if action == "claim":
                await self._claim(writer, worker, request)
            elif action == "heartbeat":
                await self._heartbeat(writer, worker, request)
            elif action == "complete":
                await self._complete(writer, worker, request)
            else:
                await self._respond(writer, 404, {
                    "error": f"no worker action {action!r}"})
        except ConfigurationError as error:
            # Not a fleet server (or a malformed request deeper in).
            await self._respond(writer, 409, {"error": str(error)})

    async def _claim(self, writer, worker: str, request) -> None:
        lease_ttl = request.get("lease_ttl")
        job, lease = await asyncio.to_thread(
            self.service.claim_remote, worker,
            float(lease_ttl) if lease_ttl else None)
        if job is None:
            await self._respond(writer, 200, {"job": None})
            return
        await self._respond(writer, 200, {
            "job": job.as_dict(),
            "lease": lease.as_dict(),
            "heartbeat_interval": heartbeat_interval(lease.ttl),
            "timeout": self.service.admission.job_timeout})

    async def _heartbeat(self, writer, worker: str, request) -> None:
        lease = await asyncio.to_thread(
            self.service.heartbeat_remote, worker,
            str(request.get("job_id") or ""),
            str(request.get("lease_id") or ""))
        if lease is None:
            await self._respond(writer, 409, {"error": "lease lost"})
            return
        await self._respond(writer, 200, {"ok": True,
                                          "lease": lease.as_dict()})

    async def _complete(self, writer, worker: str, request) -> None:
        envelope = request.get("envelope")
        if not isinstance(envelope, dict):
            await self._respond(writer, 400, {
                "error": "completion needs an envelope object"})
            return
        result = await asyncio.to_thread(
            self.service.complete_remote, worker,
            str(request.get("job_id") or ""),
            str(request.get("lease_id") or ""),
            envelope, request.get("artifact_digest"))
        status = result["status"]
        if status == "unknown":
            await self._respond(writer, 404, {
                "error": "no such job", **result})
        elif status in ("stale", "rejected"):
            await self._respond(writer, 409, result)
        else:  # ok | duplicate
            await self._respond(writer, 200, result)

    # -- SSE ------------------------------------------------------------

    @staticmethod
    def _after(query: dict, headers: dict) -> int:
        raw = query.get("after") or headers.get("last-event-id") or "0"
        try:
            return max(0, int(raw))
        except ValueError:
            return 0

    async def _start_sse(self, writer) -> None:
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()

    async def _stream_job(self, writer, job_id: str, query,
                          headers) -> None:
        job = self.service.queue.get(job_id)
        if job is None:
            await self._respond(writer, 404,
                                {"error": f"no job {job_id!r}"})
            return
        after = self._after(query, headers)
        await self._start_sse(writer)
        assert self.events is not None
        async for lsn, data in self.events.stream(after):
            if data["job"]["id"] != job_id:
                continue
            writer.write(format_sse(lsn, data))
            await writer.drain()
            if data["job"]["state"] in ("done", "failed"):
                break

    async def _stream_all(self, writer, query, headers) -> None:
        after = self._after(query, headers)
        await self._start_sse(writer)
        assert self.events is not None
        async for lsn, data in self.events.stream(after):
            writer.write(format_sse(lsn, data))
            await writer.drain()


async def run_server(service: ReproService, host: str, port: int,
                     ready_callback=None) -> None:
    """Start a server and block until cancelled or signalled.

    SIGINT/SIGTERM handlers are installed on the event loop itself:
    a server backgrounded by a non-interactive shell (CI smoke, an
    init script) inherits SIGINT as ignored, which Python honors --
    without these handlers a ``kill -INT`` would be silently dropped
    and the process would only die to SIGKILL, skipping the graceful
    drain below.
    """
    server = ServeServer(service, host, port)
    await server.start()
    if ready_callback is not None:
        ready_callback(server)
    loop = asyncio.get_running_loop()
    task = asyncio.current_task()
    hooked = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, task.cancel)
            hooked.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or non-unix: rely on the runner
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        for signum in hooked:
            loop.remove_signal_handler(signum)
        await server.stop()


__all__ = ["ServeServer", "run_server"]
