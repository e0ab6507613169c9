"""The long-lived evaluation service and the stdlib ``/v1`` HTTP front end.

:class:`EvalService` owns the event loop (run on a dedicated daemon
thread), the :class:`~repro.serve.queue.JobManager`, the
:class:`~repro.serve.scheduler.BatchScheduler` and the service
telemetry; its public methods are thread-safe bridges that the HTTP
handlers (and tests) call from any thread.

:class:`ServeHTTPServer` is a plain
:class:`http.server.ThreadingHTTPServer` — no third-party dependency —
that maps the versioned JSON protocol (:mod:`repro.serve.protocol`)
onto one backend: an :class:`EvalService`, or a
:class:`~repro.fleet.coordinator.FleetCoordinator` fronting many of
them.  Both answer the :data:`SHARED_ROUTES` under the same method
names and add their own routes through ``http_routes``.
:func:`serve_forever` is the CLI entry point.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.obs import SCHEMA_VERSION, Telemetry
from repro.obs.schema import serve_counters, serve_timers
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobState,
    ProtocolError,
    dumps,
    loads,
    validate_submission,
)
from repro.serve.queue import JobManager, ServeStats
from repro.serve.scheduler import BatchScheduler, run_batch

#: ceiling on any one thread-safe bridge call into the loop.
_BRIDGE_TIMEOUT = 60.0


class EvalService:
    """Queue + scheduler + telemetry behind a thread-safe facade."""

    #: the ``/v1`` routes only a single server answers (see
    #: :data:`SHARED_ROUTES`).
    http_routes = {
        ("POST", "pause"): (None, lambda request, service, arg:
                            request.reply(service.pause())),
        ("POST", "resume"): (None, lambda request, service, arg:
                             request.reply(service.resume())),
    }

    def __init__(self, workers: int = 0,
                 cache_root: Optional[Path] = None,
                 capacity: int = 256, max_retries: int = 2,
                 backoff_base: float = 0.05,
                 batch_window: float = 0.02,
                 scoped_cache: bool = False,
                 telemetry: Optional[Telemetry] = None,
                 runner=run_batch):
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry())
        self.stats = ServeStats()
        self.manager = JobManager(capacity=capacity,
                                  max_retries=max_retries,
                                  backoff_base=backoff_base,
                                  stats=self.stats)
        self.scheduler = BatchScheduler(
            self.manager, self.telemetry, workers=workers,
            cache_root=cache_root, batch_window=batch_window,
            scoped_cache=scoped_cache, runner=runner)
        self.cache_root = cache_root
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "EvalService":
        assert self._thread is None, "service already started"
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-serve-loop",
                                        daemon=True)
        self._thread.start()
        self._started.wait(_BRIDGE_TIMEOUT)
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def boot():
            self.manager.bind()
            self.scheduler.start()
            self._started.set()

        loop.create_task(boot())
        try:
            loop.run_forever()
        finally:
            loop.close()

    def stop(self, drain: bool = True,
             timeout: float = _BRIDGE_TIMEOUT) -> Dict[str, object]:
        """Stop the service; with ``drain`` (the default) refuse new
        submissions and wait for every queued job to reach a terminal
        state first, so a clean shutdown never strands work."""
        if self._stopped:
            return {"drained": True, "active": 0}
        summary = self._call(self._shutdown(drain), timeout=timeout)
        loop, self._loop = self._loop, None
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout)
        self._stopped = True
        return summary

    def kill(self) -> None:
        """Crash-stop the service: drop the request bridge and stop the
        loop WITHOUT draining or waiting for in-flight batches.

        This models a worker dying mid-batch (the SIGKILL analogue of
        :meth:`stop`): every request from the moment of the call fails —
        including ones arriving over already-established keep-alive
        connections, which a bare ``HTTPServer.shutdown()`` keeps
        serving — so a fleet coordinator's heartbeat sees the worker go
        dark immediately instead of after in-flight work unwinds.  Any
        batch still running on the executor is orphaned: its result is
        never recorded and never observable.  Used by failover tests.
        """
        if self._stopped or self._loop is None:
            return
        loop, self._loop = self._loop, None
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._stopped = True

    async def _shutdown(self, drain: bool) -> Dict[str, object]:
        self.manager.stop_accepting()
        if drain:
            await self.manager.resume()  # a paused queue cannot drain
            await self.manager.wait_drained()
            await self.scheduler.wait_idle()
        await self.scheduler.stop()
        return {"drained": drain, "active": self.manager.active,
                "jobs": len(self.manager.jobs)}

    # ------------------------------------------------------------------
    # The thread-safe bridge.
    # ------------------------------------------------------------------
    def _call(self, coro, timeout: float = _BRIDGE_TIMEOUT):
        if self._loop is None:
            coro.close()  # never scheduled; avoid the unawaited warning
            raise RuntimeError("service not started")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def submit(self, payload: object) -> Dict[str, object]:
        """Validate and enqueue one job spec; returns its status."""
        request = validate_submission(payload)
        return self._call(self._submit(request))

    async def _submit(self, request) -> Dict[str, object]:
        job = await self.manager.submit(request)
        if self.telemetry.enabled:
            self.telemetry.emit("serve.job_submitted", job_id=job.id,
                                kind=request.kind,
                                fingerprint=request.fingerprint,
                                queue_depth=self.manager.depth)
        return job.status()

    def status(self, job_id: str) -> Dict[str, object]:
        return self._call(self._status(job_id))

    async def _status(self, job_id: str) -> Dict[str, object]:
        return self.manager.job(job_id).status()

    def job_listing(self, active: bool = False
                    ) -> List[Dict[str, object]]:
        """Every job's status in id order; ``active`` keeps only the
        unfinished ones."""
        return self._call(self._job_listing(active))

    async def _job_listing(self, active: bool) -> List[Dict[str, object]]:
        return [job.status() for _, job in sorted(self.manager.jobs.items())
                if not (active and job.state in JobState.TERMINAL)]

    def result(self, job_id: str, wait: bool = False,
               timeout: float = _BRIDGE_TIMEOUT) -> Dict[str, object]:
        """A finished job's result payload.

        Raises :class:`ProtocolError` (``not_finished`` /
        ``job_failed`` / ``job_cancelled`` / ``job_timeout``) when no
        result exists; ``wait`` blocks until the job is terminal.
        """
        return self._call(self._result(job_id, wait), timeout=timeout)

    async def _result(self, job_id: str,
                      wait: bool) -> Dict[str, object]:
        job = self.manager.job(job_id)
        if wait:
            await self.manager.wait_job(job)
        if job.state == JobState.DONE:
            return {"job_id": job.id, "state": job.state,
                    "result": job.result}
        code = {JobState.FAILED: "job_failed",
                JobState.CANCELLED: "job_cancelled",
                JobState.TIMEOUT: "job_timeout"}.get(job.state,
                                                     "not_finished")
        status = 409 if code == "not_finished" else 410
        message = (job.error or {}).get("message", job.state)
        raise ProtocolError(code, f"job {job.id} is {job.state}: "
                                  f"{message}", http_status=status)

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._call(self._cancel(job_id))

    async def _cancel(self, job_id: str) -> Dict[str, object]:
        job = await self.manager.cancel(job_id)
        return job.status()

    def pause(self) -> Dict[str, object]:
        """Hold the queue (nothing new starts); returns :meth:`healthz`."""
        self._call(self.manager.pause())
        return self.healthz()

    def resume(self) -> Dict[str, object]:
        self._call(self.manager.resume())
        return self.healthz()

    def wait_drained(self, timeout: float = _BRIDGE_TIMEOUT) -> None:
        self._call(self.manager.wait_drained(), timeout=timeout)

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "queue_depth": self.manager.depth,
            "active_jobs": self.manager.active,
            "paused": self.manager.paused,
            "workers": self.scheduler.workers,
        }

    def metrics(self) -> Dict[str, object]:
        """Counters and timers: the service's ``serve.*`` stats merged
        over the telemetry absorbed from workers (``sweep.*`` etc.).

        Routed through the event loop while the service runs so the
        export never races ongoing instrumentation.
        """
        if self._loop is not None and not self._stopped:
            return self._call(self._on_loop(self._build_metrics))
        return self._build_metrics()

    async def _on_loop(self, fn):
        return fn()

    def _build_metrics(self) -> Dict[str, object]:
        counters = dict(self.telemetry.counters)
        counters.update(serve_counters(self.stats))
        timers = dict(self.telemetry.timers)
        timers.update(serve_timers(self.stats))
        return {
            "schema_version": SCHEMA_VERSION,
            "protocol": PROTOCOL_VERSION,
            "counters": dict(sorted(counters.items())),
            "timers": dict(sorted(timers.items())),
            "events": self.telemetry.meta_record(),
            "mean_batch_width": self.stats.mean_batch_width,
        }

    def events_jsonl(self) -> str:
        """The telemetry event stream as schema-valid JSONL text."""
        if self._loop is not None and not self._stopped:
            return self._call(self._on_loop(self._build_events_jsonl))
        return self._build_events_jsonl()

    def _build_events_jsonl(self) -> str:
        lines = [json.dumps(self.telemetry.meta_record(),
                            sort_keys=True)]
        if self.telemetry.events is not None:
            lines.extend(json.dumps(record, sort_keys=True)
                         for record in self.telemetry.events)
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# HTTP front end.
# ----------------------------------------------------------------------
#: a route: how it treats the path segment after its head (``None``
#: ignores it, ``True`` requires one — a job or worker id — and
#: ``False`` refuses one), and the function that answers it as
#: ``fn(request, backend, arg)``, replying through ``request``.
Route = Tuple[Optional[bool], Callable[["_Handler", object,
                                        Optional[str]], None]]


def _jobs(request: "_Handler", backend, arg: None) -> None:
    request.reply({"jobs": backend.job_listing(
                       active=request.flag("active")),
                   "protocol": PROTOCOL_VERSION})


def shutdown_route(**flags: str) -> Route:
    """The ``shutdown`` route.

    The JSON-object body's ``drain`` (default true) picks a draining
    ``backend.stop``; ``flags`` maps further boolean body keys (default
    false) to ``stop`` keyword arguments.  The reply goes out before
    :func:`serve_until_shutdown` is woken, so the caller always gets it.
    """
    def route(request: "_Handler", backend, arg: Optional[str]) -> None:
        options = request.object_body("shutdown")
        summary = backend.stop(
            drain=bool(options.get("drain", True)),
            **{param: bool(options.get(key, False))
               for key, param in flags.items()})
        summary["protocol"] = PROTOCOL_VERSION
        request.reply(summary)
        request.server.shutdown_requested.set()
    return None, route


#: the verbs every backend answers, keyed by (HTTP method, route head).
#: A backend's ``http_routes`` adds to (and may override) this table.
SHARED_ROUTES: Dict[Tuple[str, str], Route] = {
    ("GET", "healthz"): (None, lambda request, backend, arg:
                         request.reply(backend.healthz())),
    ("GET", "metrics"): (None, lambda request, backend, arg:
                         request.reply(backend.metrics())),
    ("GET", "events"): (None, lambda request, backend, arg:
                        request.reply_text(backend.events_jsonl())),
    ("GET", "jobs"): (False, _jobs),
    ("GET", "status"): (True, lambda request, backend, job_id:
                        request.reply(backend.status(job_id))),
    ("GET", "result"): (True, lambda request, backend, job_id:
                        request.reply(backend.result(
                            job_id, wait=request.flag("wait")))),
    ("POST", "submit"): (None, lambda request, backend, arg:
                         request.reply(backend.submit(request.body()),
                                       status=202)),
    ("POST", "cancel"): (True, lambda request, backend, job_id:
                         request.reply(backend.cancel(job_id))),
    ("POST", "shutdown"): shutdown_route(),
}


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired to one backend.

    A backend answers the :data:`SHARED_ROUTES` verbs — ``healthz``,
    ``metrics``, ``events_jsonl``, ``job_listing(active=)``,
    ``status``, ``result(wait=)``, ``submit``, ``cancel`` and
    ``stop(drain=)`` — and carries its own ``http_routes`` table.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], backend):
        super().__init__(address, _Handler)
        self.backend = backend
        self.routes = {**SHARED_ROUTES, **backend.http_routes}
        #: set by the shutdown route; serve_until_shutdown exits on it.
        self.shutdown_requested = threading.Event()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # replies are one buffered write; Nagle would otherwise delay
    # them behind the client's delayed ACK on keep-alive sockets.
    disable_nagle_algorithm = True
    server: ServeHTTPServer
    #: set when the request body's extent is unknown: its bytes cannot
    #: be skipped, so the reply closes the connection.
    _close = False

    # quiet: the service has telemetry, stderr chatter is noise.
    def log_message(self, format, *args):  # noqa: A002
        pass

    # ------------------------------------------------------------------
    def _send(self, body: bytes, content_type: str, status: int) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def reply(self, payload: Dict[str, object], status: int = 200) -> None:
        self._send(dumps(payload), "application/json", status)

    def reply_text(self, text: str, status: int = 200) -> None:
        self._send(text.encode(), "application/x-ndjson", status)

    def body(self) -> object:
        """The request's JSON body (``{}`` when it has none)."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self._close = True
            raise ProtocolError("bad_json", "Content-Length must be a "
                                            "non-negative integer")
        return loads(self.rfile.read(length) if length else b"")

    def object_body(self, verb: str) -> Dict[str, object]:
        body = self.body()
        if not isinstance(body, dict):
            raise ProtocolError("bad_json", f"{verb} body must be a "
                                            f"JSON object")
        return body

    def flag(self, name: str) -> bool:
        """Whether the query string sets ``name=1``."""
        query = self.path.partition("?")[2]
        return "1" in parse_qs(query).get(name, ())

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        try:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts and parts[0] == "v1":
                parts = parts[1:]
            if not parts:
                raise ProtocolError("not_found", "no route",
                                    http_status=404)
            arg = parts[1] if len(parts) > 1 else None
            takes_arg, route = self.server.routes.get((method, parts[0]),
                                                      (None, None))
            if route is None or (takes_arg is not None
                                 and takes_arg != (arg is not None)):
                raise ProtocolError("not_found",
                                    f"no route {self.path!r}",
                                    http_status=404)
            route(self, self.server.backend, arg)
        except ProtocolError as exc:
            self.reply(exc.as_dict(), status=exc.http_status)


def start_http(backend, host: str = "127.0.0.1",
               port: int = 0) -> Tuple[ServeHTTPServer, threading.Thread]:
    """Start the HTTP front end for ``backend`` on a background thread.

    Returns the server (``server.server_address`` carries the bound
    port when ``port=0``) and its thread; used by tests, benches and
    the CLI's foreground loops.
    """
    server = ServeHTTPServer((host, port), backend)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-http", daemon=True)
    thread.start()
    return server, thread


def serve_until_shutdown(server: ServeHTTPServer,
                         thread: threading.Thread, name: str,
                         drain: Callable[[], object]) -> None:
    """The CLI's foreground wait: block until ``POST /v1/shutdown`` has
    stopped the backend, or until Ctrl-C, which runs ``drain`` instead;
    then stop the HTTP server and join its thread."""
    try:
        server.shutdown_requested.wait()
    except KeyboardInterrupt:
        print(f"\nrepro {name}: draining ...")
        drain()
    server.shutdown()
    thread.join(5.0)


def serve_forever(host: str = "127.0.0.1", port: int = 8350,
                  **service_kwargs) -> int:
    """Run the service until interrupted or shut down over HTTP."""
    service = EvalService(**service_kwargs).start()
    server, thread = start_http(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro serve: listening on http://{bound_host}:{bound_port} "
          f"(workers={service.scheduler.workers}, "
          f"cache={service.cache_root or 'disabled'})")
    serve_until_shutdown(server, thread, "serve", service.stop)
    return 0
