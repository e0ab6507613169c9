"""Open-loop load generator for the ``serve-zipf`` workload.

One process, two threads, two keep-alive connections:

- the calling thread sleeps to each request's scheduled time and submits
  it through the public client (``repro.connect``), whatever the
  backlog, so queueing shows up as latency;
- a waiter thread detects completions.  It blocks on the server's
  ``GET /v1/result/<id>?wait=1`` for the oldest outstanding job, so a
  completion is seen one round trip after it happens, not at the next
  poll.  A batch finishes all of its jobs at once, and the service
  claims every pending job of the lead's fingerprint into the batch, so
  after each wake-up the waiter probes the outstanding jobs of that
  fingerprint in submission order and stops at the first one that is
  not finished.

Latency is timed from the scheduled send time; how late the sender ran
is reported beside it.
"""

from __future__ import annotations

import http.client
import json
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    workload: str
    system: str
    due: float
    sent: float = 0.0
    submit_s: float = 0.0
    done: Optional[float] = None
    #: the result payload of a finished job, or None.
    result: Optional[dict] = None
    #: a structured error code when the request failed or was shed.
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due


class _Waiter:
    """The completion-detecting thread and its own connection."""

    def __init__(self, host: str, port: int, timeout: float):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self.failure: Optional[BaseException] = None
        self.thread = threading.Thread(target=self._run,
                                       name="perfbench-waiter")

    def _get(self, path: str) -> Tuple[int, dict]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def _settle(self, job_id: str, outcome: Outcome, wait: bool) -> bool:
        """Fetch one result; False when the job is still unfinished."""
        status, body = self._get(f"/v1/result/{job_id}"
                                 + ("?wait=1" if wait else ""))
        if status == 409:
            return False
        outcome.done = time.monotonic()
        if status == 200:
            outcome.result = body["result"]
        else:
            outcome.error = body.get("error", {}).get("code", str(status))
        return True

    def _run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # reported by join()
            self.failure = exc
        finally:
            self.conn.close()

    def _loop(self) -> None:
        outstanding: List[Tuple[str, str, Outcome]] = []
        closing = False
        while outstanding or not closing:
            if not outstanding:
                item = self.inbox.get()
                if item is None:
                    closing = True
                    continue
                outstanding.append(item)
            job_id, fingerprint, outcome = outstanding.pop(0)
            self._settle(job_id, outcome, wait=True)
            # jobs submitted while waiting may share the finished batch
            while True:
                try:
                    item = self.inbox.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    closing = True
                else:
                    outstanding.append(item)
            kept = []
            probing = True
            for entry in outstanding:
                if probing and entry[1] == fingerprint:
                    if self._settle(entry[0], entry[2], wait=False):
                        continue
                    probing = False
                kept.append(entry)
            outstanding = kept

    def start(self) -> None:
        self.thread.start()

    def finish(self, timeout: float) -> None:
        self.inbox.put(None)
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("completion waiter did not finish")
        if self.failure is not None:
            raise RuntimeError(f"completion waiter failed: "
                               f"{self.failure!r}") from self.failure


def run_open_loop(client, host: str, port: int,
                  requests: Sequence[Tuple[float, str, Dict[str, object],
                                           str]],
                  timeout: float = 120.0) -> List[Outcome]:
    """Send ``(offset_s, workload, config_spec, system_name)`` requests
    on schedule and return one :class:`Outcome` per request."""
    from repro.serve.client import ServeError

    waiter = _Waiter(host, port, timeout)
    waiter.start()
    outcomes: List[Outcome] = []
    start = time.monotonic() + 0.05
    try:
        for offset, workload, spec, system in requests:
            outcome = Outcome(workload=workload, system=system,
                              due=start + offset)
            outcomes.append(outcome)
            delay = outcome.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            outcome.sent = time.monotonic()
            try:
                status = client.submit("evaluate", configs=[spec],
                                       names=[workload], fast=True)
            except ServeError as exc:
                outcome.done = time.monotonic()
                outcome.error = exc.code
                continue
            outcome.submit_s = time.monotonic() - outcome.sent
            waiter.inbox.put((status["job_id"], status["fingerprint"],
                              outcome))
    finally:
        waiter.finish(timeout)
    return outcomes


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
