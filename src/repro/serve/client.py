"""Synchronous serve client: submit jobs, reassemble streamed results.

:class:`ServeClient` speaks the NDJSON line protocol over a plain
blocking socket — no asyncio required on the client side — and
:class:`JobResult` reassembles the streamed per-point payloads into the
same result objects the batch CLI produces
(:class:`repro.sim.results.BerPoint`,
:class:`repro.sim.robustness.DegradationCurve`), in point-index order
regardless of completion order.  Because the server computes each point
through the exact batch code path under the same store fingerprint, a
reassembled result is bit-identical to a one-shot run of the same spec.

Self-healing: the client knows how to survive the failures a long
streaming job actually meets.  :class:`BackoffPolicy` is a *deterministic*
capped exponential schedule (same seed → same delays, reproducible in
tests and logs) that honors the server's ``retry_after_s`` backpressure
hint, and :meth:`ServeClient.run_resilient` drives it: on a lost
connection it reconnects, resubmits the same job object with a
``points`` subset naming only the indices it has not yet received
(partial-stream resume), and merges the gap into what it already holds.
Resubmission is idempotent by construction — the server keys points by
engine fingerprint, so a point computed before the drop is answered from
the in-flight registry or the store, never recomputed.
"""

from __future__ import annotations

import collections
import itertools
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ServeConnectionLost, ServeError
from repro.serve.protocol import JobRejected, decode_line, encode_message

__all__ = ["BackoffPolicy", "ServeClient", "JobResult"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Deterministic capped exponential backoff for retryable failures.

    ``delay(attempt)`` is a pure function of ``(seed, attempt)``: the
    exponential ramp ``base_s * factor**attempt`` plus a seeded jitter
    fraction, clamped to ``cap_s``.  A server ``retry_after_s`` hint
    raises the delay to at least the hint (never above the cap — the cap
    is the client's own patience, not the server's).  Determinism is the
    point: a retry schedule that can be asserted in tests and reproduced
    from a log line beats one that cannot.
    """

    base_s: float = 0.25
    factor: float = 2.0
    cap_s: float = 30.0
    #: Max jitter fraction added on top of the ramp (0 = none).
    jitter: float = 0.1
    #: Retry budget: attempts *beyond* the first try.
    max_attempts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_s <= 0 or self.factor < 1.0 or self.cap_s < self.base_s:
            raise ValueError(
                "backoff requires base_s > 0, factor >= 1, cap_s >= base_s"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.max_attempts < 0:
            raise ValueError("max_attempts must be >= 0")

    def delay(self, attempt: int,
              retry_after_s: "float | None" = None) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        ramp = min(self.cap_s, self.base_s * self.factor ** attempt)
        if self.jitter:
            unit = random.Random(f"{self.seed}:{attempt}").random()
            ramp *= 1.0 + self.jitter * unit
        if retry_after_s is not None:
            ramp = max(ramp, float(retry_after_s))
        return min(ramp, self.cap_s)

    def schedule(self, attempts: "int | None" = None,
                 retry_after_s: "float | None" = None) -> "list[float]":
        """The full delay schedule (``max_attempts`` entries by default)."""
        count = self.max_attempts if attempts is None else attempts
        return [self.delay(attempt, retry_after_s) for attempt in range(count)]


@dataclass
class JobResult:
    """One completed job reassembled from its streamed points."""

    kind: str
    points: "list[dict[str, Any]]"
    #: Per-point delivery metadata: fingerprint / shared / cached flags.
    meta: "list[dict[str, Any]]"
    progress_frames: int = 0
    extra_messages: "list[dict[str, Any]]" = field(default_factory=list)
    #: Quarantined points, as ``{"index", "error"}`` (their slots in
    #: ``points``/``meta`` hold ``None``); empty on a fully clean job.
    failed: "list[dict[str, Any]]" = field(default_factory=list)

    def _payloads(self, kinds: "tuple[str, ...]") -> "list[dict[str, Any]]":
        if self.kind not in kinds:
            raise ServeError(f"job kind {self.kind!r} is not one of {kinds}")
        if self.failed:
            raise ServeError(
                f"{len(self.failed)} point(s) failed server-side: "
                f"indices {[item['index'] for item in self.failed]}"
            )
        return self.points

    def ber_points(self):
        """The points as :class:`repro.sim.results.BerPoint` objects."""
        from repro.sim.engine import _ber_point_from_payload

        return [
            _ber_point_from_payload(payload)
            for payload in self._payloads(("ber", "ber_sweep"))
        ]

    def ber_point(self):
        """The single point of a ``ber`` job."""
        points = self.ber_points()
        if len(points) != 1:
            raise ServeError(f"expected exactly one point, got {len(points)}")
        return points[0]

    def degradation_curve(self):
        """A ``robustness`` job as the batch sweep's DegradationCurve."""
        from repro.sim.robustness import DegradationCurve

        curve = DegradationCurve()
        for payload in self._payloads(("robustness",)):
            curve.add(payload["severity"], payload["metrics"])
        return curve


class ServeClient:
    """Blocking line-protocol client for one server connection.

    ``run`` is the high-level call: submit, stream, reassemble.
    ``run_resilient`` is the same contract under failure: it retries
    rejections on the server's schedule and survives dropped connections
    by reconnecting and requesting only the missing points.
    ``submit`` + ``events`` expose the incremental frames for callers
    that want them live.  Frames for other in-flight jobs that arrive
    while waiting for a specific reply are buffered and re-delivered to
    their own consumers, so several jobs may overlap on one connection
    (streamed frames from an earlier job never corrupt a later submit's
    reply).
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: "socket.socket | None" = None
        self._file = None
        self._ids = itertools.count(1)
        self._buffered: "collections.deque[dict[str, Any]]" = collections.deque()
        #: Injection point so tests exercise real schedules in zero time.
        self._sleep: "Callable[[float], None]" = time.sleep
        self.connect()

    # -- connection ----------------------------------------------------------

    def connect(self) -> None:
        """Open the TCP connection (no-op when already connected)."""
        if self._sock is not None:
            return
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rb")

    def _teardown(self) -> None:
        """Drop the connection and any half-received state."""
        self._buffered.clear()
        for closable in (self._file, self._sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass
        self._file = None
        self._sock = None

    def reconnect(self) -> None:
        """Tear the connection down and dial again."""
        self._teardown()
        self.connect()

    @property
    def connected(self) -> bool:
        return self._sock is not None

    # -- framing -------------------------------------------------------------

    def _send(self, message: "dict[str, Any]") -> None:
        if self._sock is None:
            raise ServeConnectionLost("not connected")
        try:
            self._sock.sendall(encode_message(message))
        except OSError as error:
            self._teardown()
            raise ServeConnectionLost(f"send failed: {error}") from None

    def _recv(self) -> "dict[str, Any]":
        if self._file is None:
            raise ServeConnectionLost("not connected")
        line = self._file.readline()
        if not line:
            self._teardown()
            raise ServeConnectionLost("server closed the connection")
        if not line.endswith(b"\n"):
            # EOF landed mid-frame: a torn line is *not* a frame, and
            # trusting it would hand half a JSON document to the caller.
            self._teardown()
            raise ServeConnectionLost("connection lost mid-frame (torn line)")
        return decode_line(line)

    def _take(self, match: "Callable[[dict[str, Any]], bool]"
              ) -> "dict[str, Any]":
        """The next frame satisfying ``match``; buffers everything else."""
        for position, message in enumerate(self._buffered):
            if match(message):
                del self._buffered[position]
                return message
        while True:
            message = self._recv()
            if match(message):
                return message
            self._buffered.append(message)

    # -- requests ------------------------------------------------------------

    def _submit(self, job: "dict[str, Any]", *, priority: int,
                job_id: "str | None",
                points: "list[int] | None") -> "tuple[str, dict[str, Any]]":
        """Send one submit; returns ``(client_id, accepted_reply)``."""
        client_id = job_id if job_id is not None else f"job-{next(self._ids)}"
        request: "dict[str, Any]" = {
            "type": "submit", "id": client_id, "job": job, "priority": priority,
        }
        if points is not None:
            request["points"] = points
        self._send(request)
        reply = self._take(lambda m: (
            m.get("type") in ("accepted", "rejected") and m.get("id") == client_id
        ) or m.get("type") == "error")
        if reply.get("type") == "accepted":
            return client_id, reply
        if reply.get("type") == "rejected":
            raise JobRejected(
                f"job rejected: {reply.get('reason')}",
                retry_after_s=reply.get("retry_after_s"),
            )
        raise ServeError(f"submit failed: {reply.get('message', reply)}")

    def submit(self, job: "dict[str, Any]", *, priority: int = 0,
               job_id: "str | None" = None) -> str:
        """Submit a job; returns its client id once the server accepts.

        Raises :class:`JobRejected` (with ``retry_after_s``) on
        backpressure and :class:`ServeError` on validation failure.
        """
        client_id, _reply = self._submit(
            job, priority=priority, job_id=job_id, points=None
        )
        return client_id

    def events(self, client_id: str) -> "Iterator[dict[str, Any]]":
        """Yield this job's frames (point/progress/...) through ``done``."""
        while True:
            message = self._take(lambda m: (
                m.get("id") == client_id
                or m.get("type") in ("error", "shutting_down")
            ))
            yield message
            if message.get("type") == "done" and message.get("id") == client_id:
                return
            if message.get("type") == "error":
                raise ServeError(f"server error: {message.get('message')}")
            if message.get("type") == "shutting_down":
                # Retryable by reconnecting once the server is back.
                raise ServeConnectionLost("server shut down mid-stream")

    def run(self, job: "dict[str, Any]", *, priority: int = 0,
            allow_failed: bool = False) -> JobResult:
        """Submit ``job`` and collect its streamed points into a JobResult.

        A server-quarantined point arrives as a ``failed`` frame; by
        default that raises once the stream completes (the job is not
        the result the caller asked for).  ``allow_failed=True`` returns
        the partial result instead, with ``None`` in the failed slots
        and the details under ``result.failed``.
        """
        client_id = self.submit(job, priority=priority)
        points: "dict[int, dict[str, Any]]" = {}
        meta: "dict[int, dict[str, Any]]" = {}
        failed: "dict[int, dict[str, Any]]" = {}
        progress = 0
        extra: "list[dict[str, Any]]" = []
        for message in self.events(client_id):
            consumed = self._absorb(
                message, None, points, meta, failed, extra
            )
            if consumed == "progress":
                progress += 1
        return self._assemble(
            job, points, meta, failed, progress, extra,
            allow_failed=allow_failed,
        )

    def run_resilient(
        self,
        job: "dict[str, Any]",
        *,
        priority: int = 0,
        policy: "BackoffPolicy | None" = None,
        on_wait: "Callable[[int, float, str], None] | None" = None,
        allow_failed: bool = False,
    ) -> JobResult:
        """``run`` that survives rejections, disconnects and restarts.

        Retryable failures — :class:`JobRejected` backpressure (waits at
        least the server's ``retry_after_s``), a lost/reset connection,
        a server ``shutting_down`` mid-stream, or a refused reconnect
        while the server restarts — trigger ``policy``'s deterministic
        backoff, at most ``policy.max_attempts`` *consecutive* times
        (any received point proves forward progress and resets the
        budget, so a long sweep may outlive many drops).  After a
        reconnect the client resubmits the same job object with a
        ``points`` subset naming only the indices still missing; points
        already streamed are never re-requested, and the server answers
        the resubmission from its in-flight registry or store, never by
        recomputing.  ``on_wait(attempt, delay_s, reason)`` observes
        each backoff step (the example client prints the schedule from
        it).  Validation errors are not retried — a job the server
        cannot parse today it cannot parse in ``delay_s`` seconds
        either.
        """
        if policy is None:
            policy = BackoffPolicy()
        total: "int | None" = None
        points: "dict[int, dict[str, Any]]" = {}
        meta: "dict[int, dict[str, Any]]" = {}
        failed: "dict[int, dict[str, Any]]" = {}
        progress = 0
        extra: "list[dict[str, Any]]" = []
        attempt = 0

        def back_off(reason: str, retry_after_s: "float | None") -> None:
            nonlocal attempt
            delay = policy.delay(attempt, retry_after_s)
            if on_wait is not None:
                on_wait(attempt, delay, reason)
            self._sleep(delay)
            attempt += 1

        while True:
            missing: "list[int] | None" = None
            if total is not None:
                missing = [
                    index for index in range(total)
                    if index not in points and index not in failed
                ]
                if not missing:
                    break
            try:
                self.connect()
                client_id, accepted = self._submit(
                    job, priority=priority, job_id=None, points=missing
                )
                if total is None:
                    total = int(accepted.get("points", 0))
                for message in self.events(client_id):
                    consumed = self._absorb(
                        message, missing, points, meta, failed, extra
                    )
                    if consumed == "progress":
                        progress += 1
                    if consumed in ("point", "failed"):
                        attempt = 0  # forward progress resets the budget
            except JobRejected as rejected:
                if attempt >= policy.max_attempts:
                    raise
                back_off("rejected", rejected.retry_after_s)
            except (ServeConnectionLost, OSError) as error:
                self._teardown()
                if attempt >= policy.max_attempts:
                    if isinstance(error, ServeConnectionLost):
                        raise
                    raise ServeConnectionLost(
                        f"connection failed: {error}"
                    ) from error
                back_off("disconnected", None)
        return self._assemble(
            job, points, meta, failed, progress, extra,
            allow_failed=allow_failed,
        )

    @staticmethod
    def _absorb(message: "dict[str, Any]", mapping: "list[int] | None",
                points: "dict[int, dict[str, Any]]",
                meta: "dict[int, dict[str, Any]]",
                failed: "dict[int, dict[str, Any]]",
                extra: "list[dict[str, Any]]") -> str:
        """Merge one streamed frame into the reassembly state.

        ``mapping`` translates a subset submission's stream indices back
        to original point positions (``None`` = identity).  Returns the
        frame class consumed: point / failed / progress / done / extra.
        """
        message_type = message.get("type")
        if message_type == "point":
            index = int(message["index"])
            if mapping is not None:
                index = mapping[index]
            points[index] = message["payload"]
            meta[index] = {
                "fingerprint": message.get("fingerprint"),
                "shared": message.get("shared"),
                "cached": message.get("cached"),
            }
            return "point"
        if message_type == "failed":
            index = int(message["index"])
            if mapping is not None:
                index = mapping[index]
            failed[index] = {"index": index, "error": message.get("error")}
            return "failed"
        if message_type == "progress":
            return "progress"
        if message_type == "done":
            return "done"
        extra.append(message)
        return "extra"

    @staticmethod
    def _assemble(job: "dict[str, Any]",
                  points: "dict[int, dict[str, Any]]",
                  meta: "dict[int, dict[str, Any]]",
                  failed: "dict[int, dict[str, Any]]",
                  progress: int, extra: "list[dict[str, Any]]",
                  *, allow_failed: bool) -> JobResult:
        resolved = sorted(set(points) | set(failed))
        if resolved != list(range(len(resolved))):
            raise ServeError(f"incomplete stream: got point indices {resolved}")
        if failed and not allow_failed:
            raise ServeError(
                f"{len(failed)} point(s) failed server-side: "
                + "; ".join(
                    f"#{index}: {failed[index]['error']}"
                    for index in sorted(failed)
                )
            )
        return JobResult(
            kind=str(job.get("kind", "")),
            points=[points.get(index) for index in resolved],
            meta=[meta.get(index) for index in resolved],
            progress_frames=progress,
            extra_messages=extra,
            failed=[failed[index] for index in sorted(failed)],
        )

    def _request(self, request: "dict[str, Any]", reply_type: str
                 ) -> "dict[str, Any]":
        """Send a control frame and wait for its (or an error) reply."""
        self._send(request)
        message = self._take(
            lambda m: m.get("type") in (reply_type, "error")
        )
        if message.get("type") != reply_type:
            raise ServeError(
                f"{request['type']} failed: {message.get('message', message)}"
            )
        return message

    def cancel(self, client_id: str) -> "dict[str, Any]":
        """Cancel an in-flight job; returns the ``cancelled`` frame."""
        return self._request({"type": "cancel", "id": client_id}, "cancelled")

    def status(self) -> "dict[str, Any]":
        return self._request({"type": "status"}, "status_ok")

    def metrics(self) -> "dict[str, Any]":
        return self._request({"type": "metrics"}, "metrics_ok")

    def ping(self) -> None:
        self._request({"type": "ping"}, "pong")

    def shutdown_server(self) -> None:
        """Ask the server to drain and stop (acknowledged before it does)."""
        self._request({"type": "shutdown"}, "shutting_down")

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
