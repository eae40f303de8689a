"""The serve front door: asyncio TCP server, lifecycle, status endpoint.

:class:`JobServer` binds a socket, hands each connection to a
:class:`repro.serve.session.ClientSession`, and owns one shared
:class:`repro.serve.scheduler.JobScheduler` (executor pool + store +
in-flight dedup) for every client.  Shutdown is graceful by default:
``shutdown()`` stops accepting connections, drains the scheduler (every
admitted point resolves and streams out), notifies connected sessions,
then closes.

Two embeddings are provided besides the ``repro serve`` CLI loop:

* :func:`run_server` — blocking convenience that runs until SIGINT or a
  client ``shutdown`` frame, printing the bound address first (useful
  with ``--port 0``).
* :class:`ServerThread` — context manager running the server on a
  private event loop in a daemon thread; tests and notebooks use it to
  stand a real TCP server up in-process and talk to it with the
  synchronous client.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.obs import runtime as _obs_runtime
from repro.serve.protocol import MAX_LINE_BYTES, PROTOCOL_VERSION
from repro.serve.scheduler import JobScheduler
from repro.serve.session import ClientSession
from repro.sim.executor import ExecutionPlan

__all__ = ["ServeConfig", "JobServer", "run_server", "ServerThread"]


class _ReplaySession:
    """The session stand-in behind journal replay: nobody is listening.

    Replayed points deliver into the content-addressed store (that is
    the durable artifact a resuming client reads back); the frames
    themselves have no socket to go to and are discarded.
    """

    def send(self, message) -> None:  # pragma: no cover - trivial
        pass

    def finish_job(self, job) -> None:  # pragma: no cover - trivial
        pass


@dataclass(frozen=True)
class ServeConfig:
    """Everything a server needs; mirrors the ``repro serve`` CLI flags."""

    host: str = "127.0.0.1"
    port: int = 0
    pool_workers: int = 2
    max_pending: int = 256
    retry_after_s: float = 1.0
    cache_dir: "str | None" = None
    execution: ExecutionPlan = field(default_factory=ExecutionPlan)
    session_queue_limit: int = 1024
    #: Bind an HTTP :class:`repro.obs.exporter.MetricsExporter` beside
    #: the line protocol (``0`` = any free port, ``None`` = disabled).
    metrics_port: "int | None" = None
    #: Keep a write-ahead :class:`repro.serve.journal.JobJournal` of
    #: accepted jobs in the cache dir (requires ``cache_dir``; on by
    #: default because it is what makes ``--resume`` possible at all).
    journal: bool = True
    #: Replay incomplete journal records from a previous (crashed) server
    #: on startup, before accepting connections.
    resume: bool = False


class JobServer:
    """One serve instance: socket, sessions, shared scheduler."""

    def __init__(self, config: "ServeConfig | None" = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.store = None
        if self.config.cache_dir is not None:
            from repro.store import ExperimentStore

            self.store = ExperimentStore(self.config.cache_dir)
        self.scheduler: "JobScheduler | None" = None
        self.sessions: "set[ClientSession]" = set()
        self.exporter = None
        self._server: "asyncio.AbstractServer | None" = None
        self._session_ids = 0
        self._shutdown_requested: "asyncio.Event | None" = None
        self._started_monotonic: "float | None" = None
        self.replayed_jobs = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the scheduler (call on the loop).

        With ``resume`` set, incomplete journal records from a crashed
        predecessor are replayed *before* the socket binds, so a client
        reconnecting the instant the port answers already shares the
        in-flight points instead of racing the replay.
        """
        journal = None
        if self.config.journal and self.config.cache_dir is not None:
            from repro.serve.journal import JobJournal

            journal = JobJournal(self.config.cache_dir)
        self.scheduler = JobScheduler(
            execution=self.config.execution,
            store=self.store,
            pool_workers=self.config.pool_workers,
            max_pending=self.config.max_pending,
            retry_after_s=self.config.retry_after_s,
            journal=journal,
        )
        if self.config.resume and journal is not None:
            self.replayed_jobs = self._replay_journal(journal)
        self._shutdown_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES + 2,
        )
        self._started_monotonic = time.monotonic()
        if self.config.metrics_port is not None:
            from repro.obs.exporter import MetricsExporter

            # The exporter thread only ever *reads* (registry snapshot,
            # status counters) — scrapes cannot perturb the event loop.
            self.exporter = MetricsExporter(
                port=self.config.metrics_port,
                status_provider=self.status_payload,
            )
            self.exporter.start()
        if _obs_runtime._enabled:
            obs.log("serve.started", host=self.host, port=self.port)

    def _replay_journal(self, journal) -> int:
        """Resubmit a crashed predecessor's incomplete jobs; jobs replayed.

        Each record is re-validated from its *raw job object* through
        ``parse_job``, and the recomputed fingerprints must equal the ones
        journaled on admission — a mismatch means the code drifted across
        the restart, and the record is dropped loudly rather than replayed
        wrong.  Every point a record lists is scheduled (less any an
        earlier build marked ``completed``); their computes route through
        the store, so anything that landed before the crash is a cache
        hit, not a recompute.
        """
        from repro.errors import ServeError
        from repro.serve.protocol import parse_job, select_points

        try:
            records = journal.incomplete()
        except ServeError as error:
            # A record from a different build must not brick startup;
            # leave the journal untouched and keep serving.
            if _obs_runtime._enabled:
                obs.log("serve.journal.unreadable", error=str(error))
            return 0
        replayed = 0
        for record in records:
            remaining = record.remaining()
            if not remaining:
                journal.finish(record.journal_id)
                continue
            dropped_reason = None
            try:
                parsed = parse_job(record.job)
                if record.point_indices is not None:
                    parsed = select_points(parsed, list(record.point_indices))
                fingerprints = tuple(
                    spec.fingerprint() for spec in parsed.points
                )
            except ServeError as error:
                dropped_reason = str(error)
            else:
                if fingerprints != record.fingerprints:
                    dropped_reason = (
                        "per-point fingerprints changed across the restart"
                    )
            if dropped_reason is not None:
                journal.finish(record.journal_id)
                if _obs_runtime._enabled:
                    obs.inc("serve.journal.dropped")
                    obs.log(
                        "serve.journal.dropped",
                        journal_id=record.journal_id, error=dropped_reason,
                    )
                continue
            adopted = journal.adopt(record)
            subset = (
                parsed if len(remaining) == len(parsed.points)
                else select_points(parsed, list(remaining))
            )
            self.scheduler.submit(
                _ReplaySession(), f"replay-{adopted.journal_id}", subset,
                journal_record=adopted, force=True,
            )
            self.scheduler.counters["journal_replayed"] += 1
            replayed += 1
            if _obs_runtime._enabled:
                obs.inc("serve.journal.replayed")
                obs.log(
                    "serve.journal.replayed",
                    journal_id=adopted.journal_id, kind=adopted.kind,
                    points=len(remaining), completed=len(adopted.completed),
                )
        return replayed

    @property
    def host(self) -> str:
        return self._server.sockets[0].getsockname()[0]

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0``)."""
        return self._server.sockets[0].getsockname()[1]

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._session_ids += 1
        session = ClientSession(
            self, reader, writer, self._session_ids,
            queue_limit=self.config.session_queue_limit,
        )
        self.sessions.add(session)
        await session.run()

    def forget_session(self, session: ClientSession) -> None:
        self.sessions.discard(session)

    def request_shutdown(self) -> None:
        """Ask the serve loop to begin a graceful shutdown (idempotent)."""
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def serve_until_shutdown(self) -> None:
        """Run until :meth:`request_shutdown`, then drain and close."""
        await self._shutdown_requested.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful stop: refuse new connections, drain, notify, close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.exporter is not None:
            self.exporter.stop()
            self.exporter = None
        if self.scheduler is not None:
            await self.scheduler.close()
        for session in list(self.sessions):
            session.send({"type": "shutting_down"})
        # Give session writer tasks a beat to flush the notice, then drop.
        await asyncio.sleep(0.05)
        for session in list(self.sessions):
            try:
                session.writer.close()
            except RuntimeError:
                pass
        if _obs_runtime._enabled:
            obs.log("serve.stopped")

    # -- introspection -------------------------------------------------------

    def status_payload(self) -> "dict[str, Any]":
        """The scrape/status document.

        Served identically to the NDJSON ``status`` verb, the HTTP
        ``GET /status`` route (via the exporter's ``status_provider``),
        and :meth:`repro.serve.client.ServeClient.status` — one payload,
        three transports.
        """
        from repro import __version__

        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None else 0.0
        )
        payload: "dict[str, Any]" = {
            "protocol": PROTOCOL_VERSION,
            "sessions": len(self.sessions),
            "uptime_s": round(uptime, 3),
            "version": __version__,
            "run_id": _obs_runtime.run_id(),
            **self.scheduler.status(),
        }
        payload["metrics"] = obs.snapshot() if obs.enabled() else None
        return payload


def run_server(config: "ServeConfig | None" = None, out=None) -> int:
    """Blocking serve loop for the CLI: bind, announce, run, drain.

    Prints ``serving on HOST:PORT`` (flushed, so scripts started with
    ``--port 0`` can scrape the bound port) and runs until SIGINT or a
    client-initiated ``shutdown`` frame.  Returns a process exit code.
    """
    import sys

    stream = out if out is not None else sys.stdout

    def announce(text: str) -> None:
        stream.write(text + "\n")
        stream.flush()

    async def main() -> None:
        server = JobServer(config)
        await server.start()
        if server.replayed_jobs:
            announce(f"resumed {server.replayed_jobs} job(s) from journal")
        announce(f"serving on {server.host}:{server.port}")
        if server.exporter is not None:
            announce(
                f"metrics on {server.exporter.host}:{server.exporter.port}"
            )
        try:
            await server.serve_until_shutdown()
        except asyncio.CancelledError:
            await server.shutdown()
            raise

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        announce("interrupted; drained and stopped")
    return 0


class ServerThread:
    """A live server on a background thread (tests, notebooks, smokes).

    ::

        with ServerThread(ServeConfig(pool_workers=2)) as handle:
            client = ServeClient(handle.host, handle.port)
            ...

    The context exit performs the same graceful drain as SIGINT.
    """

    def __init__(self, config: "ServeConfig | None" = None) -> None:
        self.config = config
        self.server: "JobServer | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()
        self.host: "str | None" = None
        self.port: "int | None" = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("serve thread failed to start")
        return self

    def _run(self) -> None:
        async def main() -> None:
            self.server = JobServer(self.config)
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self.host = self.server.host
            self.port = self.server.port
            self._started.set()
            await self.server.serve_until_shutdown()

        asyncio.run(main())

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=30.0)
