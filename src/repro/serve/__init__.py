"""Service mode: a streaming job server over the executor + store.

Everything else in this repo is a one-shot batch entry point; this
package is the serving front door the ROADMAP's north star calls for.
``repro serve`` runs an asyncio TCP server speaking a newline-delimited
JSON protocol (:mod:`repro.serve.protocol`): clients submit simulation /
sweep / robustness jobs, a shared :class:`JobScheduler` admits them
through a bounded priority queue (deterministic reject-with-retry-after
on saturation), dedupes in-flight points by store fingerprint — two
clients asking for the same point share one computation — and streams
per-point results plus progress frames back incrementally.  Client
disconnects cancel their queued work; shutdown drains gracefully; the
PR-4 obs metrics registry and store health are exposed via the
``status`` / ``metrics`` frames.

The stack is crash-safe end to end.  Accepted jobs go into a durable
write-ahead journal (:mod:`repro.serve.journal`) in the cache dir, and
``repro serve --resume`` replays a crashed server's incomplete jobs —
already-stored points come back as cache hits, only missing points
recompute.  The executor's :class:`repro.sim.executor.ExecutionPlan`
(``repro serve --workers N --max-retries R --chunk-timeout S``) is the
only recovery stack: it retries failed chunks and kills stuck worker
processes inside each point's trial map.  The scheduler runs a point
once and quarantines it if it raises (per-point ``failed`` frames
instead of dead jobs).
:meth:`repro.serve.client.ServeClient.run_resilient` survives the client
side: deterministic capped backoff (:class:`BackoffPolicy`) honoring
``retry_after_s``, reconnects, and partial-stream resume that requests
only the missing point indices.  The chaos suite's fault-injecting proxy
(``tests/integration/chaosproxy.py``) proves all of it in CI.

The determinism contract carries through unchanged: every point is
computed by the same engine entry points the batch CLI calls, under the
same fingerprint, so streamed results reassembled by
:class:`repro.serve.client.ServeClient` are bit-identical to one-shot
runs (pinned by ``tests/integration/test_serve_end_to_end.py`` and the
CI serve smoke) — even when the stream was torn, dropped, or restarted
mid-job (pinned by ``tests/integration/test_serve_chaos.py`` and the CI
serve-chaos job).
"""

from repro import _exports

__all__ = [
    "ServeError",
    "ServeConnectionLost",
    "JobRejected",
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ParsedJob",
    "parse_job",
    "select_points",
    "encode_message",
    "decode_line",
    "JobScheduler",
    "JobServer",
    "ServeConfig",
    "ServerThread",
    "run_server",
    "ServeClient",
    "BackoffPolicy",
    "JobResult",
    "JobJournal",
    "JournalRecord",
]

_EXPORTS = {
    "repro.errors": ("ServeConnectionLost", "ServeError"),
    "repro.serve.client": ("BackoffPolicy", "JobResult", "ServeClient"),
    "repro.serve.journal": ("JobJournal", "JournalRecord"),
    "repro.serve.protocol": (
        "MAX_LINE_BYTES",
        "PROTOCOL_VERSION",
        "JobRejected",
        "ParsedJob",
        "decode_line",
        "encode_message",
        "parse_job",
        "select_points",
    ),
    "repro.serve.scheduler": ("JobScheduler",),
    "repro.serve.server": ("JobServer", "ServeConfig", "ServerThread", "run_server"),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
