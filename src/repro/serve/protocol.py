"""Serve wire protocol: NDJSON framing and job-spec validation.

One message per line, each line a single JSON object terminated by
``\\n`` — the framing Acconeer's exptool streaming server popularized for
sensor sessions, chosen here because it keeps the protocol inspectable
with ``nc`` and trivially implementable from any language.

Client -> server message types: ``submit``, ``cancel``, ``status``,
``metrics``, ``ping``, ``shutdown``.  Server -> client: ``accepted``,
``rejected``, ``point``, ``progress``, ``done``, ``cancelled``,
``status_ok``, ``metrics_ok``, ``pong``, ``shutting_down``, ``error``.

A *job* is a JSON object validated by :func:`parse_job` into a
:class:`ParsedJob` — an ordered tuple of point specs, each an independent
unit of work with its own store fingerprint.  Point specs are the dedup
and scheduling granularity: the scheduler keys in-flight sharing on
``spec.fingerprint()`` (identical to the fingerprint the batch engines
store results under, so serve and CLI runs share cache entries), and
``spec.compute(execution, store)`` reproduces the batch code path
exactly, which is what makes streamed results bit-identical to one-shot
CLI runs.

Supported job kinds:

``ber``
    One downlink BER operating point; the same knobs as ``repro ber``.
``ber_sweep``
    A fig12/13-style sweep: the base ``ber`` knobs plus
    ``{"sweep": {"field": ..., "values": [...]}}``; each value yields one
    point equal to a ``repro ber`` invocation with that field overridden.
``robustness``
    An impairment-severity ladder, the same knobs as ``repro robustness``;
    each severity is one point, bit-identical to the batch sweep's.

Every kind also accepts an optional ``"adaptive"`` object mirroring the
CLI's ``--adaptive`` knobs — ``{"ci_width": 0.25, "min_frames": 10,
"max_frames": 200, "batch_frames": 10, "confidence": 0.95, "method":
"wilson"}`` — which switches each point to CI-driven sequential stopping
(:class:`repro.sim.adaptive.AdaptiveConfig`).  The stopping rule joins
the point fingerprint through the same engine work-unit helpers batch
runs use, so adaptive serve jobs share cache entries with adaptive CLI
runs and never collide with fixed-budget ones.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any

from repro.errors import ServeError
from repro.utils.rng import SeedSpec

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "JobRejected",
    "BerPointSpec",
    "RobustnessPointSpec",
    "ParsedJob",
    "parse_job",
    "select_points",
    "encode_message",
    "decode_line",
]

PROTOCOL_VERSION = 1

#: Hard cap on one framed line (defense against unframed/binary garbage).
MAX_LINE_BYTES = 1 << 20


class JobRejected(ServeError):
    """The server refused a job (backpressure or drain).

    ``retry_after_s`` carries the server's resubmission hint.
    """

    def __init__(self, message: str, retry_after_s: "float | None" = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


def encode_message(message: "dict[str, Any]") -> bytes:
    """One protocol frame: compact JSON + newline, key-sorted."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> "dict[str, Any]":
    """Parse one received frame; raises :class:`ServeError` on violations."""
    if len(line) > MAX_LINE_BYTES:
        raise ServeError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServeError(f"malformed frame: {error}") from None
    if not isinstance(message, dict):
        raise ServeError("frame must be a JSON object")
    return message


# -- job validation ----------------------------------------------------------


def _typed(job: "dict", key: str, kind, default):
    """``job[key]`` coerced to ``kind`` (bool is not an int here)."""
    value = job.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) and kind is not bool:
        raise ServeError(f"job field {key!r} must be {kind.__name__}, got bool")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ServeError(
            f"job field {key!r} must be {kind.__name__}, got {value!r}"
        ) from None


class _PointSpec:
    """Fingerprint and compute of a point spec, through the engine driver.

    A subclass names its workload, point and wire result once, in
    :meth:`_workload_point` and :meth:`_wire`; everything else is
    :func:`repro.sim.engine.run_point`, the code path batch runs take.
    """

    def validated(self):
        """This spec, once its point plans: bad knobs fail at submit time.

        The builders and the driver's plan raise domain errors; this is
        where serve turns them into a client-presentable rejection.
        """
        from repro.errors import ReproError
        from repro.sim.engine import point_work_unit

        try:
            point_work_unit(*self._workload_point(), self.adaptive)
        except (ReproError, TypeError, ValueError) as error:
            raise ServeError(f"invalid {self.kind} point: {error}") from None
        return self

    def fingerprint(self) -> str:
        from repro.sim.engine import point_work_unit
        from repro.store.fingerprint import fingerprint

        return fingerprint(*point_work_unit(*self._workload_point(), self.adaptive))

    def compute(self, execution, store) -> "dict[str, Any]":
        from repro.sim.engine import run_point

        workload, point = self._workload_point()
        return self._wire(run_point(
            workload, point, adaptive=self.adaptive, execution=execution, store=store
        ))


@dataclass(frozen=True)
class BerPointSpec(_PointSpec):
    """One downlink BER operating point — the unit ``repro ber`` computes.

    The config comes from :func:`repro.sim.engine.ber_trial_config`, the
    builder the CLI uses, so the fingerprint (and therefore the store
    entry and the result) is shared with batch runs of the same knobs.
    """

    distance_m: float = 3.0
    snr_db: "float | None" = None
    symbol_bits: int = 5
    bandwidth_ghz: float = 1.0
    delta_l_inches: float = 45.0
    frames: int = 100
    payload_symbols: int = 16
    full_sync: bool = False
    impair: "str | None" = None
    seed: int = 0
    adaptive: "Any | None" = None

    kind = "ber"

    def trial_config(self):
        from repro.sim.engine import ber_trial_config

        return ber_trial_config(
            distance_m=self.distance_m,
            snr_db=self.snr_db,
            symbol_bits=self.symbol_bits,
            bandwidth_ghz=self.bandwidth_ghz,
            delta_l_inches=self.delta_l_inches,
            frames=self.frames,
            payload_symbols=self.payload_symbols,
            full_sync=self.full_sync,
            impair=self.impair,
        )

    def _workload_point(self):
        from repro.sim.engine import DOWNLINK

        return DOWNLINK, (self.trial_config(), SeedSpec.from_rng(self.seed))

    _wire = staticmethod(dataclasses.asdict)


@dataclass(frozen=True)
class RobustnessPointSpec(_PointSpec):
    """One severity point of a robustness ladder.

    ``point_index`` pins the seed derivation
    (``SeedSpec.from_rng(seed).child(point_index)``) to the position the
    point holds in the batch sweep's ladder, which is what keeps a
    streamed curve bit-identical to ``repro robustness``.
    """

    range_m: float
    impair: str
    severity: float
    point_index: int
    frames: int = 8
    downlink_bits: int = 10
    uplink_bits: int = 4
    if_threshold: "float | None" = None
    seed: int = 0
    adaptive: "Any | None" = None

    kind = "robustness"

    def robustness_config(self):
        from repro.impair import ImpairmentSpec
        from repro.sim.robustness import RobustnessConfig
        from repro.sim.scenario import default_office_scenario

        return RobustnessConfig(
            scenario=default_office_scenario(tag_range_m=self.range_m),
            impairments=ImpairmentSpec.parse(self.impair),
            severities=(self.severity,),
            num_frames=self.frames,
            downlink_bits=self.downlink_bits,
            uplink_bits=self.uplink_bits,
            if_confidence_threshold=self.if_threshold,
        )

    def _seed_spec(self) -> SeedSpec:
        return SeedSpec.from_rng(self.seed).child(self.point_index)

    def _workload_point(self):
        from repro.sim.robustness import ROBUSTNESS_POINT

        point = (self.robustness_config(), self.severity, self._seed_spec())
        return ROBUSTNESS_POINT, point

    def _wire(self, metrics: "dict") -> "dict[str, Any]":
        return {"severity": float(self.severity), "metrics": metrics}


@dataclass(frozen=True)
class ParsedJob:
    """A validated job: an ordered tuple of independently schedulable points."""

    kind: str
    points: "tuple[Any, ...]"


_BER_KEYS = {
    "kind", "distance_m", "snr_db", "symbol_bits", "bandwidth_ghz",
    "delta_l_inches", "frames", "payload_symbols", "full_sync", "impair",
    "seed", "adaptive",
}
_SWEEP_KEYS = _BER_KEYS | {"sweep"}
_SWEEP_FIELDS = {
    "distance_m": float,
    "snr_db": float,
    "symbol_bits": int,
    "bandwidth_ghz": float,
    "frames": int,
    "seed": int,
}
_ROBUSTNESS_KEYS = {
    "kind", "range_m", "impair", "severities", "frames", "downlink_bits",
    "uplink_bits", "if_threshold", "seed", "adaptive",
}

_ADAPTIVE_KEYS = {
    "ci_width", "min_frames", "max_frames", "batch_frames", "confidence",
    "method",
}


def _parse_adaptive(job: "dict"):
    """The job's ``"adaptive"`` object as an AdaptiveConfig (None = fixed).

    Defaults are the CLI's (:meth:`AdaptiveConfig.for_budget` over the
    job's ``frames``); validation is AdaptiveConfig's own, surfaced as a
    submit-time rejection.
    """
    raw = job.get("adaptive")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ServeError("adaptive must be a JSON object")
    unknown = sorted(set(raw) - _ADAPTIVE_KEYS)
    if unknown:
        raise ServeError(f"unknown adaptive field(s): {', '.join(unknown)}")
    method = raw.get("method", "wilson")
    if not isinstance(method, str):
        raise ServeError(f"adaptive method must be a string, got {method!r}")
    from repro.sim.adaptive import AdaptiveConfig

    try:
        return AdaptiveConfig.for_budget(
            _typed(job, "frames", int, 100),
            target_rel_width=_typed(raw, "ci_width", float, 0.25),
            min_frames=_typed(raw, "min_frames", int, 10),
            max_frames=_typed(raw, "max_frames", int, None),
            batch_frames=_typed(raw, "batch_frames", int, None),
            confidence=_typed(raw, "confidence", float, 0.95),
            method=method,
        )
    except (TypeError, ValueError) as error:
        raise ServeError(f"invalid adaptive config: {error}") from None


#: Mirrors the ``repro robustness`` CLI default bundle.
DEFAULT_ROBUSTNESS_IMPAIR = (
    "interference:0.6,drift:0.4,clip:0.5,loss:0.4,impulse:0.5"
)

#: Hard ceiling on points per job — one submit cannot monopolize a queue.
MAX_POINTS_PER_JOB = 256


def _reject_unknown(job: "dict", allowed: "set[str]") -> None:
    unknown = sorted(set(job) - allowed)
    if unknown:
        raise ServeError(f"unknown job field(s): {', '.join(unknown)}")


def _base_ber_spec(job: "dict") -> BerPointSpec:
    spec = BerPointSpec(
        distance_m=_typed(job, "distance_m", float, 3.0),
        snr_db=_typed(job, "snr_db", float, None),
        symbol_bits=_typed(job, "symbol_bits", int, 5),
        bandwidth_ghz=_typed(job, "bandwidth_ghz", float, 1.0),
        delta_l_inches=_typed(job, "delta_l_inches", float, 45.0),
        frames=_typed(job, "frames", int, 100),
        payload_symbols=_typed(job, "payload_symbols", int, 16),
        full_sync=bool(job.get("full_sync", False)),
        impair=job.get("impair") or None,
        seed=_typed(job, "seed", int, 0),
        adaptive=_parse_adaptive(job),
    )
    # Bound the alphabet size before design: 2**symbol_bits codewords are
    # enumerated eagerly, so an unchecked large value is a parse-time DoS.
    if not 1 <= spec.symbol_bits <= 16:
        raise ServeError(
            f"symbol_bits must be in [1, 16], got {spec.symbol_bits}"
        )
    return spec.validated()


def _parse_ber(job: "dict") -> ParsedJob:
    _reject_unknown(job, _BER_KEYS)
    return ParsedJob(kind="ber", points=(_base_ber_spec(job),))


def _parse_ber_sweep(job: "dict") -> ParsedJob:
    _reject_unknown(job, _SWEEP_KEYS)
    sweep = job.get("sweep")
    if not isinstance(sweep, dict):
        raise ServeError("ber_sweep requires a \"sweep\" object")
    unknown = sorted(set(sweep) - {"field", "values"})
    if unknown:
        raise ServeError(f"unknown sweep field(s): {', '.join(unknown)}")
    field = sweep.get("field")
    if field not in _SWEEP_FIELDS:
        raise ServeError(
            f"sweep field must be one of {sorted(_SWEEP_FIELDS)}, got {field!r}"
        )
    values = sweep.get("values")
    if not isinstance(values, list) or not values:
        raise ServeError("sweep values must be a non-empty list")
    if len(values) > MAX_POINTS_PER_JOB:
        # Bounce before building specs: each spec validates its derived
        # config, which is too much work to spend on a rejected job.
        raise ServeError(
            f"job has {len(values)} points, limit is {MAX_POINTS_PER_JOB}"
        )
    base = {key: value for key, value in job.items() if key not in ("kind", "sweep")}
    caster = _SWEEP_FIELDS[field]
    points = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ServeError(f"sweep values must be numbers, got {value!r}")
        points.append(_base_ber_spec({**base, field: caster(value)}))
    return ParsedJob(kind="ber_sweep", points=tuple(points))


def _parse_robustness(job: "dict") -> ParsedJob:
    _reject_unknown(job, _ROBUSTNESS_KEYS)
    severities = job.get("severities", [0.0, 0.25, 0.5, 0.75, 1.0])
    if not isinstance(severities, list) or not severities:
        raise ServeError("severities must be a non-empty list")
    if len(severities) > MAX_POINTS_PER_JOB:
        raise ServeError(
            f"job has {len(severities)} points, limit is {MAX_POINTS_PER_JOB}"
        )
    for severity in severities:
        if isinstance(severity, bool) or not isinstance(severity, (int, float)):
            raise ServeError(f"severities must be numbers, got {severity!r}")
        if not 0.0 <= float(severity) <= 1.0:
            raise ServeError(f"severities must be in [0, 1], got {severity}")
    frames = _typed(job, "frames", int, 8)
    downlink_bits = _typed(job, "downlink_bits", int, 10)
    uplink_bits = _typed(job, "uplink_bits", int, 4)
    adaptive = _parse_adaptive({**job, "frames": frames})
    points = tuple(
        RobustnessPointSpec(
            range_m=_typed(job, "range_m", float, 3.0),
            impair=job.get("impair") or DEFAULT_ROBUSTNESS_IMPAIR,
            severity=float(severity),
            point_index=index,
            frames=frames,
            downlink_bits=downlink_bits,
            uplink_bits=uplink_bits,
            if_threshold=_typed(job, "if_threshold", float, None),
            seed=_typed(job, "seed", int, 0),
            adaptive=adaptive,
        )
        for index, severity in enumerate(severities)
    )
    points[0].validated()  # the knobs every point shares
    return ParsedJob(kind="robustness", points=points)


_PARSERS = {
    "ber": _parse_ber,
    "ber_sweep": _parse_ber_sweep,
    "robustness": _parse_robustness,
}


def parse_job(job: Any) -> ParsedJob:
    """Validate a submitted job object into its point specs.

    Raises :class:`ServeError` with a client-presentable message on any
    violation — unknown kind or field, bad types/ranges, or a derived
    simulation config that the engines would reject.
    """
    if not isinstance(job, dict):
        raise ServeError("job must be a JSON object")
    kind = job.get("kind")
    parser = _PARSERS.get(kind)
    if parser is None:
        raise ServeError(
            f"unknown job kind {kind!r}; expected one of {sorted(_PARSERS)}"
        )
    parsed = parser(job)
    if len(parsed.points) > MAX_POINTS_PER_JOB:
        raise ServeError(
            f"job has {len(parsed.points)} points, limit is {MAX_POINTS_PER_JOB}"
        )
    return parsed


def select_points(parsed: ParsedJob, indices: Any) -> ParsedJob:
    """A sub-job keeping only ``indices`` of ``parsed`` (submit ``points``).

    This is the wire form of partial-stream resume: a reconnecting client
    resubmits the *same job object* plus the original point indices it is
    still missing, and the server schedules only those.  The selected
    points stream as indices ``0..n-1`` in selection order; mapping them
    back to original positions is the caller's job (the client keeps its
    ``missing`` list, the journal replay keeps the record's
    ``remaining()``).  Because selection happens *after* ``parse_job``,
    each selected point keeps the exact spec — and therefore the exact
    fingerprint — it has in the full job, which is what makes a resumed
    stream bit-identical to an uninterrupted one.

    Raises :class:`ServeError` unless ``indices`` is a non-empty,
    strictly increasing list of unique in-range integers.
    """
    if not isinstance(indices, list) or not indices:
        raise ServeError("points must be a non-empty list of point indices")
    for index in indices:
        if isinstance(index, bool) or not isinstance(index, int):
            raise ServeError(f"point indices must be integers, got {index!r}")
        if not 0 <= index < len(parsed.points):
            raise ServeError(
                f"point index {index} out of range for a "
                f"{len(parsed.points)}-point job"
            )
    if list(indices) != sorted(set(indices)):
        raise ServeError("point indices must be strictly increasing and unique")
    return ParsedJob(
        kind=parsed.kind,
        points=tuple(parsed.points[index] for index in indices),
    )


def job_summary(parsed: ParsedJob) -> "dict[str, Any]":
    """Loggable description of a parsed job (no large payloads)."""
    return {
        "kind": parsed.kind,
        "points": len(parsed.points),
        "first": dataclasses.asdict(parsed.points[0]),
    }
