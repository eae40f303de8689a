"""Robustness harness: impairment-severity sweeps -> degradation curves.

Runs full integrated ISAC frames (downlink + uplink + localization) at a
ladder of impairment severities and aggregates, per severity point:

* downlink / uplink BER (erased frames scored as bit errors),
* frame-erasure rate (fraction of frames with at least one recorded
  :class:`repro.core.isac.FrameErasure`),
* median absolute ranging error over the frames that localized,
* IF-correction fallback rate (low-confidence chirps substituted).

Determinism follows the executor contract: severity point ``p`` seeds an
independent :class:`~repro.utils.rng.SeedSpec` child, frame ``i`` inside
it draws from ``spec.stream(i)``, and a fresh session is used per frame —
no state crosses frame boundaries, so curves are bit-exact for any worker
count or chunking.  Each severity point runs through the engine driver
(:func:`repro.sim.engine.run_point`); with ``store=`` it is cached under a
fingerprint of (scenario, impairments, severity, frames, seed), so
re-running a sweep with one new severity recomputes only that point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import obs
from repro.core.ber import random_bits
from repro.errors import SimulationError
from repro.impair.spec import ImpairmentSpec
from repro.obs import runtime as _obs_runtime
from repro.sim.engine import Workload, _leading_counts, _replay_point, point_work_unit, run_point
from repro.sim.executor import ExecutionPlan
from repro.sim.results import format_table
from repro.sim.scenario import Scenario
from repro.utils.rng import SeedSpec
from repro.utils.validation import ensure_positive


@dataclass
class RobustnessConfig:
    """Configuration for one degradation-curve sweep.

    Parameters
    ----------
    scenario:
        The geometry/link under test (radar, alphabet, tag, clutter).
    impairments:
        The fault bundle; each severity point applies
        ``impairments.at_severity(s)``, so members' configured severities
        act as relative weights.
    severities:
        The sweep ladder (values in [0, 1], typically starting at 0 so
        the curve anchors at the unimpaired baseline).
    num_frames:
        Monte-Carlo frames per severity point.
    downlink_bits / uplink_bits:
        Payload sizing per frame.
    if_confidence_threshold:
        Confidence gate for the last-good IF fallback (None = off).
    """

    scenario: Scenario
    impairments: ImpairmentSpec
    severities: "tuple[float, ...]" = (0.0, 0.25, 0.5, 0.75, 1.0)
    num_frames: int = 10
    downlink_bits: int = 10
    uplink_bits: int = 4
    if_confidence_threshold: float | None = None


@dataclass
class DegradationCurve:
    """One metric bundle per severity point, plus rendering helpers."""

    severities: "list[float]" = field(default_factory=list)
    downlink_ber: "list[float]" = field(default_factory=list)
    uplink_ber: "list[float]" = field(default_factory=list)
    erasure_rate: "list[float]" = field(default_factory=list)
    median_ranging_error_m: "list[float]" = field(default_factory=list)
    if_fallback_rate: "list[float]" = field(default_factory=list)
    localization_rate: "list[float]" = field(default_factory=list)

    def add(self, severity: float, metrics: "dict") -> None:
        """Append one severity point's metrics dict."""
        self.severities.append(float(severity))
        for name in ("downlink_ber", "uplink_ber", "erasure_rate",
                     "median_ranging_error_m", "if_fallback_rate"):
            getattr(self, name).append(metrics[name])
        # Records and servers that predate the metric: NaN = not recorded.
        self.localization_rate.append(metrics.get("localization_rate", float("nan")))

    def rows(self) -> "list[list[str]]":
        """Table rows for :func:`repro.sim.results.format_table`."""
        out = []
        for i, severity in enumerate(self.severities):
            ranging = self.median_ranging_error_m[i]
            # Curves loaded from pre-localization_rate cache records carry
            # NaN here; render it as unknown rather than 0%.
            localized = (
                self.localization_rate[i]
                if i < len(self.localization_rate)
                else float("nan")
            )
            out.append(
                [
                    f"{severity:.2f}",
                    f"{self.downlink_ber[i]:.3e}",
                    f"{self.uplink_ber[i]:.3e}",
                    f"{self.erasure_rate[i]:.2f}",
                    f"{ranging * 100:.2f}" if np.isfinite(ranging) else "-",
                    f"{localized:.2f}" if np.isfinite(localized) else "-",
                    f"{self.if_fallback_rate[i]:.2f}",
                ]
            )
        return out

    def to_markdown(self) -> str:
        """The degradation table (severity vs every metric)."""
        return format_table(
            [
                "severity",
                "DL BER",
                "UL BER",
                "erasures",
                "rng err (cm)",
                "localized",
                "IF fallback",
            ],
            self.rows(),
        )


def _robustness_chunk(payload, spec: SeedSpec, indices) -> "list[tuple]":
    """One chunk of ISAC frames at a fixed severity.

    Returns per-frame tuples of
    ``(dl_errors, dl_bits, ul_errors, ul_bits, erased, ranging_error_m,
    fallback_chirps, total_chirps)``.  A fresh session per frame keeps
    frames independent, which is what makes the sweep bit-exact across
    worker counts.
    """
    (scenario, impairments, severity, downlink_bits, uplink_bits,
     if_confidence_threshold) = payload
    scaled = impairments.at_severity(severity)
    results = []
    for index in indices:
        stream = spec.stream(index)
        session = scenario.session(
            impairments=scaled,
            if_confidence_threshold=if_confidence_threshold,
        )
        downlink = random_bits(downlink_bits, rng=stream)
        uplink = random_bits(uplink_bits, rng=stream)
        result = session.run_frame(downlink, uplink, rng=stream, frame_index=index)
        ranging = (
            abs(result.localization.range_m - scenario.tag_range_m)
            if result.localization is not None
            else float("nan")
        )
        results.append(
            (
                int(result.downlink_bit_errors),
                int(result.downlink_bits_sent.size),
                int(result.uplink_bit_errors),
                int(result.uplink_bits_sent.size),
                int(bool(result.erasures)),
                float(ranging),
                len(result.if_fallback_chirps),
                len(result.frame),
            )
        )
    if _obs_runtime._enabled:
        obs.inc("robustness.frames", len(results))
        obs.inc("impair.frames.erased", sum(r[4] for r in results))
    return results


def _point_reduce(_point, per_frame: "list[tuple]", trajectory) -> "tuple[dict, None]":
    """The severity point's metrics dict, which is also its stored payload."""
    dl_errors = sum(r[0] for r in per_frame)
    dl_bits = sum(r[1] for r in per_frame)
    ul_errors = sum(r[2] for r in per_frame)
    ul_bits = sum(r[3] for r in per_frame)
    erased = sum(r[4] for r in per_frame)
    rangings = [r[5] for r in per_frame if np.isfinite(r[5])]
    fallbacks = sum(r[6] for r in per_frame)
    chirps = sum(r[7] for r in per_frame)
    metrics = {
        "downlink_ber": dl_errors / dl_bits if dl_bits else 0.0,
        "uplink_ber": ul_errors / ul_bits if ul_bits else 0.0,
        "erasure_rate": erased / len(per_frame),
        "median_ranging_error_m": (
            float(np.median(rangings)) if rangings else float("nan")
        ),
        "if_fallback_rate": fallbacks / chirps if chirps else 0.0,
        # The median above is taken over localized frames only, so an
        # all-NaN point and a mostly-NaN point would otherwise be
        # indistinguishable — the rate says how much of the sample the
        # median actually covers.
        "localization_rate": len(rangings) / len(per_frame),
    }
    if trajectory is not None:
        metrics["adaptive"] = trajectory
    return metrics, None


def run_robustness_sweep(
    config: RobustnessConfig,
    *,
    rng: "int | np.random.Generator | None" = 0,
    execution: ExecutionPlan | None = None,
    store=None,
    on_point=None,
    adaptive=None,
) -> DegradationCurve:
    """Sweep impairment severity and return the degradation curve.

    Severity point ``p`` runs ``config.num_frames`` independent ISAC
    frames under ``config.impairments.at_severity(severities[p])``; each
    point fans out over ``execution`` and caches through ``store``
    independently (incremental sweeps recompute only new points).

    ``on_point`` streams incremental completion: it is called with
    ``(point_index, severity, metrics_dict)`` as each severity point
    finishes (ladder order), exactly once per point, before the next
    point starts.  The returned curve is unchanged by the hook; the serve
    subsystem uses it to push partial degradation curves to subscribers.

    ``adaptive`` (an :class:`repro.sim.adaptive.AdaptiveConfig`) switches
    every severity point to CI-driven sequential stopping on its
    *downlink* BER: ``config.num_frames`` is ignored and each point runs
    index-keyed rounds until the interval is tight enough or
    ``adaptive.max_frames`` frames ran.  Frame seeds are unchanged, and
    the stopping rule joins each point's store fingerprint.
    """
    if not config.severities:
        raise SimulationError("severities must be non-empty")
    root = SeedSpec.from_rng(rng)
    for point_index, severity in enumerate(config.severities):
        # Reject a bad ladder before its first point runs.
        point_work_unit(ROBUSTNESS_POINT, (config, severity, root.child(point_index)))

    curve = DegradationCurve()
    for point_index, severity in enumerate(config.severities):
        spec = root.child(point_index)
        metrics = run_robustness_point(
            config, severity, spec, execution=execution, store=store, adaptive=adaptive
        )
        if on_point is not None:
            on_point(point_index, float(severity), dict(metrics))
        curve.add(severity, metrics)
        if _obs_runtime._enabled:
            obs.log(
                "robustness.point.done",
                severity=severity,
                downlink_ber=metrics["downlink_ber"],
                erasure_rate=metrics["erasure_rate"],
            )
    return curve


def _point_plan(point) -> "tuple[dict, tuple, int]":
    config, severity, spec = point
    if not 0.0 <= severity <= 1.0:
        raise SimulationError(f"severities must be in [0, 1], got {severity}")
    ensure_positive("downlink_bits", config.downlink_bits)
    ensure_positive("uplink_bits", config.uplink_bits)
    unit = {
        "scenario": config.scenario,
        "impairments": config.impairments,
        "severity": float(severity),
        "num_frames": int(config.num_frames),
        "downlink_bits": int(config.downlink_bits),
        "uplink_bits": int(config.uplink_bits),
        "if_confidence_threshold": config.if_confidence_threshold,
        "seed": spec,
    }
    payload = (
        config.scenario, config.impairments, severity,
        config.downlink_bits, config.uplink_bits,
        config.if_confidence_threshold,
    )
    return unit, payload, config.num_frames


def _point_decode(payload, _arrays) -> "dict":
    metrics = dict(payload)
    # Records written before the metric existed stay loadable; NaN
    # marks "not recorded" (vs a real 0.0 = never localized).
    metrics.setdefault("localization_rate", float("nan"))
    return metrics


#: One severity point.  The adaptive stopping statistic is the downlink
#: BER — the metric the degradation curve resolves error floors on.
ROBUSTNESS_POINT = Workload(
    kind="robustness-point",
    span="robustness.point",
    replay="repro.sim.robustness:_replay_robustness_point",
    chunk=_robustness_chunk,
    plan=_point_plan,
    reduce=_point_reduce,
    decode=_point_decode,
    adaptive_kind="robustness-point",
    counts=_leading_counts,
    span_args=("severity",),
)

#: ``repro cache verify`` hooks; the entry strings are stored in caches.
_replay_robustness_point = partial(_replay_point, ROBUSTNESS_POINT)
_replay_robustness_point_adaptive = partial(_replay_point, ROBUSTNESS_POINT, adaptive=True)


def robustness_point_work_unit(
    config: RobustnessConfig, severity: float, spec: SeedSpec, adaptive=None
) -> "dict":
    """The canonical work unit one severity point is fingerprinted over.

    Public so other layers (the serve scheduler's in-flight dedup) can
    derive the exact key :func:`run_robustness_point` stores the result
    under.  The ``adaptive`` stopping rule joins the unit only when set,
    so every fixed-budget fingerprint (and the warm caches built on
    them) is untouched.
    """
    return point_work_unit(ROBUSTNESS_POINT, (config, severity, spec), adaptive)[1]


def run_robustness_point(
    config: RobustnessConfig,
    severity: float,
    spec: SeedSpec,
    *,
    execution: "ExecutionPlan | None" = None,
    store=None,
    adaptive=None,
) -> "dict":
    """Compute one severity point's metrics dict.

    ``run_robustness_sweep`` computes point ``p`` as exactly
    ``run_robustness_point(config, severities[p], root.child(p))`` — this
    public form lets a job server schedule, dedup, and stream severity
    points individually while staying bit-identical to the batch sweep.
    """
    return run_point(
        ROBUSTNESS_POINT, (config, severity, spec),
        adaptive=adaptive, execution=execution, store=store,
    )
