"""Monte-Carlo engines behind the evaluation benches, and their one driver.

Three workhorses:

* :func:`run_downlink_trials` — downlink BER at a distance or pinned SNR
  (Figs. 12-14, 17).
* :func:`run_uplink_snr_measurement` — uplink signature SNR vs distance
  (Fig. 15).
* :func:`run_localization_trials` — ranging error with fixed or varying
  slopes (Fig. 16).

Each builds a *point* — the tuple of everything one run depends on, root
:class:`~repro.utils.rng.SeedSpec` last, which doubles as the replay
payload — and calls :func:`run_point`, the one driver of every
Monte-Carlo workload (the robustness ladder's points included).  A
:class:`Workload` describes a workload once; the driver alone validates
the trial count, fingerprints the point, probes and fills the store,
chooses between :func:`~repro.sim.executor.map_trials` and adaptive
rounds, opens the engine span and writes the replay recipe ``repro
cache verify`` recomputes from.  Serve point specs fingerprint and
compute through it too, so served and batch runs share one code path.

Trial ``i``'s generator is index-keyed off the root seed
(``SeedSpec.stream(i)``) and per-trial results are reduced in trial
order, so results are bit-identical for any worker count — the contract
``tests/unit/test_executor.py`` enforces.  The plan's fault knobs
(``max_retries``, ``chunk_timeout_s``, ``on_failure``) apply unchanged:
a worker crash mid-run is retried bit-identically, and only retry
exhaustion surfaces as :class:`repro.errors.ExecutorError` with the
failing trial indices.  The trial bodies live in module-level
``_*_chunk`` functions so they can be pickled to worker processes; each
chunk rebuilds its (deterministic) DSP objects once, amortising setup
over the chunk's trials.  The downlink chunk has one implementation: it
synthesizes and decodes its frames as stacked arrays.  The per-frame
reference it must match bit for bit lives in the test suite.

With ``store=`` a valid cache entry is returned without computing
anything; determinism makes the hit provably identical to the recompute.
Work units the fingerprinter cannot pin down simply run uncached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro import obs
from repro.channel.link_budget import DownlinkBudget
from repro.channel.multipath import Clutter
from repro.core.ber import ErrorCounter, random_bits
from repro.core.cssk import CsskAlphabet
from repro.core.downlink import DownlinkEncoder
from repro.core.localization import TagLocalizer
from repro.core.packet import DownlinkPacket, PacketFields
from repro.core.uplink import UplinkDecoder
from repro.errors import SimulationError, StoreError, SyncError
from repro.impair.spec import ImpairmentSpec
from repro.obs import runtime as _obs_runtime
from repro.radar.config import RadarConfig
from repro.radar.fmcw import FMCWRadar, Scatterer
from repro.tag.decoder_dsp import TagDecoder
from repro.tag.frontend import AnalyticTagFrontend
from repro.tag.modulator import UplinkModulator
from repro.components.van_atta import VanAttaArray
from repro.sim.adaptive import run_adaptive_trials
from repro.sim.executor import ExecutionPlan, _is_picklable, map_trials
from repro.sim.results import BerPoint
from repro.utils.rng import SeedSpec
from repro.utils.validation import ensure_positive


def _plain(value):
    """Numpy scalar -> Python scalar (JSON-safe cache payloads)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


@dataclass(frozen=True)
class Workload:
    """What :func:`run_point` needs to know about one Monte-Carlo workload.

    One module constant per workload, next to its chunk; not a knob.
    ``plan(point) -> (work unit, chunk payload, trial count)`` raises the
    workload's domain errors before anything is fingerprinted;
    ``reduce(point, per_trial, trajectory) -> (JSON payload, arrays or
    None)`` is what the store keeps; ``decode(payload, arrays)`` is the
    engine's return value, for a hit and a fresh run alike.  ``replay``
    recomputes a fixed-budget point; an adaptive one's entry appends
    ``_adaptive`` and its payload appends the stopping rule.  Workloads
    with an ``adaptive_kind`` feed ``counts`` (per-trial ``(bit_errors,
    bits)``) to the stopping rule.  ``span_args`` names work-unit fields
    the span records besides the trial budget.
    """

    kind: str
    span: str
    replay: str
    chunk: Callable
    plan: Callable
    reduce: Callable
    decode: Callable
    adaptive_kind: "str | None" = None
    counts: "Callable | None" = None
    span_args: "tuple[str, ...]" = ()


def _leading_counts(result) -> "tuple[int, int]":
    """``(bit_errors, bits)``: the first two fields of a per-trial tuple."""
    return result[0], result[1]


def _point_unit(workload: Workload, point: tuple, adaptive) -> "tuple[str, dict, object, int]":
    """``(kind, work unit, chunk payload, trial count)`` of a validated point."""
    if adaptive is not None and workload.adaptive_kind is None:
        raise SimulationError(f"{workload.kind} has no adaptive form")
    unit, payload, num_trials = workload.plan(point)
    if num_trials < 1:
        raise SimulationError(f"{workload.kind} needs >= 1 trial, got {num_trials}")
    if adaptive is None:
        return workload.kind, unit, payload, num_trials
    return workload.adaptive_kind, {**unit, "adaptive": adaptive}, payload, num_trials


def point_work_unit(workload: Workload, point: tuple, adaptive=None) -> "tuple[str, dict]":
    """The ``(kind, work_unit)`` a point's result is stored under.

    Shared with the serve protocol so streamed jobs hit exactly the
    entries batch runs write.  The adaptive stopping rule decides how
    many trials exist, so it joins the unit; fixed-budget units (and the
    caches built on them) never carry it.
    """
    kind, unit, _payload, _num_trials = _point_unit(workload, point, adaptive)
    return kind, unit


def _point_record(workload: Workload, point: tuple, adaptive, execution, store):
    """``(payload, arrays)`` of one point: from the store, else computed."""
    from repro.store.cache import ReplayRecipe
    from repro.store.fingerprint import fingerprint

    kind, unit, payload, num_trials = _point_unit(workload, point, adaptive)
    work_fingerprint = None
    if store is not None:
        try:
            work_fingerprint = fingerprint(kind, unit)
        except StoreError:
            pass  # not canonically fingerprintable: run uncached
        else:
            record = store.get(work_fingerprint)
            if record is not None:
                if "arrays_sha256" not in record:
                    return record["payload"], None
                arrays = store.load_arrays(work_fingerprint)
                if arrays is not None:
                    return record["payload"], arrays

    spec = point[-1]
    span_args = {name: unit[name] for name in workload.span_args}
    trajectory = None
    if adaptive is None:
        with obs.span(workload.span, frames=num_trials, **span_args):
            per_trial, _report = map_trials(
                workload.chunk, payload, num_trials, spec, execution
            )
    else:
        with obs.span(
            workload.span, max_frames=adaptive.max_frames, adaptive=True, **span_args
        ):
            outcome = run_adaptive_trials(
                workload.chunk, payload, adaptive, spec, execution,
                counts=workload.counts,
            )
        per_trial, trajectory = outcome.per_trial, outcome.summary()
    record_payload, arrays = workload.reduce(point, per_trial, trajectory)
    if work_fingerprint is not None:
        if adaptive is None:
            entry, replay_payload = workload.replay, point
        else:
            entry, replay_payload = workload.replay + "_adaptive", point + (adaptive,)
        replay = (
            ReplayRecipe(entry=entry, payload=replay_payload)
            if _is_picklable(replay_payload)
            else None
        )
        store.put(work_fingerprint, kind, record_payload, arrays=arrays, replay=replay)
    return record_payload, arrays


def run_point(
    workload: Workload,
    point: tuple,
    *,
    adaptive=None,
    execution: "ExecutionPlan | None" = None,
    store=None,
):
    """Run one Monte-Carlo point of ``workload``: the one engine driver.

    ``point`` holds everything the result depends on, root
    :class:`~repro.utils.rng.SeedSpec` last.  With ``store`` a valid
    entry under the point's fingerprint short-circuits the run; a fresh
    result is stored with a replay recipe.  ``adaptive`` (an
    :class:`repro.sim.adaptive.AdaptiveConfig`, adaptive-capable
    workloads only) runs index-keyed rounds until the CI rule stops,
    with trial seeds unchanged.  A hit and a fresh run decode through
    the same step, so they return equal values.
    """
    return workload.decode(*_point_record(workload, point, adaptive, execution, store))


def _replay_point(workload: Workload, replay_payload: tuple, adaptive: bool = False) -> "dict":
    """Recompute a stored point's payload from its replay recipe payload."""
    rule = None
    if adaptive:
        replay_payload, rule = replay_payload[:-1], replay_payload[-1]
    return _point_record(workload, replay_payload, rule, None, None)[0]


def _ber_point_from_payload(payload: "dict") -> "BerPoint":
    return BerPoint(
        parameter=float(payload["parameter"]),
        ber=float(payload["ber"]),
        bits_total=int(payload["bits_total"]),
        bit_errors=int(payload["bit_errors"]),
        extra=dict(payload["extra"]),
    )


@dataclass
class DownlinkTrialConfig:
    """Configuration for a downlink BER Monte-Carlo run.

    Parameters
    ----------
    radar_config / alphabet:
        The link configuration under test.
    distance_m:
        Radar-tag separation (sets SNR via the budget) — or use
        ``snr_override_db`` to pin video SNR directly.
    num_frames / payload_symbols_per_frame:
        Monte-Carlo sizing; total bits = frames x symbols x bits/symbol.
    full_sync:
        True exercises period estimation + sync search every frame
        (over-the-air realism); False uses genie alignment to isolate
        symbol-level BER (faster, used for wide sweeps).
    budget:
        Downlink link budget; None builds one from the radar config.
    impairments:
        Optional :class:`repro.impair.ImpairmentSpec` injected into every
        frame's tag capture (clock drift also skews the decoder grid).
        None or an all-zero-severity spec is bit-identical to the
        unimpaired engine.
    """

    radar_config: RadarConfig
    alphabet: CsskAlphabet
    distance_m: float = 2.0
    snr_override_db: float | None = None
    num_frames: int = 100
    payload_symbols_per_frame: int = 16
    full_sync: bool = False
    fields: PacketFields = field(default_factory=PacketFields)
    budget: DownlinkBudget | None = None
    clutter: Clutter | None = None
    impairments: ImpairmentSpec | None = None

    def resolved_budget(self) -> DownlinkBudget:
        """The link budget in effect."""
        if self.budget is not None:
            return self.budget
        return DownlinkBudget(
            tx_power_dbm=self.radar_config.tx_power_dbm,
            radar_antenna=self.radar_config.antenna,
            frequency_hz=self.radar_config.center_frequency_hz,
        )


def ber_trial_config(
    *,
    distance_m: float,
    snr_db: "float | None",
    symbol_bits: int,
    bandwidth_ghz: float,
    delta_l_inches: float,
    frames: int,
    payload_symbols: int,
    full_sync: bool,
    impair: "str | None",
) -> DownlinkTrialConfig:
    """The X-band downlink config behind ``repro ber`` and a served ``ber`` point.

    One builder for both front ends, so a CLI run and a served point
    with the same knobs fingerprint to the same store entry.  Raises the
    alphabet-design, configuration and impairment-parse errors as they
    are; each front end reports them its own way.
    """
    from repro.core.cssk import DecoderDesign
    from repro.radar.config import XBAND_9GHZ

    alphabet = CsskAlphabet.design(
        bandwidth_hz=bandwidth_ghz * 1e9,
        decoder=DecoderDesign.from_inches(delta_l_inches),
        symbol_bits=symbol_bits,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )
    return DownlinkTrialConfig(
        radar_config=XBAND_9GHZ.with_bandwidth(bandwidth_ghz * 1e9),
        alphabet=alphabet,
        distance_m=distance_m,
        snr_override_db=snr_db,
        num_frames=frames,
        payload_symbols_per_frame=payload_symbols,
        full_sync=full_sync,
        impairments=ImpairmentSpec.parse(impair) if impair else None,
    )


def _effective_snr_override(config: DownlinkTrialConfig) -> "float | None":
    """The SNR override in effect after any clutter penalty."""
    snr_override = config.snr_override_db
    if snr_override is not None and config.clutter is not None:
        # Multipath smears the beat tone; charge the penalty against SNR.
        mid_slope = config.alphabet.bandwidth_hz / (
            0.5 * (config.alphabet.header_duration_s + config.alphabet.sync_duration_s)
        )
        snr_override = snr_override - config.clutter.downlink_snr_penalty_db(
            mid_slope, config.alphabet.beat_spacing_hz
        )
    return snr_override


class _DownlinkBatchLayout:
    """Precomputed per-sweep-point geometry for the batched downlink path.

    Everything the encoder derives object-by-object — slot start
    times, per-symbol chirp durations and slopes, the Gray bit->symbol map
    — is tabulated once per chunk so synthesizing a whole chunk of frames
    never touches ``DownlinkPacket`` / ``FrameSchedule`` / per-slot Python
    loops.  Every table entry is produced by the *same* float expressions
    the object path evaluates (``bandwidth / duration`` for slopes,
    ``index * period`` for starts, ``gray_decode(packed bits)`` for
    symbols), which keeps layout-based synthesis bit-identical to the encoder's.
    """

    def __init__(self, config: DownlinkTrialConfig) -> None:
        from repro.core.cssk import gray_decode

        alphabet = config.alphabet
        self.alphabet = alphabet
        self.num_payload = config.payload_symbols_per_frame
        fields = config.fields
        self.header_repeats = fields.header_repeats
        self.sync_repeats = fields.sync_repeats
        self.num_slots = fields.preamble_length + self.num_payload
        period = alphabet.chirp_period_s
        self.start_times_s = np.array(
            [index * period for index in range(self.num_slots)]
        )
        # FrameSchedule.duration_s is the last slot's end time: its start
        # (index * period) plus one period — replicate that float exactly.
        self.duration_s = (self.num_slots - 1) * period + period
        bandwidth = alphabet.bandwidth_hz
        self.header_duration_s = alphabet.header_duration_s
        self.sync_duration_s = alphabet.sync_duration_s
        self.header_slope = bandwidth / self.header_duration_s
        self.sync_slope = bandwidth / self.sync_duration_s
        self.data_durations = np.array(
            [alphabet.data_symbol_duration_s(s) for s in range(alphabet.num_data_symbols)]
        )
        self.data_slopes = np.array(
            [bandwidth / alphabet.data_symbol_duration_s(s)
             for s in range(alphabet.num_data_symbols)]
        )
        width = alphabet.symbol_bits
        self.bit_weights = 1 << np.arange(width - 1, -1, -1)
        self.symbol_of_code = np.array(
            [gray_decode(code) for code in range(2**width)], dtype=int
        )

    def payload_symbols(self, payloads: "list[np.ndarray]") -> np.ndarray:
        """(batch, num_payload) Gray-decoded symbol indices.

        ``symbol_for_bits`` packs MSB-first then Gray-decodes; the integer
        dot product with ``bit_weights`` is the same packing, exactly.
        """
        bits = np.stack(payloads).astype(np.int64)
        codes = bits.reshape(len(payloads), self.num_payload, -1) @ self.bit_weights
        return self.symbol_of_code[codes]

    def slot_tables(self, symbols: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Per-slot (durations, slopes), shape (batch, num_slots)."""
        batch = symbols.shape[0]
        durations = np.empty((batch, self.num_slots))
        slopes = np.empty((batch, self.num_slots))
        durations[:, : self.header_repeats] = self.header_duration_s
        slopes[:, : self.header_repeats] = self.header_slope
        preamble = self.header_repeats + self.sync_repeats
        durations[:, self.header_repeats : preamble] = self.sync_duration_s
        slopes[:, self.header_repeats : preamble] = self.sync_slope
        durations[:, preamble:] = self.data_durations[symbols]
        slopes[:, preamble:] = self.data_slopes[symbols]
        return durations, slopes


def _downlink_chunk(
    config: DownlinkTrialConfig, spec: SeedSpec, indices
) -> "list[tuple[int, int, int]]":
    """One chunk of downlink frames -> (bit_errors, bits, sync_failed) per trial.

    The chunk's frames are synthesized and decoded as stacked
    ``(frames, samples)`` array ops (see
    :func:`repro.tag.frontend._synthesize_batch` and
    :meth:`repro.tag.decoder_dsp.TagDecoder.decode_aligned_batch`).  Each
    trial draws its payload, then its capture noise, then any impairment
    from its own index-keyed stream, so a trial's tuple does not depend
    on which chunk it lands in.  Two stages stay per frame: active
    impairments synthesize each frame through the encoder (injection
    needs per-capture slot metadata and its own RNG draws), and
    ``full_sync`` decodes each capture on its own (period estimation and
    preamble search are sequential).  The per-frame reference this chunk
    is checked against lives in the test suite.
    """
    budget = config.resolved_budget()
    # Platform-limit validation: every configuration the encoder rejects
    # is rejected here too, whichever synthesis route the chunk takes.
    encoder = DownlinkEncoder(radar_config=config.radar_config, alphabet=config.alphabet)
    impair = config.impairments if (
        config.impairments is not None and config.impairments.active
    ) else None
    clock_offset_ppm = impair.clock_offset_ppm() if impair is not None else 0.0
    decoder = TagDecoder(
        config.alphabet, fields=config.fields, clock_offset_ppm=clock_offset_ppm
    )
    frontend = AnalyticTagFrontend(
        budget=budget, delta_t_s=config.alphabet.decoder.delta_t_s
    )
    snr_override = _effective_snr_override(config)
    bits_per_frame = config.payload_symbols_per_frame * config.alphabet.symbol_bits
    streams = [spec.stream(index) for index in indices]
    payloads = [random_bits(bits_per_frame, rng=stream) for stream in streams]

    if impair is not None:
        captures = []
        for payload, stream in zip(payloads, streams):
            packet = DownlinkPacket.from_bits(config.alphabet, payload, fields=config.fields)
            frame = encoder.encode_packet(packet)
            capture = frontend.capture(
                frame, config.distance_m, rng=stream, snr_override_db=snr_override
            )
            captures.append(impair.apply_to_capture(capture, rng=stream))
    else:
        from repro.tag.frontend import TagCapture, _synthesize_batch

        layout = _DownlinkBatchLayout(config)
        fs = budget.adc.sample_rate_hz
        total_samples = int(round(layout.duration_s * fs))
        if total_samples < 2:
            raise SimulationError("frame too short for the tag ADC rate")
        ensure_positive("distance_m", config.distance_m)
        symbols = layout.payload_symbols(payloads)
        durations, slopes = layout.slot_tables(symbols)
        with obs.span("engine.downlink.batch.synthesize", frames=len(streams)):
            block = _synthesize_batch(
                frontend,
                fs=fs,
                total_samples=total_samples,
                distance_m=config.distance_m,
                generators=streams,
                start_samples=np.round(layout.start_times_s * fs).astype(int),
                start_times_s=layout.start_times_s,
                durations_s=durations,
                slopes_hz_per_s=slopes,
                absorptive=np.ones(layout.num_slots, dtype=bool),
                off_boresight_deg=0.0,
                snr_override_db=snr_override,
                wrap_fractions=None,
            )
        captures = [
            TagCapture(samples=block[row], sample_rate_hz=fs)
            for row in range(len(streams))
        ]

    results = []
    if config.full_sync:
        # OTA sync: period estimation and preamble search run per capture.
        # decode() draws no RNG, so every stream is fully consumed already.
        with obs.span("engine.downlink.batch.decode_full_sync", frames=len(captures)):
            for payload, capture in zip(payloads, captures):
                counter = ErrorCounter()
                sync_failed = 0
                try:
                    decoded = decoder.decode(
                        capture, num_payload_symbols=config.payload_symbols_per_frame
                    )
                    counter.update(payload, decoded.bits)
                except SyncError:
                    sync_failed = 1
                    counter.update(payload, np.empty(0, dtype=np.uint8))
                results.append((counter.bit_errors, counter.bits_total, sync_failed))
    else:
        with obs.span("engine.downlink.batch.decode", frames=len(captures)):
            decoded = decoder.decode_aligned_batch(
                captures, num_payload_symbols=config.payload_symbols_per_frame
            )
        for payload, packet in zip(payloads, decoded):
            counter = ErrorCounter()
            counter.update(payload, packet.bits)
            # Genie alignment never loses sync.
            results.append((counter.bit_errors, counter.bits_total, 0))
    if _obs_runtime._enabled:
        # Incremented inside the (possibly worker) process; the executor
        # serializes the registry delta back with the chunk results.
        obs.inc("engine.downlink.trials", len(results))
        obs.inc("engine.downlink.sync_failures", sum(r[2] for r in results))
    return results


def _downlink_plan(point) -> "tuple[dict, DownlinkTrialConfig, int]":
    config, spec = point
    if config.payload_symbols_per_frame < 1:
        raise SimulationError("payload_symbols_per_frame must be >= 1")
    ensure_positive("distance_m", config.distance_m)
    return {"config": config, "seed": spec}, config, config.num_frames


def _downlink_reduce(point, per_trial, trajectory) -> "tuple[dict, None]":
    config, _spec = point
    counter = ErrorCounter()
    sync_failures = 0
    for bit_errors, bits_total, sync_failed in per_trial:
        counter.bit_errors += bit_errors
        counter.bits_total += bits_total
        sync_failures += sync_failed
    parameter = (
        config.snr_override_db if config.snr_override_db is not None else config.distance_m
    )
    extra = {
        "sync_failures": sync_failures,
        "symbol_bits": config.alphabet.symbol_bits,
        "bandwidth_hz": config.alphabet.bandwidth_hz,
        "video_snr_db": config.resolved_budget().video_snr_db(config.distance_m),
    }
    if trajectory is not None:
        extra["adaptive"] = trajectory
    if _obs_runtime._enabled:
        obs.log(
            "engine.downlink.done",
            frames=len(per_trial),
            ber=counter.ber,
            sync_failures=sync_failures,
        )
    payload = {
        "parameter": float(parameter),
        "ber": float(counter.ber),
        "bits_total": int(counter.bits_total),
        "bit_errors": int(counter.bit_errors),
        "extra": {key: _plain(value) for key, value in extra.items()},
    }
    return payload, None


DOWNLINK = Workload(
    kind="downlink-trials",
    span="engine.downlink",
    replay="repro.sim.engine:_replay_downlink_trials",
    chunk=_downlink_chunk,
    plan=_downlink_plan,
    reduce=_downlink_reduce,
    decode=lambda payload, _arrays: _ber_point_from_payload(payload),
    adaptive_kind="downlink-trials-adaptive",
    counts=_leading_counts,
)

#: ``repro cache verify`` hooks; the entry strings are stored in caches.
_replay_downlink_trials = partial(_replay_point, DOWNLINK)
_replay_downlink_trials_adaptive = partial(_replay_point, DOWNLINK, adaptive=True)


def downlink_trials_work_unit(
    config: DownlinkTrialConfig, spec: SeedSpec, adaptive=None
) -> "tuple[str, dict]":
    """The ``(kind, work_unit)`` a downlink run is fingerprinted under.

    Adaptive runs live under a distinct kind with the stopping rule
    folded into the unit, so they never collide with fixed-budget ones.
    """
    return point_work_unit(DOWNLINK, (config, spec), adaptive)


def run_downlink_trials(
    config: DownlinkTrialConfig,
    *,
    rng: int | np.random.Generator | None = 0,
    execution: ExecutionPlan | None = None,
    store=None,
    adaptive=None,
) -> BerPoint:
    """Monte-Carlo downlink BER for one operating point.

    ``store`` caches the aggregated :class:`BerPoint` under a fingerprint
    of (config, root seed, trial count); a valid entry short-circuits the
    whole Monte-Carlo run, bit-identically.

    ``adaptive`` (an :class:`repro.sim.adaptive.AdaptiveConfig`) switches
    to CI-driven sequential stopping: ``config.num_frames`` is ignored
    and trials run in index-keyed rounds until the BER interval is tight
    enough or ``adaptive.max_frames`` is hit.  Trial seeds are identical
    to a fixed-budget run's, so a degenerate rule
    (``target_rel_width=0``) reproduces ``num_frames=max_frames``
    bit for bit; the stopping rule joins the store fingerprint.
    """
    point = (config, SeedSpec.from_rng(rng))
    return run_point(DOWNLINK, point, adaptive=adaptive, execution=execution, store=store)


def _sensing_scatterers(van_atta, frequency, tag_range_m, schedule, clutter):
    """The modulating tag (beacon ``schedule``) followed by the clutter."""
    env = clutter or Clutter()
    return [
        Scatterer(
            range_m=tag_range_m,
            rcs_m2=van_atta.rcs_m2(frequency),
            amplitude_schedule=schedule,
        )
    ] + [
        Scatterer(range_m=r.range_m, rcs_m2=r.rcs_m2, angle_deg=r.angle_deg)
        for r in env.reflectors
    ]


def _uplink_chunk(payload, spec: SeedSpec, indices) -> "list[float]":
    """One chunk of uplink SNR trials -> signature SNR (dB) per trial."""
    (radar_config, modulator, van_atta, tag_range_m, num_chirps,
     chirp_duration_s, clutter) = payload
    from repro.waveform.frame import FrameSchedule

    chirp = radar_config.chirp(chirp_duration_s)
    frame = FrameSchedule.from_chirps(
        [chirp] * num_chirps, modulator.chirp_period_s
    )
    times = np.array([slot.start_time_s for slot in frame.slots])
    states = modulator.beacon_states(times)
    frequency = radar_config.center_frequency_hz
    on_rcs, off_rcs = van_atta.modulated_rcs_amplitudes(frequency)
    schedule = np.where(states, 1.0, float(np.sqrt(off_rcs / on_rcs)))
    radar = FMCWRadar(radar_config)
    decoder = UplinkDecoder(modulator)
    scatterers = _sensing_scatterers(van_atta, frequency, tag_range_m, schedule, clutter)
    snrs = []
    for index in indices:
        stream = spec.stream(index)
        if_frame = radar.receive_frame(frame, scatterers, rng=stream)
        snrs.append(decoder.measure_snr_db(if_frame))
    if _obs_runtime._enabled:
        obs.inc("engine.uplink.trials", len(snrs))
    return snrs


def _uplink_plan(point) -> "tuple[dict, tuple, int]":
    (radar_config, modulator, van_atta, tag_range_m, num_chirps,
     chirp_duration_s, clutter, num_trials, spec) = point
    ensure_positive("tag_range_m", tag_range_m)
    unit = {
        "radar_config": radar_config,
        "modulator": modulator,
        "van_atta": van_atta,
        "tag_range_m": float(tag_range_m),
        "num_chirps": int(num_chirps),
        "chirp_duration_s": float(chirp_duration_s),
        "clutter": clutter,
        "num_trials": int(num_trials),
        "seed": spec,
    }
    return unit, point[:7], num_trials


UPLINK = Workload(
    kind="uplink-snr",
    span="engine.uplink",
    replay="repro.sim.engine:_replay_uplink_snr",
    chunk=_uplink_chunk,
    plan=_uplink_plan,
    reduce=lambda _point, snrs, _trajectory: ({"snr_db": float(np.median(snrs))}, None),
    decode=lambda payload, _arrays: float(payload["snr_db"]),
)

_replay_uplink_snr = partial(_replay_point, UPLINK)


def run_uplink_snr_measurement(
    radar_config: RadarConfig,
    modulator: UplinkModulator,
    van_atta: VanAttaArray,
    *,
    tag_range_m: float,
    num_chirps: int = 128,
    chirp_duration_s: float = 80e-6,
    clutter: Clutter | None = None,
    rng: int | np.random.Generator | None = 0,
    num_trials: int = 5,
    execution: ExecutionPlan | None = None,
    store=None,
) -> float:
    """Median uplink signature SNR (dB) at one distance (Fig. 15 point)."""
    point = (
        radar_config, modulator, van_atta, tag_range_m, num_chirps,
        chirp_duration_s, clutter, num_trials, SeedSpec.from_rng(rng),
    )
    return run_point(UPLINK, point, execution=execution, store=store)


def _localization_chunk(payload, spec: SeedSpec, indices) -> "list[float]":
    """One chunk of localization frames -> absolute ranging error per trial."""
    (radar_config, alphabet, modulator, van_atta, tag_range_m,
     varying_slopes, num_chirps, clutter) = payload
    from repro.waveform.frame import FrameSchedule
    from repro.waveform.parameters import ChirpParameters

    radar = FMCWRadar(radar_config)
    localizer = TagLocalizer(modulator.modulation_rate_hz)
    frequency = radar_config.center_frequency_hz
    on_rcs, off_rcs = van_atta.modulated_rcs_amplitudes(frequency)
    off_factor = float(np.sqrt(off_rcs / on_rcs))

    def frame_and_scatterers(durations):
        chirps = [
            ChirpParameters(
                start_frequency_hz=radar_config.start_frequency_hz,
                bandwidth_hz=alphabet.bandwidth_hz,
                duration_s=duration,
            )
            for duration in durations
        ]
        frame = FrameSchedule.from_chirps(chirps, alphabet.chirp_period_s)
        times = np.array([slot.start_time_s for slot in frame.slots])
        schedule = np.where(modulator.beacon_states(times), 1.0, off_factor)
        return frame, _sensing_scatterers(
            van_atta, frequency, tag_range_m, schedule, clutter
        )

    if not varying_slopes:
        frame, scatterers = frame_and_scatterers([alphabet.header_duration_s] * num_chirps)
    errors = []
    for index in indices:
        stream = spec.stream(index)
        if varying_slopes:
            symbols = stream.integers(0, alphabet.num_data_symbols, num_chirps)
            frame, scatterers = frame_and_scatterers(
                [alphabet.data_symbol_duration_s(int(s)) for s in symbols]
            )
        if_frame = radar.receive_frame(frame, scatterers, rng=stream)
        result = localizer.localize(if_frame)
        errors.append(abs(result.range_m - tag_range_m))
    if _obs_runtime._enabled:
        obs.inc("engine.localization.frames", len(errors))
    return errors


def _localization_plan(point) -> "tuple[dict, tuple, int]":
    (radar_config, alphabet, modulator, van_atta, tag_range_m,
     varying_slopes, num_frames, num_chirps, clutter, spec) = point
    ensure_positive("tag_range_m", tag_range_m)
    unit = {
        "radar_config": radar_config,
        "alphabet": alphabet,
        "modulator": modulator,
        "van_atta": van_atta,
        "tag_range_m": float(tag_range_m),
        "varying_slopes": bool(varying_slopes),
        "num_frames": int(num_frames),
        "num_chirps": int(num_chirps),
        "clutter": clutter,
        "seed": spec,
    }
    payload = (
        radar_config, alphabet, modulator, van_atta, tag_range_m,
        varying_slopes, num_chirps, clutter,
    )
    return unit, payload, num_frames


def _localization_reduce(_point, errors, _trajectory) -> "tuple[dict, dict]":
    """Summary + array digest, and the per-frame errors as the ``.npz``.

    The digest (via :func:`repro.store.fingerprint.canonicalize`) folds
    the full per-frame array into the checksummed payload, so a replay
    recompute is compared bit-exactly against the cached *array*, not
    just its median.
    """
    from repro.store.fingerprint import canonicalize

    errors = np.asarray(errors, dtype=np.float64)
    payload = {
        "num_frames": int(errors.size),
        "median_abs_error_m": float(np.median(errors)),
        "errors_digest": canonicalize(errors),
    }
    return payload, {"errors": errors}


LOCALIZATION = Workload(
    kind="localization-trials",
    span="engine.localization",
    replay="repro.sim.engine:_replay_localization",
    chunk=_localization_chunk,
    plan=_localization_plan,
    reduce=_localization_reduce,
    decode=lambda _payload, arrays: np.asarray(arrays["errors"], dtype=np.float64),
)

_replay_localization = partial(_replay_point, LOCALIZATION)


def run_localization_trials(
    radar_config: RadarConfig,
    alphabet: CsskAlphabet,
    modulator: UplinkModulator,
    van_atta: VanAttaArray,
    *,
    tag_range_m: float,
    varying_slopes: bool,
    num_frames: int = 10,
    num_chirps: int = 128,
    clutter: Clutter | None = None,
    rng: int | np.random.Generator | None = 0,
    execution: ExecutionPlan | None = None,
    store=None,
) -> np.ndarray:
    """Per-frame absolute ranging errors (m), fixed vs varying slopes.

    ``varying_slopes=True`` draws random CSSK data symbols for every chirp
    (communication ongoing); ``False`` repeats the header slope
    (sensing-only) — the two arms of Fig. 16.  With ``store`` the
    per-frame error array round-trips through the cache's ``.npz`` side
    file, bit-exactly (float64 preserved).
    """
    point = (
        radar_config, alphabet, modulator, van_atta, tag_range_m,
        varying_slopes, num_frames, num_chirps, clutter, SeedSpec.from_rng(rng),
    )
    return run_point(LOCALIZATION, point, execution=execution, store=store)
