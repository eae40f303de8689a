"""Monte-Carlo engines behind the evaluation benches.

Three workhorses:

* :func:`run_downlink_trials` — downlink BER at a distance or pinned SNR
  (Figs. 12-14, 17).
* :func:`run_uplink_snr_measurement` — uplink signature SNR vs distance
  (Fig. 15).
* :func:`run_localization_trials` — ranging error with fixed or varying
  slopes (Fig. 16).

All three accept an ``execution`` :class:`~repro.sim.executor.ExecutionPlan`
and fan trials out over the executor layer.  Trial ``i``'s generator is
index-keyed off the root seed (``SeedSpec.stream(i)``), and per-trial
results are reduced in trial order, so results are bit-identical for any
worker count — the contract ``tests/unit/test_executor.py`` enforces.
The plan's fault knobs (``max_retries``, ``chunk_timeout_s``,
``on_failure``) apply unchanged: a worker crash mid-run is retried
bit-identically, and only retry exhaustion surfaces as
:class:`repro.errors.ExecutorError` with the failing trial indices.
The trial bodies live in module-level ``_*_chunk`` functions so they can
be pickled to worker processes; each chunk rebuilds its (deterministic)
DSP objects once, amortising setup over the chunk's trials.  The
downlink chunk has one implementation: it synthesizes and decodes its
frames as stacked arrays.  The per-frame reference it must match bit for
bit lives in the test suite.

All three also accept ``store=`` (an
:class:`repro.store.ExperimentStore`): the whole run is fingerprinted
over its configuration + root :class:`~repro.utils.rng.SeedSpec` + trial
count, a valid cache entry is returned without computing anything, and a
fresh result is stored with a replay recipe so ``repro cache verify``
can later recompute it bit-exactly.  Determinism makes the hit provably
identical to the recompute; work units the fingerprinter cannot pin down
simply run uncached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.sim.executor import ExecutionPlan, map_trials
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


def _store_lookup(store, kind: str, work_unit) -> "tuple[str | None, dict | None]":
    """Fingerprint a work unit and probe the store.

    Returns ``(fingerprint, record)``; both ``None`` when no store is
    attached or the work unit cannot be canonically fingerprinted (the
    run then proceeds uncached — caching never changes *whether* an
    engine runs).
    """
    if store is None:
        return None, None
    from repro.store.fingerprint import fingerprint
    try:
        work_fingerprint = fingerprint(kind, work_unit)
    except StoreError:
        return None, None
    return work_fingerprint, store.get(work_fingerprint)


def _store_put(store, work_fingerprint, kind, payload, *, arrays=None, replay_entry=None, replay_payload=None):
    """Persist a fresh result (+ replay recipe when the payload pickles)."""
    from repro.sim.executor import _is_picklable
    from repro.store.cache import ReplayRecipe

    replay = None
    if replay_entry is not None and _is_picklable(replay_payload):
        replay = ReplayRecipe(entry=replay_entry, payload=replay_payload)
    store.put(work_fingerprint, kind, payload, arrays=arrays, replay=replay)


def _ber_point_payload(point: "BerPoint") -> "dict":
    return {
        "parameter": float(point.parameter),
        "ber": float(point.ber),
        "bits_total": int(point.bits_total),
        "bit_errors": int(point.bit_errors),
        "extra": {key: _plain(value) for key, value in point.extra.items()},
    }


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


def _replay_downlink_trials(payload) -> "dict":
    """Recompute a cached downlink run (``repro cache verify`` hook)."""
    config, spec = payload
    return _ber_point_payload(run_downlink_trials(config, rng=spec))


def _replay_downlink_trials_adaptive(payload) -> "dict":
    """Recompute a cached adaptive downlink run (``repro cache verify``)."""
    config, spec, adaptive = payload
    return _ber_point_payload(
        run_downlink_trials(config, rng=spec, adaptive=adaptive)
    )


def downlink_trials_work_unit(
    config: DownlinkTrialConfig, spec: SeedSpec, adaptive=None
) -> "tuple[str, dict]":
    """The ``(kind, work_unit)`` a downlink run is fingerprinted under.

    Shared with the serve protocol so streamed jobs hit exactly the
    cache entries batch runs write.  Adaptive runs live under a distinct
    kind with the stopping rule folded into the unit: the rule decides
    how many trials exist, so it is part of the work's identity and
    adaptive results never collide with fixed-budget ones.
    """
    if adaptive is None:
        return "downlink-trials", {"config": config, "seed": spec}
    return "downlink-trials-adaptive", {
        "config": config,
        "seed": spec,
        "adaptive": adaptive,
    }


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
    if config.num_frames < 1 or config.payload_symbols_per_frame < 1:
        raise SimulationError("num_frames and payload_symbols_per_frame must be >= 1")
    ensure_positive("distance_m", config.distance_m)

    spec = SeedSpec.from_rng(rng)
    kind, work_unit = downlink_trials_work_unit(config, spec, adaptive)
    work_fingerprint, record = _store_lookup(store, kind, work_unit)
    if record is not None:
        return _ber_point_from_payload(record["payload"])

    budget = config.resolved_budget()
    plan = execution if execution is not None else ExecutionPlan()
    trajectory = None
    if adaptive is not None:
        from repro.sim.adaptive import run_adaptive_trials

        with obs.span(
            "engine.downlink", max_frames=adaptive.max_frames, adaptive=True
        ):
            outcome = run_adaptive_trials(
                _downlink_chunk,
                config,
                adaptive,
                spec,
                plan,
                counts=lambda result: (result[0], result[1]),
            )
        per_trial = outcome.per_trial
        trajectory = outcome.summary()
    else:
        with obs.span("engine.downlink", frames=config.num_frames):
            per_trial, _report = map_trials(
                _downlink_chunk, config, config.num_frames, spec, plan
            )
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
        "video_snr_db": budget.video_snr_db(config.distance_m),
    }
    if trajectory is not None:
        extra["adaptive"] = trajectory
    point = BerPoint(
        parameter=float(parameter),
        ber=counter.ber,
        bits_total=counter.bits_total,
        bit_errors=counter.bit_errors,
        extra=extra,
    )
    if _obs_runtime._enabled:
        obs.log(
            "engine.downlink.done",
            frames=len(per_trial),
            ber=point.ber,
            sync_failures=sync_failures,
        )
    if work_fingerprint is not None:
        if adaptive is None:
            replay_entry = "repro.sim.engine:_replay_downlink_trials"
            replay_payload = (config, spec)
        else:
            replay_entry = "repro.sim.engine:_replay_downlink_trials_adaptive"
            replay_payload = (config, spec, adaptive)
        _store_put(
            store,
            work_fingerprint,
            kind,
            _ber_point_payload(point),
            replay_entry=replay_entry,
            replay_payload=replay_payload,
        )
    return point


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


def _replay_uplink_snr(payload) -> "dict":
    """Recompute a cached uplink SNR run (``repro cache verify`` hook)."""
    (radar_config, modulator, van_atta, tag_range_m, num_chirps,
     chirp_duration_s, clutter, num_trials, spec) = payload
    snr_db = run_uplink_snr_measurement(
        radar_config, modulator, van_atta,
        tag_range_m=tag_range_m, num_chirps=num_chirps,
        chirp_duration_s=chirp_duration_s, clutter=clutter,
        rng=spec, num_trials=num_trials,
    )
    return {"snr_db": float(snr_db)}


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
    ensure_positive("tag_range_m", tag_range_m)
    spec = SeedSpec.from_rng(rng)
    work_unit = {
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
    work_fingerprint, record = _store_lookup(store, "uplink-snr", work_unit)
    if record is not None:
        return float(record["payload"]["snr_db"])
    payload = (
        radar_config, modulator, van_atta, tag_range_m, num_chirps,
        chirp_duration_s, clutter,
    )
    with obs.span("engine.uplink", trials=num_trials):
        snrs, _report = map_trials(_uplink_chunk, payload, num_trials, spec, execution)
    snr_db = float(np.median(snrs))
    if work_fingerprint is not None:
        _store_put(
            store,
            work_fingerprint,
            "uplink-snr",
            {"snr_db": snr_db},
            replay_entry="repro.sim.engine:_replay_uplink_snr",
            replay_payload=(
                radar_config, modulator, van_atta, tag_range_m, num_chirps,
                chirp_duration_s, clutter, num_trials, spec,
            ),
        )
    return snr_db


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


def _localization_payload(errors: np.ndarray) -> "dict":
    """Cache payload for a localization run: summary + array digest.

    The digest (via :func:`repro.store.fingerprint.canonicalize`) folds
    the full per-frame array into the checksummed payload, so a replay
    recompute is compared bit-exactly against the cached *array*, not
    just its median.
    """
    from repro.store.fingerprint import canonicalize

    errors = np.asarray(errors, dtype=np.float64)
    return {
        "num_frames": int(errors.size),
        "median_abs_error_m": float(np.median(errors)) if errors.size else 0.0,
        "errors_digest": canonicalize(errors),
    }


def _replay_localization(payload) -> "dict":
    """Recompute a cached localization run (``repro cache verify`` hook)."""
    (radar_config, alphabet, modulator, van_atta, tag_range_m,
     varying_slopes, num_frames, num_chirps, clutter, spec) = payload
    errors = run_localization_trials(
        radar_config, alphabet, modulator, van_atta,
        tag_range_m=tag_range_m, varying_slopes=varying_slopes,
        num_frames=num_frames, num_chirps=num_chirps, clutter=clutter,
        rng=spec,
    )
    return _localization_payload(errors)


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
    ensure_positive("tag_range_m", tag_range_m)
    spec = SeedSpec.from_rng(rng)
    work_unit = {
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
    work_fingerprint, record = _store_lookup(store, "localization-trials", work_unit)
    if record is not None:
        arrays = store.load_arrays(work_fingerprint)
        if arrays is not None and "errors" in arrays:
            return np.asarray(arrays["errors"], dtype=np.float64)
    payload = (
        radar_config, alphabet, modulator, van_atta, tag_range_m,
        varying_slopes, num_chirps, clutter,
    )
    with obs.span("engine.localization", frames=num_frames):
        errors, _report = map_trials(
            _localization_chunk, payload, num_frames, spec, execution
        )
    errors = np.asarray(errors, dtype=np.float64)
    if work_fingerprint is not None:
        _store_put(
            store,
            work_fingerprint,
            "localization-trials",
            _localization_payload(errors),
            arrays={"errors": errors},
            replay_entry="repro.sim.engine:_replay_localization",
            replay_payload=(
                radar_config, alphabet, modulator, van_atta, tag_range_m,
                varying_slopes, num_frames, num_chirps, clutter, spec,
            ),
        )
    return errors
