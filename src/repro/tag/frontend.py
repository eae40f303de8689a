"""Tag decoder frontends: from incident radar chirps to ADC samples.

Two fidelity levels (see DESIGN.md Section 4):

* :class:`AnalyticTagFrontend` — emits the Eq.-9 beat tone directly at the
  tag ADC rate, with amplitude and noise from the downlink budget.  This is
  exact for the modelled chain (the square-law cross term of two delayed
  chirp copies IS a tone at ``alpha dT``) and is what the Monte-Carlo BER
  benches use.

* :class:`SampledTagFrontend` — runs the actual circuit chain on sampled
  waveforms: split -> two delay lines -> combine -> square-law detector ->
  RC low-pass -> ADC.  Sample rates force scaled-down bandwidths, so this
  level exists to *validate* the analytic model (ablation A1), not to run
  sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.channel.link_budget import DownlinkBudget
from repro.components.adc import ADC
from repro.components.delay_line import CoaxialDelayLine
from repro.components.envelope_detector import EnvelopeDetector
from repro.components.splitter import SplitterCombiner
from repro.errors import SimulationError
from repro.utils.rng import resolve_rng
from repro.utils.validation import ensure_positive
from repro.waveform.chirp import sample_chirp_baseband, sample_chirp_real
from repro.waveform.frame import FrameSchedule
from repro.waveform.parameters import ChirpParameters


@dataclass
class TagCapture:
    """ADC sample stream captured by the tag during one frame."""

    samples: np.ndarray
    sample_rate_hz: float
    frame: FrameSchedule | None = None

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def slot_samples(self, slot_index: int) -> np.ndarray:
        """Samples belonging to one frame slot (requires ``frame``)."""
        if self.frame is None:
            raise SimulationError("capture has no frame attached")
        slot = self.frame.slots[slot_index]
        start = int(round(slot.start_time_s * self.sample_rate_hz))
        stop = int(round(slot.end_time_s * self.sample_rate_hz))
        return self.samples[start:stop]


@dataclass
class AnalyticTagFrontend:
    """Eq.-9-exact frontend: beat tones at link-budget amplitudes.

    Parameters
    ----------
    budget:
        Downlink link budget (radar TX -> decoder video SNR).
    delta_t_s:
        The decoder's differential delay ``dT`` (from the tag's
        :class:`~repro.core.cssk.DecoderDesign`).
    include_dc:
        Model the square-law DC pedestal (``v = A (1 + cos ...)``); the
        decoder must reject it, so benches keep it on.
    """

    budget: DownlinkBudget
    delta_t_s: float
    include_dc: bool = True

    def __post_init__(self) -> None:
        ensure_positive("delta_t_s", self.delta_t_s)

    def capture(
        self,
        frame: FrameSchedule,
        distance_m: float,
        *,
        rng: int | np.random.Generator | None = None,
        absorptive_slots: np.ndarray | None = None,
        off_boresight_deg: float = 0.0,
        snr_override_db: float | None = None,
        wrap_fractions: np.ndarray | None = None,
    ) -> TagCapture:
        """Simulate the ADC stream the tag records across ``frame``.

        Parameters
        ----------
        distance_m:
            Radar-tag separation (sets the beat amplitude via the budget).
        absorptive_slots:
            Optional boolean array (per slot): True = decoder connected
            (absorptive mode), False = retro-reflecting, decoder sees
            nothing.  Default: always absorptive (downlink-only mode).
        snr_override_db:
            If given, scales the noise so the *video-band* SNR equals this
            value exactly — used by BER-vs-SNR benches that sweep SNR
            directly instead of distance.
        wrap_fractions:
            Optional per-slot sweep-wrap positions in (0, 1) for the
            CSS-style extension (:mod:`repro.core.css`): the radar wraps
            its sweep back to ``f0`` at that fraction of the chirp, which
            the decoder sees as the beat tone restarting its phase there.
            ``None`` or NaN entries mean no wrap (plain CSSK chirps).
        """
        ensure_positive("distance_m", distance_m)
        generator = resolve_rng(rng)
        fs = self.budget.adc.sample_rate_hz
        total_samples = int(round(frame.duration_s * fs))
        if total_samples < 2:
            raise SimulationError("frame too short for the tag ADC rate")
        amplitude = self.budget.video_beat_amplitude_v(
            distance_m, off_boresight_deg=off_boresight_deg
        )
        noise_rms = self.budget.video_noise_rms_v()
        if snr_override_db is not None:
            # video SNR = (amplitude^2 / 2) / noise^2  =>  rescale noise.
            target_linear = 10.0 ** (snr_override_db / 10.0)
            noise_rms = float(np.sqrt(amplitude**2 / 2.0 / target_linear))
        if absorptive_slots is not None:
            absorptive = np.asarray(absorptive_slots, dtype=bool)
            if absorptive.size != len(frame):
                raise SimulationError(
                    f"absorptive_slots has {absorptive.size} entries for a "
                    f"{len(frame)}-slot frame"
                )
        else:
            absorptive = np.ones(len(frame), dtype=bool)

        signal = np.zeros(total_samples)
        for slot_index, slot in enumerate(frame.slots):
            if not absorptive[slot_index]:
                continue
            start = int(round(slot.start_time_s * fs))
            stop = min(int(round((slot.start_time_s + slot.chirp.duration_s) * fs)), total_samples)
            if stop <= start:
                continue
            n = stop - start
            t = np.arange(n) / fs
            beat_hz = slot.chirp.slope_hz_per_s * self.delta_t_s
            phase0 = generator.uniform(0.0, 2.0 * np.pi)
            rolloff = self.budget.detector.video_gain_at(beat_hz)
            wrap = (
                float(wrap_fractions[slot_index])
                if wrap_fractions is not None
                else float("nan")
            )
            if np.isfinite(wrap) and 0.0 < wrap < 1.0:
                # Sweep wrap at fraction `wrap`: the beat tone restarts its
                # phase there (see repro.core.css for the derivation).
                wrap_time = wrap * slot.chirp.duration_s
                shifted = np.where(t < wrap_time, t, t - wrap_time)
                tone = rolloff * np.cos(2.0 * np.pi * beat_hz * shifted + phase0)
            else:
                tone = rolloff * np.cos(2.0 * np.pi * beat_hz * t + phase0)
            if self.include_dc:
                signal[start:stop] = amplitude * (1.0 + tone)
            else:
                signal[start:stop] = amplitude * tone

        noisy = signal + generator.normal(0.0, noise_rms, total_samples)
        sampled = self.budget.adc.quantize(noisy) if _adc_in_range(self.budget.adc, noisy) else noisy
        return TagCapture(samples=sampled, sample_rate_hz=fs, frame=frame)

    def capture_batch(
        self,
        frames: "Sequence[FrameSchedule]",
        distance_m: float,
        *,
        rngs: "Sequence[int | np.random.Generator | None]",
        absorptive_slots: np.ndarray | None = None,
        off_boresight_deg: float = 0.0,
        snr_override_db: float | None = None,
        wrap_fractions: np.ndarray | None = None,
    ) -> "list[TagCapture]":
        """Batched :meth:`capture`: one vectorized pass over many frames.

        Bit-exact oracle contract: ``capture_batch(frames, d, rngs=gens)``
        returns captures whose samples equal, bitwise, the sequential
        ``[capture(f, d, rng=g) for f, g in zip(frames, gens)]`` — each
        frame consumes its generator in the identical draw order (one
        uniform phase per active slot in slot order, then the noise
        vector).  Tone synthesis is one broadcast pass over a ``(batch,
        slots, K)`` block, ``K`` the longest chirp on-time, with ``cos`` on
        on-samples only, written into the signal slot by slot in slot order
        as :meth:`capture` does (so a chirp rounded onto the next slot's
        first sample is overwritten there).  Noise add and conditional
        quantization run over the ``(batch, n_samples)`` block.

        Constraints (``SimulationError`` otherwise): the batch is
        non-empty, every frame has the same slot count, the same slot
        start times, and the same total duration — i.e. frames share one
        slot grid, only chirp *durations* may differ per frame (the CSSK
        case).  ``absorptive_slots`` / ``wrap_fractions`` are per-slot
        arrays applied to every frame in the batch.

        Returned captures are rows of one shared ``(batch, n)`` buffer;
        treat their samples as read-only.
        """
        ensure_positive("distance_m", distance_m)
        bank = _batch_slot_bank(frames)
        if len(rngs) != len(frames):
            raise SimulationError(
                f"capture_batch got {len(rngs)} generators for {len(frames)} frames"
            )
        generators = [resolve_rng(rng) for rng in rngs]
        fs = self.budget.adc.sample_rate_hz
        total_samples = int(round(bank.duration_s * fs))
        if total_samples < 2:
            raise SimulationError("frame too short for the tag ADC rate")
        absorptive = None
        if absorptive_slots is not None:
            absorptive = np.asarray(absorptive_slots, dtype=bool)
            if absorptive.size != bank.num_slots:
                raise SimulationError(
                    f"absorptive_slots has {absorptive.size} entries for a "
                    f"{bank.num_slots}-slot frame"
                )
        samples = _synthesize_batch(
            self,
            fs=fs,
            total_samples=total_samples,
            distance_m=distance_m,
            generators=generators,
            start_times_s=bank.start_times_s,
            durations_s=bank.durations_s,
            slopes_hz_per_s=bank.slopes_hz_per_s,
            absorptive=absorptive,
            off_boresight_deg=off_boresight_deg,
            snr_override_db=snr_override_db,
            wrap_fractions=wrap_fractions,
        )
        return [
            TagCapture(samples=samples[index], sample_rate_hz=fs, frame=frame)
            for index, frame in enumerate(frames)
        ]


@dataclass(frozen=True)
class _SlotBank:
    """Uniform slot grid shared by a frame batch (durations vary per frame)."""

    start_times_s: np.ndarray  # (num_slots,)
    durations_s: np.ndarray  # (batch, num_slots)
    slopes_hz_per_s: np.ndarray  # (batch, num_slots)
    duration_s: float

    @property
    def num_slots(self) -> int:
        return self.start_times_s.size


def _batch_slot_bank(frames: "Sequence[FrameSchedule]") -> _SlotBank:
    """Validate a frame batch and extract its shared slot geometry.

    Raises :class:`SimulationError` for an empty batch and for *ragged*
    batches — frames disagreeing on slot count, slot start times, or total
    duration cannot share one ``(batch, n_samples)`` layout.
    """
    if len(frames) == 0:
        raise SimulationError("capture_batch requires a non-empty frame batch")
    num_slots = len(frames[0])
    starts = np.array([slot.start_time_s for slot in frames[0].slots])
    duration = frames[0].duration_s
    for index, frame in enumerate(frames):
        if len(frame) != num_slots:
            raise SimulationError(
                f"ragged frame batch: frame {index} has {len(frame)} slots, "
                f"frame 0 has {num_slots}"
            )
        frame_starts = np.array([slot.start_time_s for slot in frame.slots])
        if not np.array_equal(frame_starts, starts):
            raise SimulationError(
                f"ragged frame batch: frame {index} has different slot start times"
            )
        if frame.duration_s != duration:
            raise SimulationError(
                f"ragged frame batch: frame {index} lasts {frame.duration_s}s, "
                f"frame 0 lasts {duration}s"
            )
    durations = np.array(
        [[slot.chirp.duration_s for slot in frame.slots] for frame in frames]
    )
    slopes = np.array(
        [[slot.chirp.slope_hz_per_s for slot in frame.slots] for frame in frames]
    )
    return _SlotBank(
        start_times_s=starts,
        durations_s=durations,
        slopes_hz_per_s=slopes,
        duration_s=duration,
    )


def _synthesize_batch(
    frontend: "AnalyticTagFrontend",
    *,
    fs: float,
    total_samples: int,
    distance_m: float,
    generators: "list[np.random.Generator]",
    start_times_s: np.ndarray,
    durations_s: np.ndarray,
    slopes_hz_per_s: np.ndarray,
    absorptive: np.ndarray | None = None,
    off_boresight_deg: float = 0.0,
    snr_override_db: float | None = None,
    wrap_fractions: np.ndarray | None = None,
) -> np.ndarray:
    """The vectorized core shared by :meth:`AnalyticTagFrontend.capture_batch`
    and the engine's layout-based fast path.

    Replicates :meth:`AnalyticTagFrontend.capture` bit-for-bit: identical
    per-frame RNG draw order (per-active-slot uniform phases in slot order,
    then one noise vector), identical sample-index rounding, identical
    elementwise arithmetic, with no per-slot Python (see DESIGN.md Section
    7).  Returns the ``(frames, n_samples)`` block; ``absorptive=None``
    means every slot.
    """
    batch = len(generators)
    amplitude = frontend.budget.video_beat_amplitude_v(
        distance_m, off_boresight_deg=off_boresight_deg
    )
    noise_rms = frontend.budget.video_noise_rms_v()
    if snr_override_db is not None:
        # video SNR = (amplitude^2 / 2) / noise^2  =>  rescale noise.
        target_linear = 10.0 ** (snr_override_db / 10.0)
        noise_rms = float(np.sqrt(amplitude**2 / 2.0 / target_linear))

    # Sample indices exactly as the per-frame oracle rounds them, stops
    # clamped to the capture length.
    start_samples = np.round(start_times_s * fs).astype(int)
    stop_samples = np.minimum(
        np.round((start_times_s[None, :] + durations_s) * fs).astype(int),
        total_samples,
    )
    active = stop_samples > start_samples[None, :]
    if absorptive is not None:
        active &= absorptive[None, :]

    # Per-frame phase draws, in slot order — uniform(size=k) draws the same
    # bit pattern as k sequential scalar draws, so batching them per frame
    # preserves the oracle's RNG stream exactly.
    phases = np.zeros(active.shape)
    for row, generator in enumerate(generators):
        count = int(np.count_nonzero(active[row]))
        if count:
            phases[row, active[row]] = generator.uniform(0.0, 2.0 * np.pi, count)

    beats = slopes_hz_per_s * frontend.delta_t_s
    unique_beats, inverse = np.unique(beats, return_inverse=True)
    gains = np.array(
        [frontend.budget.detector.video_gain_at(float(b)) for b in unique_beats]
    )
    # The per-(frame, slot) tables as (frames, slots, 1) columns over the
    # shared time base arange(K) / fs; a row's samples past its on-time
    # (all of an inactive slot's) are off.  A slot without a wrap in
    # (0, 1) gets wrap time +inf, where t < inf keeps t.
    omega = (2.0 * np.pi * beats)[:, :, None]
    phases = phases[:, :, None]
    rolloffs = gains[inverse].reshape(*beats.shape, 1)
    wraps = np.asarray(np.nan if wrap_fractions is None else wrap_fractions, dtype=float)
    wrapping = (wraps > 0.0) & (wraps < 1.0)
    wrap_times = np.where(wrapping, wraps * durations_s, np.inf)[:, :, None]
    lengths = np.where(active, stop_samples - start_samples[None, :], 0)
    width = int(lengths.max(initial=0))
    t = np.arange(width) / fs

    # The block is computed in row blocks of at most 16 Ki elements (128 KiB
    # of float64), each written slot by slot, on-samples only, in slot
    # order, so a chirp rounded onto the next slot's first sample is
    # overwritten there, as in capture.
    padded = np.zeros((batch, max(total_samples, int(start_samples[-1]) + width)))
    rows_per_block = max(1, (1 << 14) // max(start_samples.size * width, 1))
    for first in range(0, batch if width else 0, rows_per_block):
        rows = slice(first, first + rows_per_block)
        on = np.arange(width) < lengths[rows, :, None]
        values = np.empty(on.shape)
        # The oracle's exact in-place operation sequence, bit for bit:
        # cos(2*pi*beat*t + phase), *rolloff, (1 +), *amplitude; cos runs
        # on on-samples only.
        shifted = np.where(t < wrap_times[rows], t, t - wrap_times[rows]) if wrapping.any() else t
        np.multiply(omega[rows], shifted, out=values)
        values += phases[rows]
        np.cos(values, out=values, where=on)
        values *= rolloffs[rows]
        if frontend.include_dc:
            values += 1.0
        values *= amplitude
        for slot, start in enumerate(start_samples):
            np.copyto(padded[rows, start : start + width], values[:, slot], where=on[:, slot])
    signal = padded[:, :total_samples]

    for row, generator in enumerate(generators):
        signal[row] += generator.normal(0.0, noise_rms, total_samples)

    # Conditional quantization per frame, as _adc_in_range decides per
    # capture; quantize_uniform is elementwise, so quantizing the selected
    # rows as a block is bit-identical to per-row calls.  The peak is
    # max(max, -min), the same value as max(|x|) without the |x| block.
    adc = frontend.budget.adc
    peaks = np.maximum(signal.max(axis=1), -signal.min(axis=1))
    hot = peaks > 10.0 * adc.lsb_v
    if hot.all():
        adc.quantize(signal, out=signal)
    elif hot.any():
        rows = signal[hot]
        signal[hot] = adc.quantize(rows, out=rows)
    return signal


def _adc_in_range(adc: ADC, signal: np.ndarray) -> bool:
    """Quantize only when the signal is within ~the ADC range.

    The budget's default 1 V full scale is far above the uV-level video
    signals; quantizing there would floor everything to +/- LSB/2 noise,
    which real systems avoid with a video amplifier.  We model that
    amplifier implicitly: when the signal is tiny relative to full scale we
    skip quantization (the amplifier would rescale into range).
    """
    peak = float(np.max(np.abs(signal))) if signal.size else 0.0
    return peak > 10.0 * adc.lsb_v


@dataclass
class SampledTagFrontend:
    """Circuit-level frontend on sampled waveforms (validation fidelity).

    Parameters
    ----------
    splitter / combiner / detector / adc:
        The physical chain components.
    line_short / line_long:
        The two delay lines; their delay difference sets the beat.
    baseband_sample_rate_hz:
        Simulation rate for the RF waveform; must exceed the chirp
        bandwidth (complex representation).
    """

    line_short: CoaxialDelayLine
    line_long: CoaxialDelayLine
    splitter: SplitterCombiner = field(default_factory=SplitterCombiner)
    combiner: SplitterCombiner = field(default_factory=SplitterCombiner)
    detector: EnvelopeDetector = field(default_factory=EnvelopeDetector)
    adc: ADC = field(default_factory=lambda: ADC(sample_rate_hz=2e6))
    baseband_sample_rate_hz: float = 50e6

    def __post_init__(self) -> None:
        ensure_positive("baseband_sample_rate_hz", self.baseband_sample_rate_hz)
        if self.line_long.group_delay_s() <= self.line_short.group_delay_s():
            raise SimulationError("line_long must have a larger delay than line_short")

    @property
    def delta_t_s(self) -> float:
        """Differential delay of the two lines."""
        return self.line_long.group_delay_s() - self.line_short.group_delay_s()

    def expected_beat_hz(self, chirp: ChirpParameters) -> float:
        """Eq. 11 prediction for this chain."""
        return chirp.slope_hz_per_s * self.delta_t_s

    def capture_chirp(
        self,
        chirp: ChirpParameters,
        *,
        input_amplitude_v: float = 1.0,
        rng: int | np.random.Generator | None = None,
        use_real_passband: bool = False,
    ) -> TagCapture:
        """Run one chirp through the full circuit chain.

        Parameters
        ----------
        input_amplitude_v:
            Chirp amplitude at the decoder input (post-antenna/switch).
        use_real_passband:
            Sample the real passband waveform instead of the complex
            envelope — only feasible when ``f0 + B`` is far below the
            baseband sample rate (scaled-down configurations).
        """
        if self.baseband_sample_rate_hz < 1.2 * chirp.bandwidth_hz:
            raise SimulationError(
                f"baseband rate {self.baseband_sample_rate_hz}Hz cannot represent a "
                f"{chirp.bandwidth_hz}Hz chirp"
            )
        scaled = chirp.with_amplitude(input_amplitude_v)
        fs = self.baseband_sample_rate_hz
        delay_short = self.line_short.group_delay_s()
        delay_long = self.line_long.group_delay_s()
        freq_mid = chirp.center_frequency_hz
        loss_short = self.line_short.insertion_loss_db(freq_mid)
        loss_long = self.line_long.insertion_loss_db(freq_mid)

        if use_real_passband:
            if fs < 2.5 * chirp.end_frequency_hz:
                raise SimulationError(
                    f"baseband rate {fs}Hz cannot Nyquist-sample a passband up to "
                    f"{chirp.end_frequency_hz}Hz"
                )
            branch_short = sample_chirp_real(scaled, fs, delay_s=delay_short)
            branch_long = sample_chirp_real(scaled, fs, delay_s=delay_long)
        else:
            branch_short = sample_chirp_baseband(scaled, fs, delay_s=delay_short)
            branch_long = sample_chirp_baseband(scaled, fs, delay_s=delay_long)

        split_a, split_b = self.splitter.split(branch_short)
        _, split_long = self.splitter.split(branch_long)
        # Each branch is the *same physical split*, routed through its line:
        # apply per-line loss to the respective branch.
        from repro.components.base import apply_loss

        routed_short = apply_loss(split_a, loss_short)
        routed_long = apply_loss(split_long, loss_long)
        combined = self.combiner.combine(routed_short, routed_long)

        if use_real_passband:
            video = self.detector.detect_real(np.real(combined), fs)
        else:
            video = self.detector.detect(combined, fs)
        noise_rms = self.detector.output_noise_rms_v()
        if noise_rms > 0:
            video = video + resolve_rng(rng).normal(0.0, noise_rms, video.size)
        samples = self.adc.sample(video, fs, rng=rng)
        return TagCapture(samples=samples, sample_rate_hz=self.adc.sample_rate_hz)
