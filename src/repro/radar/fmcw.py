"""IF-domain FMCW radar simulation.

Rather than synthesizing passband samples at tens of GHz, the receiver is
simulated directly in the dechirped (IF) domain — the standard approach for
FMCW simulators.  After mixing the received echo with the transmitted
chirp, a scatterer at range ``r`` contributes::

    x[n] = A * exp(j 2 pi (f_b n / f_s + f0 tau))        (per chirp)

with beat frequency ``f_b = 2 alpha r / c`` (Eq. 3), round-trip delay
``tau = 2 r / c``, and amplitude ``A = sqrt(P_received)`` from the radar
equation.  Slow-time effects (tag OOK modulation, Doppler) multiply ``A``
per chirp.

Convention: IF sample power is ``|x|^2`` in watts (no envelope 1/2), so
noise is complex AWGN of total power ``kTB_fs * NF``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.noise import phase_noise_increment_std
from repro.channel.propagation import radar_received_power_dbm
from repro.constants import SPEED_OF_LIGHT
from repro.errors import SimulationError
from repro.radar.config import RadarConfig
from repro.utils.rng import resolve_rng
from repro.utils.units import dbm_to_watts
from repro.utils.validation import ensure_positive
from repro.waveform.frame import FrameSchedule


@dataclass
class Scatterer:
    """A point reflector seen by the radar.

    Parameters
    ----------
    range_m:
        Distance from the radar at frame start.
    rcs_m2:
        Radar cross-section; for a modulating tag this is the *reflective*
        state RCS and ``amplitude_schedule`` scales it per chirp.
    velocity_m_s:
        Radial velocity (positive = receding).
    angle_deg:
        Azimuth off the radar boresight (affects antenna gain).
    amplitude_schedule:
        Optional per-chirp multiplicative amplitude (length = number of
        chirps in the frame); models tag OOK/ASK switching in slow time.
        Values are amplitude (voltage) factors in [0, 1].
    gain_jitter_std:
        Std of a per-chirp complex gain perturbation ``1 + sigma (g_r +
        j g_i) / sqrt(2)`` modelling residual oscillator phase noise and
        micro-vibration.  This is what keeps "static" clutter from being
        perfectly cancellable — the effect that bounds real-world
        backscatter SNR.  Default 1%.
    """

    range_m: float
    rcs_m2: float
    velocity_m_s: float = 0.0
    angle_deg: float = 0.0
    amplitude_schedule: np.ndarray | None = None
    gain_jitter_std: float = 0.01

    def __post_init__(self) -> None:
        ensure_positive("range_m", self.range_m)
        ensure_positive("rcs_m2", self.rcs_m2)
        if self.amplitude_schedule is not None:
            self.amplitude_schedule = np.asarray(self.amplitude_schedule, dtype=float)
            if np.any(self.amplitude_schedule < 0):
                raise SimulationError("amplitude_schedule entries must be >= 0")
        if self.gain_jitter_std < 0:
            raise SimulationError(
                f"gain_jitter_std must be >= 0, got {self.gain_jitter_std!r}"
            )

    def amplitude_at_chirp(self, chirp_index: int) -> float:
        """Slow-time amplitude factor for chirp ``chirp_index``."""
        if self.amplitude_schedule is None:
            return 1.0
        if chirp_index >= self.amplitude_schedule.size:
            raise SimulationError(
                f"amplitude_schedule has {self.amplitude_schedule.size} entries but "
                f"chirp {chirp_index} was requested"
            )
        return float(self.amplitude_schedule[chirp_index])

    def range_at_time(self, t_s: float) -> float:
        """Range at an absolute frame time, following constant velocity."""
        return self.range_m + self.velocity_m_s * t_s


@dataclass
class IFFrame:
    """Dechirped receiver output for one frame.

    ``chirp_samples`` is a list (one entry per slot) of complex IF sample
    arrays; lengths differ across slots when chirp durations differ (the
    radar samples only while the chirp is sweeping).
    """

    frame: FrameSchedule
    sample_rate_hz: float
    chirp_samples: list[np.ndarray] = field(default_factory=list)

    @property
    def num_chirps(self) -> int:
        return len(self.chirp_samples)

    def samples_per_chirp(self) -> list[int]:
        """Sample count of each slot."""
        return [samples.size for samples in self.chirp_samples]

    def chirp_start_times_s(self) -> np.ndarray:
        """Slot start times (slow-time axis for Doppler processing)."""
        return np.array([slot.start_time_s for slot in self.frame.slots])


class _ChirpScatterGeometry:
    """Per-(chirp, scatterer) receive geometry of one frame, as arrays.

    Each value is the float expression the per-chirp receive evaluated,
    elementwise: ranges at slot start, round-trip delays, beat
    frequencies, slow-time and radar-equation amplitudes.  A pair is
    *active* when its slow-time amplitude is nonzero and its beat is
    within the IF Nyquist band; only active pairs draw gain jitter or
    contribute a tone.  Errors are raised for the first offending chirp,
    in the per-chirp order.
    """

    def __init__(self, radar: "FMCWRadar", frame: FrameSchedule, scatterers) -> None:
        fs = radar.config.if_sample_rate_hz
        slots = frame.slots
        num_chirps, num_scatterers = len(slots), len(scatterers)
        self.lengths = np.array(
            [int(round(slot.chirp.duration_s * fs)) for slot in slots], dtype=int
        )
        starts = np.array([slot.start_time_s for slot in slots], dtype=float)
        slopes = np.array([slot.chirp.slope_hz_per_s for slot in slots], dtype=float)
        self.start_frequencies = np.array(
            [slot.chirp.start_frequency_hz for slot in slots], dtype=float
        )
        slow = np.ones((num_chirps, num_scatterers))
        scheduled = np.ones((num_chirps, num_scatterers), dtype=bool)
        for index, scatterer in enumerate(scatterers):
            schedule = scatterer.amplitude_schedule
            if schedule is not None:
                covered = min(schedule.size, num_chirps)
                slow[:covered, index] = schedule[:covered]
                scheduled[covered:, index] = False
        range_m = np.array([s.range_m for s in scatterers], dtype=float)
        velocity = np.array([s.velocity_m_s for s in scatterers], dtype=float)
        self.ranges = range_m + velocity * starts[:, None]
        lit = scheduled & (slow != 0.0)
        crossed = lit & (self.ranges <= 0)
        bad_chirps = (self.lengths < 2) | ~scheduled.all(axis=1) | crossed.any(axis=1)
        if bad_chirps.any():
            self._raise_first_error(
                int(np.argmax(bad_chirps)), frame, scatterers, fs, scheduled, crossed
            )
        self.taus = 2.0 * self.ranges / SPEED_OF_LIGHT
        self.beats = slopes[:, None] * self.taus
        self.active = lit & ~(self.beats > fs / 2.0)
        self.draws_jitter = self.active & (
            np.array([s.gain_jitter_std for s in scatterers], dtype=float) > 0
        )
        # One radar-equation evaluation per distinct (scatterer, range).
        self.amplitudes = np.zeros((num_chirps, num_scatterers))
        for index, scatterer in enumerate(scatterers):
            rows = np.flatnonzero(self.active[:, index])
            distinct, inverse = np.unique(self.ranges[rows, index], return_inverse=True)
            table = np.array(
                [radar.received_amplitude(scatterer, float(r)) for r in distinct]
            )
            if rows.size:
                self.amplitudes[rows, index] = table[inverse] * slow[rows, index]

    @staticmethod
    def _raise_first_error(chirp_index, frame, scatterers, fs, scheduled, crossed):
        duration_s = frame.slots[chirp_index].chirp.duration_s
        num_samples = int(round(duration_s * fs))
        if num_samples < 2:
            raise SimulationError(
                f"chirp {chirp_index} of {duration_s}s yields {num_samples} IF "
                f"samples at {fs}Hz"
            )
        for index, scatterer in enumerate(scatterers):
            if not scheduled[chirp_index, index]:
                scatterer.amplitude_at_chirp(chirp_index)
            if crossed[chirp_index, index]:
                range_now = scatterer.range_at_time(frame.slots[chirp_index].start_time_s)
                raise SimulationError(
                    f"scatterer crossed the radar (range {range_now} m) at chirp {chirp_index}"
                )

    def tone_table(self, scatterer_index: int, fs: float) -> "tuple[np.ndarray, np.ndarray]":
        """One scatterer's distinct beat tones ``exp(1j*phase)`` on this frame.

        One row per distinct (beat, carrier delay phase) pair, as long as
        the longest chirp that uses it and zero past that, so a static
        scatterer on chirps of one slope has one tone however many chirps
        share it.  Returns the ``(tones, longest chirp)`` table and each
        chirp's row.  Each sample is the per-chirp expression
        ``exp(1j * (2*pi * (beat * n / fs + carrier)))``.
        """
        beats = self.beats[:, scatterer_index]
        carrier = self.start_frequencies * self.taus[:, scatterer_index]
        # Complex keys sort and compare as (beat, carrier) pairs.
        _, first, row_of = np.unique(
            beats + 1j * carrier, return_index=True, return_inverse=True
        )
        row_lengths = np.zeros(first.size, dtype=int)
        np.maximum.at(row_lengths, row_of, self.lengths)
        width = int(self.lengths.max())
        inside = np.arange(width) < row_lengths[:, None]
        t_fast = np.arange(width) / fs
        table = np.zeros((first.size, width), dtype=complex)
        table[inside] = np.exp(
            1j * (2.0 * np.pi * (beats[first, None] * t_fast + carrier[first, None])[inside])
        )
        return table, row_of


#: Chirps per transient block in :meth:`FMCWRadar.receive_frame_multi_rx`.
_ROWS = 32


class FMCWRadar:
    """An FMCW radar transceiver simulated at IF.

    Parameters
    ----------
    config:
        Platform description (band, power, sampling, noise).
    """

    def __init__(self, config: RadarConfig) -> None:
        self.config = config

    def received_amplitude(self, scatterer: Scatterer, range_m: float | None = None) -> float:
        """Voltage amplitude (sqrt watts) of a scatterer's IF tone."""
        distance = scatterer.range_m if range_m is None else range_m
        gain = self.config.antenna.gain_db_at(scatterer.angle_deg)
        power_dbm = radar_received_power_dbm(
            self.config.tx_power_dbm,
            gain,
            gain,
            distance,
            self.config.center_frequency_hz,
            scatterer.rcs_m2,
        )
        return float(np.sqrt(dbm_to_watts(power_dbm)))

    def noise_power_w(self) -> float:
        """Total complex-noise power in the IF sample stream."""
        return float(
            dbm_to_watts(self.config.noise.noise_power_dbm(self.config.if_sample_rate_hz))
        )

    def receive_frame(
        self,
        frame: FrameSchedule,
        scatterers: "list[Scatterer]",
        *,
        rng: int | np.random.Generator | None = None,
        add_noise: bool = True,
    ) -> IFFrame:
        """Simulate the dechirped IF data for a full frame.

        Each slot yields ``round(T_chirp * f_s)`` complex samples containing
        every scatterer's beat tone (with slow-time amplitude schedules and
        Doppler applied) plus receiver noise.
        """
        return self.receive_frame_multi_rx(
            frame, scatterers, rx_offsets_wavelengths=[0.0], rng=rng, add_noise=add_noise
        )[0]

    def receive_frame_multi_rx(
        self,
        frame: FrameSchedule,
        scatterers: "list[Scatterer]",
        *,
        rx_offsets_wavelengths: "list[float]",
        rng: int | np.random.Generator | None = None,
        add_noise: bool = True,
    ) -> "list[IFFrame]":
        """Simulate a multi-antenna receive: one IFFrame per RX element.

        ``rx_offsets_wavelengths`` are the element positions along the
        array axis in carrier wavelengths (e.g. ``[0.0, 0.5]`` for a
        half-wavelength pair).  A scatterer at azimuth ``theta`` arrives at
        element ``m`` with steering phase ``2 pi x_m sin(theta)``.  The
        per-chirp gain jitter of each scatterer is drawn ONCE and shared
        across elements (it is the scatterer's physics, not the
        receiver's); thermal noise is independent per element.
        """
        if not rx_offsets_wavelengths:
            raise SimulationError("need at least one RX element")
        generator = resolve_rng(rng)
        fs = self.config.if_sample_rate_hz
        noise_power = self.noise_power_w() if add_noise else 0.0
        num_rx = len(rx_offsets_wavelengths)
        steering = np.array(
            [
                [
                    np.exp(2j * np.pi * offset * np.sin(np.radians(scatterer.angle_deg)))
                    for scatterer in scatterers
                ]
                for offset in rx_offsets_wavelengths
            ],
            dtype=complex,
        )
        geometry = _ChirpScatterGeometry(self, frame, scatterers)
        lengths = geometry.lengths
        num_chirps = lengths.size

        # Every standard normal the frame needs comes from one draw, laid
        # out in the per-chirp order: each drawing scatterer's jitter pair
        # (real, imag), the phase-noise increments, then each RX element's
        # real and imaginary thermal noise.
        jitter_rank = np.cumsum(geometry.draws_jitter, axis=1) - 1
        jitter_counts = geometry.draws_jitter.sum(axis=1)
        linewidth = self.config.phase_noise_linewidth_hz
        phase_counts = lengths * (linewidth > 0)
        noisy = add_noise and noise_power > 0
        counts = 2 * jitter_counts + phase_counts + 2 * num_rx * lengths * noisy
        starts = np.cumsum(counts) - counts
        normals = generator.standard_normal(int(counts.sum()))

        gains = np.full(geometry.amplitudes.shape, 1.0 + 0j)
        chirp_of, scatterer_of = np.nonzero(geometry.draws_jitter)
        jitter_at = starts[chirp_of] + 2 * jitter_rank[chirp_of, scatterer_of]
        jitter_scale = np.array([s.gain_jitter_std for s in scatterers]) / np.sqrt(2.0)
        gains[chirp_of, scatterer_of] += jitter_scale[scatterer_of] * (
            normals[jitter_at] + 1j * normals[jitter_at + 1]
        )
        coefficients = np.where(geometry.active, geometry.amplitudes * gains, 0.0)
        phase_starts = starts + 2 * jitter_counts

        # The frame is one (chirps, longest chirp) block per RX element;
        # chirp c is the first lengths[c] samples of row c.  Every sample
        # is built with the per-chirp arithmetic in the per-chirp order
        # (tones summed in scatterer order into zeros, then phase noise,
        # then thermal noise); the tail of a shorter row is scratch that no
        # chirp reads.  Transients cover one block of _ROWS rows at a time.
        width = int(lengths.max())
        offsets = np.arange(width)
        blocks = np.zeros((num_rx, num_chirps, width), dtype=complex)
        row_blocks = [slice(first, first + _ROWS) for first in range(0, num_chirps, _ROWS)]
        term = np.empty((min(_ROWS, num_chirps), width), dtype=complex)
        steered = np.empty_like(term) if (steering != 1.0).any() else None
        for scatterer_index in range(len(scatterers)):
            if not geometry.active[:, scatterer_index].any():
                continue
            tones, tone_of = geometry.tone_table(scatterer_index, fs)
            for rows in row_blocks:
                coefficient = coefficients[rows, scatterer_index, None]
                scratch = term[: len(coefficient)]
                # One broadcast row when every chirp shares the tone.
                if len(tones) == 1:
                    np.multiply(coefficient, tones, out=scratch)
                else:
                    np.take(tones, tone_of[rows], axis=0, out=scratch)
                    np.multiply(coefficient, scratch, out=scratch)
                for rx_index in range(num_rx):
                    phasor = steering[rx_index, scatterer_index]
                    # A unit steering phasor (one element at offset 0) would
                    # only change the sign of zeros in ``term``; the block
                    # starts at +0.0 and a sum never turns it into -0.0, so
                    # skipping the multiply leaves every bit unchanged.
                    if phasor == 1.0:
                        blocks[rx_index, rows] += scratch
                    else:
                        np.multiply(phasor, scratch, out=steered[: len(scratch)])
                        blocks[rx_index, rows] += steered[: len(scratch)]
        # Row c of a normals window starts at that chirp's first draw of
        # the kind; past the chirp's length it reads scratch (clipped).
        first_noise = phase_starts + phase_counts
        for rows in row_blocks:
            if linewidth > 0:
                increments = 0.0 + phase_noise_increment_std(fs, linewidth) * (
                    np.take(normals, phase_starts[rows, None] + offsets, mode="clip")
                )
                blocks[:, rows] *= np.exp(1j * np.cumsum(increments, axis=1))
            for rx_index in range(num_rx if noisy else 0):
                real_at = (first_noise + 2 * rx_index * lengths)[rows, None] + offsets
                noise = term[: len(real_at)]
                # samples + scale * (real + 1j * imag), one step at a time.
                np.multiply(
                    1j, np.take(normals, real_at + lengths[rows, None], mode="clip"), out=noise
                )
                np.add(np.take(normals, real_at, mode="clip"), noise, out=noise)
                np.multiply(np.sqrt(noise_power / 2.0), noise, out=noise)
                blocks[rx_index, rows] += noise
        per_rx_samples = []
        for rx_index in range(num_rx):
            samples = blocks[rx_index]
            per_rx_samples.append(
                [row[:length] for row, length in zip(samples, lengths.tolist())]
            )
        return [
            IFFrame(frame=frame, sample_rate_hz=fs, chirp_samples=chirp_list)
            for chirp_list in per_rx_samples
        ]
