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

from repro.channel.noise import phase_noise_samples
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
        per_rx_samples: "list[list[np.ndarray]]" = [[] for _ in range(num_rx)]
        steering = [
            np.array(
                [
                    np.exp(
                        2j
                        * np.pi
                        * offset
                        * np.sin(np.radians(scatterer.angle_deg))
                    )
                    for scatterer in scatterers
                ]
            )
            for offset in rx_offsets_wavelengths
        ]
        # Chirp-geometry invariants, computed once per call: radar-equation
        # amplitudes per (scatterer, range) and beat tones per (beat, f0,
        # tau, length).  A static scatterer's tone repeats on every chirp
        # of the same shape.  Random draws keep their per-chirp order, and
        # each chirp's samples are still a fresh array: tones are only read.
        amplitudes: "dict[tuple[int, float], float]" = {}
        tones: "dict[tuple[float, float, float, int], np.ndarray]" = {}
        for chirp_index, slot in enumerate(frame.slots):
            chirp = slot.chirp
            num_samples = int(round(chirp.duration_s * fs))
            if num_samples < 2:
                raise SimulationError(
                    f"chirp {chirp_index} of {chirp.duration_s}s yields {num_samples} IF "
                    f"samples at {fs}Hz"
                )
            t_fast = np.arange(num_samples) / fs
            contributions: "list[tuple[int, np.ndarray]]" = []
            for scatterer_index, scatterer in enumerate(scatterers):
                slow_amplitude = scatterer.amplitude_at_chirp(chirp_index)
                if slow_amplitude == 0.0:
                    continue
                range_now = scatterer.range_at_time(slot.start_time_s)
                if range_now <= 0:
                    raise SimulationError(
                        f"scatterer crossed the radar (range {range_now} m) at chirp {chirp_index}"
                    )
                tau = 2.0 * range_now / SPEED_OF_LIGHT
                beat_hz = chirp.slope_hz_per_s * tau
                if beat_hz > fs / 2.0:
                    # Beyond the receiver's unambiguous IF band: the
                    # anti-aliasing filter removes it.
                    continue
                amplitude_key = (scatterer_index, range_now)
                if amplitude_key not in amplitudes:
                    amplitudes[amplitude_key] = self.received_amplitude(scatterer, range_now)
                amplitude = amplitudes[amplitude_key] * slow_amplitude
                gain = 1.0 + 0j
                if scatterer.gain_jitter_std > 0:
                    scale = scatterer.gain_jitter_std / np.sqrt(2.0)
                    gain += scale * (
                        generator.standard_normal() + 1j * generator.standard_normal()
                    )
                tone_key = (beat_hz, chirp.start_frequency_hz, tau, num_samples)
                if tone_key not in tones:
                    phase = 2.0 * np.pi * (beat_hz * t_fast + chirp.start_frequency_hz * tau)
                    tones[tone_key] = np.exp(1j * phase)
                contributions.append((scatterer_index, amplitude * gain * tones[tone_key]))
            if self.config.phase_noise_linewidth_hz > 0:
                lo_noise = phase_noise_samples(
                    num_samples,
                    fs,
                    linewidth_hz=self.config.phase_noise_linewidth_hz,
                    rng=generator,
                )
            else:
                lo_noise = None
            for rx_index in range(num_rx):
                samples = np.zeros(num_samples, dtype=complex)
                for scatterer_index, tone in contributions:
                    samples += steering[rx_index][scatterer_index] * tone
                if lo_noise is not None:
                    samples = samples * lo_noise
                if add_noise and noise_power > 0:
                    scale = np.sqrt(noise_power / 2.0)
                    samples = samples + scale * (
                        generator.standard_normal(num_samples)
                        + 1j * generator.standard_normal(num_samples)
                    )
                per_rx_samples[rx_index].append(samples)
        return [
            IFFrame(frame=frame, sample_rate_hz=fs, chirp_samples=chirp_list)
            for chirp_list in per_rx_samples
        ]
