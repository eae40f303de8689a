"""Noise models: thermal floor, receiver noise figure, AWGN injection.

SNR bookkeeping convention: all SNRs are power ratios in dB over the noise
power integrated across the stated bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import BOLTZMANN, REFERENCE_TEMPERATURE_K
from repro.errors import ConfigurationError
from repro.utils.rng import resolve_rng
from repro.utils.units import db_to_power_ratio, watts_to_dbm
from repro.utils.validation import ensure_positive


def thermal_noise_power_dbm(
    bandwidth_hz: float, *, temperature_k: float = REFERENCE_TEMPERATURE_K
) -> float:
    """Thermal noise power ``k T B`` in dBm."""
    ensure_positive("bandwidth_hz", bandwidth_hz)
    ensure_positive("temperature_k", temperature_k)
    return float(watts_to_dbm(BOLTZMANN * temperature_k * bandwidth_hz))


@dataclass(frozen=True)
class NoiseModel:
    """Receiver-referred noise: thermal floor raised by a noise figure.

    Parameters
    ----------
    noise_figure_db:
        Cascade noise figure of the receive chain.
    temperature_k:
        Physical temperature for the thermal floor.
    """

    noise_figure_db: float = 6.0
    temperature_k: float = REFERENCE_TEMPERATURE_K

    def __post_init__(self) -> None:
        if self.noise_figure_db < 0:
            raise ConfigurationError(
                f"noise_figure_db must be >= 0, got {self.noise_figure_db!r}"
            )
        ensure_positive("temperature_k", self.temperature_k)

    def noise_power_dbm(self, bandwidth_hz: float) -> float:
        """Total noise power over ``bandwidth_hz``."""
        return thermal_noise_power_dbm(bandwidth_hz, temperature_k=self.temperature_k) + self.noise_figure_db

    def snr_db(self, signal_power_dbm: float, bandwidth_hz: float) -> float:
        """SNR of a signal at ``signal_power_dbm`` over this noise floor."""
        return signal_power_dbm - self.noise_power_dbm(bandwidth_hz)


def awgn(
    shape: "int | tuple[int, ...]",
    noise_power_w: float,
    *,
    complex_valued: bool = False,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Generate AWGN samples of total power ``noise_power_w``.

    For complex noise the power splits equally between I and Q.
    """
    ensure_positive("noise_power_w", noise_power_w)
    generator = resolve_rng(rng)
    if complex_valued:
        scale = np.sqrt(noise_power_w / 2.0)
        return scale * (generator.standard_normal(shape) + 1j * generator.standard_normal(shape))
    return np.sqrt(noise_power_w) * generator.standard_normal(shape)


def awgn_for_snr(
    signal: np.ndarray,
    snr_db: float,
    *,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Return ``signal`` plus AWGN sized for the requested mean SNR.

    Signal power is estimated as the mean squared magnitude; complex
    signals receive complex noise.
    """
    x = np.asarray(signal)
    if x.size == 0:
        raise ConfigurationError("cannot add noise to an empty signal")
    power = float(np.mean(np.abs(x) ** 2))
    if power <= 0:
        raise ConfigurationError("cannot add noise relative to a zero-power signal")
    noise_power = power / db_to_power_ratio(snr_db)
    noise = awgn(x.shape, noise_power, complex_valued=np.iscomplexobj(x), rng=rng)
    return x + noise


def phase_noise_increment_std(sample_rate_hz: float, linewidth_hz: float) -> float:
    """Std of one sample's phase step in a Wiener process of that linewidth."""
    return np.sqrt(2.0 * np.pi * linewidth_hz / sample_rate_hz)


def phase_noise_samples(
    num_samples: int,
    sample_rate_hz: float,
    *,
    linewidth_hz: float = 100.0,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Wiener (random-walk) phase-noise process, ``exp(j phi[n])``.

    Models oscillator phase noise with a Lorentzian linewidth; multiply a
    complex envelope by these samples to impose the impairment.
    """
    if num_samples < 1:
        raise ConfigurationError(f"num_samples must be >= 1, got {num_samples}")
    ensure_positive("sample_rate_hz", sample_rate_hz)
    if linewidth_hz < 0:
        raise ConfigurationError(f"linewidth_hz must be >= 0, got {linewidth_hz!r}")
    if linewidth_hz == 0:
        return np.ones(num_samples, dtype=complex)
    generator = resolve_rng(rng)
    increment_std = phase_noise_increment_std(sample_rate_hz, linewidth_hz)
    increments = generator.normal(0.0, increment_std, num_samples)
    phase = np.cumsum(increments)
    return np.exp(1j * phase)
