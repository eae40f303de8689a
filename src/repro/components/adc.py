"""ADC model: sampling, quantization, clipping, optional aperture jitter.

The tag's power story rests on the decoder needing only a kHz-rate ADC
(paper Section 3.2.1); this model enforces the rate and resolution limits
explicitly so that benches and tests exercise a realistic converter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.dsp import quantize_uniform
from repro.utils.rng import resolve_rng
from repro.utils.validation import ensure_positive


@dataclass(frozen=True)
class ADC:
    """Ideal-clock uniform ADC with optional jitter.

    Parameters
    ----------
    sample_rate_hz:
        Conversion rate.  BiScatter's tag uses 100s of kHz to ~1 MHz.
    bits:
        Resolution; quantization uses a mid-rise uniform characteristic.
    full_scale_v:
        Clipping range is ``[-full_scale_v, +full_scale_v]``.
    aperture_jitter_s:
        RMS sample-clock jitter, modelled as first-order amplitude noise
        proportional to the local signal derivative.
    """

    sample_rate_hz: float = 1e6
    bits: int = 12
    full_scale_v: float = 1.0
    aperture_jitter_s: float = 0.0

    def __post_init__(self) -> None:
        ensure_positive("sample_rate_hz", self.sample_rate_hz)
        if self.bits < 1:
            raise ConfigurationError(f"bits must be >= 1, got {self.bits}")
        ensure_positive("full_scale_v", self.full_scale_v)
        if self.aperture_jitter_s < 0:
            raise ConfigurationError(
                f"aperture_jitter_s must be >= 0, got {self.aperture_jitter_s!r}"
            )

    @property
    def lsb_v(self) -> float:
        """Quantization step size."""
        return 2.0 * self.full_scale_v / 2**self.bits

    @property
    def quantization_noise_rms_v(self) -> float:
        """RMS quantization noise, ``LSB / sqrt(12)``."""
        return self.lsb_v / np.sqrt(12.0)

    def nyquist_hz(self) -> float:
        """Highest representable (real) signal frequency."""
        return self.sample_rate_hz / 2.0

    def sample(
        self,
        signal: np.ndarray,
        signal_rate_hz: float,
        *,
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Resample a continuous-time proxy signal and quantize it.

        ``signal`` is treated as samples of the analog waveform at
        ``signal_rate_hz``; the ADC picks (interpolates) values at its own
        rate, applies jitter, then quantizes and clips.  When the rates are
        equal the resampling is an identity.
        """
        ensure_positive("signal_rate_hz", signal_rate_hz)
        x = np.asarray(signal, dtype=float)
        if x.size == 0:
            return x.copy()
        duration = x.size / signal_rate_hz
        num_out = max(int(np.floor(duration * self.sample_rate_hz - 1e-9)) + 1, 1)
        sample_times = np.arange(num_out) / self.sample_rate_hz
        if self.aperture_jitter_s > 0:
            jitter = resolve_rng(rng).normal(0.0, self.aperture_jitter_s, sample_times.size)
            sample_times = np.clip(sample_times + jitter, 0.0, duration - 1.0 / signal_rate_hz)
        source_times = np.arange(x.size) / signal_rate_hz
        analog = np.interp(sample_times, source_times, x)
        return self.quantize(analog)

    def quantize(self, samples: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """Quantize already-sampled values (skip resampling), into ``out``
        in place when given (see :func:`~repro.utils.dsp.quantize_uniform`)."""
        return quantize_uniform(samples, self.bits, self.full_scale_v, out=out)

    def with_full_scale(self, full_scale_v: float) -> "ADC":
        """The same converter with a different clipping range.

        Impairment models use this to emulate gain mis-set / saturation:
        shrinking the full scale below the signal peak clips the waveform
        through the unchanged quantizer characteristic.
        """
        from dataclasses import replace

        return replace(self, full_scale_v=full_scale_v)
