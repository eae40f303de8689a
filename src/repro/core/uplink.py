"""Radar-side uplink decoding (paper Section 3.3).

The tag's switch toggles per chirp, so after IF correction the tag's range
cell carries a square-wave amplitude modulation in slow time.  The decoder:

1. aligns the (possibly mixed-slope) frame onto a common range grid,
2. subtracts the static background (the frame's first chirp, per the
   paper — generalized here to the per-cell slow-time mean, which equals
   the first-chirp profile for static scenes but tolerates noise),
3. locates the tag cell by matched-filtering each cell's slow-time
   spectrum against the tag's modulation signature,
4. slices the tag cell's slow-time series into bit blocks and decides each
   bit by tone detection (OOK) or tone comparison (FSK).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecodingError
from repro.radar.detection import TagDetection, detect_modulated_tag
from repro.radar.fmcw import IFFrame
from repro.radar.if_correction import IFCorrectionResult, align_profiles_to_common_grid
from repro.tag.modulator import ModulationScheme, UplinkModulator
from repro.utils.dsp import goertzel_power_many


@dataclass
class UplinkResult:
    """Decoded uplink data plus the detection that anchored it."""

    bits: np.ndarray
    detection: TagDetection
    bit_scores: np.ndarray
    correction: IFCorrectionResult


class UplinkDecoder:
    """Decodes tag backscatter bits from radar IF frames.

    Parameters
    ----------
    modulator:
        The tag's uplink modulation configuration (shared knowledge: the
        radar assigned it over the downlink).
    min_range_m / max_range_m:
        Search window for the tag.
    ook_threshold_db:
        Tone-to-floor margin above which an OOK block reads as 1.
    """

    def __init__(
        self,
        modulator: UplinkModulator,
        *,
        min_range_m: float = 0.3,
        max_range_m: float | None = None,
        ook_threshold_db: float = 10.0,
    ) -> None:
        self.modulator = modulator
        self.min_range_m = min_range_m
        self.max_range_m = max_range_m
        self.ook_threshold_db = ook_threshold_db

    def _blocks(self, series: np.ndarray) -> np.ndarray:
        per_bit = self.modulator.chirps_per_bit
        num_bits = series.size // per_bit
        if num_bits < 1:
            raise DecodingError(
                f"{series.size} chirps cannot carry a {per_bit}-chirp bit"
            )
        return series[: num_bits * per_bit].reshape(num_bits, per_bit)

    def _tone_power(self, block: np.ndarray, rate_hz: float) -> float:
        slow_fs = 1.0 / self.modulator.chirp_period_s
        return float(
            goertzel_power_many(block - block.mean(), np.array([rate_hz]), slow_fs)[0]
        )

    def _noise_floor(self, block: np.ndarray) -> float:
        """Median off-tone power: probe frequencies away from the signature.

        Probes avoid the fundamental and its odd harmonics; the median over
        many probes is robust to a single probe landing in a leakage skirt.
        """
        slow_fs = 1.0 / self.modulator.chirp_period_s
        nyquist = slow_fs / 2.0
        base = self.modulator.modulation_rate_hz
        bin_width = slow_fs / max(block.size, 1)
        probes = []
        for factor in (0.23, 0.31, 0.43, 0.57, 0.66, 0.79, 0.87, 1.34, 1.62):
            candidate = factor * base
            if not 0 < candidate < nyquist:
                continue
            # Skip probes within two analysis bins of any odd harmonic.
            harmonic_distance = min(
                abs(candidate - k * base) for k in (1, 3, 5)
            )
            if harmonic_distance < 2.0 * bin_width:
                continue
            probes.append(candidate)
        if not probes:
            probes = [0.4 * nyquist]
        powers = goertzel_power_many(block - block.mean(), np.array(probes), slow_fs)
        return float(np.median(powers)) + 1e-30

    def decode(
        self,
        if_frame: IFFrame,
        *,
        num_bits: int | None = None,
        correction: IFCorrectionResult | None = None,
    ) -> UplinkResult:
        """Full uplink receive chain for one frame.

        Parameters
        ----------
        num_bits:
            Expected bit count (default: as many whole blocks as fit).
        correction:
            Reuse an existing IF-correction result (the ISAC session
            computes it once for sensing, uplink, and localization).
        """
        if correction is None:
            correction = align_profiles_to_common_grid(if_frame)
        detection = self._detect(if_frame, correction)
        series = np.abs(correction.aligned[:, detection.range_bin])
        blocks = self._blocks(series)
        if num_bits is not None:
            if num_bits > blocks.shape[0]:
                raise DecodingError(
                    f"requested {num_bits} bits but the frame carries only "
                    f"{blocks.shape[0]} blocks"
                )
            blocks = blocks[:num_bits]

        bits = np.empty(blocks.shape[0], dtype=np.uint8)
        scores = np.empty(blocks.shape[0])
        threshold = 10.0 ** (self.ook_threshold_db / 10.0)
        for index, block in enumerate(blocks):
            if self.modulator.scheme is ModulationScheme.OOK:
                tone = self._tone_power(block, self.modulator.modulation_rate_hz)
                floor = self._noise_floor(block)
                ratio = tone / floor
                bits[index] = 1 if ratio > threshold else 0
                scores[index] = ratio
            else:
                power_0 = self._tone_power(block, self.modulator.modulation_rate_hz)
                power_1 = self._tone_power(block, self.modulator.effective_fsk_rate_1_hz)
                bits[index] = 1 if power_1 > power_0 else 0
                scores[index] = power_1 / (power_0 + 1e-30)
        return UplinkResult(
            bits=bits, detection=detection, bit_scores=scores, correction=correction
        )

    def _detect(self, if_frame: IFFrame, correction: IFCorrectionResult) -> TagDetection:
        """Locate the tag from its total modulated energy.

        An FSK tag splits its airtime between two rates, so detection uses
        the union of both signatures — otherwise a data pattern dominated
        by one rate would dilute the matched filter and let strong clutter
        residue steal the detection.
        """
        period = if_frame.frame.uniform_period_s()
        rates = [self.modulator.modulation_rate_hz]
        if self.modulator.scheme is ModulationScheme.FSK:
            rates.append(self.modulator.effective_fsk_rate_1_hz)
        return detect_modulated_tag(
            correction.aligned,
            correction.range_grid_m,
            period,
            rates,
            min_range_m=self.min_range_m,
            coherence_chirps=self.modulator.chirps_per_bit,
        )

    def measure_snr_db(
        self, if_frame: IFFrame, *, correction: IFCorrectionResult | None = None
    ) -> float:
        """Uplink signature SNR at the tag cell (the Fig. 15 metric).

        Ratio of the tone power at the detected cell to the off-template
        spectral floor of that cell.  ``correction`` reuses an existing
        IF-correction result of this frame instead of aligning again.
        """
        if correction is None:
            correction = align_profiles_to_common_grid(if_frame)
        return self._detect(if_frame, correction).snr_db
