"""Target and tag detection: CA-CFAR plus the tag-signature matched filter.

BiScatter localizes tags by scanning range cells for the tag's known
modulation signature (after background subtraction), then refining the
range estimate — rather than thresholding raw power, which clutter would
dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import DetectionError
from repro.radar.doppler_processing import slow_time_spectrum
from repro.utils.dsp import parabolic_peak_offset
from repro.utils.validation import ensure_positive


def cfar_detect(
    power_profile: np.ndarray,
    *,
    guard_cells: int = 2,
    training_cells: int = 8,
    threshold_factor: float = 5.0,
) -> np.ndarray:
    """Cell-averaging CFAR: indices of cells exceeding the local noise level.

    ``threshold_factor`` is the multiplicative margin over the training-cell
    mean (linear power).
    """
    power = np.asarray(power_profile, dtype=float)
    if power.ndim != 1:
        raise ValueError(f"power_profile must be 1-D, got shape {power.shape}")
    if guard_cells < 0 or training_cells < 1:
        raise ValueError("guard_cells must be >= 0 and training_cells >= 1")
    ensure_positive("threshold_factor", threshold_factor)
    n = power.size
    detections = []
    for cell in range(n):
        lead_start = max(cell - guard_cells - training_cells, 0)
        lead_end = max(cell - guard_cells, 0)
        lag_start = min(cell + guard_cells + 1, n)
        lag_end = min(cell + guard_cells + training_cells + 1, n)
        training = np.concatenate([power[lead_start:lead_end], power[lag_start:lag_end]])
        if training.size == 0:
            continue
        if power[cell] > threshold_factor * training.mean():
            detections.append(cell)
    return np.asarray(detections, dtype=int)


@dataclass(frozen=True)
class TagDetection:
    """Result of locating a modulating tag in a processed frame."""

    range_m: float
    range_bin: int
    signature_score: float
    snr_db: float


def detect_modulated_tag(
    aligned: np.ndarray,
    range_grid_m: np.ndarray,
    chirp_period_s: float,
    modulation_rate_hz: "float | Sequence[float]",
    *,
    min_range_m: float = 0.3,
    num_harmonics: int = 3,
    background: np.ndarray | None = None,
    coherence_chirps: int | None = None,
    presence_threshold: float = 2.5,
    min_cell_snr_db: float = 6.0,
) -> TagDetection:
    """Find the range cell whose slow-time spectrum best matches the tag.

    Parameters
    ----------
    aligned:
        (chirps x range-bins) matrix on a common range grid (IF-corrected).
    background:
        Optional per-range-bin static background (e.g. the frame's first
        chirp, as the paper uses) subtracted before processing.
    modulation_rate_hz:
        The tag's assigned switching rate — or a sequence of rates for tags
        that alternate (FSK data): the matched template is then the union
        of the per-rate signatures, so a tag is detected from its total
        modulated energy regardless of the data pattern.
    coherence_chirps:
        Number of chirps over which the tag's switching is phase-coherent
        (its ``chirps_per_bit`` when carrying data; ``None`` = the whole
        frame).  Sets the template line width.

    Returns the best cell with a parabolic sub-bin range refinement and the
    signature-to-median SNR of the winning cell.
    """
    matrix = np.asarray(aligned)
    ranges = np.asarray(range_grid_m, dtype=float)
    if matrix.shape[1] != ranges.size:
        raise ValueError(
            f"aligned has {matrix.shape[1]} range bins but grid has {ranges.size}"
        )
    if background is not None:
        matrix = matrix - np.asarray(background)[None, :]
    freqs, magnitudes = slow_time_spectrum(matrix, chirp_period_s, remove_dc=True)
    nyquist = 1.0 / (2.0 * chirp_period_s)
    rates = (
        [float(modulation_rate_hz)]
        if np.isscalar(modulation_rate_hz)
        else [float(r) for r in modulation_rate_hz]
    )
    if not rates:
        raise DetectionError("need at least one modulation rate")
    for rate in rates:
        if rate >= nyquist:
            raise DetectionError(
                f"modulation rate {rate}Hz aliases: slow-time Nyquist is {nyquist}Hz"
            )
    from repro.radar.doppler_processing import square_wave_signature

    num_chirps = matrix.shape[0]
    if coherence_chirps is not None and coherence_chirps < num_chirps:
        n_fft_slow = 2 * freqs.size  # slow_time_spectrum keeps half
        line_width = max(int(np.ceil(n_fft_slow / coherence_chirps)), 1)
    else:
        line_width = 1
    template = np.zeros(freqs.size)
    for rate in rates:
        template += square_wave_signature(
            rate, freqs, num_harmonics=num_harmonics, line_width_bins=line_width
        )
    norm = np.linalg.norm(template)
    if norm > 0:
        template = template / norm
    # Normalize each cell's template response by that cell's own
    # off-template spectral floor (a Doppler-domain CFAR).  A clutter cell
    # whose slow-time residue is broadband raises its own floor and scores
    # ~1, while a tag cell concentrates energy exactly on the template.
    guard = max(2, (line_width + 1) // 2 + 1)
    exclude = template > 0
    # Also exclude EVERY harmonic of each rate (odd beyond the template,
    # and even ones from duty-cycle asymmetry and bit-boundary transients):
    # they belong to the tag, not to the floor.
    for rate in rates:
        harmonic = rate
        while harmonic <= freqs[-1]:
            exclude[int(np.argmin(np.abs(freqs - harmonic)))] = True
            harmonic += rate
    for _ in range(guard):
        exclude = exclude | np.roll(exclude, 1) | np.roll(exclude, -1)
    exclude[: guard + 1] = True
    floor_rows = magnitudes[~exclude, :]
    if floor_rows.shape[0] == 0:
        raise DetectionError("template leaves no off-template bins for the floor")
    floors = np.median(floor_rows, axis=0) + 1e-30
    raw_scores = template @ magnitudes
    normalized = raw_scores / floors
    # Two-stage decision: the normalized (Doppler-CFAR) score rejects
    # clutter cells whose broadband residue mimics raw template energy, but
    # it plateaus across the tag's range skirt; the raw response is sharply
    # peaked there.  Gate on the normalized score, then take the raw peak
    # inside the gate.
    valid = ranges >= min_range_m
    if not np.any(valid):
        raise DetectionError(f"min_range_m={min_range_m} excludes every range bin")
    gate = valid & (normalized >= 0.5 * normalized[valid].max())
    scores = np.where(gate, raw_scores, 0.0)
    best = int(np.argmax(scores))
    score = float(raw_scores[best])
    # Presence test: the winning cell's CFAR score against the population
    # median.  The median self-calibrates for template width (a wider
    # template collects more noise bins everywhere), so a fixed ratio works
    # across configurations.
    median_normalized = float(np.median(normalized[valid]))
    if median_normalized <= 0 or normalized[best] < presence_threshold * median_normalized:
        raise DetectionError("no cell shows a tag-modulation signature above the floor")
    refined_range = ranges[best]
    if 0 < best < raw_scores.size - 1:
        delta = parabolic_peak_offset(
            raw_scores[best - 1] ** 2, raw_scores[best] ** 2, raw_scores[best + 1] ** 2
        )
        bin_width = ranges[1] - ranges[0]
        refined_range = ranges[best] + delta * bin_width
    snr_db = max(
        _cell_tone_snr_db(
            magnitudes[:, best],
            freqs,
            rate,
            num_harmonics=num_harmonics,
            line_width_bins=line_width,
        )
        for rate in rates
    )
    # Second presence check, within the winning cell: a genuine tag line
    # towers over that cell's own spectral floor, while a broadband
    # (jittery clutter / other-tag) cell winning the population test shows
    # no line at all — reject those instead of reporting a phantom tag.
    if snr_db < min_cell_snr_db:
        raise DetectionError(
            f"winning cell's line-to-floor ratio {snr_db:.1f} dB is below the "
            f"{min_cell_snr_db} dB presence requirement"
        )
    return TagDetection(
        range_m=float(refined_range),
        range_bin=best,
        signature_score=score,
        snr_db=float(snr_db),
    )


def detect_all_tags(
    aligned: np.ndarray,
    range_grid_m: np.ndarray,
    chirp_period_s: float,
    modulation_rates_hz: "Sequence[float]",
    *,
    min_range_m: float = 0.3,
    num_harmonics: int = 3,
    coherence_chirps: int | None = None,
) -> "dict[float, TagDetection | None]":
    """Locate every enrolled tag in one processed frame.

    Runs the signature matched filter once per assigned modulation rate
    (the multi-tag network's per-tag identities) and returns a mapping
    rate -> detection, with ``None`` where no tag answered at that rate —
    the radar-side half of the Section-6 multi-tag inventory.

    Caveat: the slot-rate sampling aliases each tag's square-wave
    harmonics across the whole slow-time band, so a probe at an
    unassigned rate can land on another tag's aliased harmonic and report
    that tag's cell.  Callers should treat a hit collocated with an
    already-identified tag as a harmonic alias, not a new tag — the
    network layer's rate assignment (:func:`repro.core.network.
    assign_modulation_rates`) spaces rates to keep *fundamental* lines
    apart, which is what the per-tag decode relies on.
    """
    results: "dict[float, TagDetection | None]" = {}
    for rate in modulation_rates_hz:
        try:
            results[float(rate)] = detect_modulated_tag(
                aligned,
                range_grid_m,
                chirp_period_s,
                rate,
                min_range_m=min_range_m,
                num_harmonics=num_harmonics,
                coherence_chirps=coherence_chirps,
            )
        except DetectionError:
            results[float(rate)] = None
    return results


def _cell_tone_snr_db(
    column: np.ndarray,
    freqs: np.ndarray,
    modulation_rate_hz: float,
    *,
    num_harmonics: int = 3,
    guard_bins: int = 2,
    line_width_bins: int = 1,
) -> float:
    """Spectral SNR of the modulation tone within one range cell.

    Fundamental-line power (the peak within the line's width) over the
    median off-template spectral power of the same cell — the quantity the
    paper's Fig. 15 reports as uplink SNR.
    """
    magnitudes = np.abs(np.asarray(column, dtype=float))
    fundamental = int(np.argmin(np.abs(freqs - modulation_rate_hz)))
    half_width = max((line_width_bins - 1) // 2, 0)
    low = max(fundamental - half_width, 0)
    line_power = float(np.max(magnitudes[low : fundamental + half_width + 1] ** 2))
    exclude = np.zeros(freqs.size, dtype=bool)
    exclude[: guard_bins + 1] = True  # residual DC leakage
    spread = guard_bins + half_width
    for harmonic in range(1, 2 * num_harmonics, 2):
        target = harmonic * modulation_rate_hz
        index = int(np.argmin(np.abs(freqs - target)))
        lo = max(index - spread, 0)
        exclude[lo : index + spread + 1] = True
    floor_bins = magnitudes[~exclude]
    if floor_bins.size == 0:
        raise DetectionError("no off-template bins available for the noise floor")
    floor = float(np.median(floor_bins**2))
    if floor <= 0:
        floor = 1e-30
    return float(10.0 * np.log10(line_power / floor))
