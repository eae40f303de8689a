"""Tag localization (paper Section 3.3, Fig. 16).

BiScatter localizes the tag by its modulation signature — not raw power —
so strong static clutter cannot steal the detection.  The coarse estimate
comes from the signature matched filter on the IF-corrected range grid;
a zoom-DFT refinement over the background-subtracted raw IF samples then
reaches centimeter accuracy, the same super-resolution recipe Millimetro
uses, here made slope-agnostic by the IF correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.radar.detection import TagDetection, detect_modulated_tag
from repro.radar.fmcw import IFFrame
from repro.radar.if_correction import IFCorrectionResult, align_profiles_to_common_grid
from repro.radar.range_processing import estimate_range_zoom
from repro.utils.validation import ensure_positive


@dataclass
class LocalizationResult:
    """Output of one localization pass."""

    range_m: float
    coarse_range_m: float
    detection: TagDetection
    num_chirps_used: int


class TagLocalizer:
    """Centimeter-level tag ranging from modulated backscatter.

    Parameters
    ----------
    modulation_rate_hz:
        The tag's assigned switching rate (its signature).
    min_range_m:
        Closest credible tag range (excludes TX leakage around 0 m).
    zoom_width_m / zoom_points:
        Extent and density of the refinement grid around the coarse peak.
    max_refine_chirps:
        Cap on per-chirp zoom evaluations (runtime control).
    """

    def __init__(
        self,
        modulation_rate_hz: "float | Sequence[float]",
        *,
        min_range_m: float = 0.3,
        zoom_width_m: float = 0.4,
        zoom_points: int = 161,
        max_refine_chirps: int = 64,
        coherence_chirps: int | None = None,
    ) -> None:
        rates = (
            [float(modulation_rate_hz)]
            if np.isscalar(modulation_rate_hz)
            else [float(r) for r in modulation_rate_hz]
        )
        for rate in rates:
            ensure_positive("modulation_rate_hz", rate)
        self.modulation_rate_hz = rates if len(rates) > 1 else rates[0]
        self.min_range_m = min_range_m
        self.zoom_width_m = zoom_width_m
        self.zoom_points = zoom_points
        self.max_refine_chirps = max_refine_chirps
        self.coherence_chirps = coherence_chirps

    def coarse_detect(
        self, if_frame: IFFrame, *, correction: IFCorrectionResult | None = None
    ) -> tuple[TagDetection, IFCorrectionResult]:
        """Signature-based coarse detection on the common range grid."""
        if correction is None:
            correction = align_profiles_to_common_grid(if_frame)
        period = if_frame.frame.uniform_period_s()
        detection = detect_modulated_tag(
            correction.aligned,
            correction.range_grid_m,
            period,
            self.modulation_rate_hz,
            min_range_m=self.min_range_m,
            coherence_chirps=self.coherence_chirps,
        )
        return detection, correction

    def localize(
        self,
        if_frame: IFFrame,
        *,
        correction: IFCorrectionResult | None = None,
        refine: bool = True,
    ) -> LocalizationResult:
        """Locate the tag; optionally refine with per-chirp zoom DFTs.

        Refinement subtracts each chirp's static background (the mean IF
        samples over chirps *of the same slope*, the slope-safe version of
        the paper's first-chirp subtraction), evaluates a fine DTFT grid
        around the coarse range per chirp, and averages the per-chirp
        estimates weighted by their residual energy.
        """
        # Refinement needs only the detection: dropping the correction here
        # frees the frame's aligned grid and profiles before the zoom runs.
        detection = self.coarse_detect(if_frame, correction=correction)[0]
        if not refine:
            return LocalizationResult(
                range_m=detection.range_m,
                coarse_range_m=detection.range_m,
                detection=detection,
                num_chirps_used=0,
            )

        # Group chirps by (slope, length) so backgrounds subtract cleanly.
        groups: dict[tuple[float, int], list[int]] = {}
        for index, (slot, samples) in enumerate(
            zip(if_frame.frame.slots, if_frame.chirp_samples)
        ):
            key = (round(slot.chirp.slope_hz_per_s, 3), samples.size)
            groups.setdefault(key, []).append(index)

        estimates: list[float] = []
        weights: list[float] = []
        used = 0
        for indices in groups.values():
            if len(indices) < 2:
                continue  # cannot form a background from a single chirp
            stack = np.vstack([if_frame.chirp_samples[i] for i in indices])
            background = stack.mean(axis=0)
            residual = stack - background
            energies = np.sum(np.abs(residual) ** 2, axis=1)
            order = np.argsort(energies)[::-1]
            budget = max(self.max_refine_chirps - used, 0)
            ranks = order[: min(len(indices) // 2, budget)]
            chirps = [if_frame.frame.slots[indices[rank]].chirp for rank in ranks]
            # The group key rounds the slope; the zoom basis needs it exact,
            # so rows whose exact slopes differ get separate calls.
            group_estimates = np.empty(len(ranks))
            for slope in dict.fromkeys(chirp.slope_hz_per_s for chirp in chirps):
                rows = [i for i, chirp in enumerate(chirps) if chirp.slope_hz_per_s == slope]
                group_estimates[rows] = estimate_range_zoom(
                    residual[ranks[rows]],
                    chirps[rows[0]],
                    if_frame.sample_rate_hz,
                    coarse_range_m=detection.range_m,
                    zoom_width_m=self.zoom_width_m,
                    zoom_points=self.zoom_points,
                )
            estimates.extend(group_estimates.tolist())
            weights.extend(energies[ranks].tolist())
            used += len(ranks)
            if used >= self.max_refine_chirps:
                break

        if not estimates:
            # Degenerate frame (all-unique slopes): fall back to coarse.
            return LocalizationResult(
                range_m=detection.range_m,
                coarse_range_m=detection.range_m,
                detection=detection,
                num_chirps_used=0,
            )
        refined = float(np.average(estimates, weights=weights))
        return LocalizationResult(
            range_m=refined,
            coarse_range_m=detection.range_m,
            detection=detection,
            num_chirps_used=used,
        )

    def ranging_error_m(self, if_frame: IFFrame, true_range_m: float) -> float:
        """Absolute ranging error against ground truth (bench metric)."""
        ensure_positive("true_range_m", true_range_m)
        result = self.localize(if_frame)
        return abs(result.range_m - true_range_m)
