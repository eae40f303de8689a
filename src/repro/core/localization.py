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
from repro.radar.range_processing import estimate_ranges_zoom
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

        Coarse detection (:meth:`coarse_detect`) followed by
        :meth:`refine`.
        """
        # Refinement needs only the detection: dropping the correction here
        # frees the frame's aligned grid and profiles before the zoom runs.
        detection = self.coarse_detect(if_frame, correction=correction)[0]
        if not refine:
            return self._coarse_only(detection)
        return self.refine(if_frame, detection)

    def refine(self, if_frame: IFFrame, detection: TagDetection) -> LocalizationResult:
        """Refine a coarse detection with per-chirp zoom DFTs.

        Refinement subtracts each chirp's static background (the mean IF
        samples over chirps *of the same slope*, the slope-safe version of
        the paper's first-chirp subtraction), evaluates a fine DTFT grid
        around the coarse range per chirp, and averages the per-chirp
        estimates weighted by their residual energy.

        Chirps are grouped by (slope rounded to 1 mHz/s, length) in order
        of first appearance; a group needs two chirps to form a
        background.  Each group offers its ``len // 2`` highest-energy
        chirps, in descending energy, until ``max_refine_chirps`` are
        taken.  The whole frame is one zero-padded block: backgrounds are
        sequential row sums per group, and every selected chirp is
        screened in one zoom call.  Two small loops remain, because their
        float results depend on the array length: residual energies are
        summed per distinct chirp length (a padded row is a different
        pairwise sum), and each group's energy order is an ``argsort``
        per distinct group size (whose tie order depends on the length).
        """
        samples = if_frame.chirp_samples
        lengths = np.array([chirp.size for chirp in samples])
        slopes = np.array([slot.chirp.slope_hz_per_s for slot in if_frame.frame.slots])
        distinct, slope_of = np.unique(slopes, return_inverse=True)
        rounded = np.array([round(float(slope), 3) for slope in distinct])[slope_of]
        # Group ids in order of first appearance; chirps by group, then index.
        _, first_chirp, key_of = np.unique(
            np.stack([rounded, lengths], axis=1), axis=0, return_index=True, return_inverse=True
        )
        group_of = np.argsort(np.argsort(first_chirp))[key_of]
        chirps = np.argsort(group_of, kind="stable")
        # Only groups of two or more chirps can form a background.
        chirps = chirps[np.bincount(group_of)[group_of[chirps]] >= 2]
        if chirps.size == 0:
            return self._coarse_only(detection)
        _, group_starts, group_sizes = np.unique(
            group_of[chirps], return_index=True, return_counts=True
        )
        row_lengths = lengths[chirps]
        # A (groups, largest group, longest chirp) block: group g's rows
        # in chirp order, then zero rows; each row zero past its chirp.
        shape = (group_sizes.size, int(group_sizes.max()), int(row_lengths.max()))
        position = np.arange(chirps.size) - np.repeat(group_starts, group_sizes)
        slot = np.repeat(np.arange(shape[0]), group_sizes) * shape[1] + position
        slot_lengths = np.zeros(shape[0] * shape[1], dtype=int)
        slot_lengths[slot] = row_lengths
        stack = np.zeros(shape, dtype=complex)
        stack[np.arange(shape[2]) < slot_lengths.reshape(shape[:2])[:, :, None]] = (
            np.concatenate([samples[index] for index in chirps])
        )
        # ``stack.mean(axis=0)`` per group: the group's rows summed in
        # order (the middle axis is reduced row after row), then its +0.0
        # padding rows, divided by the group size.  A padding row changes
        # no value but turns a -0.0 sum into +0.0; no output reads the sign
        # of a zero in the background or residual (energies take ``abs``,
        # and a +-0 term changes the magnitude of no zoom response).  The
        # padding rows hold scratch after the subtraction.
        background = stack.sum(axis=1)
        background /= group_sizes[:, None]
        stack -= background[:, None, :]
        residual = stack.reshape(-1, shape[2])

        # Energies per distinct length, each summed over its own samples.
        energies = np.empty(chirps.size)
        by_length = np.argsort(row_lengths, kind="stable")
        length_values, length_starts = np.unique(row_lengths[by_length], return_index=True)
        for length, rows in zip(
            length_values.tolist(), np.split(by_length, length_starts[1:])
        ):
            squares = np.abs(residual[slot[rows], :length])
            energies[rows] = np.sum(np.square(squares, out=squares), axis=1)

        # Each group's rows in ``np.argsort(energies)[::-1]`` order.
        ranked = np.empty(chirps.size, dtype=int)
        for size in sorted(set(group_sizes.tolist())):
            starts = group_starts[group_sizes == size][:, None]
            rows = starts + np.arange(size)
            ranked[rows] = starts + np.argsort(energies[rows], axis=1)[:, ::-1]
        # A group offers len // 2 chirps, within what the budget has left.
        offered = group_sizes // 2
        taken_before = np.cumsum(offered) - offered
        taken = np.clip(self.max_refine_chirps - taken_before, 0, offered)
        picks = ranked[position < np.repeat(taken, group_sizes)]
        if picks.size == 0:
            return self._coarse_only(detection)
        estimates = estimate_ranges_zoom(
            residual[slot[picks]],
            row_lengths[picks],
            slopes[chirps[picks]],
            if_frame.sample_rate_hz,
            coarse_range_m=detection.range_m,
            zoom_width_m=self.zoom_width_m,
            zoom_points=self.zoom_points,
        )
        refined = float(np.average(estimates, weights=energies[picks]))
        return LocalizationResult(
            range_m=refined,
            coarse_range_m=detection.range_m,
            detection=detection,
            num_chirps_used=int(picks.size),
        )

    @staticmethod
    def _coarse_only(detection: TagDetection) -> LocalizationResult:
        """Degenerate frame (all-unique slopes, no budget): the coarse range."""
        return LocalizationResult(
            range_m=detection.range_m,
            coarse_range_m=detection.range_m,
            detection=detection,
            num_chirps_used=0,
        )

    def ranging_error_m(self, if_frame: IFFrame, true_range_m: float) -> float:
        """Absolute ranging error against ground truth (bench metric)."""
        ensure_positive("true_range_m", true_range_m)
        result = self.localize(if_frame)
        return abs(result.range_m - true_range_m)
