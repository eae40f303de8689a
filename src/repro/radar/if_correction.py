"""BiScatter's IF correction (paper Section 3.3, Fig. 7, Eq. 15).

When the radar varies chirp slopes within a frame for CSSK downlink, the
same physical range maps to a *different* IF frequency (Eq. 3) and a
different per-bin range interval (Eq. 15) in every chirp.  Naively stacking
the per-chirp FFTs therefore smears a static target across range bins and
breaks Doppler processing.

The correction: (1) convert each chirp's FFT bins to absolute range using
that chirp's own slope, then (2) interpolate every profile onto one common
range grid ("pairwise interpolation between every two FFT bins and rescale
the range profile").  After alignment a static tag occupies a single range
cell across all chirps regardless of slope, so slow-time processing
(Doppler, tag-modulation extraction) works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.radar.fmcw import IFFrame
from repro.radar.range_processing import (
    _bin_ranges,
    bin_ranges_m,
    range_fft,
    range_profiles,
)
from repro.utils.dsp import next_pow2
from repro.utils.validation import ensure_positive


@dataclass
class IFCorrectionResult:
    """Aligned range profiles for one frame.

    Attributes
    ----------
    range_grid_m:
        The common range axis (uniform spacing).
    aligned:
        Complex matrix of shape (num_chirps, num_range_bins) on the common
        grid.
    raw_profiles:
        The per-chirp complex profiles before alignment (positive-range
        half only), for before/after comparison (Fig. 7a vs 7b).
    raw_ranges_m:
        Per-chirp range axes matching ``raw_profiles``.
    """

    range_grid_m: np.ndarray
    aligned: np.ndarray
    raw_profiles: list[np.ndarray]
    raw_ranges_m: list[np.ndarray]
    confidences: np.ndarray | None = None
    fallback_chirps: "tuple[int, ...]" = ()

    @property
    def num_chirps(self) -> int:
        return self.aligned.shape[0]

    def magnitude_matrix(self) -> np.ndarray:
        """|aligned| — what Fig. 7(b) displays."""
        return np.abs(self.aligned)

    def per_chirp_peak_ranges_m(self, *, min_range_m: float = 0.0) -> np.ndarray:
        """Strongest-return range of each chirp on the common grid.

        On an uncorrected stack these wander with the slope; after
        correction they coincide for a static scene (the Fig. 7 check).
        """
        mask = self.range_grid_m >= min_range_m
        if not np.any(mask):
            raise ValueError(f"min_range_m={min_range_m} excludes the whole grid")
        offset = int(np.argmax(mask))
        magnitudes = np.abs(self.aligned[:, mask])
        peaks = np.argmax(magnitudes, axis=1) + offset
        return self.range_grid_m[peaks]


def uncorrected_bin_peak_ranges(
    if_frame: IFFrame, *, window: str = "hann", min_range_m: float = 0.0
) -> np.ndarray:
    """Peak *apparent* ranges when bins are naively treated as a fixed axis.

    Reproduces the Fig. 7(a) failure: every chirp's FFT is interpreted with
    the range axis of the frame's FIRST chirp, so slope changes shift the
    apparent range of a static target.
    """
    reference_chirp = if_frame.frame.slots[0].chirp
    peaks = []
    for samples in if_frame.chirp_samples:
        n_fft = next_pow2(samples.size)
        profile = range_fft(samples, n_fft=n_fft, window=window)
        half = n_fft // 2
        ranges = bin_ranges_m(reference_chirp, if_frame.sample_rate_hz, n_fft)[:half]
        magnitudes = np.abs(profile[:half])
        mask = ranges >= min_range_m
        if not np.any(mask):
            raise ValueError(f"min_range_m={min_range_m} excludes the whole grid")
        offset = int(np.argmax(mask))
        peaks.append(ranges[int(np.argmax(magnitudes[mask])) + offset])
    return np.asarray(peaks)


def profile_confidence(profile_row: np.ndarray) -> float:
    """Peak-to-mean magnitude ratio of one aligned range profile.

    A healthy dechirped chirp concentrates energy in a few range cells
    (ratio well above ~3); a blanked, saturated, or interference-swamped
    chirp flattens toward 1.  Zero for an all-zero row.
    """
    magnitudes = np.abs(np.asarray(profile_row))
    mean = float(magnitudes.mean())
    if mean <= 0:
        return 0.0
    return float(magnitudes.max() / mean)


def align_profiles_to_common_grid(
    if_frame: IFFrame,
    *,
    window: str = "hann",
    range_bins: int | None = None,
    max_range_m: float | None = None,
    pad_factor: int = 4,
    confidence_threshold: float | None = None,
    fallback_profile: np.ndarray | None = None,
) -> IFCorrectionResult:
    """Apply the IF correction to a (possibly mixed-slope) frame.

    Parameters
    ----------
    if_frame:
        Dechirped frame data from :meth:`FMCWRadar.receive_frame`.
    window:
        Fast-time analysis window.
    range_bins:
        Number of bins on the common grid (default: the largest per-chirp
        FFT half-size, preserving the finest native resolution).
    max_range_m:
        Extent of the common grid (default: the smallest per-chirp maximum
        unambiguous range, so every chirp covers the whole grid).

    pad_factor:
        Zero-padding multiple applied to every chirp's FFT (all chirps get
        the SAME padded size).  Dense padding suppresses per-chirp
        scalloping, which would otherwise turn strong static clutter into
        broadband slow-time residue under mixed-slope frames and mask the
        tag's modulation signature.
    confidence_threshold:
        Minimum :func:`profile_confidence` (peak-to-mean ratio) a chirp's
        aligned profile must reach.  Failing rows are replaced by the
        last confident row earlier in the frame (or ``fallback_profile``
        when none exists yet) — the last-good-IF-estimate degradation
        path for blanked/saturated chirps.  ``None`` (the default) skips
        the check entirely; results are then bit-identical to the
        pre-threshold implementation.
    fallback_profile:
        Aligned row (on this call's common grid) substituting for
        low-confidence chirps before the first in-frame good row.

    Complex profiles are interpolated linearly on real and imaginary parts
    between adjacent bins — the "pairwise interpolation" of the paper —
    which preserves slow-time phase coherence for static and slowly moving
    targets.
    """
    if if_frame.num_chirps == 0:
        raise ValueError("frame contains no chirps")
    if pad_factor < 1:
        raise ValueError(f"pad_factor must be >= 1, got {pad_factor}")
    fs = if_frame.sample_rate_hz
    ensure_positive("sample_rate_hz", fs)

    lengths = np.array([samples.size for samples in if_frame.chirp_samples])
    n_fft = next_pow2(int(lengths.max())) * pad_factor
    half = n_fft // 2
    # One FFT over the whole frame; only the kept half is divided by the
    # window gains, so the full spectra die inside ``range_profiles``.
    profiles = range_profiles(if_frame.chirp_samples, n_fft=n_fft, keep=half, window=window)
    # Re-reference the analysis window to its center: a window spanning
    # [0, N) imparts a linear phase ~ (N-1)/2 samples that DIFFERS per
    # chirp length, which would scramble slow-time phase coherence in
    # mixed-slope frames.  The DFT shift property undoes it exactly.  The
    # phasor depends only on the chirp length: one row per distinct length.
    sizes, size_of = np.unique(lengths, return_inverse=True)
    phasors = np.exp(2j * np.pi * np.arange(half) * ((sizes - 1) / 2.0)[:, None] / n_fft)
    # Bin ranges depend only on the slope: one axis per distinct slope,
    # copied per chirp below so no two chirps share an array.
    slopes = np.array([slot.chirp.slope_hz_per_s for slot in if_frame.frame.slots])
    distinct, slope_of = np.unique(slopes, return_inverse=True)
    slope_ranges = _bin_ranges(distinct, fs, n_fft, keep=half)

    if max_range_m is None:
        grid_extent = float(slope_ranges[:, -1].min())
    else:
        grid_extent = float(max_range_m)
    if grid_extent <= 0:
        raise ValueError(f"common grid extent must be positive, got {grid_extent}")
    num_bins = half if range_bins is None else int(range_bins)
    if num_bins < 2:
        raise ValueError(f"range_bins must be >= 2, got {num_bins}")
    range_grid = np.linspace(0.0, grid_extent, num_bins)

    # Each interpolation is written straight into the real and imaginary
    # planes.  ``re + 1j * im`` (what a complex build evaluates) has real
    # part ``re + 0.0 * im`` and imaginary part ``im + 0.0``: they differ
    # from ``re`` and ``im`` only in the sign of a zero and where ``im``
    # is not finite, and the two in-place passes after the loop restore
    # exactly those bits.  A frame with no zero and no non-finite value
    # (every healthy one) needs neither pass.
    aligned = np.empty((if_frame.num_chirps, num_bins), dtype=complex)
    real, imag = aligned.real, aligned.imag
    raw_profiles = list(profiles)
    raw_ranges = []
    for index, (profile, size, slope) in enumerate(
        zip(raw_profiles, size_of.tolist(), slope_of.tolist())
    ):
        profile *= phasors[size]
        ranges = slope_ranges[slope].copy()
        raw_ranges.append(ranges)
        real[index] = np.interp(range_grid, ranges, profile.real)
        imag[index] = np.interp(range_grid, ranges, profile.imag)
    if not (real.all() and imag.all() and np.isfinite(imag).all()):
        real += 0.0 * imag
        imag += 0.0

    confidences: np.ndarray | None = None
    fallback_chirps: "tuple[int, ...]" = ()
    if confidence_threshold is not None:
        if confidence_threshold <= 0:
            raise ValueError(
                f"confidence_threshold must be positive, got {confidence_threshold}"
            )
        confidences = np.array([profile_confidence(row) for row in aligned])
        last_good: np.ndarray | None = (
            None if fallback_profile is None else np.asarray(fallback_profile, dtype=complex)
        )
        if last_good is not None and last_good.shape != (num_bins,):
            raise ValueError(
                f"fallback_profile shape {last_good.shape} does not match the "
                f"common grid ({num_bins} bins)"
            )
        replaced = []
        for index in range(aligned.shape[0]):
            if confidences[index] >= confidence_threshold:
                last_good = aligned[index].copy()
            elif last_good is not None:
                aligned[index] = last_good
                replaced.append(index)
            # No good row yet and no external fallback: leave the row as
            # measured — a degraded estimate beats an invented one.
        fallback_chirps = tuple(replaced)
        if fallback_chirps:
            from repro import obs
            from repro.obs import runtime as _obs_runtime

            if _obs_runtime._enabled:
                obs.inc("impair.if_fallbacks", len(fallback_chirps))
                obs.log(
                    "radar.if_correction.fallback",
                    chirps=len(fallback_chirps),
                    threshold=confidence_threshold,
                )

    return IFCorrectionResult(
        range_grid_m=range_grid,
        aligned=aligned,
        raw_profiles=raw_profiles,
        raw_ranges_m=raw_ranges,
        confidences=confidences,
        fallback_chirps=fallback_chirps,
    )
