"""Fast-time (range) processing of dechirped IF samples.

The range profile of one chirp is the FFT of its IF samples; bin ``n``
maps to range via the chirp's slope (Eq. 3 inverted, Eq. 15):
``range[n] = (n / N_FFT) * f_s * c / (2 alpha)``.
"""

from __future__ import annotations

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import DetectionError
from repro.utils.dsp import next_pow2, parabolic_peak_offset, _make_window
from repro.utils.validation import ensure_positive
from repro.waveform.parameters import ChirpParameters


def range_fft(
    samples: np.ndarray,
    *,
    n_fft: int | None = None,
    window: str = "hann",
) -> np.ndarray:
    """Complex range profile of one chirp's IF samples.

    Zero-pads to ``n_fft`` (default: next power of two >= sample count) and
    normalizes by the window's coherent gain so tone amplitudes are
    comparable across different chirp lengths — essential when mixing CSSK
    slopes in one frame.  A 2-D ``samples`` is a stack of equal-length
    chirps, one per row, transformed by one FFT along the last axis; each
    row equals the 1-D call on that chirp bit for bit.
    """
    x = np.asarray(samples)
    length = x.shape[-1] if x.ndim else x.size
    if length < 2:
        raise ValueError(f"need at least 2 samples, got {length}")
    size = next_pow2(length) if n_fft is None else int(n_fft)
    if size < length:
        raise ValueError(f"n_fft {size} smaller than sample count {length}")
    win = _make_window(window, length)
    coherent_gain = win.sum()
    return np.fft.fft(x * win, n=size, axis=-1) / coherent_gain


def bin_ranges_m(
    chirp: ChirpParameters, sample_rate_hz: float, n_fft: int
) -> np.ndarray:
    """Range of each FFT bin for a given chirp and IF sample rate (Eq. 15).

    Only the first half of the FFT (positive beat frequencies) corresponds
    to physical ranges for a complex receiver; callers typically slice to
    ``n_fft // 2``.
    """
    ensure_positive("sample_rate_hz", sample_rate_hz)
    if n_fft < 2:
        raise ValueError(f"n_fft must be >= 2, got {n_fft}")
    beat_frequencies = np.arange(n_fft) * sample_rate_hz / n_fft
    return beat_frequencies * SPEED_OF_LIGHT / (2.0 * chirp.slope_hz_per_s)


def range_profile_power_db(profile: np.ndarray, *, floor_db: float = -200.0) -> np.ndarray:
    """Power of a complex range profile in dB (floored to avoid -inf)."""
    power = np.abs(np.asarray(profile)) ** 2
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(power)
    return np.maximum(out, floor_db)


def find_peak_range(
    profile: np.ndarray,
    ranges_m: np.ndarray,
    *,
    min_range_m: float = 0.0,
    max_range_m: float | None = None,
) -> tuple[float, float]:
    """Locate the strongest return within a range window.

    Returns ``(range_m, power)`` with sub-bin range refinement by parabolic
    interpolation of the power profile.
    """
    power = np.abs(np.asarray(profile)) ** 2
    ranges = np.asarray(ranges_m, dtype=float)
    if power.shape != ranges.shape:
        raise ValueError(f"profile shape {power.shape} != ranges shape {ranges.shape}")
    mask = ranges >= min_range_m
    if max_range_m is not None:
        mask &= ranges <= max_range_m
    if not np.any(mask):
        raise DetectionError(
            f"no bins in range window [{min_range_m}, {max_range_m}]"
        )
    candidates = np.where(mask)[0]
    peak = candidates[int(np.argmax(power[candidates]))]
    if 0 < peak < power.size - 1:
        offset = parabolic_peak_offset(power[peak - 1], power[peak], power[peak + 1])
        bin_width = ranges[1] - ranges[0] if ranges.size > 1 else 0.0
        return float(ranges[peak] + offset * bin_width), float(power[peak])
    return float(ranges[peak]), float(power[peak])


def estimate_range_zoom(
    samples: np.ndarray,
    chirp: ChirpParameters,
    sample_rate_hz: float,
    *,
    coarse_range_m: float,
    zoom_width_m: float = 0.5,
    zoom_points: int = 256,
    window: str = "hann",
) -> "float | np.ndarray":
    """Refine a range estimate with a zoom DFT around a coarse peak.

    Evaluates the DTFT on a fine frequency grid spanning
    ``coarse_range_m +/- zoom_width_m`` — the super-resolution step that
    gives BiScatter its centimeter-level localization on top of coarse FFT
    bins.

    ``samples`` is one chirp (1-D, returns a float) or a stack of chirps
    that share ``chirp``'s slope and length (2-D, one row per chirp,
    returns one estimate per row).  The zoom basis depends only on that
    geometry, so a stack builds it once; each row still gets its own
    matrix-vector product, which keeps every row's estimate bit-identical
    to a 1-D call (one matrix-matrix product over the stack is not).
    """
    ensure_positive("sample_rate_hz", sample_rate_hz)
    ensure_positive("zoom_width_m", zoom_width_m)
    if zoom_points < 8:
        raise ValueError(f"zoom_points must be >= 8, got {zoom_points}")
    x = np.asarray(samples)
    if x.ndim not in (1, 2):
        raise ValueError(f"samples must be 1-D or 2-D, got shape {x.shape}")
    rows = x.reshape(-1, x.shape[-1])
    win = _make_window(window, rows.shape[1])
    low = max(coarse_range_m - zoom_width_m, 1e-3)
    high = coarse_range_m + zoom_width_m
    candidate_ranges = np.linspace(low, high, zoom_points)
    candidate_beats = 2.0 * chirp.slope_hz_per_s * candidate_ranges / SPEED_OF_LIGHT
    n = np.arange(rows.shape[1])
    basis = np.exp(-2j * np.pi * np.outer(candidate_beats, n) / sample_rate_hz)
    step = candidate_ranges[1] - candidate_ranges[0]
    estimates = np.empty(rows.shape[0])
    for index, row in enumerate(rows):
        response = np.abs(basis @ (row * win))
        best = int(np.argmax(response))
        estimates[index] = candidate_ranges[best]
        if 0 < best < zoom_points - 1:
            offset = parabolic_peak_offset(
                response[best - 1] ** 2, response[best] ** 2, response[best + 1] ** 2
            )
            estimates[index] += offset * step
    return float(estimates[0]) if x.ndim == 1 else estimates
