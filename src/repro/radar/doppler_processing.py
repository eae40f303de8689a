"""Slow-time (Doppler / tag-modulation) processing.

After IF correction the frame is a (chirps x range-bins) matrix on a
common grid.  An FFT across chirps at each range cell separates static
clutter (DC), movers (Doppler tones), and BiScatter tags — whose square-
wave OOK switching appears as a strong line at the modulation frequency
plus odd harmonics ("the second FFT across chirps converts the tag
modulation into a sinc function").
"""

from __future__ import annotations

import numpy as np

from repro.utils.dsp import next_pow2, _make_window
from repro.utils.validation import ensure_positive


def slow_time_spectrum(
    aligned: np.ndarray,
    chirp_period_s: float,
    *,
    window: str = "hann",
    n_fft: int | None = None,
    remove_dc: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-range-cell spectrum across chirps.

    Parameters
    ----------
    aligned:
        (num_chirps, num_range_bins) complex matrix on a common range grid.
    chirp_period_s:
        Slow-time sample interval (the frame's uniform chirp period).
    remove_dc:
        Subtract each cell's slow-time mean first — the cheap equivalent of
        static-background subtraction, isolating modulated energy.

    Returns
    -------
    (frequencies_hz, spectrum):
        ``frequencies_hz`` spans [0, 1 / (2 T_period)); ``spectrum`` has
        shape (num_freqs, num_range_bins), magnitude of the slow-time FFT.
    """
    ensure_positive("chirp_period_s", chirp_period_s)
    matrix = np.asarray(aligned)
    if matrix.ndim != 2:
        raise ValueError(f"aligned must be 2-D, got shape {matrix.shape}")
    num_chirps = matrix.shape[0]
    if num_chirps < 4:
        raise ValueError(f"need at least 4 chirps for slow-time analysis, got {num_chirps}")
    if remove_dc:
        matrix = matrix - matrix.mean(axis=0, keepdims=True)
    win = _make_window(window, num_chirps)[:, None]
    size = next_pow2(num_chirps) if n_fft is None else int(n_fft)
    # Rebinding drops the mean-removed copy before the FFT allocates.
    matrix = matrix * win
    half = size // 2
    # Only the kept half is divided by the window gain.
    spectrum = np.fft.fft(matrix, n=size, axis=0)[:half]
    spectrum /= win.sum()
    freqs = np.arange(half) / (size * chirp_period_s)
    return freqs, np.abs(spectrum)


def range_doppler_map(
    aligned: np.ndarray,
    chirp_period_s: float,
    *,
    window: str = "hann",
) -> tuple[np.ndarray, np.ndarray]:
    """Classic range-Doppler magnitude map (fftshifted Doppler axis).

    Returns ``(doppler_frequencies_hz, map)`` with map shape
    (num_doppler_bins, num_range_bins).
    """
    ensure_positive("chirp_period_s", chirp_period_s)
    matrix = np.asarray(aligned)
    num_chirps = matrix.shape[0]
    win = _make_window(window, num_chirps)[:, None]
    size = next_pow2(num_chirps)
    spectrum = np.fft.fftshift(np.fft.fft(matrix * win, n=size, axis=0), axes=0) / win.sum()
    freqs = np.fft.fftshift(np.fft.fftfreq(size, d=chirp_period_s))
    return freqs, np.abs(spectrum)


def square_wave_signature(
    modulation_rate_hz: float,
    frequencies_hz: np.ndarray,
    *,
    num_harmonics: int = 3,
    tolerance_hz: float | None = None,
    line_width_bins: int = 1,
) -> np.ndarray:
    """Matched-filter template for a 50%-duty square-wave OOK signature.

    A square wave's spectrum has odd harmonics with 1/k amplitudes; the
    template places those weights at the nearest frequency samples.

    ``line_width_bins`` widens each harmonic into a boxcar of that many
    bins: when the tag's modulation is phase-coherent only over a data-bit
    block (``chirps_per_bit`` chirps), each spectral line smears to roughly
    ``n_fft / chirps_per_bit`` bins and a one-bin template would miss most
    of its energy.
    """
    ensure_positive("modulation_rate_hz", modulation_rate_hz)
    if line_width_bins < 1:
        raise ValueError(f"line_width_bins must be >= 1, got {line_width_bins}")
    freqs = np.asarray(frequencies_hz, dtype=float)
    if freqs.size < 2:
        raise ValueError("need at least 2 frequency samples")
    template = np.zeros_like(freqs)
    spacing = freqs[1] - freqs[0]
    tol = spacing if tolerance_hz is None else tolerance_hz
    half_width = (line_width_bins - 1) // 2
    for harmonic in range(1, 2 * num_harmonics, 2):
        target = harmonic * modulation_rate_hz
        if target > freqs[-1] + tol:
            break
        index = int(np.argmin(np.abs(freqs - target)))
        if abs(freqs[index] - target) <= tol:
            low = max(index - half_width, 0)
            high = min(index + half_width + 1, freqs.size)
            template[low:high] = np.maximum(template[low:high], 1.0 / harmonic)
    norm = np.linalg.norm(template)
    return template / norm if norm > 0 else template


def estimate_velocity(
    aligned: np.ndarray,
    range_bin: int,
    chirp_period_s: float,
    carrier_frequency_hz: float,
    *,
    window: str = "hann",
    remove_dc: bool = True,
    exclude_frequencies_hz: "list[float] | None" = None,
    exclude_guard_bins: int = 3,
) -> float:
    """Radial velocity of the target occupying one range cell.

    Signed slow-time Doppler peak of the cell, converted by
    ``v = f_d * c / (2 f_c)`` (positive = receding).

    Parameters
    ----------
    remove_dc:
        Subtract the slow-time mean first so static clutter sharing the
        cell does not mask a mover.  Disable when the target itself may be
        static (its own line then sits at DC).
    exclude_frequencies_hz:
        Slow-time lines to mask from the peak search (both signs) — a
        modulating BiScatter tag puts strong lines at ``+/- (f_d +/- k
        f_mod)``, which would otherwise masquerade as huge velocities.
    """
    from repro.constants import SPEED_OF_LIGHT
    from repro.utils.dsp import parabolic_peak_offset

    ensure_positive("chirp_period_s", chirp_period_s)
    ensure_positive("carrier_frequency_hz", carrier_frequency_hz)
    matrix = np.asarray(aligned)
    if not 0 <= range_bin < matrix.shape[1]:
        raise ValueError(f"range_bin {range_bin} outside [0, {matrix.shape[1]})")
    series = matrix[:, range_bin]
    if remove_dc:
        series = series - series.mean()
    n = series.size
    win = _make_window(window, n)
    size = next_pow2(n) * 4
    spectrum = np.fft.fftshift(np.fft.fft(series * win, n=size))
    freqs = np.fft.fftshift(np.fft.fftfreq(size, d=chirp_period_s))
    power = np.abs(spectrum) ** 2
    if exclude_frequencies_hz:
        bin_width = freqs[1] - freqs[0]
        for line in exclude_frequencies_hz:
            for signed in (line, -line):
                index = int(np.argmin(np.abs(freqs - signed)))
                low = max(index - exclude_guard_bins, 0)
                power[low : index + exclude_guard_bins + 1] = 0.0
    peak = int(np.argmax(power))
    doppler = freqs[peak]
    if 0 < peak < size - 1:
        delta = parabolic_peak_offset(power[peak - 1], power[peak], power[peak + 1])
        doppler += delta * (freqs[1] - freqs[0])
    # IF convention here: the dechirped phase carries +2*pi*f0*tau, so a
    # receding target's growing delay advances the slow-time phase —
    # positive Doppler frequency maps to positive (receding) velocity.
    return float(doppler * SPEED_OF_LIGHT / (2.0 * carrier_frequency_hz))


def modulation_signature_score(
    spectrum_column: np.ndarray,
    frequencies_hz: np.ndarray,
    modulation_rate_hz: float,
    *,
    num_harmonics: int = 3,
) -> float:
    """Correlation of one range cell's slow-time spectrum with the tag
    signature — the per-cell statistic used to localize the tag."""
    template = square_wave_signature(
        modulation_rate_hz, frequencies_hz, num_harmonics=num_harmonics
    )
    column = np.abs(np.asarray(spectrum_column, dtype=float))
    return float(np.dot(column, template))
