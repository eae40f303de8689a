"""Fast-time (range) processing of dechirped IF samples.

The range profile of one chirp is the FFT of its IF samples; bin ``n``
maps to range via the chirp's slope (Eq. 3 inverted, Eq. 15):
``range[n] = (n / N_FFT) * f_s * c / (2 alpha)``.
"""

from __future__ import annotations

import math

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
    profile = np.fft.fft(x * win, n=size, axis=-1)
    profile /= win.sum()
    return profile


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


def _zoom_basis(beats: np.ndarray, n: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Zoom-DFT basis ``exp(-2j*pi*beat*n/fs)``, one row per beat."""
    return np.exp(-2j * np.pi * np.outer(beats, n) / sample_rate_hz)


def _phasor_powers(phasors: np.ndarray, count: int) -> np.ndarray:
    """``phasors[:, None] ** arange(count)`` as running products."""
    steps = np.empty((phasors.size, count), dtype=complex)
    steps[:, 0] = 1.0
    steps[:, 1:] = phasors[:, None]
    return np.cumprod(steps, axis=1)


def _screen_zoom_responses(
    rows: np.ndarray, window: np.ndarray, beats: np.ndarray, sample_rate_hz: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Cheap approximation of ``|basis @ (row * window)|`` with an error bound.

    ``rows`` is a ``(R, N)`` stack of finite rows.  Returns the
    ``(R, len(beats))`` screened responses and, per row, a bound ``delta``
    with ``|screen - exact| <= delta`` for every candidate, where ``exact``
    is ``np.abs(_zoom_basis(beats, arange(N), fs) @ (row * window))`` as
    evaluated in float64.

    The basis is factorised: with ``n = j*M + m`` (``M = isqrt(N)``, the
    row zero-padded to ``J*M``), ``exp(-2j*pi*b*n/fs)`` is an outer factor
    ``W**j`` times an inner factor ``w**m``, with ``w = exp(-2j*pi*b/fs)``
    and ``W = exp(-2j*pi*b*M/fs)``.  Both factor tables are running
    products of ``2*P`` exponentials instead of ``P*N`` exponentials, and
    the windowed row is contracted with one GEMM over ``m`` and one
    batched product over ``j``, ``M`` rows at a time so that no
    intermediate is larger than one ``(P, N)`` basis.

    Error bound (``u = eps/2``, ``theta = 2*pi*max|b|*J*M/fs`` the largest
    phase magnitude, ``x`` the row):

    - an exact basis element is ``exp`` of a phase rounded three times
      (``b*n``, ``*2*pi``, ``/fs``): off the true phasor by at most
      ``4*u*|phase| + 2*u``;
    - a factor element ``w**m`` is ``m`` such phasors multiplied in turn:
      off by at most ``4*u*|m*phase(w)| + 5*m*u``; so an inner-outer
      product is off by at most ``4*u*theta + 5*(M + J)*u + 3*u``;
    - a complex dot product of ``k`` terms adds at most ``2*(k + 2)*u``
      times ``sum|a||x|``: ``N`` terms for the exact GEMV, ``M`` then
      ``J`` for the screen; ``abs`` adds ``u`` per side.

    So ``|screen - exact| <= (8*theta + 7*(M + J) + 2*N + 19)*u*||x||_1``.
    Since ``M + J <= J*M + 1`` and ``N <= J*M``, the returned
    ``32*eps*(theta + J*M + 16)*||x||_1 + tiny`` covers it at least
    sevenfold (``tiny``, the smallest normal float, covers underflow).
    """
    num_rows, length = rows.shape
    block = math.isqrt(length)
    num_blocks = -(-length // block)
    span = block * num_blocks
    inner = _phasor_powers(_zoom_basis(beats, np.array([1]), sample_rate_hz)[:, 0], block)
    outer = _phasor_powers(
        _zoom_basis(beats, np.array([block]), sample_rate_hz)[:, 0], num_blocks
    )
    screen = np.empty((num_rows, beats.size))
    norms = np.empty(num_rows)
    padded = np.zeros((min(block, num_rows), span), dtype=complex)
    for first in range(0, num_rows, block):
        count = min(block, num_rows - first)
        weighted = padded[:count]
        np.multiply(rows[first:first + count], window, out=weighted[:, :length])
        norms[first:first + count] = np.abs(weighted).sum(axis=1)
        partial = (inner @ weighted.reshape(-1, block).T).reshape(beats.size, count, num_blocks)
        screen[first:first + count] = np.abs(np.matmul(partial, outer[:, :, None])[:, :, 0].T)
    theta = 2.0 * np.pi * float(np.max(np.abs(beats))) * span / sample_rate_hz
    eps = np.finfo(float).eps
    bound = 32.0 * eps * (theta + span + 16.0) * norms
    return screen, bound + np.finfo(float).tiny


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
    bins — takes the first maximum and refines it parabolically.

    ``samples`` is one chirp (1-D, returns a float) or a stack of chirps
    that share ``chirp``'s slope and length (2-D, one row per chirp,
    returns one estimate per row).  A row containing NaN or inf has no
    peak and yields ``nan``.

    Every estimate is bit-identical to evaluating the full
    ``(zoom_points, N)`` basis and one GEMV per row, without building that
    basis.  :func:`_screen_zoom_responses` approximates every candidate's
    response within a bound ``delta``; only candidates screened within
    ``2*delta`` of the screened top can hold the exact maximum, so the
    exact responses of those and their neighbours (about three per row)
    are computed with the same basis expression and a GEMV over their
    rows, whose values equal the full GEMV's (a GEMV of at least two rows
    is used; a one-row product takes a different BLAS routine).  A row
    whose screen is not finite keeps every candidate in its band, so the
    basis over the rows' bands is then the full basis.
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
    step = candidate_ranges[1] - candidate_ranges[0]
    estimates = np.full(rows.shape[0], np.nan)

    live = np.flatnonzero(np.isfinite(rows).all(axis=1))
    screen, bound = _screen_zoom_responses(rows[live], win, candidate_beats, sample_rate_hz)
    keep = screen >= (screen.max(axis=1) - 2.0 * bound)[:, None]
    band = keep.copy()
    band[:, 1:] |= keep[:, :-1]
    band[:, :-1] |= keep[:, 1:]
    band[~np.isfinite(screen).all(axis=1)] = True
    exact_columns = np.flatnonzero(band.any(axis=0))
    exact_basis = _zoom_basis(candidate_beats[exact_columns], n, sample_rate_hz)
    for index in live:
        response = np.abs(exact_basis @ (rows[index] * win))
        position = int(np.argmax(response))
        best = int(exact_columns[position])
        estimates[index] = candidate_ranges[best]
        if 0 < best < zoom_points - 1:
            offset = parabolic_peak_offset(
                response[position - 1] ** 2,
                response[position] ** 2,
                response[position + 1] ** 2,
            )
            estimates[index] += offset * step
    return float(estimates[0]) if x.ndim == 1 else estimates
