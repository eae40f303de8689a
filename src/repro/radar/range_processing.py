"""Fast-time (range) processing of dechirped IF samples.

The range profile of one chirp is the FFT of its IF samples; bin ``n``
maps to range via the chirp's slope (Eq. 3 inverted, Eq. 15):
``range[n] = (n / N_FFT) * f_s * c / (2 alpha)``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import DetectionError
from repro.utils.dsp import (
    _make_window,
    next_pow2,
    parabolic_peak_offset,
    parabolic_peak_offsets,
)
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
    _check_fft_length(length, size)
    win = _make_window(window, length)
    profile = np.fft.fft(x * win, n=size, axis=-1)
    profile /= win.sum()
    return profile


def _check_fft_length(length: int, n_fft: int) -> None:
    if length < 2:
        raise ValueError(f"need at least 2 samples, got {length}")
    if n_fft < length:
        raise ValueError(f"n_fft {n_fft} smaller than sample count {length}")


#: Chirps per FFT call in :func:`range_profiles` (a 32-row block of 2048
#: bins is 1 MiB).
_FFT_ROWS = 32


@lru_cache(maxsize=256)
def _window_and_gain(window: str, length: int) -> "tuple[np.ndarray, float]":
    """The analysis window ``_make_window`` builds and its sum (coherent gain).

    Shared by every chirp of that length, so the array is read-only.
    """
    win = _make_window(window, length)
    win.setflags(write=False)
    return win, win.sum()


def _padded_windows(
    window: str, lengths: np.ndarray, width: int
) -> "tuple[np.ndarray, np.ndarray]":
    """``(rows, width)`` windows, row ``i`` zero past ``lengths[i]``, and their gains."""
    pairs = [_window_and_gain(window, int(length)) for length in lengths]
    windows = np.zeros((len(pairs), width))
    if pairs:
        windows[np.arange(width) < lengths[:, None]] = np.concatenate([w for w, _ in pairs])
    return windows, np.array([gain for _, gain in pairs])


def range_profiles(
    chirp_samples: "Sequence[np.ndarray]",
    *,
    n_fft: int,
    keep: int,
    window: str = "hann",
) -> np.ndarray:
    """The first ``keep`` range bins of every chirp, from one FFT call.

    Row ``i`` equals ``range_fft(chirp_samples[i], n_fft=n_fft,
    window=window)[:keep]`` bit for bit, whatever the chirp lengths: each
    chirp is windowed by its own window into one zero-padded
    ``(chirps, n_fft)`` block (a row's padding is the zeros ``range_fft``
    pads with; the block is transformed ``_FFT_ROWS`` chirps at a time),
    and only the kept bins are divided by the window gain.
    """
    lengths = np.array([samples.size for samples in chirp_samples], dtype=int)
    bad = (lengths < 2) | (lengths > n_fft)
    if bad.any():
        _check_fft_length(int(lengths[np.argmax(bad)]), n_fft)
    profiles = np.empty((lengths.size, keep), dtype=complex)
    # Blocks of rows bound the transient spectra (rows are independent).
    for first in range(0, lengths.size, _FFT_ROWS):
        rows = slice(first, first + _FFT_ROWS)
        width = int(lengths[rows].max())
        windows, gains = _padded_windows(window, lengths[rows], width)
        weighted = np.zeros(windows.shape, dtype=complex)
        weighted[np.arange(width) < lengths[rows, None]] = np.concatenate(chirp_samples[rows])
        np.multiply(weighted, windows, out=weighted)
        spectra = np.fft.fft(weighted, n=n_fft, axis=-1)
        np.divide(spectra[:, :keep], gains[:, None], out=profiles[rows])
    return profiles


def bin_ranges_m(
    chirp: ChirpParameters, sample_rate_hz: float, n_fft: int
) -> np.ndarray:
    """Range of each FFT bin for a given chirp and IF sample rate (Eq. 15).

    Only the first half of the FFT (positive beat frequencies) corresponds
    to physical ranges for a complex receiver; callers typically slice to
    ``n_fft // 2``.
    """
    return _bin_ranges(np.float64(chirp.slope_hz_per_s), sample_rate_hz, n_fft)


def _bin_ranges(
    slopes_hz_per_s: np.ndarray, sample_rate_hz: float, n_fft: int, *, keep: int | None = None
) -> np.ndarray:
    """:func:`bin_ranges_m` of the first ``keep`` bins, one row per slope."""
    ensure_positive("sample_rate_hz", sample_rate_hz)
    if n_fft < 2:
        raise ValueError(f"n_fft must be >= 2, got {n_fft}")
    beat_frequencies = np.arange(n_fft if keep is None else keep) * sample_rate_hz / n_fft
    return beat_frequencies * SPEED_OF_LIGHT / (2.0 * np.asarray(slopes_hz_per_s)[..., None])


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
    """``phasors ** arange(count)[:, None]`` as running products, one row per power."""
    steps = np.empty((count, phasors.size), dtype=complex)
    steps[0] = 1.0
    steps[1:] = phasors
    return np.cumprod(steps, axis=0, out=steps)


def _factor_tables(
    beats: np.ndarray, block: int, num_blocks: int, sample_rate_hz: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Inner ``w**m`` and outer ``W**j`` tables of ``(k, P)`` candidate beats.

    Returned as ``(k, P, block)`` and ``(k, P, num_blocks)`` views.
    """
    rows, num_beats = beats.shape
    flat = beats.ravel()
    inner = _phasor_powers(_zoom_basis(flat, np.array([1]), sample_rate_hz)[:, 0], block)
    outer = _phasor_powers(
        _zoom_basis(flat, np.array([block]), sample_rate_hz)[:, 0], num_blocks
    )
    return (
        inner.reshape(block, rows, num_beats).transpose(1, 2, 0),
        outer.reshape(num_blocks, rows, num_beats).transpose(1, 2, 0),
    )


def _screen_zoom_responses(
    rows: np.ndarray,
    window: np.ndarray,
    beats: np.ndarray,
    sample_rate_hz: float,
    *,
    slope_index: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Cheap approximation of ``|basis @ (row * window)|`` with an error bound.

    ``rows`` is a ``(R, W)`` stack of finite rows, row ``r`` holding
    ``lengths[r]`` samples (default ``W``) followed by zeros; ``window``
    is one ``(W,)`` window or one zero-padded window per row; ``beats``
    is one ``(P,)`` candidate-beat row or an ``(S, P)`` table that row
    ``r`` reads at ``slope_index[r]``.  Returns the ``(R, P)`` screened
    responses and, per row, a bound ``delta`` with ``|screen - exact| <=
    delta`` for every candidate, where ``exact`` is
    ``np.abs(_zoom_basis(beats_r, arange(N_r), fs) @ (row_r * window_r))``
    over the row's own ``N_r = lengths[r]`` samples, evaluated in float64.

    The basis is factorised: with ``n = j*M + m`` (``M = isqrt(W)``, the
    row zero-padded to ``J*M``), ``exp(-2j*pi*b*n/fs)`` is an outer factor
    ``W**j`` times an inner factor ``w**m``, with ``w = exp(-2j*pi*b/fs)``
    and ``W = exp(-2j*pi*b*M/fs)``.  Both factor tables are running
    products of ``2*P`` exponentials instead of ``P*N`` exponentials.  Rows
    of one slope share one pair of tables and are contracted with one GEMM
    over ``m`` and one batched product over ``j``, ``M`` rows at a time;
    rows of several slopes get a pair of tables each and a batched GEMM,
    8 rows at a time, so that no intermediate is larger than a few
    ``(P, W)`` bases.

    Error bound (``u = eps/2``; for row ``r``, ``J_r = ceil(N_r / M)``,
    ``theta = 2*pi*max|b|*J_r*M/fs`` its largest phase magnitude, ``x`` the
    row; its padding is exact zeros, which add no rounding):

    - an exact basis element is ``exp`` of a phase rounded three times
      (``b*n``, ``*2*pi``, ``/fs``): off the true phasor by at most
      ``4*u*|phase| + 2*u``;
    - a factor element ``w**m`` is ``m`` such phasors multiplied in turn:
      off by at most ``4*u*|m*phase(w)| + 5*m*u``; so an inner-outer
      product is off by at most ``4*u*theta + 5*(M + J_r)*u + 3*u``;
    - a complex dot product of ``k`` terms adds at most ``2*(k + 2)*u``
      times ``sum|a||x|``: ``N_r`` terms for the exact GEMV, ``M`` then
      ``J_r`` for the screen; ``abs`` adds ``u`` per side.

    So ``|screen - exact| <= (8*theta + 7*(M + J_r) + 2*N_r + 19)*u*||x||_1``.
    Since ``M + J_r <= J_r*M + 1`` and ``N_r <= J_r*M``, the returned
    ``32*eps*(theta + J_r*M + 16)*||x||_1 + tiny`` covers it at least
    sevenfold (``tiny``, the smallest normal float, covers underflow).
    """
    num_rows, width = rows.shape
    table = np.atleast_2d(beats)
    slope_index = np.zeros(num_rows, dtype=int) if slope_index is None else slope_index
    lengths = np.full(num_rows, width) if lengths is None else lengths
    windows = np.broadcast_to(window, rows.shape)
    num_slopes, num_beats = table.shape
    block = math.isqrt(width)
    num_blocks = -(-width // block)
    span = block * num_blocks
    if num_slopes == 1:
        inner, outer = _factor_tables(table, block, num_blocks, sample_rate_hz)
    screen = np.empty((num_rows, num_beats))
    norms = np.empty(num_rows)
    # Rows of several slopes get factor tables of their own: fewer per pass.
    step = block if num_slopes == 1 else min(block, 8)
    padded = np.zeros((min(step, num_rows), span), dtype=complex)
    for first in range(0, num_rows, step):
        chunk = slice(first, min(first + step, num_rows))
        weighted = padded[: chunk.stop - first]
        np.multiply(rows[chunk], windows[chunk], out=weighted[:, :width])
        norms[chunk] = np.abs(weighted).sum(axis=1)
        if num_slopes == 1:
            # One GEMM over every row's blocks, one batched product over j.
            partial = (inner[0] @ weighted.reshape(-1, block).T).reshape(
                num_beats, len(weighted), num_blocks
            )
            screen[chunk] = np.abs(np.matmul(partial, outer[0][:, :, None])[:, :, 0].T)
        else:
            inner, outer = _factor_tables(
                table[slope_index[chunk]], block, num_blocks, sample_rate_hz
            )
            columns = weighted.reshape(len(weighted), num_blocks, block).transpose(0, 2, 1)
            partial = np.matmul(inner, columns)[:, :, None, :]
            screen[chunk] = np.abs(np.matmul(partial, outer[:, :, :, None])[:, :, 0, 0])
    spans = block * -(-lengths // block)
    theta = 2.0 * np.pi * np.max(np.abs(table), axis=1)[slope_index] * spans / sample_rate_hz
    eps = np.finfo(float).eps
    bound = 32.0 * eps * (theta + spans + 16.0) * norms
    return screen, bound + np.finfo(float).tiny


def estimate_ranges_zoom(
    rows: np.ndarray,
    lengths: np.ndarray,
    slopes_hz_per_s: np.ndarray,
    sample_rate_hz: float,
    *,
    coarse_range_m: float,
    zoom_width_m: float = 0.5,
    zoom_points: int = 256,
    window: str = "hann",
) -> np.ndarray:
    """Zoom-DFT range estimates for chirps of any lengths and slopes.

    ``rows`` is a ``(R, W)`` stack whose row ``r`` holds ``lengths[r]``
    IF samples of a chirp of slope ``slopes_hz_per_s[r]`` followed by
    zeros.  Each estimate equals :func:`estimate_range_zoom` on that
    row's samples and slope bit for bit; every row is screened in one
    call (see :func:`_screen_zoom_responses`), and each gets its own
    exact GEMV over the union of the bands of the rows that share its
    slope and length.
    """
    ensure_positive("sample_rate_hz", sample_rate_hz)
    ensure_positive("zoom_width_m", zoom_width_m)
    if zoom_points < 8:
        raise ValueError(f"zoom_points must be >= 8, got {zoom_points}")
    rows = np.asarray(rows)
    lengths = np.asarray(lengths, dtype=int)
    low = max(coarse_range_m - zoom_width_m, 1e-3)
    high = coarse_range_m + zoom_width_m
    candidate_ranges = np.linspace(low, high, zoom_points)
    slopes, slope_index = np.unique(slopes_hz_per_s, return_inverse=True)
    candidate_beats = 2.0 * slopes[:, None] * candidate_ranges / SPEED_OF_LIGHT
    step = candidate_ranges[1] - candidate_ranges[0]
    estimates = np.full(rows.shape[0], np.nan)

    live = np.flatnonzero(np.isfinite(rows).all(axis=1))
    windows, _ = _padded_windows(window, lengths[live], rows.shape[1])
    screen, bound = _screen_zoom_responses(
        rows[live], windows, candidate_beats, sample_rate_hz,
        slope_index=slope_index[live], lengths=lengths[live],
    )
    keep = screen >= (screen.max(axis=1) - 2.0 * bound)[:, None]
    band = keep.copy()
    band[:, 1:] |= keep[:, :-1]
    band[:, :-1] |= keep[:, 1:]
    band[~np.isfinite(screen).all(axis=1)] = True
    # Rows of one slope and length share one exact basis over the union of
    # their bands (built when the first of them comes up); each row then
    # reads its own band's responses from a GEMV over that basis.
    classes, class_of = np.unique(
        np.stack([slope_index[live], lengths[live]], axis=1), axis=0, return_inverse=True
    )
    union = np.zeros((len(classes), zoom_points), dtype=bool)
    np.logical_or.at(union, class_of, band)
    bases: "dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]" = {}
    best = np.empty(live.size, dtype=int)
    squares = np.zeros((live.size, 3))
    for position, index in enumerate(live):
        length = int(lengths[index])
        cls = int(class_of[position])
        if cls not in bases:
            columns = np.flatnonzero(union[cls])
            bases[cls] = (
                columns,
                _zoom_basis(
                    candidate_beats[slope_index[index], columns],
                    np.arange(length),
                    sample_rate_hz,
                ),
                _window_and_gain(window, length)[0],
            )
        columns, exact_basis, win = bases[cls]
        response = np.abs(exact_basis @ (rows[index, :length] * win))
        peak = int(response.argmax())
        best[position] = columns[peak]
        if 0 < best[position] < zoom_points - 1:
            # A first maximum's neighbours are in its band.  Squared as
            # scalars: a numpy scalar ``** 2`` is C ``pow``, which can
            # differ in the last bit from the array square.
            squares[position] = (
                response[peak - 1] ** 2, response[peak] ** 2, response[peak + 1] ** 2
            )
    estimates[live] = candidate_ranges[best]
    inside = (best > 0) & (best < zoom_points - 1)
    estimates[live[inside]] += parabolic_peak_offsets(*squares[inside].T) * step
    return estimates


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
    are computed with the same basis expression and a GEMV over the
    row's band, whose values equal the full GEMV's (a band always has at
    least two rows; a one-row product takes a different BLAS routine).
    A row whose screen is not finite keeps every candidate in its band,
    which is then the full basis.
    """
    x = np.asarray(samples)
    if x.ndim not in (1, 2):
        raise ValueError(f"samples must be 1-D or 2-D, got shape {x.shape}")
    rows = x.reshape(-1, x.shape[-1])
    estimates = estimate_ranges_zoom(
        rows,
        np.full(rows.shape[0], rows.shape[1]),
        np.full(rows.shape[0], chirp.slope_hz_per_s),
        sample_rate_hz,
        coarse_range_m=coarse_range_m,
        zoom_width_m=zoom_width_m,
        zoom_points=zoom_points,
        window=window,
    )
    return float(estimates[0]) if x.ndim == 1 else estimates
