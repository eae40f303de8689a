"""DSP kernels shared by the radar and the tag.

The tag side deliberately uses *low-power-friendly* primitives: the Goertzel
algorithm (a point-by-point DFT evaluator the paper proposes for the MCU),
short real FFTs, and simple peak interpolation.  The radar side uses full
FFT-based range/Doppler processing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


def goertzel_power(samples: np.ndarray, frequency_hz: float, sample_rate_hz: float) -> float:
    """Power of ``samples`` at a single frequency via the Goertzel algorithm.

    This is the low-power, point-by-point DFT evaluator the paper suggests
    for the tag MCU (ref. [15]): it needs one multiply-accumulate per sample
    per probed frequency instead of a full FFT.

    Returns the squared DFT magnitude normalized by ``len(samples) ** 2`` so
    that a full-scale tone of amplitude ``A`` yields approximately
    ``(A / 2) ** 2`` regardless of window length.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ConfigurationError("goertzel_power requires at least one sample")
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample_rate_hz must be positive, got {sample_rate_hz!r}")
    omega = 2.0 * np.pi * frequency_hz / sample_rate_hz
    coeff = 2.0 * np.cos(omega)
    s_prev = 0.0
    s_prev2 = 0.0
    for sample in x:
        s = sample + coeff * s_prev - s_prev2
        s_prev2 = s_prev
        s_prev = s
    power = s_prev2 * s_prev2 + s_prev * s_prev - coeff * s_prev * s_prev2
    return float(power) / float(n * n)


def goertzel_power_many(
    samples: np.ndarray, frequencies_hz: np.ndarray, sample_rate_hz: float
) -> np.ndarray:
    """Vectorized Goertzel: power at each probe frequency.

    Implemented as a direct single-bin DFT (mathematically identical to the
    Goertzel recursion) so that probing many candidate beat frequencies stays
    a cheap matrix product in the simulator while modelling the same
    per-frequency evaluation the tag MCU would run.

    ``samples`` may carry leading batch axes: a ``(..., n)`` input yields a
    ``(..., num_freqs)`` output whose every row is bit-identical to calling
    this function on that row alone.  The batched product keeps an explicit
    trailing column axis (``matmul(phases, x[..., :, None])``) so BLAS runs
    the *same* per-row matrix-vector kernel as the 1-D path — a plain GEMM
    over the batch would reorder the accumulations and break the bit-exact
    oracle contract ``tests/unit/test_batch_equivalence.py`` enforces.
    """
    x = np.asarray(samples, dtype=float)
    freqs = np.atleast_1d(np.asarray(frequencies_hz, dtype=float))
    if x.ndim >= 2 and 0 in x.shape[:-1]:
        raise ConfigurationError("goertzel_power_many requires a non-empty frame batch")
    if x.size == 0:
        raise ConfigurationError("goertzel_power_many requires at least one sample")
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample_rate_hz must be positive, got {sample_rate_hz!r}")
    n = x.shape[-1] if x.ndim else x.size
    t = np.arange(n) / sample_rate_hz
    phases = np.exp(-2j * np.pi * np.outer(freqs, t))
    if x.ndim == 1:
        bins = phases @ x
    else:
        bins = np.matmul(phases, x[..., :, None].astype(complex))[..., 0]
    return np.abs(bins) ** 2 / float(n * n)


def real_tone_power_spectrum(
    samples: np.ndarray, sample_rate_hz: float, *, window: str = "hann"
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided power spectrum of a real signal.

    Returns ``(frequencies_hz, power)`` where ``power`` is scaled so a
    full-scale real tone of amplitude ``A`` integrates to roughly
    ``(A / 2) ** 2`` at its bin (coherent gain corrected).
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ConfigurationError("need at least two samples for a spectrum")
    win = _make_window(window, n)
    coherent_gain = win.sum() / n
    spectrum = np.fft.rfft(x * win) / (n * coherent_gain)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    return freqs, np.abs(spectrum) ** 2


def _make_window(window: str, n: int) -> np.ndarray:
    """Build a named analysis window of length ``n``."""
    if window == "hann":
        return np.hanning(n)
    if window == "hamming":
        return np.hamming(n)
    if window == "blackman":
        return np.blackman(n)
    if window in ("rect", "boxcar", "none"):
        return np.ones(n)
    raise ConfigurationError(f"unknown window {window!r}")


def dominant_frequency(
    samples: np.ndarray,
    sample_rate_hz: float,
    *,
    min_frequency_hz: float = 0.0,
    window: str = "hann",
    interpolate: bool = True,
) -> float:
    """Estimate the dominant tone frequency of a real signal.

    Searches the one-sided spectrum above ``min_frequency_hz`` (to skip the
    DC term the envelope detector leaves behind) and optionally refines the
    peak with parabolic interpolation for sub-bin resolution.  The mean is
    removed first so a large DC pedestal's leakage skirt cannot outvote a
    genuine tone near the bottom of the band.
    """
    x = np.asarray(samples, dtype=float)
    x = x - x.mean()
    freqs, power = real_tone_power_spectrum(x, sample_rate_hz, window=window)
    mask = freqs >= min_frequency_hz
    if not np.any(mask):
        raise ConfigurationError(
            f"min_frequency_hz={min_frequency_hz!r} excludes the whole spectrum"
        )
    offset = int(np.argmax(mask))
    local = power[mask]
    peak = int(np.argmax(local)) + offset
    if not interpolate or peak <= 0 or peak >= power.size - 1:
        return float(freqs[peak])
    delta = parabolic_peak_offset(power[peak - 1], power[peak], power[peak + 1])
    bin_width = freqs[1] - freqs[0]
    return float(freqs[peak] + delta * bin_width)


def fine_tone_frequency(
    samples: np.ndarray,
    sample_rate_hz: float,
    coarse_hz: float,
    *,
    span_fraction: float = 0.1,
    points: int = 201,
) -> float:
    """Refine a real-tone frequency estimate with a DC-orthogonal LS scan.

    For every candidate frequency around ``coarse_hz`` the samples are fit
    by the model ``{1, cos, sin}`` (joint DC + tone least squares); the
    candidate explaining the most energy wins, with a final parabolic
    refinement.  Unlike a windowed FFT peak, this estimator has no
    DC-leakage or scalloping bias — important for the few-cycle tones the
    tag calibrates on.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 8:
        raise ConfigurationError(f"need at least 8 samples, got {n}")
    if coarse_hz <= 0 or sample_rate_hz <= 0:
        raise ConfigurationError("coarse_hz and sample_rate_hz must be positive")
    if points < 16:
        raise ConfigurationError(f"points must be >= 16, got {points}")
    candidates = coarse_hz * np.linspace(1 - span_fraction, 1 + span_fraction, points)
    indices = np.arange(n)
    scores = np.empty(points)
    ones = np.ones(n)
    for i, freq in enumerate(candidates):
        omega = 2.0 * np.pi * freq / sample_rate_hz
        basis = np.column_stack([ones, np.cos(omega * indices), np.sin(omega * indices)])
        q, _ = np.linalg.qr(basis)
        projection = q.T @ x
        # Explained energy beyond DC (first column spans the constant).
        scores[i] = float(np.sum(projection[1:] ** 2))
    best = int(np.argmax(scores))
    estimate = candidates[best]
    if 0 < best < points - 1:
        step = candidates[1] - candidates[0]
        estimate += step * parabolic_peak_offset(
            scores[best - 1], scores[best], scores[best + 1]
        )
    return float(estimate)


def parabolic_peak_offset(left: float, center: float, right: float) -> float:
    """Sub-bin offset of a spectral peak via 3-point parabolic interpolation.

    Returns a value in (-0.5, 0.5) to add to the integer peak bin.  Falls
    back to 0 when the three points are degenerate (flat peak).
    """
    denominator = left - 2.0 * center + right
    if denominator == 0.0:
        return 0.0
    offset = 0.5 * (left - right) / denominator
    return float(np.clip(offset, -0.5, 0.5))


def parabolic_peak_offsets(
    left: np.ndarray, center: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """:func:`parabolic_peak_offset` of arrays of peaks, elementwise and bit for bit."""
    denominator = left - 2.0 * center + right
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = 0.5 * (left - right) / denominator
    return np.where(denominator == 0.0, 0.0, np.clip(offset, -0.5, 0.5))


@dataclass(frozen=True)
class SlidingWindowSpec:
    """Specification for a sliding analysis window over a sample stream."""

    window_samples: int
    hop_samples: int

    def __post_init__(self) -> None:
        if self.window_samples < 1:
            raise ConfigurationError(f"window_samples must be >= 1, got {self.window_samples}")
        if self.hop_samples < 1:
            raise ConfigurationError(f"hop_samples must be >= 1, got {self.hop_samples}")

    def starts(self, total_samples: int) -> np.ndarray:
        """Start indices of every full window within ``total_samples``.

        **Truncation contract**: only *complete* windows are produced.  The
        number of windows is ``1 + (total - window) // hop`` for
        ``total >= window`` and 0 otherwise; when ``total - window`` is not
        a multiple of ``hop`` the trailing samples past the last full window
        are dropped (never zero-padded, never emitted as a short window).
        """
        if total_samples < self.window_samples:
            return np.empty(0, dtype=int)
        return np.arange(0, total_samples - self.window_samples + 1, self.hop_samples)

    def num_windows(self, total_samples: int) -> int:
        """How many full windows :meth:`starts` yields (truncation contract)."""
        if total_samples < self.window_samples:
            return 0
        return 1 + (total_samples - self.window_samples) // self.hop_samples


def sliding_windows(samples: np.ndarray, spec: SlidingWindowSpec) -> np.ndarray:
    """Strided view of every full analysis window in ``samples``.

    A 1-D ``(n,)`` input yields ``(num_windows, window_samples)``; a batched
    2-D ``(batch, n)`` input yields ``(batch, num_windows, window_samples)``
    where every ``[b]`` plane equals the 1-D result for row ``b`` (the views
    alias the same memory, so equality is trivially bitwise).  Samples past
    the last full window are dropped per the
    :meth:`SlidingWindowSpec.starts` truncation contract.
    """
    x = np.ascontiguousarray(np.asarray(samples, dtype=float))
    if x.ndim > 2:
        raise ConfigurationError(
            f"sliding_windows supports 1-D or batched 2-D input, got shape {x.shape}"
        )
    if x.ndim == 2:
        starts = spec.starts(x.shape[1])
        if starts.size == 0:
            return np.empty((x.shape[0], 0, spec.window_samples))
        shape = (x.shape[0], starts.size, spec.window_samples)
        strides = (x.strides[0], x.strides[1] * spec.hop_samples, x.strides[1])
        return np.lib.stride_tricks.as_strided(
            x, shape=shape, strides=strides, writeable=False
        )
    starts = spec.starts(x.size)
    if starts.size == 0:
        return np.empty((0, spec.window_samples))
    shape = (starts.size, spec.window_samples)
    strides = (x.strides[0] * spec.hop_samples, x.strides[0])
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides, writeable=False)


def envelope_rc_lowpass(
    samples: np.ndarray, sample_rate_hz: float, cutoff_hz: float
) -> np.ndarray:
    """First-order RC low-pass filter (the envelope detector's smoothing).

    A single-pole IIR with time constant ``1 / (2*pi*cutoff)``; matches the
    behaviour of the detector's internal RC network well enough for
    behavioural simulation.  This per-sample loop is the *reference oracle*
    for :func:`envelope_rc_lowpass_fast` and stays 1-D on purpose.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim > 1:
        raise ConfigurationError(
            f"envelope_rc_lowpass is the 1-D reference oracle, got shape {x.shape}; "
            "use envelope_rc_lowpass_fast for batched input"
        )
    if sample_rate_hz <= 0 or cutoff_hz <= 0:
        raise ConfigurationError("sample_rate_hz and cutoff_hz must be positive")
    dt = 1.0 / sample_rate_hz
    alpha = dt / (dt + 1.0 / (2.0 * np.pi * cutoff_hz))
    out = np.empty_like(x)
    acc = x[0] if x.size else 0.0
    for i, sample in enumerate(x):
        acc += alpha * (sample - acc)
        out[i] = acc
    return out


def envelope_rc_lowpass_fast(
    samples: np.ndarray, sample_rate_hz: float, cutoff_hz: float
) -> np.ndarray:
    """Vectorized equivalent of :func:`envelope_rc_lowpass` using lfilter.

    Accepts a leading batch axis: a ``(..., n)`` input is filtered along
    the last axis with per-row initial conditions, and every row of the
    result is bit-identical to filtering that row alone (``lfilter`` runs
    the same per-row recursion for either layout).
    """
    from scipy.signal import lfilter

    x = np.asarray(samples, dtype=float)
    if sample_rate_hz <= 0 or cutoff_hz <= 0:
        raise ConfigurationError("sample_rate_hz and cutoff_hz must be positive")
    dt = 1.0 / sample_rate_hz
    alpha = dt / (dt + 1.0 / (2.0 * np.pi * cutoff_hz))
    if x.ndim > 1:
        if x.shape[-1] == 0:
            return x.copy()
        zi = (1.0 - alpha) * x[..., :1]
        out, _ = lfilter([alpha], [1.0, alpha - 1.0], x, axis=-1, zi=zi)
        return out
    zi = np.array([(1.0 - alpha) * x[0]]) if x.size else np.zeros(1)
    out, _ = lfilter([alpha], [1.0, alpha - 1.0], x, zi=zi)
    return out


def quantize_uniform(
    samples: np.ndarray, bits: int, full_scale: float, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Mid-rise uniform quantization with clipping at +/- ``full_scale``.

    Models an ideal ``bits``-bit ADC transfer function.  ``out`` (a float
    array shaped like ``samples``, possibly ``samples`` itself) receives
    the result in place; otherwise one new array does.  Both forms run the
    same clip, ``/ step``, floor, ``+ 0.5``, ``* step`` sequence, so they
    agree bit for bit.
    """
    if bits < 1:
        raise ConfigurationError(f"bits must be >= 1, got {bits}")
    if full_scale <= 0:
        raise ConfigurationError(f"full_scale must be positive, got {full_scale!r}")
    levels = 2**bits
    step = 2.0 * full_scale / levels
    x = np.asarray(samples, dtype=float)
    if out is None:
        out = np.empty_like(x)
    np.clip(x, -full_scale, full_scale - step / 2, out=out)
    out /= step
    np.floor(out, out=out)
    out += 0.5
    out *= step
    return out


def next_pow2(n: int) -> int:
    """Smallest power of two >= ``n`` (FFT sizing helper)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return 1 << (int(n) - 1).bit_length()
