"""DSP kernels: Goertzel, spectra, peak interpolation, windows, quantizer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.dsp import (
    SlidingWindowSpec,
    dominant_frequency,
    envelope_rc_lowpass,
    envelope_rc_lowpass_fast,
    goertzel_power,
    goertzel_power_many,
    next_pow2,
    parabolic_peak_offset,
    quantize_uniform,
    real_tone_power_spectrum,
    sliding_windows,
)


def tone(freq, fs, n, amplitude=1.0, phase=0.0):
    return amplitude * np.cos(2 * np.pi * freq * np.arange(n) / fs + phase)


class TestGoertzel:
    def test_matched_tone_power(self):
        x = tone(50e3, 1e6, 1000, amplitude=2.0)
        power = goertzel_power(x, 50e3, 1e6)
        assert power == pytest.approx((2.0 / 2) ** 2, rel=0.05)

    def test_mismatched_tone_low_power(self):
        x = tone(50e3, 1e6, 1000)
        assert goertzel_power(x, 150e3, 1e6) < 0.01

    def test_matches_vectorized_version(self):
        x = tone(80e3, 1e6, 500, amplitude=0.7, phase=1.1)
        scalar = goertzel_power(x, 80e3, 1e6)
        vector = goertzel_power_many(x, np.array([80e3]), 1e6)[0]
        assert scalar == pytest.approx(vector, rel=1e-9)

    def test_many_frequencies_ranks_correctly(self):
        x = tone(100e3, 1e6, 800)
        freqs = np.array([50e3, 100e3, 200e3])
        powers = goertzel_power_many(x, freqs, 1e6)
        assert np.argmax(powers) == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            goertzel_power(np.array([]), 1e3, 1e6)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            goertzel_power(np.ones(10), 1e3, 0.0)


class TestSpectrum:
    def test_tone_peak_location(self):
        freqs, power = real_tone_power_spectrum(tone(100e3, 1e6, 1024), 1e6)
        assert freqs[np.argmax(power)] == pytest.approx(100e3, rel=0.02)

    def test_tone_peak_power_scaling(self):
        _, power = real_tone_power_spectrum(tone(125e3, 1e6, 4096, amplitude=2.0), 1e6, window="rect")
        assert power.max() == pytest.approx(1.0, rel=0.05)

    def test_unknown_window_rejected(self):
        with pytest.raises(ConfigurationError):
            real_tone_power_spectrum(np.ones(16), 1e6, window="kaiser7")

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            real_tone_power_spectrum(np.ones(1), 1e6)


class TestDominantFrequency:
    def test_exact_bin(self):
        est = dominant_frequency(tone(100e3, 1e6, 1000), 1e6)
        assert est == pytest.approx(100e3, rel=1e-3)

    def test_off_bin_with_interpolation(self):
        est = dominant_frequency(tone(100.4e3, 1e6, 1000), 1e6)
        assert est == pytest.approx(100.4e3, rel=2e-3)

    def test_min_frequency_skips_low_tone(self):
        x = tone(10e3, 1e6, 2000, amplitude=5.0) + tone(200e3, 1e6, 2000)
        est = dominant_frequency(x, 1e6, min_frequency_hz=50e3)
        assert est == pytest.approx(200e3, rel=0.01)

    def test_dc_pedestal_rejected(self):
        x = 10.0 + tone(30e3, 1e6, 2000, amplitude=0.5)
        est = dominant_frequency(x, 1e6, min_frequency_hz=5e3)
        assert est == pytest.approx(30e3, rel=0.02)

    def test_impossible_min_frequency(self):
        with pytest.raises(ConfigurationError):
            dominant_frequency(np.ones(64), 1e6, min_frequency_hz=1e9)


class TestParabolic:
    def test_symmetric_peak_no_offset(self):
        assert parabolic_peak_offset(1.0, 2.0, 1.0) == 0.0

    def test_right_leaning(self):
        assert parabolic_peak_offset(1.0, 2.0, 1.5) > 0

    def test_left_leaning(self):
        assert parabolic_peak_offset(1.5, 2.0, 1.0) < 0

    def test_degenerate_flat(self):
        assert parabolic_peak_offset(1.0, 1.0, 1.0) == 0.0

    def test_bounded(self):
        assert abs(parabolic_peak_offset(0.0, 1.0, 1.0)) <= 0.5


class TestSlidingWindows:
    def test_starts(self):
        spec = SlidingWindowSpec(window_samples=4, hop_samples=2)
        np.testing.assert_array_equal(spec.starts(10), [0, 2, 4, 6])

    def test_too_short_signal(self):
        spec = SlidingWindowSpec(window_samples=100, hop_samples=10)
        assert spec.starts(50).size == 0

    def test_view_contents(self):
        spec = SlidingWindowSpec(window_samples=3, hop_samples=3)
        view = sliding_windows(np.arange(9, dtype=float), spec)
        np.testing.assert_array_equal(view[1], [3.0, 4.0, 5.0])

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowSpec(window_samples=0, hop_samples=1)


class TestRcLowpass:
    def test_dc_passthrough(self):
        out = envelope_rc_lowpass_fast(np.ones(500), 1e6, 100e3)
        assert out[-1] == pytest.approx(1.0, rel=1e-3)

    def test_attenuates_high_frequency(self):
        x = tone(400e3, 1e6, 2000)
        out = envelope_rc_lowpass_fast(x, 1e6, 20e3)
        assert np.std(out[500:]) < 0.1 * np.std(x)

    def test_slow_and_fast_agree(self):
        x = np.random.default_rng(0).normal(size=300)
        slow = envelope_rc_lowpass(x, 1e6, 50e3)
        fast = envelope_rc_lowpass_fast(x, 1e6, 50e3)
        np.testing.assert_allclose(slow, fast, atol=1e-9)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ConfigurationError):
            envelope_rc_lowpass_fast(np.ones(10), 1e6, 0.0)


class TestQuantizer:
    def test_preserves_in_range_values_coarsely(self):
        x = np.linspace(-0.9, 0.9, 100)
        y = quantize_uniform(x, 12, 1.0)
        assert np.max(np.abs(x - y)) <= 2.0 / 2**12

    def test_clips(self):
        y = quantize_uniform(np.array([5.0, -5.0]), 8, 1.0)
        assert y[0] <= 1.0 and y[1] >= -1.0

    def test_one_bit(self):
        y = quantize_uniform(np.array([-0.7, 0.7]), 1, 1.0)
        assert y[0] == pytest.approx(-0.5)
        assert y[1] == pytest.approx(0.5)

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigurationError):
            quantize_uniform(np.ones(4), 0, 1.0)

    @pytest.mark.parametrize("bits,full_scale", [(1, 1.0), (8, 0.5), (12, 1.0)])
    def test_in_place_matches_allocating_bitwise(self, bits, full_scale):
        step = 2.0 * full_scale / 2**bits
        levels = np.arange(-(2 ** (bits - 1)), 2 ** (bits - 1) + 1) * step
        x = np.concatenate(
            [
                [full_scale, -full_scale, np.nextafter(full_scale, 0.0)],
                [full_scale - step / 2, full_scale - step, -full_scale + step],
                levels,  # exact step boundaries
                np.nextafter(levels, np.inf),
                np.nextafter(levels, -np.inf),
                [0.0, -0.0, 5e-324, -5e-324],
                [3.0 * full_scale, -3.0 * full_scale, 1e300, -1e300, np.inf, -np.inf],
            ]
        )
        want = quantize_uniform(x, bits, full_scale)
        got = x.copy()
        assert quantize_uniform(got, bits, full_scale, out=got) is got
        # Compare raw bit patterns: -0.0 and +0.0 must agree too.
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        block = np.stack([x, x[::-1]])
        out = np.empty_like(block)
        quantize_uniform(block, bits, full_scale, out=out)
        assert np.array_equal(out[0].view(np.uint64), want.view(np.uint64))
        assert np.array_equal(out[1].view(np.uint64), want[::-1].view(np.uint64))


class TestNextPow2:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 4), (1000, 1024), (1024, 1024)])
    def test_values(self, n, expected):
        assert next_pow2(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            next_pow2(0)


class TestFineToneFrequency:
    def test_unbiased_on_few_cycle_tone(self):
        from repro.utils.dsp import fine_tone_frequency

        fs = 1e6
        true = 61.7e3
        x = 1.0 + 0.8 * np.cos(2 * np.pi * true * np.arange(96) / fs + 1.1)
        coarse = dominant_frequency(x, fs, min_frequency_hz=5e3)
        fine = fine_tone_frequency(x, fs, coarse)
        assert abs(fine - true) < abs(coarse - true) + 1.0
        assert fine == pytest.approx(true, rel=2e-3)

    def test_robust_to_dc_pedestal(self):
        from repro.utils.dsp import fine_tone_frequency

        fs = 1e6
        true = 45.2e3
        x = 10.0 + 0.1 * np.cos(2 * np.pi * true * np.arange(200) / fs)
        fine = fine_tone_frequency(x, fs, 44e3, span_fraction=0.1)
        assert fine == pytest.approx(true, rel=2e-3)

    def test_validates_inputs(self):
        from repro.utils.dsp import fine_tone_frequency

        with pytest.raises(ConfigurationError):
            fine_tone_frequency(np.ones(4), 1e6, 10e3)
        with pytest.raises(ConfigurationError):
            fine_tone_frequency(np.ones(100), 1e6, -5.0)
        with pytest.raises(ConfigurationError):
            fine_tone_frequency(np.ones(100), 1e6, 10e3, points=4)
