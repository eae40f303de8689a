"""Differential oracle: radar-side fast paths == per-chirp references.

The receiver, the IF correction and the zoom-DFT refinement compute each
chirp-geometry invariant once per call (beat tones, radar-equation
amplitudes, windows, phasors, one zoom basis per slope group).  The
per-chirp implementations they replaced live here as the reference
semantics, and every comparison is **bitwise** (``np.array_equal`` on
samples, exact equality of estimates and generator states): the fast
paths reuse the same float expressions, so any drift is a bug.

Covered: fixed and varying slopes, moving scatterers, multiple RX
elements, phase noise, zero-amplitude chirps and scatterers beyond the
IF Nyquist frequency (both skipped without drawing), stacked equal-length
FFTs, a refinement budget that runs out in the middle of a group, and a
group whose slopes are equal only after the group key's rounding.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.multipath import Clutter
from repro.channel.noise import phase_noise_samples
from repro.components.van_atta import VanAttaArray
from repro.constants import SPEED_OF_LIGHT
from repro.core.cssk import CsskAlphabet, DecoderDesign
from repro.core.localization import LocalizationResult, TagLocalizer
from repro.errors import SimulationError
from repro.radar.config import XBAND_9GHZ
from repro.radar.fmcw import FMCWRadar, IFFrame, Scatterer
from repro.radar.if_correction import (
    align_profiles_to_common_grid,
    uncorrected_bin_peak_ranges,
)
from repro.radar.range_processing import (
    bin_ranges_m,
    estimate_range_zoom,
    range_fft,
    range_profiles,
)
from repro.tag.modulator import UplinkModulator
from repro.utils.dsp import _make_window, next_pow2, parabolic_peak_offset
from repro.utils.rng import resolve_rng
from repro.waveform.frame import FrameSchedule
from repro.waveform.parameters import ChirpParameters

# ---------------------------------------------------------------------------
# Reference implementations (one chirp, one scatterer at a time).
# ---------------------------------------------------------------------------


def reference_receive_frame_multi_rx(
    radar, frame, scatterers, *, rx_offsets_wavelengths, rng=None, add_noise=True
):
    """Per-chirp, per-scatterer receive: every tone and amplitude fresh."""
    generator = resolve_rng(rng)
    fs = radar.config.if_sample_rate_hz
    noise_power = radar.noise_power_w() if add_noise else 0.0
    num_rx = len(rx_offsets_wavelengths)
    per_rx_samples = [[] for _ in range(num_rx)]
    steering = [
        np.array(
            [
                np.exp(2j * np.pi * offset * np.sin(np.radians(scatterer.angle_deg)))
                for scatterer in scatterers
            ]
        )
        for offset in rx_offsets_wavelengths
    ]
    for chirp_index, slot in enumerate(frame.slots):
        chirp = slot.chirp
        num_samples = int(round(chirp.duration_s * fs))
        t_fast = np.arange(num_samples) / fs
        contributions = []
        for scatterer_index, scatterer in enumerate(scatterers):
            slow_amplitude = scatterer.amplitude_at_chirp(chirp_index)
            if slow_amplitude == 0.0:
                continue
            range_now = scatterer.range_at_time(slot.start_time_s)
            tau = 2.0 * range_now / SPEED_OF_LIGHT
            beat_hz = chirp.slope_hz_per_s * tau
            if beat_hz > fs / 2.0:
                continue
            amplitude = radar.received_amplitude(scatterer, range_now) * slow_amplitude
            gain = 1.0 + 0j
            if scatterer.gain_jitter_std > 0:
                scale = scatterer.gain_jitter_std / np.sqrt(2.0)
                gain += scale * (
                    generator.standard_normal() + 1j * generator.standard_normal()
                )
            phase = 2.0 * np.pi * (beat_hz * t_fast + chirp.start_frequency_hz * tau)
            contributions.append((scatterer_index, amplitude * gain * np.exp(1j * phase)))
        if radar.config.phase_noise_linewidth_hz > 0:
            lo_noise = phase_noise_samples(
                num_samples,
                fs,
                linewidth_hz=radar.config.phase_noise_linewidth_hz,
                rng=generator,
            )
        else:
            lo_noise = None
        for rx_index in range(num_rx):
            samples = np.zeros(num_samples, dtype=complex)
            for scatterer_index, tone in contributions:
                samples += steering[rx_index][scatterer_index] * tone
            if lo_noise is not None:
                samples = samples * lo_noise
            if add_noise and noise_power > 0:
                scale = np.sqrt(noise_power / 2.0)
                samples = samples + scale * (
                    generator.standard_normal(num_samples)
                    + 1j * generator.standard_normal(num_samples)
                )
            per_rx_samples[rx_index].append(samples)
    return [
        IFFrame(frame=frame, sample_rate_hz=fs, chirp_samples=chirp_list)
        for chirp_list in per_rx_samples
    ]


def reference_align(if_frame, *, window="hann", range_bins=None, max_range_m=None,
                    pad_factor=4):
    """Per-chirp IF correction: window, phasor and FFT rebuilt per chirp."""
    fs = if_frame.sample_rate_hz
    max_samples = max(samples.size for samples in if_frame.chirp_samples)
    n_fft = next_pow2(max_samples) * pad_factor
    raw_profiles, raw_ranges = [], []
    for slot, samples in zip(if_frame.frame.slots, if_frame.chirp_samples):
        profile = range_fft(samples, n_fft=n_fft, window=window)
        center_shift = (samples.size - 1) / 2.0
        profile = profile * np.exp(2j * np.pi * np.arange(n_fft) * center_shift / n_fft)
        half = n_fft // 2
        raw_profiles.append(profile[:half])
        raw_ranges.append(bin_ranges_m(slot.chirp, fs, n_fft)[:half])
    extent = (
        min(float(r[-1]) for r in raw_ranges) if max_range_m is None else float(max_range_m)
    )
    num_bins = n_fft // 2 if range_bins is None else int(range_bins)
    grid = np.linspace(0.0, extent, num_bins)
    aligned = np.empty((if_frame.num_chirps, num_bins), dtype=complex)
    for index, (profile, ranges) in enumerate(zip(raw_profiles, raw_ranges)):
        aligned[index] = np.interp(grid, ranges, profile.real) + 1j * np.interp(
            grid, ranges, profile.imag
        )
    return grid, aligned, raw_profiles, raw_ranges


def reference_estimate_range_zoom(samples, chirp, sample_rate_hz, *, coarse_range_m,
                                  zoom_width_m=0.5, zoom_points=256, window="hann"):
    """One chirp's zoom DFT with its own freshly built basis."""
    x = np.asarray(samples)
    xw = x * _make_window(window, x.size)
    low = max(coarse_range_m - zoom_width_m, 1e-3)
    candidate_ranges = np.linspace(low, coarse_range_m + zoom_width_m, zoom_points)
    candidate_beats = 2.0 * chirp.slope_hz_per_s * candidate_ranges / SPEED_OF_LIGHT
    n = np.arange(x.size)
    basis = np.exp(-2j * np.pi * np.outer(candidate_beats, n) / sample_rate_hz)
    response = np.abs(basis @ xw)
    best = int(np.argmax(response))
    if 0 < best < zoom_points - 1:
        offset = parabolic_peak_offset(
            response[best - 1] ** 2, response[best] ** 2, response[best + 1] ** 2
        )
        step = candidate_ranges[1] - candidate_ranges[0]
        return float(candidate_ranges[best] + offset * step)
    return float(candidate_ranges[best])


def reference_localize(localizer, if_frame, *, correction=None):
    """``TagLocalizer.localize`` with one zoom call per refined chirp."""
    detection, correction = localizer.coarse_detect(if_frame, correction=correction)
    groups = {}
    for index, (slot, samples) in enumerate(zip(if_frame.frame.slots, if_frame.chirp_samples)):
        groups.setdefault((round(slot.chirp.slope_hz_per_s, 3), samples.size), []).append(index)
    estimates, weights, used = [], [], 0
    for indices in groups.values():
        if len(indices) < 2:
            continue
        stack = np.vstack([if_frame.chirp_samples[i] for i in indices])
        residual = stack - stack.mean(axis=0)
        energies = np.sum(np.abs(residual) ** 2, axis=1)
        order = np.argsort(energies)[::-1]
        budget = max(localizer.max_refine_chirps - used, 0)
        for rank in order[: min(len(indices) // 2, budget)]:
            estimates.append(
                reference_estimate_range_zoom(
                    residual[rank],
                    if_frame.frame.slots[indices[rank]].chirp,
                    if_frame.sample_rate_hz,
                    coarse_range_m=detection.range_m,
                    zoom_width_m=localizer.zoom_width_m,
                    zoom_points=localizer.zoom_points,
                )
            )
            weights.append(float(energies[rank]))
            used += 1
        if used >= localizer.max_refine_chirps:
            break
    if not estimates:
        return LocalizationResult(detection.range_m, detection.range_m, detection, 0)
    return LocalizationResult(
        float(np.average(estimates, weights=weights)), detection.range_m, detection, used
    )


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

NUM_CHIRPS = 32


@pytest.fixture(scope="module")
def alphabet():
    return CsskAlphabet.design(
        bandwidth_hz=1e9,
        decoder=DecoderDesign.from_inches(45.0),
        symbol_bits=5,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )


def sensing_frame(alphabet, *, varying, seed, num_chirps=NUM_CHIRPS):
    """A frame built the way the localization engine builds it."""
    stream = np.random.default_rng(seed)
    if varying:
        symbols = stream.integers(0, alphabet.num_data_symbols, num_chirps)
        durations = [alphabet.data_symbol_duration_s(int(s)) for s in symbols]
    else:
        durations = [alphabet.header_duration_s] * num_chirps
    chirps = [
        ChirpParameters(
            start_frequency_hz=XBAND_9GHZ.start_frequency_hz,
            bandwidth_hz=alphabet.bandwidth_hz,
            duration_s=duration,
        )
        for duration in durations
    ]
    return FrameSchedule.from_chirps(chirps, alphabet.chirp_period_s)


def sensing_scatterers(frame, tag_range_m, *, tag_velocity_m_s=0.0):
    """A modulating tag in office clutter (the Fig. 15/16 scene)."""
    modulator = UplinkModulator(
        modulation_rate_hz=2000.0, chirp_period_s=120e-6, chirps_per_bit=len(frame)
    )
    van_atta = VanAttaArray()
    frequency = XBAND_9GHZ.center_frequency_hz
    on_rcs, off_rcs = van_atta.modulated_rcs_amplitudes(frequency)
    times = np.array([slot.start_time_s for slot in frame.slots])
    schedule = np.where(modulator.beacon_states(times), 1.0, float(np.sqrt(off_rcs / on_rcs)))
    return [
        Scatterer(
            range_m=tag_range_m,
            rcs_m2=van_atta.rcs_m2(frequency),
            velocity_m_s=tag_velocity_m_s,
            amplitude_schedule=schedule,
        )
    ] + [
        Scatterer(range_m=r.range_m, rcs_m2=r.rcs_m2, angle_deg=r.angle_deg)
        for r in Clutter.office(rng=0).reflectors
    ]


def edge_scatterers(num_chirps):
    """Zero-amplitude chirps, a mover, no-jitter, and a beyond-Nyquist one."""
    schedule = np.ones(num_chirps)
    schedule[1::3] = 0.0
    schedule[2::5] = 0.25
    return [
        Scatterer(range_m=3.0, rcs_m2=0.01, amplitude_schedule=schedule),
        Scatterer(range_m=4.5, rcs_m2=1.0, velocity_m_s=-12.0, angle_deg=25.0),
        Scatterer(range_m=7.2, rcs_m2=2.0, angle_deg=-30.0, gain_jitter_std=0.0),
        Scatterer(range_m=20.0, rcs_m2=5.0, angle_deg=5.0),
    ]


def assert_frames_equal(fast, reference):
    assert len(fast) == len(reference)
    for fast_frame, ref_frame in zip(fast, reference):
        assert fast_frame.num_chirps == ref_frame.num_chirps
        for got, want in zip(fast_frame.chirp_samples, ref_frame.chirp_samples):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def receive_both(config, frame, scatterers, rx_offsets, seed, add_noise=True):
    """Run fast and reference receivers on equal generators; compare."""
    fast_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    fast = FMCWRadar(config).receive_frame_multi_rx(
        frame, scatterers, rx_offsets_wavelengths=rx_offsets, rng=fast_rng,
        add_noise=add_noise,
    )
    reference = reference_receive_frame_multi_rx(
        FMCWRadar(config), frame, scatterers, rx_offsets_wavelengths=rx_offsets,
        rng=ref_rng, add_noise=add_noise,
    )
    assert_frames_equal(fast, reference)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
    return fast


# ---------------------------------------------------------------------------
# Receive
# ---------------------------------------------------------------------------


class TestReceiveOracle:
    @pytest.mark.parametrize("varying", [False, True])
    @pytest.mark.parametrize("phase_noise_hz", [0.0, 2e3])
    @pytest.mark.parametrize("rx_offsets", [[0.0], [0.0, 0.5, 1.0]])
    def test_sensing_scene(self, alphabet, varying, phase_noise_hz, rx_offsets):
        config = replace(XBAND_9GHZ, phase_noise_linewidth_hz=phase_noise_hz)
        frame = sensing_frame(alphabet, varying=varying, seed=5)
        receive_both(config, frame, sensing_scatterers(frame, 3.04), rx_offsets, seed=11)

    @pytest.mark.parametrize("varying", [False, True])
    def test_moving_tag(self, alphabet, varying):
        frame = sensing_frame(alphabet, varying=varying, seed=6)
        scatterers = sensing_scatterers(frame, 2.5, tag_velocity_m_s=1.7)
        receive_both(XBAND_9GHZ, frame, scatterers, [0.0, 0.5], seed=12)

    @pytest.mark.parametrize("add_noise", [True, False])
    def test_skipped_scatterers_draw_nothing(self, alphabet, add_noise):
        # The 20 m reflector is beyond the IF Nyquist frequency on the
        # short data chirps and the tag is off on every third chirp: both
        # are skipped, and neither may draw gain jitter.
        config = replace(XBAND_9GHZ, phase_noise_linewidth_hz=500.0)
        frame = sensing_frame(alphabet, varying=True, seed=7)
        receive_both(
            config, frame, edge_scatterers(len(frame)), [0.0, 0.5], seed=13,
            add_noise=add_noise,
        )

    def test_equal_slopes_of_different_lengths(self):
        # 0.5 GHz over 40 us and 1 GHz over 80 us share one slope (and so
        # one beat frequency per range) but not one sample count.
        chirps = [
            ChirpParameters(
                start_frequency_hz=XBAND_9GHZ.start_frequency_hz,
                bandwidth_hz=bandwidth,
                duration_s=duration,
            )
            for bandwidth, duration in [(0.5e9, 40e-6), (1e9, 80e-6)] * 3
        ]
        frame = FrameSchedule.from_chirps(chirps, 120e-6)
        scatterers = [Scatterer(range_m=2.0, rcs_m2=1.0), Scatterer(range_m=6.0, rcs_m2=0.3)]
        frames = receive_both(XBAND_9GHZ, frame, scatterers, [0.0], seed=15)
        assert frames[0].samples_per_chirp() == [200, 400] * 3

    def test_every_scatterer_skipped(self, alphabet):
        frame = sensing_frame(alphabet, varying=False, seed=8, num_chirps=4)
        far = [Scatterer(range_m=500.0, rcs_m2=1.0)]
        frames = receive_both(XBAND_9GHZ, frame, far, [0.0], seed=14, add_noise=False)
        assert all(not np.any(samples) for samples in frames[0].chirp_samples)

    @settings(max_examples=20, deadline=None)
    @given(
        ranges=st.lists(st.floats(0.5, 40.0), min_size=1, max_size=4),
        velocities=st.lists(st.floats(-20.0, 20.0), min_size=4, max_size=4),
        durations=st.lists(st.sampled_from([30e-6, 40e-6, 60e-6, 80e-6]),
                           min_size=2, max_size=8),
        phase_noise_hz=st.sampled_from([0.0, 1e3]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_scenes(self, ranges, velocities, durations, phase_noise_hz, seed):
        config = replace(XBAND_9GHZ, phase_noise_linewidth_hz=phase_noise_hz)
        chirps = [
            ChirpParameters(
                start_frequency_hz=config.start_frequency_hz,
                bandwidth_hz=1e9,
                duration_s=duration,
            )
            for duration in durations
        ]
        frame = FrameSchedule.from_chirps(chirps, 120e-6)
        scatterers = [
            Scatterer(range_m=r, rcs_m2=0.5, velocity_m_s=v, angle_deg=10.0 * i)
            for i, (r, v) in enumerate(zip(ranges, velocities))
        ]
        receive_both(config, frame, scatterers, [0.0, 0.5], seed=seed)

    def test_crossing_scatterer_still_raises(self, alphabet):
        frame = sensing_frame(alphabet, varying=False, seed=9, num_chirps=8)
        with pytest.raises(SimulationError, match="crossed the radar"):
            FMCWRadar(XBAND_9GHZ).receive_frame(
                frame, [Scatterer(range_m=0.01, rcs_m2=1.0, velocity_m_s=-100.0)], rng=0
            )


class TestReceiveAliasing:
    def test_chirps_of_a_fixed_slope_frame_are_separate_arrays(self, alphabet):
        # Static, jitter-free, noiseless: every chirp carries the same
        # shared tone, yet each chirp must own its samples, because
        # impairments and callers write into them in place.
        frame = sensing_frame(alphabet, varying=False, seed=10, num_chirps=4)
        target = Scatterer(range_m=3.0, rcs_m2=1.0, gain_jitter_std=0.0)
        if_frame = FMCWRadar(XBAND_9GHZ).receive_frame(
            frame, [target], rng=0, add_noise=False
        )
        first, second = if_frame.chirp_samples[0], if_frame.chirp_samples[1]
        assert np.array_equal(first, second)
        before = second.copy()
        first[:] = 0.0
        first *= 3.0
        assert np.array_equal(second, before)
        assert not np.shares_memory(first, second)

    def test_multi_rx_elements_are_separate_arrays(self, alphabet):
        frame = sensing_frame(alphabet, varying=False, seed=10, num_chirps=2)
        target = Scatterer(range_m=3.0, rcs_m2=1.0, gain_jitter_std=0.0)
        frames = FMCWRadar(XBAND_9GHZ).receive_frame_multi_rx(
            frame, [target], rx_offsets_wavelengths=[0.0, 0.0], rng=0, add_noise=False
        )
        assert np.array_equal(frames[0].chirp_samples[0], frames[1].chirp_samples[0])
        assert not np.shares_memory(frames[0].chirp_samples[0], frames[1].chirp_samples[0])


# ---------------------------------------------------------------------------
# IF correction
# ---------------------------------------------------------------------------


class TestAlignOracle:
    @pytest.mark.parametrize("varying", [False, True])
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"pad_factor": 1}, {"range_bins": 300, "max_range_m": 6.0}, {"window": "hamming"}],
    )
    def test_matches_per_chirp_reference(self, alphabet, varying, kwargs):
        frame = sensing_frame(alphabet, varying=varying, seed=21)
        if_frame = FMCWRadar(XBAND_9GHZ).receive_frame(
            frame, sensing_scatterers(frame, 4.1), rng=3
        )
        result = align_profiles_to_common_grid(if_frame, **kwargs)
        grid, aligned, raw_profiles, raw_ranges = reference_align(if_frame, **kwargs)
        assert np.array_equal(result.range_grid_m, grid)
        assert np.array_equal(result.aligned, aligned)
        for got, want in zip(result.raw_profiles, raw_profiles):
            assert np.array_equal(got, want)
        for got, want in zip(result.raw_ranges_m, raw_ranges):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("window", ["hann", "hamming"])
    @pytest.mark.parametrize("n_fft", [None, 1024])
    def test_stacked_range_fft_rows_equal_one_dimensional_calls(self, window, n_fft):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((9, 151)) + 1j * rng.standard_normal((9, 151))
        stacked = range_fft(stack, n_fft=n_fft, window=window)
        assert stacked.shape == (9, 256 if n_fft is None else n_fft)
        for row, samples in zip(stacked, stack):
            assert np.array_equal(row, range_fft(samples, n_fft=n_fft, window=window))

    def test_per_chirp_arrays_are_not_shared(self, alphabet):
        frame = sensing_frame(alphabet, varying=False, seed=22, num_chirps=4)
        result = align_profiles_to_common_grid(
            FMCWRadar(XBAND_9GHZ).receive_frame(frame, sensing_scatterers(frame, 2.0), rng=1)
        )
        assert not np.shares_memory(result.raw_ranges_m[0], result.raw_ranges_m[1])
        assert not np.shares_memory(result.raw_profiles[0], result.raw_profiles[1])

    def test_too_short_chirp_raises(self):
        frame = FrameSchedule.from_chirps([XBAND_9GHZ.chirp(40e-6)] * 2, 120e-6)
        if_frame = IFFrame(frame, 5e6, [np.ones(1, dtype=complex)] * 2)
        with pytest.raises(ValueError, match="at least 2 samples"):
            align_profiles_to_common_grid(if_frame)


class TestUncorrectedPeakRanges:
    def test_min_range_beyond_grid_raises_clear_error(self, alphabet):
        frame = sensing_frame(alphabet, varying=True, seed=23, num_chirps=4)
        if_frame = FMCWRadar(XBAND_9GHZ).receive_frame(
            frame, [Scatterer(range_m=3.0, rcs_m2=1.0)], rng=0
        )
        with pytest.raises(ValueError, match="min_range_m=1000.0"):
            uncorrected_bin_peak_ranges(if_frame, min_range_m=1000.0)

    def test_min_range_inside_grid_still_works(self, alphabet):
        frame = sensing_frame(alphabet, varying=False, seed=23, num_chirps=4)
        if_frame = FMCWRadar(XBAND_9GHZ).receive_frame(
            frame, [Scatterer(range_m=3.0, rcs_m2=1.0)], rng=0
        )
        peaks = uncorrected_bin_peak_ranges(if_frame, min_range_m=0.5)
        assert peaks.shape == (4,)
        assert np.all(np.abs(peaks - 3.0) < 0.2)


# ---------------------------------------------------------------------------
# Zoom refinement
# ---------------------------------------------------------------------------


class TestZoomOracle:
    @pytest.mark.parametrize("window", ["hann", "rect"])
    def test_stacked_rows_equal_one_dimensional_calls(self, window):
        chirp = XBAND_9GHZ.chirp(40e-6)
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((7, 200)) + 1j * rng.standard_normal((7, 200))
        kwargs = dict(coarse_range_m=3.0, zoom_width_m=0.4, zoom_points=161, window=window)
        stacked = estimate_range_zoom(rows, chirp, 5e6, **kwargs)
        assert stacked.shape == (7,)
        for row, estimate in zip(rows, stacked):
            single = estimate_range_zoom(row, chirp, 5e6, **kwargs)
            assert isinstance(single, float)
            assert float(estimate) == single
            assert single == reference_estimate_range_zoom(row, chirp, 5e6, **kwargs)

    def test_edge_of_grid_peak_matches_reference(self):
        # A tone far outside the zoom window peaks at a grid edge, where no
        # parabolic refinement applies.
        chirp = XBAND_9GHZ.chirp(40e-6)
        n = np.arange(200)
        tone = np.exp(2j * np.pi * chirp.beat_frequency_for_range(9.0) * n / 5e6)
        rows = np.vstack([tone, tone * 0.5])
        kwargs = dict(coarse_range_m=2.0, zoom_width_m=0.3, zoom_points=32)
        stacked = estimate_range_zoom(rows, chirp, 5e6, **kwargs)
        assert float(stacked[0]) == reference_estimate_range_zoom(tone, chirp, 5e6, **kwargs)
        assert float(stacked[0]) == pytest.approx(2.3)

    def test_rejects_three_dimensional_input(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            estimate_range_zoom(
                np.ones((2, 2, 64), dtype=complex), XBAND_9GHZ.chirp(40e-6), 5e6,
                coarse_range_m=3.0,
            )


class TestLocalizeOracle:
    @pytest.mark.parametrize("varying", [False, True])
    @pytest.mark.parametrize("tag_range_m", [1.04, 5.03])
    @pytest.mark.parametrize("max_refine_chirps", [64, 5, 11])
    def test_matches_per_chirp_reference(
        self, alphabet, varying, tag_range_m, max_refine_chirps
    ):
        # Budgets of 5 and 11 run out in the middle of a slope group.
        frame = sensing_frame(alphabet, varying=varying, seed=31, num_chirps=48)
        if_frame = FMCWRadar(XBAND_9GHZ).receive_frame(
            frame, sensing_scatterers(frame, tag_range_m), rng=17
        )
        localizer = TagLocalizer(2000.0, max_refine_chirps=max_refine_chirps)
        fast = localizer.localize(if_frame)
        reference = reference_localize(localizer, if_frame)
        assert fast.range_m == reference.range_m
        assert fast.coarse_range_m == reference.coarse_range_m
        assert fast.num_chirps_used == reference.num_chirps_used
        assert fast.num_chirps_used <= max_refine_chirps

    def test_budget_exhausted_mid_group_uses_exactly_the_budget(self, alphabet):
        frame = sensing_frame(alphabet, varying=False, seed=32, num_chirps=40)
        if_frame = FMCWRadar(XBAND_9GHZ).receive_frame(
            frame, sensing_scatterers(frame, 3.0), rng=18
        )
        localizer = TagLocalizer(2000.0, max_refine_chirps=7)
        result = localizer.localize(if_frame)
        assert result.num_chirps_used == 7
        assert result.range_m == reference_localize(localizer, if_frame).range_m

    def test_group_with_slopes_equal_only_after_rounding(self):
        # Two bandwidths two ulps apart give slopes that differ exactly but
        # share the rounded group key: one background group, two bases.
        bandwidths = [200e6, 200e6 + 2 * 2.0**-25]
        chirps = [
            ChirpParameters(
                start_frequency_hz=XBAND_9GHZ.start_frequency_hz,
                bandwidth_hz=bandwidths[index % 2],
                duration_s=80e-6,
            )
            for index in range(48)
        ]
        slopes = [chirp.slope_hz_per_s for chirp in chirps[:2]]
        assert slopes[0] != slopes[1]
        assert round(slopes[0], 3) == round(slopes[1], 3)
        frame = FrameSchedule.from_chirps(chirps, 120e-6)
        if_frame = FMCWRadar(XBAND_9GHZ).receive_frame(
            frame, sensing_scatterers(frame, 3.1), rng=20
        )
        localizer = TagLocalizer(2000.0)
        fast = localizer.localize(if_frame)
        reference = reference_localize(localizer, if_frame)
        assert fast.range_m == reference.range_m
        assert fast.num_chirps_used == reference.num_chirps_used == 24

    def test_moving_tag_with_supplied_correction(self, alphabet):
        frame = sensing_frame(alphabet, varying=True, seed=33, num_chirps=48)
        if_frame = FMCWRadar(XBAND_9GHZ).receive_frame(
            frame, sensing_scatterers(frame, 2.2, tag_velocity_m_s=0.8), rng=19
        )
        correction = align_profiles_to_common_grid(if_frame)
        localizer = TagLocalizer(2000.0)
        fast = localizer.localize(if_frame, correction=correction)
        reference = reference_localize(localizer, if_frame, correction=correction)
        assert fast.range_m == reference.range_m
        assert fast.num_chirps_used == reference.num_chirps_used


# ---------------------------------------------------------------------------
# One pass per frame: bytes, signed zeros, NaN, steering
# ---------------------------------------------------------------------------


def as_bits(values):
    """Float or complex values as raw 64-bit words (-0.0 != +0.0, NaN == NaN)."""
    array = np.asarray(values)
    return np.ascontiguousarray(array.astype(np.result_type(array, float))).view(np.uint64)


def assert_same_bits(got, want):
    assert np.array_equal(as_bits(got), as_bits(want))


def alphabet_durations(alphabet):
    return [alphabet.header_duration_s] + [
        alphabet.data_symbol_duration_s(s) for s in range(alphabet.num_data_symbols)
    ]


class TestOnePassAlign:
    @pytest.mark.parametrize("window", ["hann", "hamming"])
    def test_equals_stacked_range_fft_per_length(self, alphabet, window):
        # Every alphabet chirp length, each twice, interleaved: the one
        # whole-frame FFT must equal a stacked range_fft per length.
        fs = XBAND_9GHZ.if_sample_rate_hz
        lengths = [int(round(d * fs)) for d in alphabet_durations(alphabet)] * 2
        rng = np.random.default_rng(40)
        chirps = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in lengths]
        n_fft = next_pow2(max(lengths)) * 4
        profiles = range_profiles(chirps, n_fft=n_fft, keep=n_fft // 2, window=window)
        for length in sorted(set(lengths)):
            rows = [i for i, n in enumerate(lengths) if n == length]
            stacked = range_fft(np.vstack([chirps[i] for i in rows]), n_fft=n_fft, window=window)
            assert_same_bits(profiles[rows], stacked[:, : n_fft // 2])

    def test_varying_frame_bits_equal_reference(self, alphabet):
        frame = sensing_frame(alphabet, varying=True, seed=41, num_chirps=96)
        if_frame = FMCWRadar(XBAND_9GHZ).receive_frame(
            frame, sensing_scatterers(frame, 5.2), rng=4
        )
        result = align_profiles_to_common_grid(if_frame)
        grid, aligned, raw_profiles, raw_ranges = reference_align(if_frame)
        assert_same_bits(result.aligned, aligned)
        assert_same_bits(np.vstack(result.raw_profiles), np.vstack(raw_profiles))
        assert_same_bits(np.vstack(result.raw_ranges_m), np.vstack(raw_ranges))


def degraded_scene(alphabet, *, varying, bad, seed):
    """A sensing frame in which every scatterer is off ("blank") or NaN on chirp 5."""
    frame = sensing_frame(alphabet, varying=varying, seed=seed, num_chirps=48)
    scatterers = sensing_scatterers(frame, 3.3)
    for scatterer in scatterers:
        schedule = np.ones(len(frame)) if scatterer.amplitude_schedule is None else (
            scatterer.amplitude_schedule.copy()
        )
        schedule[5] = 0.0 if bad == "blank" else np.nan
        scatterer.amplitude_schedule = schedule
    return frame, scatterers


class TestDegradedChirpsBitForBit:
    @pytest.mark.parametrize("varying", [False, True])
    @pytest.mark.parametrize("bad", ["blank", "nan"])
    @pytest.mark.parametrize("rx_offsets", [[0.0], [0.0, 0.5]])
    def test_receive(self, alphabet, varying, bad, rx_offsets):
        frame, scatterers = degraded_scene(alphabet, varying=varying, bad=bad, seed=42)
        for add_noise in (False, True):
            fast = FMCWRadar(XBAND_9GHZ).receive_frame_multi_rx(
                frame, scatterers, rx_offsets_wavelengths=rx_offsets, rng=21,
                add_noise=add_noise,
            )
            reference = reference_receive_frame_multi_rx(
                FMCWRadar(XBAND_9GHZ), frame, scatterers, rx_offsets_wavelengths=rx_offsets,
                rng=21, add_noise=add_noise,
            )
            for fast_frame, ref_frame in zip(fast, reference):
                for got, want in zip(fast_frame.chirp_samples, ref_frame.chirp_samples):
                    assert_same_bits(got, want)
                if bad == "nan":
                    assert np.isnan(fast_frame.chirp_samples[5]).all()
                elif not add_noise:
                    # A blanked chirp without noise is +0.0 everywhere.
                    assert not np.signbit(fast_frame.chirp_samples[5].view(float)).any()
                    assert not np.any(fast_frame.chirp_samples[5])

    @pytest.mark.parametrize("varying", [False, True])
    @pytest.mark.parametrize("bad", ["blank", "nan"])
    def test_align_and_localize(self, alphabet, varying, bad):
        frame, scatterers = degraded_scene(alphabet, varying=varying, bad=bad, seed=43)
        if_frame = FMCWRadar(XBAND_9GHZ).receive_frame(frame, scatterers, rng=22)
        if bad == "blank":
            if_frame.chirp_samples[5][:] = 0.0  # receiver blanking
        with np.errstate(invalid="ignore"):
            correction = align_profiles_to_common_grid(if_frame)
            grid, aligned, raw_profiles, raw_ranges = reference_align(if_frame)
            assert_same_bits(correction.aligned, aligned)
            if bad == "blank" and not varying:
                # Here the blank row's interpolated planes hold -0.0, which
                # the complex build turns into +0.0: the direct real and
                # imaginary writes must do the same.
                planes = [np.interp(grid, raw_ranges[5], part)
                          for part in (raw_profiles[5].real, raw_profiles[5].imag)]
                assert (aligned[5] == 0).all() and any(np.signbit(p).any() for p in planes)
                assert not np.signbit(aligned[5].imag).any()
            # Coarse detection on the frame with chirp 5 zeroed, so the NaN
            # chirp reaches the background and zoom steps.
            clean = IFFrame(if_frame.frame, if_frame.sample_rate_hz, [
                np.zeros_like(s) if i == 5 else s for i, s in enumerate(if_frame.chirp_samples)
            ])
            anchor = align_profiles_to_common_grid(clean)
            localizer = TagLocalizer(2000.0)
            got = localizer.localize(if_frame, correction=anchor)
            want = reference_localize(localizer, if_frame, correction=anchor)
        assert_same_bits([got.range_m, got.coarse_range_m], [want.range_m, want.coarse_range_m])
        assert got.num_chirps_used == want.num_chirps_used


class TestBatchedRefinement:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_refine_chirps", [64, 9, 1])
    def test_varying_frames_equal_reference(self, alphabet, seed, max_refine_chirps):
        frame = sensing_frame(alphabet, varying=True, seed=50 + seed, num_chirps=96)
        if_frame = FMCWRadar(XBAND_9GHZ).receive_frame(
            frame, sensing_scatterers(frame, 1.0 + 1.1 * seed), rng=60 + seed
        )
        # Varying frames hold one-chirp groups (skipped) and groups that
        # offer a single row; budgets of 9 and 1 run out mid-frame.
        lengths = [samples.size for samples in if_frame.chirp_samples]
        counts = np.bincount(lengths)
        assert (counts == 1).any() and ((counts == 2) | (counts == 3)).any()
        correction = align_profiles_to_common_grid(if_frame)
        localizer = TagLocalizer(2000.0, max_refine_chirps=max_refine_chirps)
        detection = localizer.coarse_detect(if_frame, correction=correction)[0]
        got = localizer.refine(if_frame, detection)
        want = reference_localize(localizer, if_frame, correction=correction)
        assert_same_bits([got.range_m], [want.range_m])
        assert got.num_chirps_used == want.num_chirps_used == min(
            max_refine_chirps, want.num_chirps_used
        )
        assert localizer.localize(if_frame, correction=correction).range_m == got.range_m


class TestSteering:
    def test_non_unit_steering_still_multiplies(self, alphabet):
        # Element 0 at offset 0 has a unit phasor for every scatterer (the
        # multiply is skipped); element 1 at half a wavelength steers the
        # off-boresight clutter and must differ from element 0.
        frame = sensing_frame(alphabet, varying=True, seed=70, num_chirps=16)
        scatterers = sensing_scatterers(frame, 2.6)
        assert any(s.angle_deg != 0.0 for s in scatterers)
        fast = receive_both(XBAND_9GHZ, frame, scatterers, [0.0, 0.5], seed=71, add_noise=False)
        reference = reference_receive_frame_multi_rx(
            FMCWRadar(XBAND_9GHZ), frame, scatterers, rx_offsets_wavelengths=[0.0, 0.5],
            rng=71, add_noise=False,
        )
        for fast_frame, ref_frame in zip(fast, reference):
            for got, want in zip(fast_frame.chirp_samples, ref_frame.chirp_samples):
                assert_same_bits(got, want)
        assert not np.array_equal(fast[0].chirp_samples[0], fast[1].chirp_samples[0])
