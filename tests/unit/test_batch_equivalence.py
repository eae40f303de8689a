"""Differential oracle harness: batched DSP fast path == per-frame reference.

Every batched kernel of the downlink signal chain is pinned
against its per-frame (or per-slot / per-row) oracle with **bitwise**
equality — ``np.array_equal``, not ``allclose``.  The per-frame
implementations are the reference semantics; the batched paths are pure
reorderings of the same float expressions (stacked matmul with an
explicit trailing column axis, broadcast elementwise arithmetic,
``lfilter`` along the last axis), so any drift — however small — is a
bug, not a tolerance question.

Layer by layer:

* chirp synthesis (``waveform.chirp``): vector ``delay_s`` rows vs
  scalar-delay calls;
* DSP kernels (``utils.dsp``): batched Goertzel / sliding windows /
  envelope LPF vs per-row calls, plus the fast-vs-reference envelope and
  many-vs-looped Goertzel cross-checks (those two are *different
  algorithms*, so they get tolerances; everything else is bit-exact);
* tag frontend (``tag.frontend.capture_batch``) vs sequential
  ``capture`` under matched RNG streams, on encoded frames and on
  hand-built slot grids (ragged rows, non-absorptive, empty, cut-short
  and overlapping slots, wraps at 0, 1, NaN and inside, no DC pedestal,
  a batch of one, and a Hypothesis sweep of uniform grids);
* tag decoder (``tag.decoder_dsp``): ``score_slots`` / ``score_slot``
  vs the per-slot ``projectors @ window`` reference,
  ``decode_aligned_batch`` / ``decode_aligned`` vs the per-slot decode
  loop, and the batched decode's certified GEMM argmax vs the exact
  kernel's argmax on windows bisected to a tie;
* block decode and chunk counting: ``decode_aligned_block`` on
  full, cut-short and short-last-slot blocks from slot 0, the preamble
  end and past it vs the per-slot decode loop, and the chunk's one-step
  bit-error count vs a per-trial ``ErrorCounter`` (missing tails count);
* Monte-Carlo engine: ``_downlink_chunk`` vs the per-frame reference
  chunk over SNR pins, clutter, impairment severities and full sync,
  with and without impairments, batches of one included.

The decoder and engine references live in ``downlink_oracle.py`` beside
this file; the library keeps only the batched forms.

Hypothesis drives the input space (symbol sizes, sample rates, SNRs,
severities, batch shapes); the derandomized profile keeps runs
reproducible.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.channel.multipath import Clutter
from repro.core.ber import ErrorCounter, random_bits
from repro.core.cssk import CsskAlphabet, DecoderDesign
from repro.core.downlink import DownlinkEncoder
from repro.core.packet import DownlinkPacket
from repro.errors import ConfigurationError, SimulationError
from repro.impair.spec import ImpairmentSpec
from repro.radar.config import XBAND_9GHZ
from repro.sim.engine import DownlinkTrialConfig, _chunk_bit_errors, _downlink_chunk
from repro.tag.decoder_dsp import TagDecoder
from repro.tag.frontend import AnalyticTagFrontend, TagCapture
from repro.utils.dsp import (
    SlidingWindowSpec,
    envelope_rc_lowpass,
    envelope_rc_lowpass_fast,
    goertzel_power,
    goertzel_power_many,
    sliding_windows,
)
from repro.utils.rng import SeedSpec
from repro.waveform.chirp import (
    chirp_phase,
    instantaneous_frequency,
    sample_chirp_baseband,
    sample_chirp_real,
)
from repro.waveform.frame import ChirpSlot, FrameSchedule
from repro.waveform.parameters import ChirpParameters

from downlink_oracle import (
    reference_decode_aligned,
    reference_downlink_chunk,
    reference_score_slot,
)


def _alphabet(symbol_bits: int, bandwidth_hz: float = 1e9) -> CsskAlphabet:
    return CsskAlphabet.design(
        bandwidth_hz=bandwidth_hz,
        decoder=DecoderDesign.from_inches(45.0),
        symbol_bits=symbol_bits,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )


ALPHABETS = {bits: _alphabet(bits) for bits in (3, 5)}


def _trial_config(symbol_bits: int, **overrides) -> DownlinkTrialConfig:
    kwargs = dict(
        radar_config=XBAND_9GHZ.with_bandwidth(1e9),
        alphabet=ALPHABETS[symbol_bits],
        distance_m=7.0,
        num_frames=4,
        payload_symbols_per_frame=6,
    )
    kwargs.update(overrides)
    return DownlinkTrialConfig(**kwargs)


def _encoded_frames(config: DownlinkTrialConfig, count: int, seed: int = 0):
    """(frames, payloads) encoded exactly like the reference engine chunk."""
    encoder = DownlinkEncoder(
        radar_config=config.radar_config, alphabet=config.alphabet
    )
    spec = SeedSpec.from_rng(seed)
    bits_per_frame = (
        config.payload_symbols_per_frame * config.alphabet.symbol_bits
    )
    frames, payloads = [], []
    for index in range(count):
        payload = random_bits(bits_per_frame, rng=spec.stream(index))
        packet = DownlinkPacket.from_bits(
            config.alphabet, payload, fields=config.fields
        )
        frames.append(encoder.encode_packet(packet))
        payloads.append(payload)
    return frames, payloads


class TestChirpBatching:
    """Vector ``delay_s`` rows == scalar-delay calls, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=20e-6, max_value=120e-6),
        st.floats(min_value=250e6, max_value=1e9),
        st.lists(
            st.floats(min_value=-1e-6, max_value=1e-6), min_size=1, max_size=5
        ),
    )
    def test_phase_and_frequency(self, duration_s, bandwidth_hz, delays):
        params = ChirpParameters(
            start_frequency_hz=9e9,
            bandwidth_hz=bandwidth_hz,
            duration_s=duration_s,
        )
        t = np.arange(64) / 1e6
        delays = np.asarray(delays)
        for fn in (chirp_phase, instantaneous_frequency):
            batched = fn(params, t, delay_s=delays)
            assert batched.shape == (delays.size, t.size)
            for row, delay in enumerate(delays):
                assert np.array_equal(
                    batched[row], fn(params, t, delay_s=float(delay))
                )

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=20e-6, max_value=120e-6),
        st.sampled_from([0.5e6, 1e6, 2e6]),
        st.lists(
            st.floats(min_value=0.0, max_value=1e-6), min_size=1, max_size=4
        ),
    )
    def test_sampled_waveforms(self, duration_s, fs, delays):
        params = ChirpParameters(
            start_frequency_hz=9e9, bandwidth_hz=500e6, duration_s=duration_s
        )
        delays = np.asarray(delays)
        real = sample_chirp_real(params, fs, delay_s=delays)
        baseband = sample_chirp_baseband(params, fs, delay_s=delays)
        for row, delay in enumerate(delays):
            assert np.array_equal(
                real[row], sample_chirp_real(params, fs, delay_s=float(delay))
            )
            assert np.array_equal(
                baseband[row],
                sample_chirp_baseband(params, fs, delay_s=float(delay)),
            )


class TestGoertzelBatching:
    @settings(max_examples=25, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(8, 128)),
            elements=st.floats(-10, 10),
        ),
        st.sampled_from([0.25e6, 1e6, 4e6]),
    )
    def test_batched_rows_match_per_row(self, block, fs):
        freqs = np.array([11e3, 53e3, 97e3])
        batched = goertzel_power_many(block, freqs, fs)
        assert batched.shape == (block.shape[0], freqs.size)
        for row in range(block.shape[0]):
            assert np.array_equal(
                batched[row], goertzel_power_many(block[row], freqs, fs)
            )

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(np.float64, st.integers(16, 256), elements=st.floats(-5, 5)),
        st.lists(
            st.floats(min_value=5e3, max_value=400e3), min_size=1, max_size=4
        ),
    )
    def test_many_matches_looped_single(self, samples, freqs):
        # Different algorithms (matrix DFT vs Goertzel recurrence), so this
        # cross-check is the one tolerance-based assertion in the suite.
        fs = 1e6
        many = goertzel_power_many(samples, np.asarray(freqs), fs)
        looped = np.array([goertzel_power(samples, f, fs) for f in freqs])
        assert np.allclose(many, looped, rtol=1e-9, atol=1e-12)

    def test_three_dim_stacks(self):
        rng = np.random.default_rng(0)
        block = rng.normal(size=(2, 3, 64))
        freqs = np.array([10e3, 20e3])
        batched = goertzel_power_many(block, freqs, 1e6)
        assert batched.shape == (2, 3, 2)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(
                    batched[i, j], goertzel_power_many(block[i, j], freqs, 1e6)
                )

    def test_empty_frame_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            goertzel_power_many(np.empty((0, 8)), np.array([1e3]), 1e6)
        with pytest.raises(ConfigurationError):
            goertzel_power_many(np.empty((3, 0)), np.array([1e3]), 1e6)


class TestSlidingWindowBatching:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 64),
        st.integers(1, 32),
        st.integers(0, 200),
        st.integers(1, 4),
    )
    def test_batched_planes_match_per_row(self, window, hop, total, batch):
        spec = SlidingWindowSpec(window_samples=window, hop_samples=hop)
        block = np.arange(batch * total, dtype=float).reshape(batch, total)
        batched = sliding_windows(block, spec)
        assert batched.shape[0] == batch
        for row in range(batch):
            assert np.array_equal(batched[row], sliding_windows(block[row], spec))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 32), st.integers(0, 500))
    def test_truncation_contract(self, window, hop, total):
        # Only complete windows; trailing partials dropped, never padded.
        spec = SlidingWindowSpec(window_samples=window, hop_samples=hop)
        starts = spec.starts(total)
        expected = 0 if total < window else 1 + (total - window) // hop
        assert starts.size == expected == spec.num_windows(total)
        if starts.size:
            assert starts[-1] + window <= total
            assert starts[-1] + hop + window > total
        views = sliding_windows(np.arange(total, dtype=float), spec)
        assert views.shape == (expected, window)

    def test_higher_rank_rejected(self):
        spec = SlidingWindowSpec(window_samples=4, hop_samples=2)
        with pytest.raises(ConfigurationError):
            sliding_windows(np.zeros((2, 2, 8)), spec)


class TestEnvelopeBatching:
    @settings(max_examples=25, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 200)),
            elements=st.floats(-3, 3),
        ),
        st.sampled_from([0.5e6, 1e6]),
        st.floats(min_value=1e3, max_value=100e3),
    )
    def test_batched_rows_match_per_row(self, block, fs, cutoff):
        batched = envelope_rc_lowpass_fast(block, fs, cutoff)
        assert batched.shape == block.shape
        for row in range(block.shape[0]):
            assert np.array_equal(
                batched[row], envelope_rc_lowpass_fast(block[row], fs, cutoff)
            )

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(np.float64, st.integers(1, 300), elements=st.floats(-3, 3)),
        st.floats(min_value=1e3, max_value=100e3),
    )
    def test_fast_matches_reference(self, samples, cutoff):
        fs = 1e6
        fast = envelope_rc_lowpass_fast(samples, fs, cutoff)
        slow = envelope_rc_lowpass(samples, fs, cutoff)
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-12)

    def test_reference_stays_one_dimensional(self):
        with pytest.raises(ConfigurationError):
            envelope_rc_lowpass(np.zeros((2, 8)), 1e6, 10e3)

    def test_empty_rows_pass_through(self):
        out = envelope_rc_lowpass_fast(np.empty((3, 0)), 1e6, 10e3)
        assert out.shape == (3, 0)


class TestFrontendCaptureBatching:
    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from([3, 5]),
        st.floats(min_value=2.0, max_value=9.0),
        st.one_of(st.none(), st.floats(min_value=5.0, max_value=25.0)),
        st.integers(0, 2**16 - 1),
    )
    def test_capture_batch_matches_sequential(
        self, symbol_bits, distance_m, snr_override_db, seed
    ):
        config = _trial_config(symbol_bits)
        frames, _ = _encoded_frames(config, count=3, seed=seed)
        frontend = AnalyticTagFrontend(
            budget=config.resolved_budget(),
            delta_t_s=config.alphabet.decoder.delta_t_s,
        )
        spec = SeedSpec.from_rng(seed)
        batched = frontend.capture_batch(
            frames,
            distance_m,
            rngs=[spec.stream(i) for i in range(len(frames))],
            snr_override_db=snr_override_db,
        )
        for index, frame in enumerate(frames):
            reference = frontend.capture(
                frame,
                distance_m,
                rng=spec.stream(index),
                snr_override_db=snr_override_db,
            )
            assert np.array_equal(batched[index].samples, reference.samples)
            assert batched[index].sample_rate_hz == reference.sample_rate_hz

    def test_absorptive_and_wrap_paths(self):
        config = _trial_config(3)
        frames, _ = _encoded_frames(config, count=2, seed=7)
        frontend = AnalyticTagFrontend(
            budget=config.resolved_budget(),
            delta_t_s=config.alphabet.decoder.delta_t_s,
        )
        num_slots = len(frames[0].slots)
        absorb = np.ones(num_slots, dtype=bool)
        absorb[::3] = False
        wraps = np.zeros(num_slots)
        wraps[1] = 0.4
        spec = SeedSpec.from_rng(11)
        batched = frontend.capture_batch(
            frames,
            4.0,
            rngs=[spec.stream(i) for i in range(len(frames))],
            absorptive_slots=absorb,
            wrap_fractions=wraps,
            off_boresight_deg=15.0,
        )
        for index, frame in enumerate(frames):
            reference = frontend.capture(
                frame,
                4.0,
                rng=spec.stream(index),
                absorptive_slots=absorb,
                wrap_fractions=wraps,
                off_boresight_deg=15.0,
            )
            assert np.array_equal(batched[index].samples, reference.samples)

    def test_touching_slots_on_a_fractional_sample_grid(self):
        # Hand-built frames on a grid of ~10.5-sample slots: chirps filling
        # their slot (or the 1e-15 s more ChirpSlot allows) touch or, after
        # rounding, overlap the next slot by one sample; durations differ
        # per frame.  Each slot write must overwrite exactly the samples
        # the per-frame capture writes, in slot order, never add to them.
        config = _trial_config(3)
        frontend = AnalyticTagFrontend(
            budget=config.resolved_budget(),
            delta_t_s=config.alphabet.decoder.delta_t_s,
        )
        fs = frontend.budget.adc.sample_rate_hz
        period = (10.5 - 5e-10) / fs
        over = period + 1e-15
        durations = [
            [over, over, 0.5 * period, period, over, period],
            [over, 0.6 * period, period, over, period, 0.3 * period],
            [0.4 * period, over, period, 0.8 * period, over, over],
        ]
        frames = [
            FrameSchedule(
                slots=tuple(
                    ChirpSlot(
                        chirp=ChirpParameters(
                            start_frequency_hz=9e9,
                            bandwidth_hz=1e9 * duration / period,
                            duration_s=duration,
                        ),
                        start_time_s=k * period,
                        period_s=period,
                    )
                    for k, duration in enumerate(row)
                )
            )
            for row in durations
        ]
        # Slot 0 of frame 0 runs one sample into slot 1.
        assert round(over * fs) > round(period * fs)
        spec = SeedSpec.from_rng(13)
        batched = frontend.capture_batch(
            frames, 2.0, rngs=[spec.stream(i) for i in range(len(frames))]
        )
        for index, frame in enumerate(frames):
            reference = frontend.capture(frame, 2.0, rng=spec.stream(index))
            assert np.array_equal(batched[index].samples, reference.samples)

    def test_mixed_quantization_mask(self):
        # Each frame is quantized only when its own peak clears 10 LSB.
        # Put that threshold between the frames' peaks, so part of the
        # batch is quantized and part is not, and hold every row to the
        # per-frame capture.
        config = _trial_config(3)
        frames, _ = _encoded_frames(config, count=6, seed=5)
        budget = config.resolved_budget()
        spec = SeedSpec.from_rng(5)

        def batch_with(adc):
            frontend = AnalyticTagFrontend(
                budget=dataclasses.replace(budget, adc=adc),
                delta_t_s=config.alphabet.decoder.delta_t_s,
            )
            captures = frontend.capture_batch(
                frames,
                config.distance_m,
                rngs=[spec.stream(i) for i in range(len(frames))],
                snr_override_db=3.0,
            )
            return frontend, captures

        # A full scale far above the signal quantizes nothing.
        _, raw = batch_with(budget.adc.with_full_scale(1e9))
        peaks = np.sort([np.max(np.abs(c.samples)) for c in raw])
        threshold = 0.5 * (peaks[2] + peaks[3])
        adc = budget.adc.with_full_scale(threshold / 10.0 * 2**budget.adc.bits / 2.0)
        hot = peaks > 10.0 * adc.lsb_v
        assert hot.any() and not hot.all()
        frontend, batched = batch_with(adc)
        for index, frame in enumerate(frames):
            reference = frontend.capture(
                frame,
                config.distance_m,
                rng=spec.stream(index),
                snr_override_db=3.0,
            )
            assert np.array_equal(batched[index].samples, reference.samples)

    def test_empty_and_ragged_batches_rejected(self):
        config = _trial_config(3)
        frontend = AnalyticTagFrontend(
            budget=config.resolved_budget(),
            delta_t_s=config.alphabet.decoder.delta_t_s,
        )
        with pytest.raises(SimulationError):
            frontend.capture_batch([], 3.0, rngs=[])
        frames, _ = _encoded_frames(config, count=2)
        short = _trial_config(3, payload_symbols_per_frame=3)
        ragged, _ = _encoded_frames(short, count=1)
        with pytest.raises(SimulationError):
            frontend.capture_batch(
                [frames[0], ragged[0]], 3.0, rngs=[0, 1]
            )
        with pytest.raises(SimulationError):
            frontend.capture_batch(frames, 3.0, rngs=[0])

    # Hand-built slot grids: one row of chirp durations per frame, on a
    # shared grid of ``period_samples``-sample slots at the 1 MHz ADC rate.

    @pytest.mark.parametrize(
        "period_samples, durations, kwargs",
        [
            (24.0, [[1.0, 0.5, 0.9, 0.3], [0.2, 1.0, 0.6, 1.0], [0.7, 0.7, 1.0, 0.45]], {}),
            (
                20.0,
                [[1.0, 0.5, 0.8, 0.6, 0.9], [0.4, 1.0, 0.3, 1.0, 0.7]],
                {"absorptive_slots": np.array([True, False, True, False, False])},
            ),
            (24.0, [[1.0, 0.6, 0.3], [0.5, 1.0, 0.8]], {"include_dc": False}),
            (30.0, [[1.0, 0.4, 0.75, 0.2]], {}),
        ],
        ids=["ragged_rows", "non_absorptive", "no_dc_pedestal", "batch_of_one"],
    )
    def test_hand_built_grids(self, period_samples, durations, kwargs):
        _assert_batch_matches_capture(_grid_frames(period_samples, durations), seed=21, **kwargs)

    def test_empty_slot_next_to_full_rows(self):
        # 0.01 of a 16-sample slot rounds to no samples: row 1's slot 1 is
        # empty (stop <= start), so it draws no phase, beside full rows.
        durations = [[1.0, 1.0, 1.0], [1.0, 0.01, 1.0], [0.8, 1.0, 0.6]]
        frames = _grid_frames(16.0, durations)
        fs = 1e6
        slot = frames[1].slots[1]
        assert round((slot.start_time_s + slot.chirp.duration_s) * fs) <= round(
            slot.start_time_s * fs
        )
        _assert_batch_matches_capture(frames, seed=23)

    def test_last_slot_cut_short_by_the_capture_length(self):
        # A 10.5-sample period just under the rounding midpoint: a last
        # chirp 1e-15 s longer than its period (the slack ChirpSlot allows)
        # rounds one sample past the frame, so its stop is clamped.
        period = 10.5 - 1e-10
        frames = _grid_frames(period, [[1.0, 0.5, 1.0], [0.6, 1.0, 1.0]], slack_s=1e-15)
        fs = 1e6
        last = frames[0].slots[-1]
        total = round(frames[0].duration_s * fs)
        assert round((last.start_time_s + last.chirp.duration_s) * fs) > total
        _assert_batch_matches_capture(frames, seed=24)

    def test_wrap_fractions_at_edges_nan_and_inside(self):
        # Slot 1 wraps at 0.5 of a full 40-sample chirp: t == wrap_time
        # exactly at sample 20, where the tone restarts (t < wrap_time is
        # False there).
        frames = _grid_frames(40.0, [[1.0, 1.0, 0.9, 0.7, 1.0], [0.5, 1.0, 1.0, 0.8, 0.6]])
        assert 0.5 * frames[0].slots[1].chirp.duration_s == 20 / 1e6
        wraps = np.array([0.0, 0.5, 1.0, np.nan, 0.3])
        _assert_batch_matches_capture(frames, seed=25, wrap_fractions=wraps)

    @pytest.mark.parametrize("num_slots", [2, 5])
    def test_overlapping_windows_keep_slot_order(self, num_slots):
        # Slot windows overlap: a chirp 1e-15 s over its 10.5-sample period
        # rounds onto the next slot's first sample.  Where the next slot
        # is active it overwrites that sample; where it is empty (row 1) or
        # not absorptive (slot 3) the earlier chirp's last sample stays.
        # Two slots start one 10-sample gap apart: a regular grid whose
        # gap is shorter than the longest on-time.
        period = 10.5 - 5e-10
        durations = [
            [1.0, 1.0, 1.0, 1.0, 0.5], [1.0, 0.01, 1.0, 1.0, 0.5], [0.5, 1.0, 1.0, 0.5, 1.0]
        ]
        frames = _grid_frames(
            period, [row[:num_slots] for row in durations], slack_s=1e-15
        )
        fs = 1e6
        first, second = frames[0].slots[:2]
        assert round((first.start_time_s + first.chirp.duration_s) * fs) > round(
            second.start_time_s * fs
        )
        absorb = np.array([True, True, True, False, True])[:num_slots]
        _assert_batch_matches_capture(frames, seed=28, absorptive_slots=absorb)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(4, 64).map(float) | st.floats(min_value=4.0, max_value=64.0),
        st.data(),
    )
    def test_uniform_slot_grids(self, num_slots, batch, period_samples, data):
        fractions = st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0)
        durations = data.draw(
            st.lists(
                st.lists(fractions, min_size=num_slots, max_size=num_slots),
                min_size=batch,
                max_size=batch,
            )
        )
        wraps = data.draw(
            st.none()
            | st.lists(
                st.sampled_from([0.0, 0.5, 1.0, float("nan")])
                | st.floats(min_value=0.0, max_value=1.0),
                min_size=num_slots,
                max_size=num_slots,
            )
        )
        absorb = data.draw(
            st.none() | st.lists(st.booleans(), min_size=num_slots, max_size=num_slots)
        )
        _assert_batch_matches_capture(
            _grid_frames(period_samples, durations),
            seed=data.draw(st.integers(0, 2**16 - 1)),
            distance_m=data.draw(st.floats(min_value=1.0, max_value=9.0)),
            absorptive_slots=None if absorb is None else np.array(absorb),
            wrap_fractions=None if wraps is None else np.array(wraps),
            include_dc=data.draw(st.booleans()),
        )


def _grid_frames(period_samples, durations, *, slack_s=0.0):
    """Frames on one grid of ``period_samples``-sample slots at 1 MHz.

    ``durations[b][s]`` is frame ``b``'s slot-``s`` chirp length as a
    fraction of the period (a zero becomes a chirp too short for one
    sample); a full-period chirp gets ``slack_s`` more.  Every chirp
    sweeps 1 GHz, so its beat depends on its duration.
    """
    period = period_samples / 1e6
    return [
        FrameSchedule(
            slots=tuple(
                ChirpSlot(
                    chirp=ChirpParameters(
                        start_frequency_hz=9e9,
                        bandwidth_hz=1e9,
                        duration_s=(
                            period + slack_s if fraction == 1.0 else max(fraction, 1e-3) * period
                        ),
                    ),
                    start_time_s=k * period,
                    period_s=period,
                )
                for k, fraction in enumerate(row)
            )
        )
        for row in durations
    ]


def _assert_batch_matches_capture(
    frames, *, seed, distance_m=3.0, include_dc=True, **capture_kwargs
):
    """``capture_batch`` equals per-frame ``capture``, bit for bit."""
    config = _trial_config(3)
    frontend = AnalyticTagFrontend(
        budget=config.resolved_budget(),
        delta_t_s=config.alphabet.decoder.delta_t_s,
        include_dc=include_dc,
    )
    spec = SeedSpec.from_rng(seed)
    batched = frontend.capture_batch(
        frames, distance_m, rngs=[spec.stream(i) for i in range(len(frames))], **capture_kwargs
    )
    assert len(batched) == len(frames)
    for index, frame in enumerate(frames):
        reference = frontend.capture(frame, distance_m, rng=spec.stream(index), **capture_kwargs)
        assert batched[index].samples.tobytes() == reference.samples.tobytes()


def _assert_packets_equal(got, want):
    assert np.array_equal(got.bits, want.bits)
    assert got.bits.dtype == want.bits.dtype
    assert got.symbols == want.symbols
    assert np.array_equal(got.measured_beats_hz, want.measured_beats_hz)
    assert got.measured_beats_hz.dtype == want.measured_beats_hz.dtype
    assert got.period == want.period
    assert got.payload_start_slot == want.payload_start_slot
    assert got.num_sync_slots_seen == want.num_sync_slots_seen


def _near_tie_windows(decoder, fs, *, pairs, seed):
    """``2 * pairs`` windows, each pair straddling an exact-argmax flip.

    Bisects the segment between two random windows (random scale) whose
    exact data argmax differs until its two end parameters are adjacent
    floats; the end windows then score within rounding of a tie between
    two hypotheses.
    """
    projectors = decoder._scoring_cache(fs)["data_projectors"]
    n_slot = projectors.shape[2]

    def exact_pick(window):
        return int(np.argmax(decoder._score_windows(window[None], projectors)[0]))

    rng = np.random.default_rng(seed)
    found = []
    while len(found) < 2 * pairs:
        a, b = 10.0 ** rng.uniform(-3.0, 3.0) * rng.normal(size=(2, n_slot))
        pick_a = exact_pick(a)
        if pick_a == exact_pick(b):
            continue
        lo, hi = 0.0, 1.0
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if exact_pick(a + mid * (b - a)) == pick_a:
                lo = mid
            else:
                hi = mid
        found += [a + lo * (b - a), a + hi * (b - a)]
    return np.stack(found)


class TestDecoderBatching:
    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([3, 5]),
        st.integers(1, 6),
        st.integers(0, 2**16 - 1),
        st.sampled_from([0.5e6, 1e6]),
    )
    def test_slot_scoring_matches_per_slot(self, symbol_bits, batch, seed, fs):
        alphabet = ALPHABETS[symbol_bits]
        decoder = TagDecoder(alphabet)
        n_slot = int(round(alphabet.chirp_period_s * fs))
        rng = np.random.default_rng(seed)
        # Short slots are zero-padded and long ones truncated to n_slot.
        for width in (0, 2 * n_slot // 5, n_slot, 17 * n_slot // 10):
            block = rng.normal(size=(batch, width))
            scores = decoder.score_slots(block, fs)
            for row in range(batch):
                reference = reference_score_slot(decoder, block[row], fs)
                assert decoder.score_slot(block[row], fs) == reference
                assert np.array_equal(
                    scores[row], np.array([entry[3] for entry in reference])
                )

    @settings(max_examples=8, deadline=None)
    @given(
        st.sampled_from([3, 5]),
        st.one_of(st.none(), st.floats(min_value=6.0, max_value=20.0)),
        st.integers(0, 2**16 - 1),
    )
    def test_decode_aligned_batch_matches_oracle(
        self, symbol_bits, snr_override_db, seed
    ):
        config = _trial_config(symbol_bits)
        frames, _ = _encoded_frames(config, count=3, seed=seed)
        frontend = AnalyticTagFrontend(
            budget=config.resolved_budget(),
            delta_t_s=config.alphabet.decoder.delta_t_s,
        )
        decoder = TagDecoder(config.alphabet, fields=config.fields)
        spec = SeedSpec.from_rng(seed)
        captures = frontend.capture_batch(
            frames,
            config.distance_m,
            rngs=[spec.stream(i) for i in range(len(frames))],
            snr_override_db=snr_override_db,
        )
        decoded = decoder.decode_aligned_batch(
            captures, num_payload_symbols=config.payload_symbols_per_frame
        )
        for capture, batched in zip(captures, decoded):
            reference = reference_decode_aligned(
                decoder, capture, num_payload_symbols=config.payload_symbols_per_frame
            )
            _assert_packets_equal(batched, reference)
            single = decoder.decode_aligned(
                capture, num_payload_symbols=config.payload_symbols_per_frame
            )
            _assert_packets_equal(single, reference)

    @pytest.mark.parametrize("num_payload_symbols", [1, 8, 16, 40])
    @pytest.mark.parametrize("skip_slots", [None, 0, 3])
    @pytest.mark.parametrize("keep_fraction", [1.0, 0.55])
    def test_decode_aligned_matches_per_slot_loop(
        self, num_payload_symbols, skip_slots, keep_fraction
    ):
        # Past-the-end slots and truncated captures stop the decode early.
        config = _trial_config(5, payload_symbols_per_frame=16)
        frames, _ = _encoded_frames(config, count=1, seed=num_payload_symbols)
        frontend = AnalyticTagFrontend(
            budget=config.resolved_budget(),
            delta_t_s=config.alphabet.decoder.delta_t_s,
        )
        capture = frontend.capture(frames[0], config.distance_m, rng=7)
        keep = int(keep_fraction * capture.samples.size)
        capture = TagCapture(
            samples=capture.samples[:keep], sample_rate_hz=capture.sample_rate_hz
        )
        decoder = TagDecoder(config.alphabet, fields=config.fields)
        kwargs = dict(num_payload_symbols=num_payload_symbols, skip_slots=skip_slots)
        _assert_packets_equal(
            decoder.decode_aligned(capture, **kwargs),
            reference_decode_aligned(decoder, capture, **kwargs),
        )

    @pytest.mark.parametrize("symbol_bits", [3, 5])
    def test_certified_argmax_matches_exact_kernel_at_near_ties(self, symbol_bits):
        # Pairs of windows bisected to the float boundary where the exact
        # argmax flips, plus all-zero and non-finite windows: the batched
        # decode must pick the exact kernel's argmax on every row even
        # where a plain GEMM's scores pick another hypothesis.
        fs = 1e6
        decoder = TagDecoder(ALPHABETS[symbol_bits])
        cache = decoder._scoring_cache(fs)
        n_slot = cache["n_slot"]
        near_ties = _near_tie_windows(decoder, fs, pairs=24, seed=symbol_bits)
        special = np.zeros((4, n_slot))
        special[3, n_slot // 2] = np.nan
        windows = np.concatenate([near_ties, special])
        batch = 4
        num_slots = windows.shape[0] // batch
        assert num_slots * batch == windows.shape[0]
        period_s = decoder.alphabet.chirp_period_s
        starts = [int(round(k * period_s * fs)) for k in range(num_slots)]
        assert starts == [k * n_slot for k in range(num_slots)]
        # Window row k * batch + b is payload slot k of capture b, the
        # order decode_aligned_batch stacks its window matrix in.
        captures = [
            TagCapture(
                samples=windows[b::batch].reshape(-1).copy(), sample_rate_hz=fs
            )
            for b in range(batch)
        ]
        decoded = decoder.decode_aligned_batch(
            captures, num_payload_symbols=num_slots, skip_slots=0
        )
        projectors = cache["data_projectors"]
        with np.errstate(invalid="ignore"):
            exact = np.argmax(decoder._score_windows(windows, projectors), axis=1)
            gemm = (windows @ projectors.reshape(-1, n_slot).T).reshape(
                len(windows), -1, 3
            )
            raw = np.argmax(np.sum(gemm**2, axis=2), axis=1)
        exact = exact.reshape(num_slots, batch)
        raw = raw.reshape(num_slots, batch)
        data_symbols = [
            symbol for kind, symbol, _, _ in cache["table"] if kind == "data"
        ]
        data_beats = [beat for kind, _, beat, _ in cache["table"] if kind == "data"]
        for b, packet in enumerate(decoded):
            assert packet.symbols == [data_symbols[i] for i in exact[:, b]]
            assert packet.measured_beats_hz.tolist() == [
                data_beats[i] for i in exact[:, b]
            ]
        # The near ties have teeth: a plain GEMM decides some differently.
        assert np.count_nonzero(raw != exact) >= 1

    def test_negative_skip_slots_rejected(self):
        decoder = TagDecoder(ALPHABETS[5])
        capture = TagCapture(samples=np.zeros(4096), sample_rate_hz=1e6)
        with pytest.raises(ValueError, match="skip_slots"):
            decoder.decode_aligned(capture, num_payload_symbols=16, skip_slots=-3)
        with pytest.raises(ValueError, match="skip_slots"):
            decoder.decode_aligned_batch(
                [capture], num_payload_symbols=16, skip_slots=-3
            )

    def test_ragged_capture_batches_rejected(self):
        config = _trial_config(3)
        decoder = TagDecoder(config.alphabet, fields=config.fields)
        with pytest.raises(ValueError):
            decoder.decode_aligned_batch([], num_payload_symbols=4)
        a = TagCapture(samples=np.zeros(4096), sample_rate_hz=1e6)
        b = TagCapture(samples=np.zeros(2048), sample_rate_hz=1e6)
        with pytest.raises(ValueError):
            decoder.decode_aligned_batch([a, b], num_payload_symbols=4)
        c = TagCapture(samples=np.zeros(4096), sample_rate_hz=0.5e6)
        with pytest.raises(ValueError):
            decoder.decode_aligned_batch([a, c], num_payload_symbols=4)


def _truncated_block(config, *, count, seed, snr_override_db, cut, start_slot):
    """``(captures, block, payload_block, fs)`` of ``count`` frames, cut short.

    ``cut`` keeps the whole frame (``"full"``), stops it on the slot
    boundary nine slots past ``start_slot`` (``"mid_payload"``: fewer
    decoded blocks than payload symbols), or a third of a slot after that
    boundary (``"short_last_slot"``: one zero-padded last window).
    """
    frames, payloads = _encoded_frames(config, count, seed=seed)
    frontend = AnalyticTagFrontend(
        budget=config.resolved_budget(),
        delta_t_s=config.alphabet.decoder.delta_t_s,
    )
    spec = SeedSpec.from_rng(seed + 1)
    captures = frontend.capture_batch(
        frames,
        config.distance_m,
        rngs=[spec.stream(i) for i in range(count)],
        snr_override_db=snr_override_db,
    )
    fs = captures[0].sample_rate_hz
    n_slot = int(round(config.alphabet.chirp_period_s * fs))
    keep = {
        "full": captures[0].samples.size,
        "mid_payload": (start_slot + 9) * n_slot,
        "short_last_slot": (start_slot + 9) * n_slot + n_slot // 3,
    }[cut]
    captures = [
        TagCapture(samples=capture.samples[:keep], sample_rate_hz=fs)
        for capture in captures
    ]
    block = np.stack([capture.samples for capture in captures])
    return captures, block, np.stack(payloads), fs


class TestBlockDecodeAndChunkCounting:
    """The engine's block decode and per-chunk bit-error count."""

    PAYLOAD = 16

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("start", ["zero", "preamble", "past_preamble"])
    @pytest.mark.parametrize("cut", ["full", "mid_payload", "short_last_slot"])
    def test_block_kernel_matches_per_slot_oracle(self, batch, start, cut):
        config = _trial_config(5, payload_symbols_per_frame=self.PAYLOAD)
        preamble = config.fields.preamble_length
        start_slot = {"zero": 0, "preamble": preamble, "past_preamble": preamble + 3}[start]
        captures, block, _, fs = _truncated_block(
            config, count=batch, seed=11, snr_override_db=4.0, cut=cut,
            start_slot=start_slot,
        )
        decoder = TagDecoder(config.alphabet, fields=config.fields)
        symbols, beats = decoder.decode_aligned_block(
            block, fs, num_payload_symbols=self.PAYLOAD, start_slot=start_slot
        )
        expected_blocks = {"full": None, "mid_payload": 9, "short_last_slot": 10}[cut]
        if expected_blocks is not None:
            assert symbols.shape == (expected_blocks, batch)
        for b, capture in enumerate(captures):
            reference = reference_decode_aligned(
                decoder, capture, num_payload_symbols=self.PAYLOAD,
                skip_slots=start_slot,
            )
            assert symbols[:, b].tolist() == reference.symbols
            assert np.array_equal(beats[:, b], reference.measured_beats_hz)

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("cut", ["full", "mid_payload", "short_last_slot"])
    def test_chunk_count_matches_per_trial_error_counters(self, batch, cut):
        # Low SNR so decisions go wrong; cut captures leave a missing
        # tail that must count as errors.
        config = _trial_config(5, payload_symbols_per_frame=self.PAYLOAD)
        start_slot = config.fields.preamble_length
        captures, block, payload_block, fs = _truncated_block(
            config, count=batch, seed=5, snr_override_db=-2.0, cut=cut,
            start_slot=start_slot,
        )
        decoder = TagDecoder(config.alphabet, fields=config.fields)
        symbols, _ = decoder.decode_aligned_block(
            block, fs, num_payload_symbols=self.PAYLOAD, start_slot=start_slot
        )
        bits_table = decoder._scoring_cache(fs)["bits_table"]
        got = _chunk_bit_errors(payload_block, bits_table[symbols.T])
        want = []
        for payload, capture in zip(payload_block, captures):
            reference = reference_decode_aligned(
                decoder, capture, num_payload_symbols=self.PAYLOAD
            )
            counter = ErrorCounter()
            counter.update(payload, reference.bits)
            want.append((counter.bit_errors, counter.bits_total, 0))
        assert got == want
        assert all(type(value) is int for result in got for value in result)
        assert sum(result[0] for result in got) > 0

    @pytest.mark.parametrize(
        "fs, tail", [(1e6, 3), (1e6, 4), (1.0042e6, None), (0.9983e6, None), (0.9983e6, 5)]
    )
    def test_block_kernel_padding_and_stop_rules(self, fs, tail):
        # Fractional periods (120.504 and 119.796 samples) give slots one
        # sample shorter than the n_slot window, zero-padded past their
        # width; a spike on the sample after each such slot changes its
        # decision unless it is.  Rows cut ``tail`` samples into payload
        # slot 9 end in a slot under 4 samples (the grids stop) or one
        # read zero-padded.
        config = _trial_config(5, payload_symbols_per_frame=self.PAYLOAD)
        start_slot = config.fields.preamble_length
        period = config.alphabet.chirp_period_s
        size = int(round((start_slot + self.PAYLOAD) * period * fs))
        if tail is not None:
            size = int(round((start_slot + 9) * period * fs)) + tail
        block = np.random.default_rng(3).normal(size=(3, size))
        slots = np.arange(start_slot, start_slot + self.PAYLOAD + 1)
        begins = np.round(slots * period * fs).astype(int)
        after_short = begins[1:][np.diff(begins) < round(period * fs)]
        block[:, after_short[after_short < size]] = 1e3
        decoder = TagDecoder(config.alphabet, fields=config.fields)
        symbols, beats = decoder.decode_aligned_block(
            block, fs, num_payload_symbols=self.PAYLOAD, start_slot=start_slot
        )
        if tail is not None:
            assert symbols.shape == (9 if tail < 4 else 10, 3)
        for b, row in enumerate(block):
            reference = reference_decode_aligned(
                decoder,
                TagCapture(samples=row, sample_rate_hz=fs),
                num_payload_symbols=self.PAYLOAD,
                skip_slots=start_slot,
            )
            assert symbols[:, b].tolist() == reference.symbols
            assert np.array_equal(beats[:, b], reference.measured_beats_hz)

    def test_block_kernel_rejects_bad_blocks(self):
        decoder = TagDecoder(ALPHABETS[5])
        with pytest.raises(ValueError, match="block"):
            decoder.decode_aligned_block(
                np.zeros(4096), 1e6, num_payload_symbols=4, start_slot=0
            )
        with pytest.raises(ValueError, match="block"):
            decoder.decode_aligned_block(
                np.zeros((0, 4096)), 1e6, num_payload_symbols=4, start_slot=0
            )
        with pytest.raises(ValueError, match="start_slot"):
            decoder.decode_aligned_block(
                np.zeros((2, 4096)), 1e6, num_payload_symbols=4, start_slot=-1
            )
        with pytest.raises(ValueError, match="num_payload_symbols"):
            decoder.decode_aligned_block(
                np.zeros((2, 4096)), 1e6, num_payload_symbols=0, start_slot=0
            )


ENGINE_VARIANTS = {
    "plain": {},
    "near": {"distance_m": 3.0},
    "snr_pinned": {"snr_override_db": 10.0},
    "clutter": {"snr_override_db": 14.0, "clutter": Clutter.office(rng=0)},
    "full_sync": {"full_sync": True},
    "full_sync_snr_pinned": {"full_sync": True, "snr_override_db": 10.0},
    "full_sync_low_snr": {"full_sync": True, "snr_override_db": -22.0},
    "full_sync_impaired": {
        "full_sync": True,
        "impairments": ImpairmentSpec.parse("interference:0.5,impulse:0.5"),
    },
    "full_sync_impaired_low_snr": {
        "full_sync": True,
        "snr_override_db": -22.0,
        "impairments": ImpairmentSpec.parse("interference:0.5,impulse:0.5"),
    },
    "impaired_mild": {
        "impairments": ImpairmentSpec.parse("interference:0.25,impulse:0.25")
    },
    "impaired_harsh": {
        "impairments": ImpairmentSpec.parse(
            "interference:0.75,drift:0.5,clip:0.5,impulse:0.75"
        )
    },
}


class TestEngineChunkEquivalence:
    @pytest.mark.parametrize("variant", sorted(ENGINE_VARIANTS))
    def test_batched_chunk_matches_reference(self, variant):
        config = _trial_config(5, num_frames=6, **ENGINE_VARIANTS[variant])
        spec = SeedSpec.from_rng(0)
        indices = list(range(6))
        assert _downlink_chunk(config, spec, indices) == reference_downlink_chunk(
            config, spec, indices
        )

    @pytest.mark.parametrize("impaired", [False, True])
    @pytest.mark.parametrize("indices", [[5], list(range(6))])
    def test_low_snr_chunk_counts_match_reference(self, impaired, indices):
        # Both genie routes (block synthesis, and stacked per-frame
        # impaired captures), a batch of one included, at an SNR where
        # bits go wrong, so the chunk-level count is exercised.
        overrides = {"snr_override_db": -2.0}
        if impaired:
            overrides["impairments"] = ImpairmentSpec.parse("interference:0.5,impulse:0.5")
        config = _trial_config(5, num_frames=8, **overrides)
        spec = SeedSpec.from_rng(2)
        results = _downlink_chunk(config, spec, indices)
        assert results == reference_downlink_chunk(config, spec, indices)
        assert all(type(value) is int for result in results for value in result)
        assert sum(result[0] for result in results) > 0

    def test_mid_run_chunk_matches_reference(self):
        # A chunk that does not start at trial 0 (mid-run dispatch shape).
        config = _trial_config(5, num_frames=32)
        spec = SeedSpec.from_rng(3)
        indices = list(range(13, 21))
        assert _downlink_chunk(config, spec, indices) == reference_downlink_chunk(
            config, spec, indices
        )

    @staticmethod
    def _assert_sync_failures_match(variant):
        config = _trial_config(5, num_frames=8, **ENGINE_VARIANTS[variant])
        spec = SeedSpec.from_rng(0)
        indices = list(range(8))
        results = _downlink_chunk(config, spec, indices)
        assert results == reference_downlink_chunk(config, spec, indices)
        assert sum(r[2] for r in results) > 0

    def test_full_sync_low_snr_exercises_sync_failures(self):
        # The differential check on the OTA-sync route is only meaningful
        # if the SyncError accounting actually fires; pin that the low-SNR
        # variant trips it, so both paths count identical sync losses.
        self._assert_sync_failures_match("full_sync_low_snr")

    def test_full_sync_impaired_low_snr_exercises_sync_failures(self):
        # Full sync with impairments: per-frame synthesis feeding per-capture
        # OTA decode, checked on its sync-loss branch too.
        self._assert_sync_failures_match("full_sync_impaired_low_snr")

    def test_full_sync_mid_run_chunk_matches_reference(self):
        config = _trial_config(3, num_frames=24, full_sync=True)
        spec = SeedSpec.from_rng(7)
        indices = list(range(9, 17))
        assert _downlink_chunk(config, spec, indices) == reference_downlink_chunk(
            config, spec, indices
        )

    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from([3, 5]),
        st.floats(min_value=6.0, max_value=16.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_equivalence_across_snr_and_severity(
        self, symbol_bits, snr_db, severity
    ):
        impair = ImpairmentSpec.parse(
            f"interference:{severity:.3f},impulse:{severity:.3f}"
        )
        config = _trial_config(
            symbol_bits,
            num_frames=3,
            snr_override_db=snr_db,
            impairments=impair,
        )
        spec = SeedSpec.from_rng(1)
        indices = list(range(3))
        assert _downlink_chunk(config, spec, indices) == reference_downlink_chunk(
            config, spec, indices
        )
