"""Tag frontends and decoder DSP: period estimation, sync, demodulation."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.channel.link_budget import DownlinkBudget
from repro.core.downlink import DownlinkEncoder
from repro.core.packet import DownlinkPacket, PacketFields
from repro.errors import SimulationError, SyncError
from repro.radar.config import XBAND_9GHZ
from repro.sim.engine import _downlink_layout
from repro.tag.decoder_dsp import TagDecoder, _hypothesis_bank
from repro.tag.frontend import AnalyticTagFrontend, TagCapture
from repro.core.ber import bit_error_rate


@pytest.fixture(scope="module")
def link(alphabet):
    budget = DownlinkBudget(
        tx_power_dbm=XBAND_9GHZ.tx_power_dbm,
        radar_antenna=XBAND_9GHZ.antenna,
        frequency_hz=XBAND_9GHZ.center_frequency_hz,
    )
    encoder = DownlinkEncoder(radar_config=XBAND_9GHZ, alphabet=alphabet)
    frontend = AnalyticTagFrontend(budget=budget, delta_t_s=alphabet.decoder.delta_t_s)
    decoder = TagDecoder(alphabet)
    return encoder, frontend, decoder


def make_capture(link, alphabet, symbols, distance=2.0, rng=0, snr=None, fields=None):
    encoder, frontend, _ = link
    bits = np.concatenate([alphabet.bits_for_symbol(s) for s in symbols])
    packet = DownlinkPacket.from_bits(alphabet, bits, fields=fields)
    frame = encoder.encode_packet(packet)
    capture = frontend.capture(frame, distance, rng=rng, snr_override_db=snr)
    return bits, capture


class TestFrontendCapture:
    def test_capture_length(self, link, alphabet):
        _, capture = make_capture(link, alphabet, [0, 1])
        expected = capture.frame.duration_s * capture.sample_rate_hz
        assert capture.samples.size == pytest.approx(expected, abs=2)

    def test_slot_samples_slicing(self, link, alphabet):
        _, capture = make_capture(link, alphabet, [0])
        slot = capture.slot_samples(0)
        assert slot.size == pytest.approx(120, abs=1)

    def test_amplitude_scales_with_distance(self, link, alphabet):
        encoder, frontend, _ = link
        bits = alphabet.bits_for_symbol(0)
        frame = encoder.encode_packet(DownlinkPacket.from_bits(alphabet, bits))
        near = frontend.capture(frame, 1.0, rng=0)
        far = frontend.capture(frame, 4.0, rng=0)
        # square-law: amplitude ~ 1/d^2 -> 16x between 1 m and 4 m.
        ratio = np.std(near.samples) / np.std(far.samples)
        assert ratio == pytest.approx(16.0, rel=0.3)

    def test_absorptive_slots_gate_signal(self, link, alphabet):
        encoder, frontend, _ = link
        bits = np.concatenate([alphabet.bits_for_symbol(0)] * 2)
        frame = encoder.encode_packet(DownlinkPacket.from_bits(alphabet, bits))
        mask = np.ones(len(frame), dtype=bool)
        mask[0] = False  # tag reflecting during slot 0
        capture = frontend.capture(frame, 1.0, rng=0, absorptive_slots=mask, snr_override_db=60.0)
        assert np.std(capture.slot_samples(0)) < 0.05 * np.std(capture.slot_samples(1))

    def test_absorptive_mask_length_checked(self, link, alphabet):
        encoder, frontend, _ = link
        bits = alphabet.bits_for_symbol(0)
        frame = encoder.encode_packet(DownlinkPacket.from_bits(alphabet, bits))
        with pytest.raises(SimulationError):
            frontend.capture(frame, 1.0, absorptive_slots=np.ones(3, dtype=bool))

    def test_snr_override_controls_noise(self, link, alphabet):
        encoder, frontend, _ = link
        bits = alphabet.bits_for_symbol(0)
        frame = encoder.encode_packet(DownlinkPacket.from_bits(alphabet, bits))
        clean = frontend.capture(frame, 5.0, rng=1, snr_override_db=60.0)
        noisy = frontend.capture(frame, 5.0, rng=1, snr_override_db=-10.0)
        assert np.std(noisy.samples) > 2 * np.std(clean.samples)

    def test_slot_samples_requires_frame(self):
        capture = TagCapture(samples=np.zeros(10), sample_rate_hz=1e6)
        with pytest.raises(SimulationError):
            capture.slot_samples(0)


class TestScoring:
    def test_correct_symbol_wins_clean(self, link, alphabet):
        _, frontend, decoder = link
        for symbol in (0, 15, 31):
            bits, capture = make_capture(link, alphabet, [symbol], snr=50.0)
            slot = capture.slot_samples(PacketFields().preamble_length)
            got, _ = decoder.demodulate_data_slot(slot, capture.sample_rate_hz)
            assert got == symbol

    def test_score_slot_lists_all_hypotheses(self, link, alphabet):
        _, _, decoder = link
        _, capture = make_capture(link, alphabet, [3], snr=40.0)
        scores = decoder.score_slot(capture.slot_samples(11), capture.sample_rate_hz)
        kinds = [kind for kind, *_ in scores]
        assert kinds.count("header") == 1
        assert kinds.count("sync") == 1
        assert kinds.count("data") == alphabet.num_data_symbols

    def test_classify_header_slot(self, link, alphabet):
        _, _, decoder = link
        _, capture = make_capture(link, alphabet, [3], snr=40.0)
        kind, symbol, beat = decoder.classify_slot(capture.slot_samples(0), capture.sample_rate_hz)
        assert kind == "header"
        assert beat == pytest.approx(alphabet.header_beat_hz)

    def test_classify_sync_slot(self, link, alphabet):
        _, _, decoder = link
        _, capture = make_capture(link, alphabet, [3], snr=40.0)
        kind, _, _ = decoder.classify_slot(capture.slot_samples(8), capture.sample_rate_hz)
        assert kind == "sync"

    def test_window_fraction_validation(self, alphabet):
        with pytest.raises(ValueError):
            TagDecoder(alphabet, window_fraction=0.05)

    @pytest.mark.parametrize(
        "setting",
        [
            {"clock_offset_ppm": 20000.0},
            {"window_fraction": 0.8},
            {"alphabet": "small"},
            {"clock_offset_ppm": -5000.0, "window_fraction": 0.9},
        ],
    )
    def test_settings_changed_after_a_decode_reach_the_scores(
        self, link, alphabet, small_alphabet, setting
    ):
        # The hypothesis bank is shared per settings key; changing any of
        # its inputs after the first decode must reach another bank, so
        # the mutated decoder agrees with one built with the new settings.
        setting = {
            name: small_alphabet if value == "small" else value
            for name, value in setting.items()
        }
        _, capture = make_capture(link, alphabet, [3, 17, 29, 8], snr=20.0)
        fs = capture.sample_rate_hz
        decoder = TagDecoder(alphabet)
        decoder.decode_aligned(capture, num_payload_symbols=4)
        before = decoder._scoring_cache(fs)
        for name, value in setting.items():
            setattr(decoder, name, value)
        assert decoder._scoring_cache(fs) is not before
        fresh = TagDecoder(setting.pop("alphabet", alphabet), **setting)
        got = decoder.decode_aligned(capture, num_payload_symbols=4)
        want = fresh.decode_aligned(capture, num_payload_symbols=4)
        assert got.symbols == want.symbols
        assert np.array_equal(got.measured_beats_hz, want.measured_beats_hz)
        assert np.array_equal(got.bits, want.bits)
        slot = capture.slot_samples(PacketFields().preamble_length)
        assert decoder.score_slot(slot, fs) == fresh.score_slot(slot, fs)


class TestSharedTables:
    """The point-invariant downlink tables are built once per process."""

    def test_equal_settings_share_one_bank(self, alphabet):
        twin = dataclasses.replace(alphabet)
        assert twin is not alphabet
        bank = TagDecoder(alphabet, window_fraction=0.9)._scoring_cache(1e6)
        assert TagDecoder(twin, window_fraction=0.9)._scoring_cache(1e6) is bank

    def test_sample_rate_alone_changes_the_bank(self, alphabet):
        decoder = TagDecoder(alphabet)
        assert decoder._scoring_cache(2e6) is not decoder._scoring_cache(1e6)
        assert decoder._scoring_cache(2e6)["n_slot"] == 240

    def test_equal_configs_share_one_layout(self, alphabet):
        fields = PacketFields()
        layout = _downlink_layout(alphabet, fields, 16)
        assert _downlink_layout(dataclasses.replace(alphabet), PacketFields(), 16) is layout
        assert _downlink_layout(alphabet, fields, 8) is not layout
        assert _downlink_layout(alphabet, PacketFields(header_repeats=4), 16) is not layout

    def test_cached_arrays_are_read_only(self, alphabet):
        bank = TagDecoder(alphabet)._scoring_cache(1e6)
        layout = _downlink_layout(alphabet, PacketFields(), 16)
        arrays = [value for value in bank.values() if isinstance(value, np.ndarray)]
        arrays += [
            value for value in vars(layout).values() if isinstance(value, np.ndarray)
        ]
        assert len(arrays) == 11
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
        with pytest.raises(TypeError):
            bank["n_slot"] = 1

    def test_threads_building_a_cold_bank_match_a_serial_decode(self, link, alphabet):
        captures = [
            make_capture(link, alphabet, [3, 17, 29, 8], rng=seed, snr=5.0)[1]
            for seed in range(4)
        ]
        serial = TagDecoder(alphabet).decode_aligned_batch(
            captures, num_payload_symbols=4
        )
        # More threads than a CI runner's cores, switching often, all
        # racing to build the same bank from a cold cache.
        _hypothesis_bank.cache_clear()
        num_threads = 8
        barrier = threading.Barrier(num_threads, timeout=30.0)
        results = [None] * num_threads

        def decode(slot):
            barrier.wait()
            results[slot] = TagDecoder(alphabet).decode_aligned_batch(
                captures, num_payload_symbols=4
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=decode, args=(slot,)) for slot in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for packets in results:
            for got, want in zip(packets, serial, strict=True):
                assert got.symbols == want.symbols
                assert np.array_equal(got.measured_beats_hz, want.measured_beats_hz)
                assert np.array_equal(got.bits, want.bits)


class TestPeriodEstimation:
    def test_snaps_to_nominal(self, link, alphabet):
        _, _, decoder = link
        _, capture = make_capture(link, alphabet, [1, 2, 3], snr=30.0)
        estimate = decoder.estimate_period(capture)
        assert estimate.period_s == pytest.approx(120e-6)

    def test_detects_start_offset(self, link, alphabet):
        _, _, decoder = link
        _, capture = make_capture(link, alphabet, [1, 2], snr=30.0)
        # Prepend silence: the tag woke up before the radar started.
        silence = np.zeros(500)
        shifted = TagCapture(
            samples=np.concatenate([silence, capture.samples]),
            sample_rate_hz=capture.sample_rate_hz,
            frame=capture.frame,
        )
        estimate = decoder.estimate_period(shifted)
        assert estimate.first_chirp_start_s == pytest.approx(500 / 1e6, abs=30e-6)

    def test_too_short_capture(self, alphabet):
        decoder = TagDecoder(alphabet)
        capture = TagCapture(samples=np.zeros(4), sample_rate_hz=1e6)
        with pytest.raises(SyncError):
            decoder.estimate_period(capture)


class TestFullDecode:
    def test_decode_recovers_payload(self, link, alphabet):
        _, _, decoder = link
        symbols = [0, 31, 15, 7, 22]
        bits, capture = make_capture(link, alphabet, symbols, snr=35.0)
        decoded = decoder.decode(capture, num_payload_symbols=len(symbols))
        assert decoded.symbols == symbols
        assert bit_error_rate(bits, decoded.bits) == 0.0
        assert decoded.payload_start_slot == PacketFields().preamble_length

    def test_decode_with_leading_silence(self, link, alphabet):
        _, _, decoder = link
        symbols = [4, 9]
        bits, capture = make_capture(link, alphabet, symbols, snr=35.0)
        padded = TagCapture(
            samples=np.concatenate([np.zeros(777), capture.samples]),
            sample_rate_hz=capture.sample_rate_hz,
            frame=capture.frame,
        )
        decoded = decoder.decode(padded, num_payload_symbols=2)
        assert decoded.symbols == symbols

    def test_decode_aligned_fast_path(self, link, alphabet):
        _, _, decoder = link
        symbols = [11, 29, 3]
        bits, capture = make_capture(link, alphabet, symbols, snr=35.0)
        decoded = decoder.decode_aligned(capture, num_payload_symbols=3)
        assert decoded.symbols == symbols

    def test_decode_aligned_validates(self, link, alphabet):
        _, _, decoder = link
        _, capture = make_capture(link, alphabet, [0], snr=35.0)
        with pytest.raises(ValueError):
            decoder.decode_aligned(capture, num_payload_symbols=0)

    def test_capture_without_preamble_fails_sync(self, link, alphabet):
        _, _, decoder = link
        capture = TagCapture(
            samples=np.random.default_rng(0).normal(0, 1e-6, 600),
            sample_rate_hz=1e6,
        )
        with pytest.raises(SyncError):
            decoder.decode(capture)

    def test_moderate_snr_low_ber(self, link, alphabet):
        _, _, decoder = link
        rng = np.random.default_rng(5)
        total_errors = 0
        total_bits = 0
        for trial in range(10):
            symbols = list(rng.integers(0, 32, 8))
            bits, capture = make_capture(
                link, alphabet, [int(s) for s in symbols], snr=16.0, rng=trial
            )
            decoded = decoder.decode_aligned(capture, num_payload_symbols=8)
            total_errors += int(np.sum(bits[: decoded.bits.size] != decoded.bits))
            total_bits += bits.size
        assert total_errors / total_bits < 0.01
