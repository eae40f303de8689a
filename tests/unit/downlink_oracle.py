"""Per-frame and per-slot references for the downlink signal chain.

The library runs one downlink implementation: each engine chunk
synthesizes and decodes its frames as stacked arrays, and the tag
decoder scores slots through one stacked matrix product.  The functions
here are the slow, obvious forms of the same arithmetic, kept only so
``test_batch_equivalence.py`` can hold the library to them bit for bit:

* :func:`reference_score_slot` — one slot, one ``projectors @ window``
  product;
* :func:`reference_decode_aligned` — the genie-aligned decode as a
  Python loop over payload slots;
* :func:`reference_downlink_chunk` — the Monte-Carlo chunk as a loop
  over frames: encode, capture, impair, decode, count.
"""

import numpy as np

from repro.core.ber import ErrorCounter, random_bits
from repro.core.downlink import DownlinkEncoder
from repro.core.packet import DownlinkPacket
from repro.errors import SyncError
from repro.sim.engine import DownlinkTrialConfig, _effective_snr_override
from repro.tag.decoder_dsp import DecodedPacket, PeriodEstimate, TagDecoder
from repro.tag.frontend import AnalyticTagFrontend
from repro.utils.rng import SeedSpec


def reference_score_slot(decoder: TagDecoder, slot_samples, fs: float):
    """``(kind, symbol, beat_hz, score)`` per hypothesis for one slot."""
    x = np.asarray(slot_samples, dtype=float)
    cache = decoder._scoring_cache(fs)
    n_slot = cache["n_slot"]
    if x.size >= n_slot:
        window = x[:n_slot]
    else:
        window = np.zeros(n_slot)
        window[: x.size] = x
    components = cache["projectors"] @ window  # (H, 3)
    scores = np.sum(components**2, axis=1)
    return [
        (kind, symbol, beat, float(scores[row]))
        for row, (kind, symbol, beat, _) in enumerate(cache["table"])
    ]


def reference_demodulate_data_slot(decoder: TagDecoder, slot_samples, fs: float):
    """ML ``(symbol, beat_hz)`` over the data hypotheses of one slot."""
    scores = [
        entry for entry in reference_score_slot(decoder, slot_samples, fs)
        if entry[0] == "data"
    ]
    _, symbol, beat, _ = max(scores, key=lambda entry: entry[3])
    return int(symbol), float(beat)


def reference_decode_aligned(
    decoder: TagDecoder, capture, *, num_payload_symbols: int, skip_slots=None
) -> DecodedPacket:
    """Genie-aligned decode, one payload slot at a time."""
    start_slot = decoder.fields.preamble_length if skip_slots is None else skip_slots
    period_s = decoder.alphabet.chirp_period_s
    fs = capture.sample_rate_hz
    symbols: "list[int]" = []
    beats: "list[float]" = []
    for k in range(start_slot, start_slot + num_payload_symbols):
        samples = decoder._slot_window(capture, 0.0, period_s, k)
        if samples.size < 4:
            break
        symbol, beat = reference_demodulate_data_slot(decoder, samples, fs)
        symbols.append(symbol)
        beats.append(beat)
    bits = (
        np.concatenate([decoder.alphabet.bits_for_symbol(s) for s in symbols])
        if symbols
        else np.empty(0, dtype=np.uint8)
    )
    return DecodedPacket(
        bits=bits,
        symbols=symbols,
        measured_beats_hz=np.asarray(beats),
        period=PeriodEstimate(period_s=period_s, first_chirp_start_s=0.0, confidence=1.0),
        payload_start_slot=start_slot,
        num_sync_slots_seen=decoder.fields.sync_repeats,
    )


def reference_downlink_chunk(
    config: DownlinkTrialConfig, spec: SeedSpec, indices
) -> "list[tuple[int, int, int]]":
    """``(bit_errors, bits, sync_failed)`` per trial, one frame at a time."""
    encoder = DownlinkEncoder(radar_config=config.radar_config, alphabet=config.alphabet)
    impair = config.impairments if (
        config.impairments is not None and config.impairments.active
    ) else None
    clock_offset_ppm = impair.clock_offset_ppm() if impair is not None else 0.0
    decoder = TagDecoder(
        config.alphabet, fields=config.fields, clock_offset_ppm=clock_offset_ppm
    )
    frontend = AnalyticTagFrontend(
        budget=config.resolved_budget(), delta_t_s=config.alphabet.decoder.delta_t_s
    )
    snr_override = _effective_snr_override(config)
    bits_per_frame = config.payload_symbols_per_frame * config.alphabet.symbol_bits
    results = []
    for index in indices:
        stream = spec.stream(index)
        payload = random_bits(bits_per_frame, rng=stream)
        packet = DownlinkPacket.from_bits(config.alphabet, payload, fields=config.fields)
        capture = frontend.capture(
            encoder.encode_packet(packet),
            config.distance_m,
            rng=stream,
            snr_override_db=snr_override,
        )
        if impair is not None:
            capture = impair.apply_to_capture(capture, rng=stream)
        counter = ErrorCounter()
        sync_failed = 0
        try:
            if config.full_sync:
                decoded = decoder.decode(
                    capture, num_payload_symbols=config.payload_symbols_per_frame
                )
            else:
                decoded = reference_decode_aligned(
                    decoder, capture, num_payload_symbols=config.payload_symbols_per_frame
                )
            counter.update(payload, decoded.bits)
        except SyncError:
            sync_failed = 1
            counter.update(payload, np.empty(0, dtype=np.uint8))
        results.append((counter.bit_errors, counter.bits_total, sync_failed))
    return results
