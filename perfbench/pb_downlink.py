"""``downlink-ber``: a Fig. 12-14-style BER-vs-SNR sweep, serial, no store.

The paper alphabet (5-bit CSSK, 1 GHz, 45-inch delta-L) at 24 SNR points
x 100 frames x 16 symbols, on the batched engine path with ``workers=1``.
Most of its time goes to ``tag.frontend`` tone synthesis and
``tag.decoder_dsp`` window scoring, plus per-trial ``utils.rng`` and
``core.ber`` Python, so every hot-path optimization shows here; it never
touches the store, the process pool or serve.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

import pb_harness as harness

NAME = "downlink-ber"
POINTS = 24
FRAMES = 100
PAYLOAD_SYMBOLS = 16
#: The decoder's projector keeps 3 gated-model directions per hypothesis.
PROJECTOR_RANK = 3


def paper_alphabet():
    from repro.core.cssk import CsskAlphabet, DecoderDesign

    return CsskAlphabet.design(
        bandwidth_hz=1e9,
        decoder=DecoderDesign.from_inches(45.0),
        symbol_bits=5,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )


def batched_plan(**fields):
    """An ``ExecutionPlan`` on the batched engine path.

    The batched path is requested only while the plan still offers the
    choice, so the workload runs unchanged once it is the only path.
    """
    from repro.sim.executor import ExecutionPlan

    if "batch_frames" in {field.name for field in dataclasses.fields(ExecutionPlan)}:
        fields["batch_frames"] = True
    return ExecutionPlan(**fields)


def downlink_config(snr_db: float, frames: int, payload_symbols: int):
    from repro.radar.config import XBAND_9GHZ
    from repro.sim.engine import DownlinkTrialConfig

    return DownlinkTrialConfig(
        radar_config=XBAND_9GHZ.with_bandwidth(1e9),
        alphabet=paper_alphabet(),
        snr_override_db=snr_db,
        num_frames=frames,
        payload_symbols_per_frame=payload_symbols,
    )


class Workload(harness.Workload):
    name = NAME

    def __init__(self, seed: int, tiny: bool, work_dir) -> None:
        rng = np.random.default_rng([seed, 12])
        points = 3 if tiny else POINTS
        self.frames = 4 if tiny else FRAMES
        # Fig. 14's SNR axis (-4..19 dB), each point offset by a seeded
        # fraction of a dB and given its own engine seed.
        self.snrs = [float(-4.0 + index + rng.uniform(0.0, 1.0)) for index in range(points)]
        self.seeds = [int(value) for value in rng.integers(0, 2**31, points)]
        self.stages = harness.Stages()
        self.frames_replayed = 0
        self.samples_per_frame = 0
        self.fs = 0.0

    def setup(self) -> None:
        from repro.sim.engine import run_downlink_trials

        self.configs = [
            downlink_config(snr, self.frames, PAYLOAD_SYMBOLS) for snr in self.snrs
        ]
        self.plan = batched_plan()
        # First-call caches (slot projectors, scoring tables) belong to setup.
        run_downlink_trials(
            dataclasses.replace(self.configs[0], num_frames=2),
            rng=self.seeds[0] + 1,
            execution=self.plan,
        )

    def run_pass(self, traced: bool) -> harness.PassResult:
        if traced:
            return self._replay()
        from repro.sim.engine import run_downlink_trials

        result = harness.PassResult(frames=0, latencies_s=[])
        for index, (config, seed) in enumerate(zip(self.configs, self.seeds)):
            started = time.perf_counter()
            result.outputs[index] = run_downlink_trials(
                config, rng=seed, execution=self.plan
            )
            result.latencies_s.append(time.perf_counter() - started)
            result.frames += config.num_frames
        return result

    def _replay(self) -> harness.PassResult:
        """The pass stage by stage through the layers' public calls.

        Mirrors the engine's batched chunk (one chunk per point at
        ``workers=1``): the same seeds and the same per-trial draw order,
        so each aggregated ``BerPoint`` must equal the engine's bit for bit.
        """
        from repro.core.ber import ErrorCounter, random_bits
        from repro.core.downlink import DownlinkEncoder
        from repro.core.packet import DownlinkPacket
        from repro.sim.results import BerPoint
        from repro.tag.decoder_dsp import TagDecoder
        from repro.tag.frontend import AnalyticTagFrontend
        from repro.utils.rng import SeedSpec

        stages = self.stages
        result = harness.PassResult(frames=0, latencies_s=[])
        pass_started = time.perf_counter()
        for index, (config, seed) in enumerate(zip(self.configs, self.seeds)):
            started = time.perf_counter()
            with stages.time("sim.engine (per-point plumbing)"):
                alphabet = config.alphabet
                budget = config.resolved_budget()
                encoder = DownlinkEncoder(
                    radar_config=config.radar_config, alphabet=alphabet
                )
                decoder = TagDecoder(alphabet, fields=config.fields)
                frontend = AnalyticTagFrontend(
                    budget=budget, delta_t_s=alphabet.decoder.delta_t_s
                )
                spec = SeedSpec.from_rng(seed)
                bits = config.payload_symbols_per_frame * alphabet.symbol_bits
            with stages.time("utils.rng (SeedSpec.stream)"):
                streams = [spec.stream(trial) for trial in range(config.num_frames)]
            with stages.time("core.ber (random_bits)"):
                payloads = [random_bits(bits, rng=stream) for stream in streams]
            with stages.time("core.downlink (packet -> FrameSchedule)"):
                frames = [
                    encoder.encode_packet(
                        DownlinkPacket.from_bits(alphabet, payload, fields=config.fields)
                    )
                    for payload in payloads
                ]
            with stages.time("tag.frontend (capture_batch)"):
                captures = frontend.capture_batch(
                    frames,
                    config.distance_m,
                    rngs=streams,
                    snr_override_db=config.snr_override_db,
                )
            with stages.time("tag.decoder_dsp (decode_aligned_batch)"):
                packets = decoder.decode_aligned_batch(
                    captures, num_payload_symbols=config.payload_symbols_per_frame
                )
            with stages.time("core.ber (ErrorCounter)"):
                counter = ErrorCounter()
                for payload, packet in zip(payloads, packets):
                    counter.update(payload, packet.bits)
            with stages.time("sim.engine (per-point plumbing)"):
                result.outputs[index] = BerPoint(
                    parameter=float(config.snr_override_db),
                    ber=counter.ber,
                    bits_total=counter.bits_total,
                    bit_errors=counter.bit_errors,
                    extra={
                        "sync_failures": 0,
                        "symbol_bits": alphabet.symbol_bits,
                        "bandwidth_hz": alphabet.bandwidth_hz,
                        "video_snr_db": budget.video_snr_db(config.distance_m),
                    },
                )
            result.latencies_s.append(time.perf_counter() - started)
            result.frames += config.num_frames
            self.samples_per_frame = captures[0].samples.size
            self.fs = captures[0].sample_rate_hz
        stages.wall_s += time.perf_counter() - pass_started
        self.frames_replayed += result.frames
        return result

    def check(self, passes: "list[harness.PassResult]") -> "set":
        """Operation keys that failed a check.

        Every pass must repeat the first bit for bit and be internally
        consistent, and one seed-chosen point is recomputed on the
        per-frame reference path (while the plan still has one).
        """
        from repro.sim.engine import run_downlink_trials
        from repro.sim.executor import ExecutionPlan

        bad = harness.inconsistent_keys(passes)
        for key, point in passes[0].outputs.items():
            config = self.configs[key]
            expected_bits = (
                config.num_frames * config.payload_symbols_per_frame
                * config.alphabet.symbol_bits
            )
            if (
                point.bits_total != expected_bits
                or not 0 <= point.bit_errors <= point.bits_total
                or point.ber != point.bit_errors / point.bits_total
            ):
                bad.add(key)
        oracle = self.seeds[0] % len(self.configs)
        reference = run_downlink_trials(
            self.configs[oracle], rng=self.seeds[oracle], execution=ExecutionPlan()
        )
        if reference != passes[0].outputs[oracle]:
            bad.add(oracle)
        return bad

    def layer_metrics(self, untraced: "list[harness.PassResult]") -> "dict":
        stages = self.stages
        frames = self.frames_replayed

        def us_per_frame(stage: str) -> float:
            return stages.seconds[stage] / frames * 1e6

        alphabet = self.configs[0].alphabet
        n_slot = max(int(round(alphabet.chirp_period_s * self.fs)), 4)
        return {
            "utils.rng.stream_us_per_trial": (
                us_per_frame("utils.rng (SeedSpec.stream)"), "us"),
            "core.ber.payload_us_per_trial": (
                us_per_frame("core.ber (random_bits)"), "us"),
            "core.ber.count_us_per_trial": (
                us_per_frame("core.ber (ErrorCounter)"), "us"),
            "core.downlink.encode_us_per_frame": (
                us_per_frame("core.downlink (packet -> FrameSchedule)"), "us"),
            "tag.frontend.capture_us_per_frame": (
                us_per_frame("tag.frontend (capture_batch)"), "us"),
            "tag.frontend.bytes_per_frame": (self.samples_per_frame * 8, "B"),
            "tag.decoder_dsp.decode_us_per_frame": (
                us_per_frame("tag.decoder_dsp (decode_aligned_batch)"), "us"),
            "tag.decoder_dsp.score_flops_per_frame": (
                PAYLOAD_SYMBOLS * alphabet.num_data_symbols * PROJECTOR_RANK
                * n_slot * 2,
                "count",
            ),
            "downlink.stage_coverage": (stages.coverage(), "ratio"),
        }

    def stage_table(self) -> str:
        frames = self.frames_replayed
        alphabet = self.configs[0].alphabet
        slots = frames * (self.configs[0].fields.preamble_length + PAYLOAD_SYMBOLS)
        return self.stages.table({
            "utils.rng (SeedSpec.stream)": f"{frames} trials",
            "core.ber (random_bits)": f"{frames} payloads",
            "core.downlink (packet -> FrameSchedule)": f"{frames} frames, {slots} slots",
            "tag.frontend (capture_batch)":
                f"{frames} frames, {frames * self.samples_per_frame * 8} B",
            "tag.decoder_dsp (decode_aligned_batch)":
                f"{frames * PAYLOAD_SYMBOLS} payload slots x "
                f"{alphabet.num_data_symbols} hypotheses",
            "core.ber (ErrorCounter)": f"{frames} trials",
        })
