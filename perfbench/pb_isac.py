"""``isac-sensing``: Fig. 15/16 radar-side work, serial.

Localization with fixed and with varying slopes at 1/3/5/7 m (each plus
a seeded off-grid offset) in office clutter, and uplink SNR trials at
the same distances.  It runs only the ``radar.*``, ``core.localization``
and ``core.uplink`` layers and never touches ``tag.*``: it is the
workload for vectorizing the uplink and localization chunks.
"""

from __future__ import annotations

import time

import numpy as np

import pb_harness as harness
from pb_downlink import paper_alphabet

NAME = "isac-sensing"
DISTANCES_M = (1.0, 3.0, 5.0, 7.0)
LOCALIZATION_FRAMES = 1
UPLINK_TRIALS = 1
NUM_CHIRPS = 96

_RECEIVE = "radar.fmcw (receive_frame)"
_ALIGN_LOC = "radar.if_correction (align, localization)"
_ALIGN_UP = "radar.if_correction (align, uplink)"
_COARSE = "core.localization (coarse_detect)"
_LOCALIZE = "core.localization (localize)"
_MEASURE = "core.uplink (measure_snr_db)"


class Workload(harness.Workload):
    name = NAME

    def __init__(self, seed: int, tiny: bool, work_dir) -> None:
        rng = np.random.default_rng([seed, 16])
        distances = DISTANCES_M[:1] if tiny else DISTANCES_M
        self.loc_frames = 1 if tiny else LOCALIZATION_FRAMES
        self.uplink_trials = 1 if tiny else UPLINK_TRIALS
        self.num_chirps = 32 if tiny else NUM_CHIRPS
        #: One operation = one engine call: (kind, tag range, varying, seed).
        self.ops = []
        for distance in distances:
            tag_range = distance + float(rng.uniform(0.0, 0.1))
            for varying in (False, True):
                self.ops.append(
                    ("localization", tag_range, varying, int(rng.integers(0, 2**31)))
                )
            self.ops.append(("uplink", tag_range, False, int(rng.integers(0, 2**31))))
        self.stages = harness.Stages()
        self.loc_frames_replayed = 0
        self.uplink_trials_replayed = 0

    def setup(self) -> None:
        from repro.channel.multipath import Clutter
        from repro.components.van_atta import VanAttaArray
        from repro.radar.config import XBAND_9GHZ
        from repro.tag.modulator import UplinkModulator

        self.radar_config = XBAND_9GHZ
        self.alphabet = paper_alphabet()
        self.modulator = UplinkModulator(
            modulation_rate_hz=2000.0,
            chirp_period_s=120e-6,
            chirps_per_bit=self.num_chirps,
        )
        self.van_atta = VanAttaArray()
        self.clutter = Clutter.office(rng=0)
        # First-call caches belong to setup.
        self._engine_call(("localization", 2.0, True, 1), 1)
        self._engine_call(("uplink", 2.0, False, 1), 1)

    def _engine_call(self, op, count: int):
        from repro.sim.engine import run_localization_trials, run_uplink_snr_measurement

        kind, tag_range, varying, seed = op
        if kind == "localization":
            return run_localization_trials(
                self.radar_config, self.alphabet, self.modulator, self.van_atta,
                tag_range_m=tag_range, varying_slopes=varying, num_frames=count,
                num_chirps=self.num_chirps, clutter=self.clutter, rng=seed,
            )
        return run_uplink_snr_measurement(
            self.radar_config, self.modulator, self.van_atta,
            tag_range_m=tag_range, num_chirps=self.num_chirps,
            clutter=self.clutter, rng=seed, num_trials=count,
        )

    def _count(self, op) -> int:
        return self.loc_frames if op[0] == "localization" else self.uplink_trials

    def run_pass(self, traced: bool) -> harness.PassResult:
        result = harness.PassResult(frames=0, latencies_s=[])
        pass_started = time.perf_counter()
        for index, op in enumerate(self.ops):
            started = time.perf_counter()
            if traced:
                result.outputs[index] = self._replay(op, self.stages)
            else:
                result.outputs[index] = self._engine_call(op, self._count(op))
            result.latencies_s.append(time.perf_counter() - started)
            result.frames += self._count(op)
        if traced:
            self.stages.wall_s += time.perf_counter() - pass_started
            self.loc_frames_replayed += sum(
                self.loc_frames for op in self.ops if op[0] == "localization"
            )
            self.uplink_trials_replayed += sum(
                self.uplink_trials for op in self.ops if op[0] == "uplink"
            )
        return result

    def _scatterers(self, tag_range: float, schedule):
        from repro.radar.fmcw import Scatterer

        frequency = self.radar_config.center_frequency_hz
        return [
            Scatterer(
                range_m=tag_range,
                rcs_m2=self.van_atta.rcs_m2(frequency),
                amplitude_schedule=schedule,
            )
        ] + [
            Scatterer(range_m=r.range_m, rcs_m2=r.rcs_m2, angle_deg=r.angle_deg)
            for r in self.clutter.reflectors
        ]

    def _replay(self, op, stages: harness.Stages):
        """One engine call stage by stage through the layers' public calls.

        Mirrors the engine's localization and uplink chunks trial by
        trial with the same seeds, so the error array (or the median SNR)
        must equal the engine's bit for bit.
        """
        from repro.core.localization import TagLocalizer
        from repro.core.uplink import UplinkDecoder
        from repro.radar.fmcw import FMCWRadar
        from repro.radar.if_correction import align_profiles_to_common_grid
        from repro.utils.rng import SeedSpec
        from repro.waveform.frame import FrameSchedule
        from repro.waveform.parameters import ChirpParameters

        kind, tag_range, varying, seed = op
        with stages.time("sim.engine (per-call plumbing)"):
            radar = FMCWRadar(self.radar_config)
            frequency = self.radar_config.center_frequency_hz
            on_rcs, off_rcs = self.van_atta.modulated_rcs_amplitudes(frequency)
            off_factor = float(np.sqrt(off_rcs / on_rcs))
            spec = SeedSpec.from_rng(seed)
            alphabet = self.alphabet
        if kind == "uplink":
            with stages.time("sim.engine (per-call plumbing)"):
                decoder = UplinkDecoder(self.modulator)
                chirp = self.radar_config.chirp(80e-6)
                frame = FrameSchedule.from_chirps(
                    [chirp] * self.num_chirps, self.modulator.chirp_period_s
                )
                times = np.array([slot.start_time_s for slot in frame.slots])
                states = self.modulator.beacon_states(times)
                schedule = np.where(states, 1.0, off_factor)
            snrs = []
            for trial in range(self.uplink_trials):
                with stages.time("utils.rng (SeedSpec.stream)"):
                    stream = spec.stream(trial)
                with stages.time("waveform (frame + scatterers)"):
                    scatterers = self._scatterers(tag_range, schedule)
                with stages.time(_RECEIVE):
                    if_frame = radar.receive_frame(frame, scatterers, rng=stream)
                with stages.time(_ALIGN_UP):
                    align_profiles_to_common_grid(if_frame)
                with stages.time(_MEASURE):
                    snrs.append(decoder.measure_snr_db(if_frame))
            return float(np.median(snrs))

        with stages.time("sim.engine (per-call plumbing)"):
            localizer = TagLocalizer(self.modulator.modulation_rate_hz)
        errors = []
        for trial in range(self.loc_frames):
            with stages.time("utils.rng (SeedSpec.stream)"):
                stream = spec.stream(trial)
            with stages.time("waveform (frame + scatterers)"):
                if varying:
                    symbols = stream.integers(0, alphabet.num_data_symbols, self.num_chirps)
                    durations = [alphabet.data_symbol_duration_s(int(s)) for s in symbols]
                else:
                    durations = [alphabet.header_duration_s] * self.num_chirps
                chirps = [
                    ChirpParameters(
                        start_frequency_hz=self.radar_config.start_frequency_hz,
                        bandwidth_hz=alphabet.bandwidth_hz,
                        duration_s=duration,
                    )
                    for duration in durations
                ]
                frame = FrameSchedule.from_chirps(chirps, alphabet.chirp_period_s)
                times = np.array([slot.start_time_s for slot in frame.slots])
                states = self.modulator.beacon_states(times)
                scatterers = self._scatterers(
                    tag_range, np.where(states, 1.0, off_factor)
                )
            with stages.time(_RECEIVE):
                if_frame = radar.receive_frame(frame, scatterers, rng=stream)
            with stages.time(_ALIGN_LOC):
                correction = align_profiles_to_common_grid(if_frame)
            with stages.time(_COARSE):
                localizer.coarse_detect(if_frame, correction=correction)
            with stages.time(_LOCALIZE):
                located = localizer.localize(if_frame, correction=correction)
            errors.append(abs(located.range_m - tag_range))
        return np.asarray(errors, dtype=np.float64)

    def check(self, passes: "list[harness.PassResult]") -> "set":
        """Operation keys that failed a check.

        Every pass must repeat the first bit for bit with finite outputs,
        and one seed-chosen call is recomputed through the stage replay,
        which must match the engine bit for bit.
        """
        bad = harness.inconsistent_keys(passes)
        for key, output in passes[0].outputs.items():
            values = np.atleast_1d(np.asarray(output, dtype=np.float64))
            if not np.all(np.isfinite(values)) or (
                self.ops[key][0] == "localization" and np.any(values < 0)
            ):
                bad.add(key)
        oracle = self.ops[0][3] % len(self.ops)
        replayed = self._replay(self.ops[oracle], harness.Stages())
        if harness.digest(replayed) != harness.digest(passes[0].outputs[oracle]):
            bad.add(oracle)
        return bad

    def layer_metrics(self, untraced: "list[harness.PassResult]") -> "dict":
        seconds = self.stages.seconds
        loc = self.loc_frames_replayed
        up = self.uplink_trials_replayed
        frames = loc + up
        return {
            "radar.fmcw.receive_ms_per_frame": (seconds[_RECEIVE] / frames * 1e3, "ms"),
            "radar.if_correction.align_ms_per_frame": (
                (seconds[_ALIGN_LOC] + seconds[_ALIGN_UP]) / frames * 1e3, "ms"),
            "core.localization.coarse_ms_per_frame": (seconds[_COARSE] / loc * 1e3, "ms"),
            "core.localization.refine_ms_per_frame": (
                (seconds[_LOCALIZE] - seconds[_COARSE]) / loc * 1e3, "ms"),
            "core.uplink.detect_ms_per_trial": (
                (seconds[_MEASURE] - seconds[_ALIGN_UP]) / up * 1e3, "ms"),
            "isac.cpu_per_wall": (
                harness.median([p.cpu_s / p.wall_s for p in untraced]), "ratio"),
            "isac.stage_coverage": (self.stages.coverage(), "ratio"),
        }

    def stage_table(self) -> str:
        loc = self.loc_frames_replayed
        up = self.uplink_trials_replayed
        return self.stages.table({
            _RECEIVE: f"{loc + up} frames x {self.num_chirps} chirps",
            _ALIGN_LOC: f"{loc} frames",
            _ALIGN_UP: f"{up} frames",
            _COARSE: f"{loc} frames",
            _LOCALIZE: f"{loc} frames (includes a second coarse pass)",
            _MEASURE: f"{up} trials (includes a second align)",
        })
