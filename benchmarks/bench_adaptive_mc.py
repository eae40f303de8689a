"""Adaptive Monte-Carlo — >=5x wall-clock cut on a fig13-style sweep.

A fixed ``num_frames`` budget spends as much on trivially-clean
operating points as on the error floors: on the fig13 distance ladder
every near point decodes perfectly, yet the fixed sweep still burns the
full budget there.  The adaptive driver stops a clean point after
``min_frames`` zero-error frames (the 95% Wilson upper bound is already
below the floor of interest) and spends the budget only where the CI is
actually wide.

The timed comparison runs the clean part of the ladder (3-7 m, where
the paper's fig13 reports its working region) twice on one worker —
fixed ``MAX_FRAMES`` per point vs :class:`AdaptiveConfig` with the
identical cap and confidence — and gates a >=5x wall-clock speedup *at
equal confidence*: every adaptive stop is sanctioned by the rule
(zero-errors / ci-met / cap), and each fixed-budget BER estimate must
lie inside the adaptive point's final interval, so the cheap run never
contradicts the expensive one.  An error-floor point past the working
range (8 m) is computed once, untimed, to show the complementary
behaviour: where errors do accumulate the driver runs to the full cap,
i.e. the saving comes from clean points only, never from starving a
floor of evidence.

Both modes run the same engine chunk, so the comparison isolates the
sampling policy rather than kernel differences.  Timed best-of-N for
the usual shared-runner jitter reasons.
"""

import time

from conftest import emit, emit_bench_json
from repro.radar.config import XBAND_9GHZ
from repro.sim.adaptive import AdaptiveConfig
from repro.sim.engine import DownlinkTrialConfig, run_downlink_trials
from repro.sim.executor import ExecutionPlan
from repro.sim.results import format_table

CLEAN_DISTANCES_M = [3.0, 4.0, 5.0, 6.0, 7.0]
FLOOR_DISTANCE_M = 8.0
SYMBOLS_PER_FRAME = 16
MAX_FRAMES = 160
MIN_FRAMES = 8
CI_WIDTH = 0.25
REPEATS = 3
MIN_SPEEDUP = 5.0

ADAPTIVE = AdaptiveConfig(
    target_rel_width=CI_WIDTH,
    min_frames=MIN_FRAMES,
    max_frames=MAX_FRAMES,
    batch_frames=MIN_FRAMES,
)
PLAN = ExecutionPlan(workers=1, chunk_size=MAX_FRAMES)


def _config(paper_alphabet, distance_m):
    return DownlinkTrialConfig(
        radar_config=XBAND_9GHZ,
        alphabet=paper_alphabet,
        distance_m=distance_m,
        num_frames=MAX_FRAMES,
        payload_symbols_per_frame=SYMBOLS_PER_FRAME,
    )


def run_study(paper_alphabet):
    points = {"fixed": {}, "adaptive": {}}
    timings = {"fixed": [], "adaptive": []}
    for _rep in range(REPEATS):
        start = time.perf_counter()
        for distance_m in CLEAN_DISTANCES_M:
            points["fixed"][distance_m] = run_downlink_trials(
                _config(paper_alphabet, distance_m), rng=0, execution=PLAN
            )
        timings["fixed"].append(time.perf_counter() - start)

        start = time.perf_counter()
        for distance_m in CLEAN_DISTANCES_M:
            points["adaptive"][distance_m] = run_downlink_trials(
                _config(paper_alphabet, distance_m), rng=0, execution=PLAN,
                adaptive=ADAPTIVE,
            )
        timings["adaptive"].append(time.perf_counter() - start)

    # Untimed: the error floor runs to its cap in both modes, so it only
    # dilutes the timing signal — but its trajectory belongs in the record.
    for mode, adaptive in (("fixed", None), ("adaptive", ADAPTIVE)):
        points[mode][FLOOR_DISTANCE_M] = run_downlink_trials(
            _config(paper_alphabet, FLOOR_DISTANCE_M), rng=0, execution=PLAN,
            adaptive=adaptive,
        )
    best = {mode: min(times) for mode, times in timings.items()}
    return points, best, timings


def test_adaptive_mc(benchmark, paper_alphabet):
    points, best, timings = benchmark.pedantic(
        run_study, args=(paper_alphabet,), rounds=1, iterations=1
    )
    speedup = best["fixed"] / best["adaptive"]
    fixed_frames = MAX_FRAMES * len(CLEAN_DISTANCES_M)
    adaptive_frames = sum(
        points["adaptive"][distance_m].extra["adaptive"]["frames"]
        for distance_m in CLEAN_DISTANCES_M
    )

    all_distances = CLEAN_DISTANCES_M + [FLOOR_DISTANCE_M]
    rows = []
    for distance_m in all_distances:
        fixed = points["fixed"][distance_m]
        adaptive = points["adaptive"][distance_m]
        trajectory = adaptive.extra["adaptive"]
        timed = distance_m in CLEAN_DISTANCES_M
        rows.append([
            f"{distance_m:.0f}" + ("" if timed else " (untimed)"),
            f"{fixed.ber:.2e}",
            f"{adaptive.ber:.2e}",
            f"{MAX_FRAMES}",
            f"{trajectory['frames']}",
            trajectory["reason"],
        ])
    table = format_table(
        ["dist (m)", "fixed BER", "adaptive BER",
         "fixed frames", "adaptive frames", "stop"],
        rows,
    )
    table += (
        f"\nfixed {best['fixed'] * 1e3:.0f} ms ({fixed_frames} frames) vs "
        f"adaptive {best['adaptive'] * 1e3:.0f} ms ({adaptive_frames} frames) "
        f"over the 3-7 m ladder; speedup x{speedup:.2f} "
        f"(floor x{MIN_SPEEDUP:.1f}); ci-width {CI_WIDTH}, min {MIN_FRAMES}, "
        f"cap {MAX_FRAMES}, best of {REPEATS}"
    )
    emit("adaptive_mc", table)
    emit_bench_json(
        "adaptive_mc",
        elapsed_seconds=sum(sum(times) for times in timings.values()),
        results={
            "clean_distances_m": CLEAN_DISTANCES_M,
            "floor_distance_m": FLOOR_DISTANCE_M,
            "symbols_per_frame": SYMBOLS_PER_FRAME,
            "max_frames": MAX_FRAMES,
            "min_frames": MIN_FRAMES,
            "ci_width": CI_WIDTH,
            "repeats": REPEATS,
            "fixed_seconds": best["fixed"],
            "adaptive_seconds": best["adaptive"],
            "fixed_frames": fixed_frames,
            "adaptive_frames": adaptive_frames,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "stop_reasons": {
                f"{distance_m:g}":
                    points["adaptive"][distance_m].extra["adaptive"]["reason"]
                for distance_m in all_distances
            },
        },
    )

    # Equal confidence, every point (the floor included): each stop is
    # sanctioned, and the fixed estimate sits inside the adaptive CI.
    for distance_m in all_distances:
        trajectory = points["adaptive"][distance_m].extra["adaptive"]
        assert trajectory["reason"] in ("zero-errors", "ci-met", "cap")
        if trajectory["reason"] == "cap":
            assert trajectory["frames"] == MAX_FRAMES
        fixed_ber = points["fixed"][distance_m].ber
        assert trajectory["ci_low"] <= fixed_ber <= trajectory["ci_high"], (
            f"{distance_m} m: fixed BER {fixed_ber} outside adaptive CI "
            f"[{trajectory['ci_low']}, {trajectory['ci_high']}]"
        )
    # The floor keeps its full evidence budget — the speedup is not
    # bought by under-sampling the one point that needs frames.
    floor = points["adaptive"][FLOOR_DISTANCE_M].extra["adaptive"]
    assert floor["frames"] == MAX_FRAMES

    # The throughput claim: >=5x wall-clock at equal confidence.
    assert speedup >= MIN_SPEEDUP, (
        f"expected >={MIN_SPEEDUP:.1f}x adaptive speedup, got {speedup:.2f}x "
        f"(fixed {best['fixed']:.3f} s, adaptive {best['adaptive']:.3f} s)"
    )
