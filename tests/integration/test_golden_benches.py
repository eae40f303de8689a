"""Golden regression pins for the Fig. 12 / Fig. 13 operating points.

EXPERIMENTS.md publishes numbers from these benches, so engine refactors
must not silently shift them.  Each case here pins the *exact* seed-0
Monte-Carlo outcome (bit errors, total bits, BER, link SNR) of one
operating point at a reduced trial count — small enough to run in the
tier-1 suite, sensitive enough that a change anywhere in the
encode/channel/decode pipeline (or in trial seeding) flips a pin.

The pinned values were generated at the commit that introduced the
parallel executor and match the pre-executor serial implementation bit
for bit (index-keyed seeding reproduces ``Generator.spawn`` exactly).
If a pin moves, either a bug crept into the pipeline or a deliberate
physics/DSP change needs the goldens — and EXPERIMENTS.md — re-baselined
in the same commit.

Every case is also re-run under a 2-worker plan: the goldens double as a
cross-backend anchor, so "parallel == serial" cannot quietly become
"parallel == parallel".
"""

import pytest

from repro.core.cssk import CsskAlphabet, DecoderDesign
from repro.radar.config import XBAND_9GHZ
from repro.sim.engine import DownlinkTrialConfig, run_downlink_trials
from repro.sim.executor import ExecutionPlan

NUM_FRAMES = 12
SYMBOLS_PER_FRAME = 8
SEED = 0

# (case id, bandwidth_hz, symbol_bits, delta_l_inches, distance_m,
#  bit_errors, bits_total, ber, video_snr_db)
GOLDEN_POINTS = [
    # Fig. 12 — BER vs symbol size x bandwidth, tag at 4 m.
    ("fig12_250MHz_3bit", 250e6, 3, 45.0, 4.0, 0, 288, 0.0, 23.03888478145963),
    ("fig12_500MHz_5bit", 500e6, 5, 45.0, 4.0, 0, 480, 0.0, 22.788926810379543),
    ("fig12_1GHz_5bit", 1e9, 5, 45.0, 4.0, 0, 480, 0.0, 22.299548553699097),
    (
        "fig12_1GHz_7bit",
        1e9, 7, 45.0, 4.0,
        1, 672, 0.001488095238095238, 22.299548553699097,
    ),
    # Fig. 13 — BER vs distance at 1 GHz, rate series via delta-L.
    ("fig13_3bit_7m", 1e9, 3, 18.0, 7.0, 0, 288, 0.0, 12.57802660624732),
    ("fig13_5bit_7m", 1e9, 5, 45.0, 7.0, 0, 480, 0.0, 12.57802660624732),
    (
        "fig13_7bit_7m",
        1e9, 7, 60.0, 7.0,
        13, 672, 0.019345238095238096, 12.57802660624732,
    ),
    (
        "fig13_5bit_8m",
        1e9, 5, 45.0, 8.0,
        1, 480, 0.0020833333333333333, 10.258348727139847,
    ),
]


def _run_point(bandwidth_hz, symbol_bits, delta_l_inches, distance_m, execution=None):
    alphabet = CsskAlphabet.design(
        bandwidth_hz=bandwidth_hz,
        decoder=DecoderDesign.from_inches(delta_l_inches),
        symbol_bits=symbol_bits,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )
    config = DownlinkTrialConfig(
        radar_config=XBAND_9GHZ.with_bandwidth(bandwidth_hz),
        alphabet=alphabet,
        distance_m=distance_m,
        num_frames=NUM_FRAMES,
        payload_symbols_per_frame=SYMBOLS_PER_FRAME,
    )
    return run_downlink_trials(config, rng=SEED, execution=execution)


@pytest.mark.parametrize(
    "case_id, bandwidth_hz, symbol_bits, delta_l_inches, distance_m, "
    "bit_errors, bits_total, ber, video_snr_db",
    GOLDEN_POINTS,
    ids=[case[0] for case in GOLDEN_POINTS],
)
def test_golden_point_serial(
    case_id, bandwidth_hz, symbol_bits, delta_l_inches, distance_m,
    bit_errors, bits_total, ber, video_snr_db,
):
    point = _run_point(bandwidth_hz, symbol_bits, delta_l_inches, distance_m)
    assert point.bit_errors == bit_errors
    assert point.bits_total == bits_total
    assert point.ber == ber  # exact: same integer division, same order
    assert point.extra["video_snr_db"] == video_snr_db


@pytest.mark.parametrize(
    "case_id, bandwidth_hz, symbol_bits, delta_l_inches, distance_m, "
    "bit_errors, bits_total, ber, video_snr_db",
    [GOLDEN_POINTS[3], GOLDEN_POINTS[6]],  # the error-bearing, most sensitive pins
    ids=["fig12_1GHz_7bit", "fig13_7bit_7m"],
)
def test_golden_point_parallel_matches(
    case_id, bandwidth_hz, symbol_bits, delta_l_inches, distance_m,
    bit_errors, bits_total, ber, video_snr_db,
):
    point = _run_point(
        bandwidth_hz, symbol_bits, delta_l_inches, distance_m,
        execution=ExecutionPlan(workers=2, chunk_size=3),
    )
    assert point.bit_errors == bit_errors
    assert point.bits_total == bits_total
    assert point.ber == ber
    assert point.extra["video_snr_db"] == video_snr_db


@pytest.mark.parametrize(
    "case_id, bandwidth_hz, symbol_bits, delta_l_inches, distance_m, "
    "bit_errors, bits_total, ber, video_snr_db",
    [GOLDEN_POINTS[3], GOLDEN_POINTS[6], GOLDEN_POINTS[7]],
    ids=["fig12_1GHz_7bit", "fig13_7bit_7m", "fig13_5bit_8m"],
)
def test_golden_point_batched_matches(
    case_id, bandwidth_hz, symbol_bits, delta_l_inches, distance_m,
    bit_errors, bits_total, ber, video_snr_db,
):
    """Three-frame batched chunks over two workers reproduce the seed-0 pins.

    Each chunk synthesizes and decodes its frames as one stacked batch;
    regrouping the frames into other batches on a pool must not move a
    single bit.
    """
    point = _run_point(
        bandwidth_hz, symbol_bits, delta_l_inches, distance_m,
        execution=ExecutionPlan(workers=2, chunk_size=3),
    )
    assert point.bit_errors == bit_errors
    assert point.bits_total == bits_total
    assert point.ber == ber
    assert point.extra["video_snr_db"] == video_snr_db


# -- adaptive Monte-Carlo anchors (PR 8) -------------------------------------
#
# Seed-0 pins for the sequential-stopping path.  Because trial seeds are
# index-keyed, the adaptive trajectory (frames consumed, per-round CI) is
# as deterministic as the fixed-budget pins above — and must stay
# bit-exact across worker counts.  The error-bearing fig13 point runs to
# its cap; the clean fig12 point stops at min_frames via the zero-errors
# rule, anchoring the early exit itself.

ADAPTIVE_MAX_FRAMES = 24
ADAPTIVE_GOLDEN = [
    # (case id, bandwidth_hz, symbol_bits, delta_l_inches, distance_m,
    #  trajectory dict)
    (
        "fig13_7bit_7m_adaptive",
        1e9, 7, 60.0, 7.0,
        {
            "frames": 24, "rounds": 6, "errors": 31, "bits": 1344,
            "ci_low": 0.0162964385354024, "ci_high": 0.03255311894764364,
            "rel_width": 0.7048057572274913, "reason": "cap",
        },
    ),
    (
        "fig12_1GHz_5bit_adaptive",
        1e9, 5, 45.0, 4.0,
        {
            "frames": 4, "rounds": 1, "errors": 0, "bits": 160,
            "ci_low": 0.0, "ci_high": 0.02344619517150518,
            "rel_width": None, "reason": "zero-errors",
        },
    ),
]


def _run_adaptive_point(
    bandwidth_hz, symbol_bits, delta_l_inches, distance_m, execution=None
):
    from repro.sim.adaptive import AdaptiveConfig

    alphabet = CsskAlphabet.design(
        bandwidth_hz=bandwidth_hz,
        decoder=DecoderDesign.from_inches(delta_l_inches),
        symbol_bits=symbol_bits,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )
    config = DownlinkTrialConfig(
        radar_config=XBAND_9GHZ.with_bandwidth(bandwidth_hz),
        alphabet=alphabet,
        distance_m=distance_m,
        num_frames=ADAPTIVE_MAX_FRAMES,
        payload_symbols_per_frame=SYMBOLS_PER_FRAME,
    )
    adaptive = AdaptiveConfig(
        target_rel_width=0.6, min_frames=4,
        max_frames=ADAPTIVE_MAX_FRAMES, batch_frames=4,
    )
    return run_downlink_trials(
        config, rng=SEED, execution=execution, adaptive=adaptive
    )


@pytest.mark.parametrize(
    "case_id, bandwidth_hz, symbol_bits, delta_l_inches, distance_m, trajectory",
    ADAPTIVE_GOLDEN,
    ids=[case[0] for case in ADAPTIVE_GOLDEN],
)
def test_golden_adaptive_trajectory(
    case_id, bandwidth_hz, symbol_bits, delta_l_inches, distance_m, trajectory
):
    point = _run_adaptive_point(
        bandwidth_hz, symbol_bits, delta_l_inches, distance_m
    )
    assert point.extra["adaptive"] == trajectory
    assert point.bit_errors == trajectory["errors"]
    assert point.bits_total == trajectory["bits"]


@pytest.mark.parametrize("workers", [2, 4])
def test_golden_adaptive_worker_matrix(workers):
    """The error-bearing adaptive pin is bit-exact under process pools."""
    case = ADAPTIVE_GOLDEN[0]
    _, bandwidth_hz, symbol_bits, delta_l_inches, distance_m, trajectory = case
    point = _run_adaptive_point(
        bandwidth_hz, symbol_bits, delta_l_inches, distance_m,
        execution=ExecutionPlan(workers=workers, chunk_size=2),
    )
    assert point.extra["adaptive"] == trajectory
    assert point.bit_errors == trajectory["errors"]


def test_golden_adaptive_degenerate_equals_fixed_pin():
    """``target_rel_width=0`` with the cap at the golden budget reproduces
    the fixed fig13_7bit_7m pin exactly (12 frames, 13/672)."""
    from repro.sim.adaptive import AdaptiveConfig

    alphabet = CsskAlphabet.design(
        bandwidth_hz=1e9,
        decoder=DecoderDesign.from_inches(60.0),
        symbol_bits=7,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )
    config = DownlinkTrialConfig(
        radar_config=XBAND_9GHZ.with_bandwidth(1e9),
        alphabet=alphabet,
        distance_m=7.0,
        num_frames=NUM_FRAMES,
        payload_symbols_per_frame=SYMBOLS_PER_FRAME,
    )
    degenerate = AdaptiveConfig(
        target_rel_width=0.0, min_frames=1,
        max_frames=NUM_FRAMES, batch_frames=5,
    )
    point = run_downlink_trials(config, rng=SEED, adaptive=degenerate)
    assert point.bit_errors == 13
    assert point.bits_total == 672
    assert point.ber == 0.019345238095238096
    assert point.extra["adaptive"]["reason"] == "cap"
