"""Golden regression pin for the seed-0 degradation curve.

The robustness harness promises two things worth anchoring bit-exactly:
impairment injection is deterministic (per-frame index-keyed streams, so
any worker count reproduces the same faults), and degradation is graceful
(max severity fills the curve with erasures instead of crashing).  This
pins the exact seed-0 curve of the CLI's default fault bundle at a reduced
frame count — small enough for tier-1, sensitive enough that any change to
impairment RNG consumption order, session erasure handling, or sweep
seeding flips a pin.

If a pin moves, either injection determinism broke or an intentional
impairment-model change needs this golden re-baselined in the same commit.
"""

import pytest

from repro.impair import ImpairmentSpec
from repro.sim.executor import ExecutionPlan
from repro.sim.robustness import RobustnessConfig, run_robustness_sweep
from repro.sim.scenario import default_office_scenario

SEED = 0
NUM_FRAMES = 4
SEVERITIES = (0.0, 0.5, 1.0)
IMPAIR = "interference:0.6,drift:0.4,clip:0.5,loss:0.4,impulse:0.5"

GOLDEN = {
    "severities": [0.0, 0.5, 1.0],
    "downlink_ber": [0.0, 0.075, 0.075],
    "uplink_ber": [0.0, 0.3125, 0.75],
    "erasure_rate": [0.0, 0.25, 0.75],
    "median_ranging_error_m": [
        1.3723870741166877e-05,
        0.014094690750936945,
        0.02651334661372262,
    ],
}


def _run_curve(execution=None):
    config = RobustnessConfig(
        scenario=default_office_scenario(tag_range_m=3.0),
        impairments=ImpairmentSpec.parse(IMPAIR),
        severities=SEVERITIES,
        num_frames=NUM_FRAMES,
    )
    return run_robustness_sweep(config, rng=SEED, execution=execution)


@pytest.fixture(scope="module")
def curve():
    return _run_curve()


class TestGoldenCurve:
    def test_pins_exact(self, curve):
        for name, expected in GOLDEN.items():
            assert getattr(curve, name) == expected, name

    def test_severity_zero_is_clean(self, curve):
        """The curve anchors at the unimpaired baseline."""
        assert curve.downlink_ber[0] == 0.0
        assert curve.uplink_ber[0] == 0.0
        assert curve.erasure_rate[0] == 0.0

    def test_degradation_is_monotone_plausible(self, curve):
        """Every aggregate at max severity is no better than at zero —
        the smoke-level sanity the harness exists to measure."""
        assert curve.downlink_ber[-1] >= curve.downlink_ber[0]
        assert curve.uplink_ber[-1] >= curve.uplink_ber[0]
        assert curve.erasure_rate[-1] >= curve.erasure_rate[0]
        assert (
            curve.median_ranging_error_m[-1] >= curve.median_ranging_error_m[0]
        )

    def test_max_severity_completes_with_erasures(self, curve):
        """Graceful degradation end-to-end: severe faults surface as
        recorded erasures and inflated BER, never as an exception."""
        assert curve.erasure_rate[-1] > 0.0
        assert curve.uplink_ber[-1] > 0.0

    def test_parallel_matches_pins(self):
        pooled = _run_curve(execution=ExecutionPlan(workers=2, chunk_size=1))
        for name, expected in GOLDEN.items():
            assert getattr(pooled, name) == expected, name


class TestGoldenLocalizationRate:
    """Seed-0 pin for the localization success fraction (PR 8)."""

    LOCALIZATION_RATE = [1.0, 0.75, 0.25]

    def test_pins_exact(self, curve):
        assert curve.localization_rate == self.LOCALIZATION_RATE

    def test_parallel_matches_pins(self):
        pooled = _run_curve(execution=ExecutionPlan(workers=2, chunk_size=1))
        assert pooled.localization_rate == self.LOCALIZATION_RATE

    def test_rate_degrades_with_severity(self, curve):
        assert curve.localization_rate[0] == 1.0
        assert (
            curve.localization_rate[-1] <= curve.localization_rate[0]
        )
