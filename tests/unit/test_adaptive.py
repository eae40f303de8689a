"""Adaptive Monte-Carlo: stopping rule, driver, engine wiring, store keys.

The contracts under test:

* interval helpers are sane (contain the point estimate, shrink with n,
  Clopper-Pearson at least as wide as Wilson);
* the stopping rule is a pure function of the cumulative outcome prefix
  and honors min/max/degenerate modes;
* ``run_adaptive_trials`` is bit-exact across worker counts and chunk
  sizes (trial seeds never depend on the stopping decision);
* a degenerate rule (``target_rel_width=0``) reproduces the fixed-budget
  engine result bit for bit;
* adaptive and fixed configurations fingerprint to *different* store
  keys, and changing ``max_frames`` invalidates only the affected point.
"""

import math

import pytest

from repro.sim.adaptive import (
    AdaptiveConfig,
    binomial_interval,
    clopper_pearson_interval,
    run_adaptive_trials,
    should_stop,
    stop_reason,
    stopping_trials,
    wilson_interval,
)
from repro.sim.executor import ExecutionPlan
from repro.utils.rng import SeedSpec


def _coin_chunk(payload, spec, indices):
    """Synthetic trial: ``bits`` coin flips at error probability ``p``."""
    p, bits = payload
    results = []
    for index in indices:
        stream = spec.stream(index)
        errors = int((stream.random(bits) < p).sum())
        results.append((errors, bits))
    return results


def _counts(result):
    return result


# -- interval helpers --------------------------------------------------------


def test_wilson_contains_point_estimate():
    for errors, total in [(0, 50), (1, 50), (25, 50), (50, 50)]:
        lo, hi = wilson_interval(errors, total)
        assert 0.0 <= lo <= errors / total <= hi <= 1.0


def test_wilson_zero_total_is_vacuous():
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_width_shrinks_with_sample_size():
    widths = []
    for total in (10, 100, 1000):
        lo, hi = wilson_interval(total // 10, total)
        widths.append(hi - lo)
    assert widths[0] > widths[1] > widths[2]


def test_clopper_pearson_at_least_as_wide_as_wilson():
    scipy = pytest.importorskip("scipy")  # noqa: F841 - gate only
    for errors, total in [(0, 40), (2, 40), (20, 40)]:
        w_lo, w_hi = wilson_interval(errors, total)
        c_lo, c_hi = clopper_pearson_interval(errors, total)
        assert c_hi - c_lo >= w_hi - w_lo - 1e-12
        assert c_lo <= errors / total <= c_hi


def test_interval_dispatch_and_validation():
    assert binomial_interval(1, 10, method="wilson") == wilson_interval(1, 10)
    with pytest.raises(ValueError):
        binomial_interval(1, 10, method="bogus")
    with pytest.raises(ValueError):
        wilson_interval(5, 3)
    with pytest.raises(ValueError):
        wilson_interval(-1, 3)
    with pytest.raises(ValueError):
        wilson_interval(1, 10, confidence=1.0)


def test_higher_confidence_widens_the_interval():
    lo95, hi95 = wilson_interval(5, 100, confidence=0.95)
    lo99, hi99 = wilson_interval(5, 100, confidence=0.99)
    assert hi99 - lo99 > hi95 - lo95


# -- AdaptiveConfig ----------------------------------------------------------


def test_adaptive_config_validation():
    AdaptiveConfig()  # defaults are valid
    with pytest.raises(ValueError):
        AdaptiveConfig(target_rel_width=-0.1)
    with pytest.raises(ValueError):
        AdaptiveConfig(min_frames=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(min_frames=10, max_frames=5)
    with pytest.raises(ValueError):
        AdaptiveConfig(batch_frames=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(confidence=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(method="gaussian")


# -- stopping rule -----------------------------------------------------------


def test_never_stops_before_min_frames():
    config = AdaptiveConfig(
        target_rel_width=10.0, min_frames=8, max_frames=100, batch_frames=2
    )
    assert not should_stop(0, 20, 4, config)
    assert not should_stop(3, 20, 6, config)


def test_always_stops_at_max_frames():
    config = AdaptiveConfig(
        target_rel_width=0.0, min_frames=1, max_frames=12, batch_frames=5
    )
    assert should_stop(3, 120, 12, config)
    assert stop_reason(3, 120, 12, config) == "cap"


def test_degenerate_width_never_stops_early():
    config = AdaptiveConfig(
        target_rel_width=0.0, min_frames=1, max_frames=50, batch_frames=5
    )
    for trials in (5, 10, 45):
        assert not should_stop(0, trials * 10, trials, config)
        assert not should_stop(trials, trials * 10, trials, config)


def test_zero_errors_stops_at_min_frames():
    config = AdaptiveConfig(
        target_rel_width=0.25, min_frames=10, max_frames=1000, batch_frames=10
    )
    assert should_stop(0, 100, 10, config)
    assert stop_reason(0, 100, 10, config) == "zero-errors"


def test_ci_met_stops_and_names_the_reason():
    config = AdaptiveConfig(
        target_rel_width=5.0, min_frames=4, max_frames=1000, batch_frames=4
    )
    # Huge relative target: any non-degenerate interval around a chunky
    # error count satisfies it.
    assert should_stop(40, 100, 10, config)
    assert stop_reason(40, 100, 10, config) == "ci-met"


def test_stopping_trials_round_boundaries():
    config = AdaptiveConfig(
        target_rel_width=0.25, min_frames=10, max_frames=100, batch_frames=10
    )
    # Zero errors everywhere: stops at the first round boundary >= min.
    assert stopping_trials([(0, 10)] * 100, config) == 10
    # Degenerate: runs the full cap.
    degenerate = AdaptiveConfig(
        target_rel_width=0.0, min_frames=10, max_frames=100, batch_frames=10
    )
    assert stopping_trials([(1, 10)] * 100, degenerate) == 100
    # Cap not a multiple of batch: last round truncates.
    truncated = AdaptiveConfig(
        target_rel_width=0.0, min_frames=1, max_frames=7, batch_frames=3
    )
    assert stopping_trials([(1, 10)] * 50, truncated) == 7


# -- driver ------------------------------------------------------------------


def test_driver_matches_pure_stopping_function():
    config = AdaptiveConfig(
        target_rel_width=1.0, min_frames=4, max_frames=40, batch_frames=4
    )
    spec = SeedSpec.from_rng(0)
    outcome = run_adaptive_trials(
        _coin_chunk, (0.2, 10), config, spec, None, counts=_counts
    )
    # Feed the same per-trial outcomes (extended to the cap) through the
    # pure simulator: the driver must have stopped at the same count.
    full = _coin_chunk((0.2, 10), spec, range(config.max_frames))
    assert stopping_trials(full, config) == outcome.frames
    assert outcome.per_trial == full[: outcome.frames]
    assert outcome.errors == sum(e for e, _ in outcome.per_trial)
    assert outcome.bits == sum(b for _, b in outcome.per_trial)
    assert outcome.ci_low <= outcome.errors / outcome.bits <= outcome.ci_high


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_driver_worker_count_invariance(workers):
    config = AdaptiveConfig(
        target_rel_width=0.8, min_frames=6, max_frames=30, batch_frames=6
    )
    baseline = run_adaptive_trials(
        _coin_chunk, (0.15, 20), config, 0, None, counts=_counts
    )
    plan = ExecutionPlan(workers=workers, chunk_size=2)
    outcome = run_adaptive_trials(
        _coin_chunk, (0.15, 20), config, 0, plan, counts=_counts
    )
    assert outcome.per_trial == baseline.per_trial
    assert outcome.frames == baseline.frames
    assert outcome.rounds == baseline.rounds
    assert outcome.summary() == baseline.summary()


def test_driver_chunk_size_invariance():
    config = AdaptiveConfig(
        target_rel_width=0.8, min_frames=5, max_frames=25, batch_frames=5
    )
    outcomes = [
        run_adaptive_trials(
            _coin_chunk, (0.1, 16), config, 7,
            ExecutionPlan(chunk_size=size), counts=_counts
        )
        for size in (1, 2, 5)
    ]
    assert all(o.per_trial == outcomes[0].per_trial for o in outcomes)
    assert all(o.summary() == outcomes[0].summary() for o in outcomes)


def test_result_summary_shape():
    config = AdaptiveConfig(
        target_rel_width=0.25, min_frames=5, max_frames=20, batch_frames=5
    )
    outcome = run_adaptive_trials(
        _coin_chunk, (0.0, 10), config, 0, None, counts=_counts
    )
    assert outcome.reason == "zero-errors"
    assert outcome.frames == 5 and outcome.rounds == 1
    summary = outcome.summary()
    assert summary["rel_width"] is None  # infinite on a zero estimate
    assert math.isinf(outcome.rel_width)
    assert outcome.ber == 0.0


# -- engine wiring -----------------------------------------------------------


def _ber_setup(num_frames=12):
    from repro.core.cssk import CsskAlphabet, DecoderDesign
    from repro.radar.config import XBAND_9GHZ
    from repro.sim.engine import DownlinkTrialConfig

    alphabet = CsskAlphabet.design(
        bandwidth_hz=1e9,
        decoder=DecoderDesign.from_inches(60.0),
        symbol_bits=7,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )
    return DownlinkTrialConfig(
        radar_config=XBAND_9GHZ.with_bandwidth(1e9),
        alphabet=alphabet,
        distance_m=7.0,
        num_frames=num_frames,
        payload_symbols_per_frame=8,
    )


def test_engine_degenerate_adaptive_equals_fixed_budget():
    from repro.sim.engine import run_downlink_trials

    config = _ber_setup(num_frames=12)
    fixed = run_downlink_trials(config, rng=0)
    degenerate = AdaptiveConfig(
        target_rel_width=0.0, min_frames=1, max_frames=12, batch_frames=5
    )
    point = run_downlink_trials(config, rng=0, adaptive=degenerate)
    assert point.bit_errors == fixed.bit_errors
    assert point.bits_total == fixed.bits_total
    assert point.ber == fixed.ber
    assert point.extra["adaptive"]["frames"] == 12
    assert point.extra["adaptive"]["reason"] == "cap"


def test_engine_adaptive_worker_matrix_bit_exact():
    from repro.sim.engine import run_downlink_trials

    config = _ber_setup(num_frames=24)
    adaptive = AdaptiveConfig(
        target_rel_width=0.6, min_frames=4, max_frames=24, batch_frames=4
    )
    points = [
        run_downlink_trials(
            config, rng=0, adaptive=adaptive,
            execution=ExecutionPlan(workers=workers, chunk_size=2),
        )
        for workers in (1, 2, 4)
    ]
    reference = points[0]
    for point in points[1:]:
        assert point.bit_errors == reference.bit_errors
        assert point.bits_total == reference.bits_total
        assert point.extra["adaptive"] == reference.extra["adaptive"]


def test_engine_adaptive_batched_plan_bit_exact():
    from repro.sim.engine import run_downlink_trials

    config = _ber_setup(num_frames=24)
    adaptive = AdaptiveConfig(
        target_rel_width=0.6, min_frames=4, max_frames=24, batch_frames=4
    )
    # One chunk per round (4-frame batches) vs one chunk per frame.
    batched = run_downlink_trials(config, rng=0, adaptive=adaptive)
    per_frame = run_downlink_trials(
        config, rng=0, adaptive=adaptive,
        execution=ExecutionPlan(chunk_size=1),
    )
    assert batched.bit_errors == per_frame.bit_errors
    assert batched.bits_total == per_frame.bits_total
    assert batched.extra["adaptive"] == per_frame.extra["adaptive"]


# -- store fingerprints ------------------------------------------------------


def test_adaptive_and_fixed_fingerprints_differ():
    from repro.sim.engine import downlink_trials_work_unit
    from repro.store.fingerprint import fingerprint

    config = _ber_setup()
    spec = SeedSpec.from_rng(0)
    adaptive = AdaptiveConfig(
        target_rel_width=0.25, min_frames=5, max_frames=12, batch_frames=5
    )
    fixed_kind, fixed_unit = downlink_trials_work_unit(config, spec)
    adaptive_kind, adaptive_unit = downlink_trials_work_unit(config, spec, adaptive)
    assert fixed_kind == "downlink-trials"
    assert adaptive_kind == "downlink-trials-adaptive"
    assert fingerprint(fixed_kind, fixed_unit) != fingerprint(
        adaptive_kind, adaptive_unit
    )
    # Different stopping rules are different work.
    other = AdaptiveConfig(
        target_rel_width=0.25, min_frames=5, max_frames=24, batch_frames=5
    )
    _, other_unit = downlink_trials_work_unit(config, spec, other)
    assert fingerprint(adaptive_kind, adaptive_unit) != fingerprint(
        adaptive_kind, other_unit
    )


def test_robustness_adaptive_work_unit_key_only_when_set():
    from repro.impair import ImpairmentSpec
    from repro.sim.robustness import RobustnessConfig, robustness_point_work_unit
    from repro.sim.scenario import default_office_scenario

    config = RobustnessConfig(
        scenario=default_office_scenario(tag_range_m=3.0),
        impairments=ImpairmentSpec.parse("drift:0.5"),
        num_frames=4,
    )
    spec = SeedSpec.from_rng(0)
    fixed_unit = robustness_point_work_unit(config, 0.5, spec)
    assert "adaptive" not in fixed_unit  # pre-PR fingerprints unchanged
    adaptive = AdaptiveConfig(
        target_rel_width=0.5, min_frames=2, max_frames=8, batch_frames=2
    )
    adaptive_unit = robustness_point_work_unit(config, 0.5, spec, adaptive)
    assert adaptive_unit["adaptive"] == adaptive


def test_warm_store_changed_max_frames_recomputes_only_affected_point(tmp_path):
    from repro.sim.engine import run_downlink_trials
    from repro.store import ExperimentStore

    store = ExperimentStore(tmp_path / "cache")
    config_a = _ber_setup()
    config_b = _ber_setup()
    config_b.distance_m = 4.0
    adaptive = AdaptiveConfig(
        target_rel_width=0.6, min_frames=4, max_frames=12, batch_frames=4
    )
    first_a = run_downlink_trials(config_a, rng=0, store=store, adaptive=adaptive)
    first_b = run_downlink_trials(config_b, rng=0, store=store, adaptive=adaptive)
    assert store.session_misses == 2 and store.session_hits == 0

    # Warm: both points hit.
    again_a = run_downlink_trials(config_a, rng=0, store=store, adaptive=adaptive)
    again_b = run_downlink_trials(config_b, rng=0, store=store, adaptive=adaptive)
    assert store.session_hits == 2
    assert (again_a.ber, again_a.extra) == (first_a.ber, first_a.extra)
    assert (again_b.ber, again_b.extra) == (first_b.ber, first_b.extra)

    # A changed cap is a different work unit for point A only.
    wider = AdaptiveConfig(
        target_rel_width=0.6, min_frames=4, max_frames=24, batch_frames=4
    )
    run_downlink_trials(config_a, rng=0, store=store, adaptive=wider)
    assert store.session_misses == 3  # recomputed A under the new rule
    run_downlink_trials(config_b, rng=0, store=store, adaptive=adaptive)
    assert store.session_hits == 3  # B still hits its original entry


def test_adaptive_store_roundtrip_replays(tmp_path):
    from repro.sim.engine import run_downlink_trials
    from repro.store import ExperimentStore

    store = ExperimentStore(tmp_path / "cache")
    config = _ber_setup()
    adaptive = AdaptiveConfig(
        target_rel_width=0.6, min_frames=4, max_frames=12, batch_frames=4
    )
    run_downlink_trials(config, rng=0, store=store, adaptive=adaptive)
    report = store.verify(sample=4, rng=0)
    assert report.ok()
    assert report.recomputed >= 1 and not report.mismatched
