"""Store-backed sweeps and engines: incremental resumption, spy-counted.

The counters spied on here are module globals, NOT state on the evaluate
callables — callable-object state is folded into the point fingerprint,
so a counter stored there would make every run look like a new experiment.
"""

import numpy as np
import pytest

from repro.radar.config import XBAND_9GHZ
from repro.sim import executor
from repro.sim.engine import (
    DownlinkTrialConfig,
    run_downlink_trials,
    run_localization_trials,
    run_uplink_snr_measurement,
)
from repro.sim.executor import ExecutionPlan, sweep_results_equal
from repro.sim.sweep import sweep, sweep_grid
from repro.store import ExperimentStore

#: module-global spy counters (see module docstring)
CALLS = {"count": 0}


def counted_double(parameter, stream):
    CALLS["count"] += 1
    return parameter * 2.0


def counted_noisy(parameter, stream):
    CALLS["count"] += 1
    return parameter + stream.normal()


def counted_grid(context, parameter, stream):
    CALLS["count"] += 1
    return context * 10.0 + parameter + stream.normal() * 0.01


@pytest.fixture()
def store(tmp_path):
    return ExperimentStore(tmp_path / "cache")


@pytest.fixture(autouse=True)
def reset_spy():
    CALLS["count"] = 0


class TestSweepResumption:
    def test_cold_then_warm_is_bit_identical_with_zero_calls(self, store):
        params = [1.0, 2.0, 3.0, 4.0]
        cold = sweep("s", params, counted_noisy, rng=7, store=store)
        assert CALLS["count"] == len(params)

        CALLS["count"] = 0
        warm = sweep("s", params, counted_noisy, rng=7, store=store)
        assert CALLS["count"] == 0
        assert sweep_results_equal(warm, cold)
        assert warm.metadata["_execution"]["backend"] == "cache"
        assert warm.metadata["_execution"]["store"]["hits"] == len(params)

    def test_store_matches_uncached_reference(self, tmp_path, monkeypatch):
        """Every dispatch route gives the uncached values and hit split."""
        # workers=2 misses take the pool, however cheap they measure.
        monkeypatch.setattr(executor._costs, "choose", lambda *args: None)
        params = [0.5, 1.5, 2.5, 3.5]
        reference = sweep("s", params, counted_noisy, rng=3)
        cases = [
            ("no store", counted_noisy, None),
            ("unfingerprintable", lambda p, s: p + s.normal(), 0),
            ("cold", counted_noisy, 0),
            ("half-warm", counted_noisy, 2),
            ("warm", counted_noisy, 4),
        ]
        for case, evaluate, hits in cases:
            for workers in (1, 2):
                store = None
                if hits is not None:
                    store = ExperimentStore(tmp_path / f"{case}-{workers}")
                    if hits:
                        sweep("s", params[:hits], counted_noisy, rng=3, store=store)
                result = sweep(
                    "s", params, evaluate, rng=3,
                    execution=ExecutionPlan(workers=workers), store=store,
                )
                where = f"{case}, workers={workers}"
                assert sweep_results_equal(result, reference), where
                execution = result.metadata["_execution"]
                if store is None:
                    assert "store" not in execution, where
                    continue
                assert execution["store"]["hits"] == hits, where
                assert execution["store"]["misses"] == len(params) - hits, where
                fingerprinted = evaluate is counted_noisy
                assert execution["store"]["status"].startswith(
                    "ok" if fingerprinted else "disabled:"
                ), where
                assert store.stats().entries == (len(params) if fingerprinted else 0), where
                if hits == len(params):
                    assert execution["backend"] == "cache", where
                elif workers == 2 and fingerprinted:
                    assert execution["backend"] == "process", where

    def test_single_point_edit_recomputes_exactly_that_point(self, store):
        sweep("s", [1.0, 2.0, 3.0, 4.0], counted_noisy, rng=7, store=store)
        CALLS["count"] = 0

        edited = [1.0, 2.0, 3.5, 4.0]  # one value changed
        result = sweep("s", edited, counted_noisy, rng=7, store=store)
        assert CALLS["count"] == 1
        assert result.metadata["_execution"]["store"]["hits"] == 3
        assert result.metadata["_execution"]["store"]["misses"] == 1

        # Unchanged points keep their cached (bit-identical) values.
        reference = sweep("s", edited, counted_noisy, rng=7)
        assert sweep_results_equal(result, reference)

    def test_appending_points_computes_only_the_new_ones(self, store):
        sweep("s", [1.0, 2.0], counted_noisy, rng=7, store=store)
        CALLS["count"] = 0
        sweep("s", [1.0, 2.0, 3.0, 4.0], counted_noisy, rng=7, store=store)
        assert CALLS["count"] == 2

    def test_seed_change_invalidates_everything(self, store):
        sweep("s", [1.0, 2.0], counted_noisy, rng=7, store=store)
        CALLS["count"] = 0
        sweep("s", [1.0, 2.0], counted_noisy, rng=8, store=store)
        assert CALLS["count"] == 2

    def test_different_evaluate_does_not_collide(self, store):
        sweep("s", [1.0, 2.0], counted_double, rng=7, store=store)
        CALLS["count"] = 0
        result = sweep("s", [1.0, 2.0], counted_noisy, rng=7, store=store)
        assert CALLS["count"] == 2
        reference = sweep("s", [1.0, 2.0], counted_noisy, rng=7)
        assert sweep_results_equal(result, reference)

    def test_lambda_degrades_to_uncached_run(self, store):
        result = sweep("s", [1.0, 2.0], lambda p, s: p * 2, rng=0, store=store)
        assert result.values == [2.0, 4.0]
        assert result.metadata["_execution"]["store"]["status"].startswith("disabled")
        assert store.stats().entries == 0

    def test_process_workers_populate_a_reusable_cache(self, store):
        params = [1.0, 2.0, 3.0]
        parallel = sweep(
            "s", params, counted_noisy, rng=5,
            execution=ExecutionPlan(workers=2), store=store,
        )
        CALLS["count"] = 0
        warm = sweep("s", params, counted_noisy, rng=5, store=store)
        assert CALLS["count"] == 0
        reference = sweep("s", params, counted_noisy, rng=5)
        assert sweep_results_equal(parallel, reference)
        assert sweep_results_equal(warm, reference)


class TestSweepGridResumption:
    def test_grid_cold_then_warm(self, store):
        series = {"one": 1.0, "two": 2.0}
        parameters = [0.1, 0.2]
        cold = sweep_grid(series, parameters, counted_grid, rng=11, store=store)
        assert CALLS["count"] == 4
        CALLS["count"] = 0
        warm = sweep_grid(series, parameters, counted_grid, rng=11, store=store)
        assert CALLS["count"] == 0
        for warm_series, cold_series in zip(warm, cold):
            assert sweep_results_equal(warm_series, cold_series)

    def test_grid_parameter_extension_is_incremental(self, store):
        series = {"one": 1.0, "two": 2.0}
        sweep_grid(series, [0.1, 0.2], counted_grid, rng=11, store=store)
        CALLS["count"] = 0
        sweep_grid(series, [0.1, 0.2, 0.3], counted_grid, rng=11, store=store)
        assert CALLS["count"] == 2  # only the new 0.3 point, per series


class TestEngineStorePaths:
    def test_downlink_trials_cold_warm(self, store, office_scenario):
        config = DownlinkTrialConfig(
            radar_config=XBAND_9GHZ,
            alphabet=office_scenario.alphabet,
            distance_m=1.0,
            num_frames=3,
            payload_symbols_per_frame=4,
        )
        reference = run_downlink_trials(config, rng=0)
        cold = run_downlink_trials(config, rng=0, store=store)
        assert store.session_misses == 1
        warm = run_downlink_trials(config, rng=0, store=store)
        assert store.session_hits == 1
        for point in (cold, warm):
            assert point.ber == reference.ber
            assert point.bits_total == reference.bits_total
            assert point.extra == reference.extra

    def test_uplink_snr_cold_warm(self, store, office_scenario):
        kwargs = dict(
            tag_range_m=1.5, num_chirps=64, num_trials=2, rng=1, store=store
        )
        args = (XBAND_9GHZ, office_scenario.tag.modulator, office_scenario.tag.van_atta)
        reference = run_uplink_snr_measurement(
            *args, **{**kwargs, "store": None}
        )
        cold = run_uplink_snr_measurement(*args, **kwargs)
        warm = run_uplink_snr_measurement(*args, **kwargs)
        assert cold == reference
        assert warm == reference
        assert store.session_hits == 1

    def test_localization_trials_round_trip_arrays(self, store, office_scenario):
        kwargs = dict(
            tag_range_m=2.75,
            varying_slopes=True,
            num_frames=2,
            num_chirps=64,
            rng=3,
        )
        args = (
            XBAND_9GHZ,
            office_scenario.alphabet,
            office_scenario.tag.modulator,
            office_scenario.tag.van_atta,
        )
        reference = run_localization_trials(*args, **kwargs)
        cold = run_localization_trials(*args, **kwargs, store=store)
        warm = run_localization_trials(*args, **kwargs, store=store)
        np.testing.assert_array_equal(cold, reference)
        # The warm path reloads the full error array from the npz sidecar.
        np.testing.assert_array_equal(warm, reference)
        assert store.session_hits == 1

    def test_engine_verify_recomputes_bit_exactly(self, store, office_scenario):
        config = DownlinkTrialConfig(
            radar_config=XBAND_9GHZ,
            alphabet=office_scenario.alphabet,
            distance_m=1.0,
            num_frames=2,
            payload_symbols_per_frame=4,
        )
        run_downlink_trials(config, rng=0, store=store)
        report = store.verify(sample=1)
        assert report.ok()
        assert report.recomputed == 1


class TestSweepProgressEvents:
    """``sweep.progress`` accounting on warm caches (the PR-8 fix).

    Before the fix the reporter counted only dispatched chunks, so a
    half-warm sweep restarted its done/total fraction from zero and the
    stream never reached ``total``.  Hits now pre-fill ``done`` and the
    events carry explicit ``dispatched``/``cached`` fields.
    """

    def _progress_events(self, stream, *, total):
        import json

        return [
            record
            for record in map(json.loads, stream.getvalue().splitlines())
            if record.get("event") == "sweep.progress"
            and record.get("total") == total
        ]

    def test_half_warm_sweep_folds_hits_into_done(self, store):
        import io

        from repro import obs
        from repro.sim.executor import ExecutionPlan

        sweep("s", [1.0, 2.0], counted_noisy, rng=7, store=store)
        stream = io.StringIO()
        obs.configure(log_format="json", stream=stream, export_env=False)
        try:
            sweep(
                "s", [1.0, 2.0, 3.0, 4.0], counted_noisy, rng=7,
                store=store, execution=ExecutionPlan(chunk_size=1),
            )
        finally:
            obs.reset()
        events = self._progress_events(stream, total=4)
        # Two misses, chunk_size=1: done climbs from the 2 cached points
        # straight to the full total — never restarting at zero.
        assert [event["done"] for event in events] == [3, 4]
        assert all(event["dispatched"] == 2 for event in events)
        assert all(event["cached"] == 2 for event in events)
        assert events[-1]["done"] == events[-1]["total"]

    def test_cold_sweep_reports_zero_cached(self, store):
        import io

        from repro import obs
        from repro.sim.executor import ExecutionPlan

        stream = io.StringIO()
        obs.configure(log_format="json", stream=stream, export_env=False)
        try:
            sweep(
                "s", [1.0, 2.0, 3.0], counted_noisy, rng=9,
                store=store, execution=ExecutionPlan(chunk_size=1),
            )
        finally:
            obs.reset()
        events = self._progress_events(stream, total=3)
        assert [event["done"] for event in events] == [1, 2, 3]
        assert all(event["cached"] == 0 for event in events)
        assert all(event["dispatched"] == 3 for event in events)

