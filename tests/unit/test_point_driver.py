"""The engine driver's validation: bad points fail before the store is touched."""

import dataclasses

import pytest

from repro.core.cssk import CsskAlphabet, DecoderDesign
from repro.errors import ConfigurationError, SimulationError
from repro.impair.spec import ImpairmentSpec
from repro.radar.config import XBAND_9GHZ
from repro.sim.engine import (
    DownlinkTrialConfig,
    run_downlink_trials,
    run_localization_trials,
    run_uplink_snr_measurement,
)
from repro.sim.robustness import RobustnessConfig, run_robustness_point
from repro.sim.scenario import default_office_scenario
from repro.store import ExperimentStore
from repro.utils.rng import SeedSpec


@pytest.fixture(scope="module")
def scenario():
    return default_office_scenario(tag_range_m=2.0)


def _robustness_config(scenario, **overrides):
    config = RobustnessConfig(
        scenario=scenario,
        impairments=ImpairmentSpec.parse("interference:0.6"),
        severities=(0.5,),
        num_frames=2,
    )
    return dataclasses.replace(config, **overrides)


def _zero_trial_run(name, scenario, store):
    if name == "downlink":
        alphabet = CsskAlphabet.design(
            bandwidth_hz=1e9,
            decoder=DecoderDesign.from_inches(45.0),
            symbol_bits=3,
            chirp_period_s=120e-6,
            min_chirp_duration_s=20e-6,
        )
        config = DownlinkTrialConfig(
            radar_config=XBAND_9GHZ, alphabet=alphabet, num_frames=0
        )
        return run_downlink_trials(config, store=store)
    tag = scenario.tag
    if name == "uplink":
        return run_uplink_snr_measurement(
            XBAND_9GHZ, tag.modulator, tag.van_atta, tag_range_m=2.0,
            num_trials=0, store=store,
        )
    if name == "localization":
        return run_localization_trials(
            XBAND_9GHZ, scenario.alphabet, tag.modulator, tag.van_atta,
            tag_range_m=2.0, varying_slopes=False, num_frames=0, store=store,
        )
    config = _robustness_config(scenario, num_frames=0)
    return run_robustness_point(config, 0.5, SeedSpec.from_rng(0), store=store)


@pytest.mark.parametrize("name", ["downlink", "uplink", "localization", "robustness"])
def test_zero_trial_point_is_rejected_and_never_stored(tmp_path, scenario, name):
    store = ExperimentStore(tmp_path / "cache")
    with pytest.raises(SimulationError):
        _zero_trial_run(name, scenario, store)
    assert store.fingerprints() == []
    assert store.session_hits == store.session_misses == 0


def test_adaptive_rule_on_a_fixed_budget_workload_is_rejected(tmp_path, scenario):
    from repro.sim.adaptive import AdaptiveConfig
    from repro.sim.engine import UPLINK, run_point

    store = ExperimentStore(tmp_path / "cache")
    tag = scenario.tag
    point = (
        XBAND_9GHZ, tag.modulator, tag.van_atta, 2.0, 24, 40e-6, None, 2,
        SeedSpec.from_rng(0),
    )
    with pytest.raises(SimulationError, match="no adaptive form"):
        run_point(UPLINK, point, adaptive=AdaptiveConfig(), store=store)
    assert store.fingerprints() == []


@pytest.mark.parametrize(
    "overrides, severity, error",
    [
        ({}, 1.5, SimulationError),
        ({}, -0.1, SimulationError),
        ({"downlink_bits": 0}, 0.5, ConfigurationError),
        ({"uplink_bits": 0}, 0.5, ConfigurationError),
    ],
)
def test_robustness_point_enforces_the_ladder_checks(
    tmp_path, scenario, overrides, severity, error
):
    store = ExperimentStore(tmp_path / "cache")
    config = _robustness_config(scenario, **overrides)
    with pytest.raises(error):
        run_robustness_point(config, severity, SeedSpec.from_rng(0), store=store)
    assert store.fingerprints() == []


@pytest.mark.parametrize(
    "job",
    [
        {"kind": "ber", "impair": "bogus:0.5"},
        {"kind": "ber", "frames": 0},
        {"kind": "robustness", "uplink_bits": 0},
    ],
)
def test_serve_wraps_the_point_plans_domain_errors(job):
    from repro.errors import ServeError
    from repro.serve.protocol import parse_job

    with pytest.raises(ServeError, match=f"invalid {job['kind']} point"):
        parse_job(job)


def test_serve_rejects_a_null_adaptive_budget():
    from repro.errors import ServeError
    from repro.serve.protocol import parse_job

    with pytest.raises(ServeError, match="invalid adaptive config"):
        parse_job({"kind": "ber", "adaptive": {"min_frames": None}})
