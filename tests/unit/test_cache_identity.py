"""Cache-identity pins: store and manifest fingerprints must never move.

A cache written by an earlier version of the engine must keep producing
hits after any refactor of how the engine computes.  The hex digests
below were generated once and are compared verbatim, so a change to a
config dataclass, to the work-unit layout or to the CLI's argument set
that would silently orphan existing cache entries fails here first.
"""

import dataclasses
import io
import pickle

import pytest

from repro.cli import main
from repro.core.cssk import CsskAlphabet, DecoderDesign
from repro.impair.spec import ImpairmentSpec
from repro.obs import manifest
from repro.radar.config import XBAND_9GHZ
from repro.sim.adaptive import AdaptiveConfig
from repro.sim.engine import DownlinkTrialConfig, downlink_trials_work_unit
from repro.store import ExperimentStore, ReplayRecipe
from repro.store.fingerprint import fingerprint
from repro.utils.rng import SeedSpec

FIXED_FINGERPRINT = "61602f1f8d66d0f499da8ee60eed2cf7096187bbe468e6dda4a42155b172c6a8"
ADAPTIVE_FINGERPRINT = "fee59caebae2b987ff7d68f052df6977f4a73c0a85e0297b614ce17150417007"
BER_CLI_CONFIG_FINGERPRINT = "ce8b0a3aa874abe1ad0c8e3e6498d22af262947a5c30a7581412161c58017844"


def _config(**overrides) -> DownlinkTrialConfig:
    alphabet = CsskAlphabet.design(
        bandwidth_hz=1e9,
        decoder=DecoderDesign.from_inches(45.0),
        symbol_bits=5,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )
    return DownlinkTrialConfig(
        radar_config=XBAND_9GHZ.with_bandwidth(1e9),
        alphabet=alphabet,
        distance_m=6.5,
        num_frames=60,
        **overrides,
    )


def test_fixed_downlink_work_unit_fingerprint():
    kind, unit = downlink_trials_work_unit(_config(), SeedSpec.from_rng(0))
    assert fingerprint(kind, unit) == FIXED_FINGERPRINT


def test_adaptive_full_sync_impaired_work_unit_fingerprint():
    config = _config(
        full_sync=True,
        impairments=ImpairmentSpec.parse("interference:0.5,impulse:0.5"),
    )
    adaptive = AdaptiveConfig(
        target_rel_width=0.5, min_frames=10, max_frames=60, batch_frames=10
    )
    kind, unit = downlink_trials_work_unit(config, SeedSpec.from_rng(0), adaptive)
    assert fingerprint(kind, unit) == ADAPTIVE_FINGERPRINT


def test_ber_cli_manifest_config_fingerprint(tmp_path):
    ledger = tmp_path / "ledger"
    argv = ["ber", "--frames", "60", "--seed", "0", "--workers", "2",
            "--manifest-dir", str(ledger)]
    assert main(argv, out=io.StringIO()) == 0
    [run_id] = manifest.list_runs(ledger)
    data = manifest.load(ledger, run_id)
    assert data["config_fingerprint"] == BER_CLI_CONFIG_FINGERPRINT


# -- every engine kind: fingerprints and replay recipes ----------------------
#
# Each form below runs cold through its public engine entry point into a
# fresh store, so the pin covers the work unit the engine actually builds
# (not a copy of it).  The sizes are the smallest each engine accepts.

UPLINK_FINGERPRINT = "4268b043641ae5fa8720ec665c3934b558dbac7fe85cd1b2b8327cc46c6bc5c7"
LOCALIZATION_FIXED_FINGERPRINT = "2b4d8b1aff03f1dc348a478277479d3523104e2ce58733f6dcdeb710094e1597"
LOCALIZATION_VARYING_FINGERPRINT = "346f06eaef6eca23b51d36549e3e09ce359e76f9c44a6acb0d86dbed09057e15"
ROBUSTNESS_FIXED_FINGERPRINT = "d8179f4b3277870cbe4db6e4f18f615cdc39c14257151e813b6b06103bda433f"
ROBUSTNESS_ADAPTIVE_FINGERPRINT = "a324beb1f037be3ab0f9dcec6254666146ace0cc95c9193c2e1d668664632c47"


def _scenario():
    from repro.sim.scenario import default_office_scenario

    return default_office_scenario(tag_range_m=2.0)


def _robustness_config():
    from repro.sim.robustness import RobustnessConfig

    return RobustnessConfig(
        scenario=_scenario(),
        impairments=ImpairmentSpec.parse("interference:0.6,loss:0.4"),
        severities=(0.5,),
        num_frames=2,
    )


_TINY_ADAPTIVE = AdaptiveConfig(
    target_rel_width=0.5, min_frames=1, max_frames=2, batch_frames=1
)


def _small_downlink():
    return dataclasses.replace(_config(), num_frames=2, payload_symbols_per_frame=2)


def _form(name):
    """``(run(store), replay entry, replay payload tuple)`` for one form."""
    from repro.sim.engine import (
        run_downlink_trials,
        run_localization_trials,
        run_uplink_snr_measurement,
    )
    from repro.sim.robustness import run_robustness_point

    spec = SeedSpec.from_rng(0)
    if name in ("downlink", "downlink-adaptive"):
        config = _small_downlink()
        adaptive = _TINY_ADAPTIVE if name == "downlink-adaptive" else None
        entry = "repro.sim.engine:_replay_downlink_trials" + (
            "_adaptive" if adaptive is not None else ""
        )
        payload = (config, spec) if adaptive is None else (config, spec, adaptive)
        return (
            lambda store: run_downlink_trials(
                config, rng=0, store=store, adaptive=adaptive
            ),
            entry,
            payload,
        )
    scenario = _scenario()
    radar = XBAND_9GHZ
    modulator = scenario.tag.modulator
    van_atta = scenario.tag.van_atta
    if name == "uplink":
        return (
            lambda store: run_uplink_snr_measurement(
                radar, modulator, van_atta, tag_range_m=2.0, num_chirps=64,
                clutter=scenario.clutter, rng=0, num_trials=1, store=store,
            ),
            "repro.sim.engine:_replay_uplink_snr",
            (radar, modulator, van_atta, 2.0, 64, 80e-6, scenario.clutter, 1, spec),
        )
    if name in ("localization-fixed", "localization-varying"):
        varying = name == "localization-varying"
        return (
            lambda store: run_localization_trials(
                radar, scenario.alphabet, modulator, van_atta, tag_range_m=2.0,
                varying_slopes=varying, num_frames=1, num_chirps=64,
                clutter=scenario.clutter, rng=0, store=store,
            ),
            "repro.sim.engine:_replay_localization",
            (radar, scenario.alphabet, modulator, van_atta, 2.0, varying, 1, 64,
             scenario.clutter, spec),
        )
    config = _robustness_config()
    adaptive = _TINY_ADAPTIVE if name == "robustness-adaptive" else None
    entry = "repro.sim.robustness:_replay_robustness_point" + (
        "_adaptive" if adaptive is not None else ""
    )
    payload = (config, 0.5, spec) if adaptive is None else (config, 0.5, spec, adaptive)
    return (
        lambda store: run_robustness_point(
            config, 0.5, spec, store=store, adaptive=adaptive
        ),
        entry,
        payload,
    )


@pytest.mark.parametrize(
    "name, expected",
    [
        ("uplink", UPLINK_FINGERPRINT),
        ("localization-fixed", LOCALIZATION_FIXED_FINGERPRINT),
        ("localization-varying", LOCALIZATION_VARYING_FINGERPRINT),
        ("robustness-fixed", ROBUSTNESS_FIXED_FINGERPRINT),
        ("robustness-adaptive", ROBUSTNESS_ADAPTIVE_FINGERPRINT),
    ],
)
def test_engine_store_fingerprint(tmp_path, name, expected):
    run, _entry, _payload = _form(name)
    store = ExperimentStore(tmp_path / "cache")
    run(store)
    assert store.fingerprints() == [expected]


@pytest.mark.parametrize(
    "name",
    ["downlink", "downlink-adaptive", "uplink", "localization-fixed",
     "robustness-fixed", "robustness-adaptive"],
)
def test_replay_entry_and_payload_verify(tmp_path, name):
    """Today's entry strings and payload tuples keep replaying bit-exactly.

    The engine's cold record supplies the stored payload; the recipe is
    rebuilt here from the literal entry string and payload tuple, so a
    cache written before a refactor of the engines still verifies after
    it.
    """
    run, entry, replay_payload = _form(name)
    written = ExperimentStore(tmp_path / "written")
    run(written)
    [fp] = written.fingerprints()
    record = written.get(fp)
    assert record["replay"]["entry"] == entry
    assert pickle.dumps(ReplayRecipe.decode(record["replay"]).payload) == pickle.dumps(
        replay_payload
    )

    store = ExperimentStore(tmp_path / "literal")
    store.put(
        fp, record["kind"], record["payload"],
        replay=ReplayRecipe(entry=entry, payload=replay_payload),
    )
    report = store.verify(sample=8)
    assert report.recomputed == 1
    assert report.mismatched == []
