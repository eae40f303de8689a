"""Cache-identity pins: store and manifest fingerprints must never move.

A cache written by an earlier version of the engine must keep producing
hits after any refactor of how the engine computes.  The hex digests
below were generated once and are compared verbatim, so a change to a
config dataclass, to the work-unit layout or to the CLI's argument set
that would silently orphan existing cache entries fails here first.
"""

import io

from repro.cli import main
from repro.core.cssk import CsskAlphabet, DecoderDesign
from repro.impair.spec import ImpairmentSpec
from repro.obs import manifest
from repro.radar.config import XBAND_9GHZ
from repro.sim.adaptive import AdaptiveConfig
from repro.sim.engine import DownlinkTrialConfig, downlink_trials_work_unit
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
