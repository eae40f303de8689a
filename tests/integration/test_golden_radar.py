"""Golden regression pins for the radar-side chain (Fig. 15 / Fig. 16).

The sensing results run receive -> IF correction -> signature detection
-> zoom-DFT refinement.  Each case pins the exact seed-0 outcome of one
stage of that chain at a reduced size, so any change to the arithmetic
(or to the order in which the receiver draws from its generator) flips
a pin:

* ``run_localization_trials`` per-frame error arrays, fixed and varying
  slopes at two distances, as the ``canonicalize`` digest the store uses;
* ``run_uplink_snr_measurement`` at two distances, as exact float hex;
* one ``receive_frame_multi_rx`` call (moving scatterer, two RX
  elements, phase noise on, zero-amplitude chirps, a scatterer beyond
  the IF Nyquist frequency on the short chirps): a digest of every
  sample plus the generator state after the call, because callers keep
  drawing from the same generator.

If a pin moves, either a bug crept into the radar chain or a deliberate
physics/DSP change needs the goldens re-baselined in the same commit.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.channel.multipath import Clutter
from repro.components.van_atta import VanAttaArray
from repro.core.cssk import CsskAlphabet, DecoderDesign
from repro.radar.config import XBAND_9GHZ
from repro.radar.fmcw import FMCWRadar, Scatterer
from repro.sim.engine import run_localization_trials, run_uplink_snr_measurement
from repro.store.fingerprint import canonicalize
from repro.tag.modulator import UplinkModulator
from repro.waveform.frame import FrameSchedule
from repro.waveform.parameters import ChirpParameters

NUM_CHIRPS = 48
NUM_FRAMES = 2
NUM_TRIALS = 2
SEED = 0

# (tag range m, varying slopes, sha256 of the error array, errors as hex)
GOLDEN_LOCALIZATION = [
    (
        1.037, False,
        "d178cb18379f345e6b38a4264b66f99eea8f2e1cb684e59c674127229087845e",
        ("0x1.dd490ff8a0000p-16", "0x1.976a691030000p-16"),
    ),
    (
        1.037, True,
        "7fdcdaba1e3d59529b1f109e4f4e11f541d10dd2ec29f4aba8b4dcd5bdf6c766",
        ("0x1.af0d91dc80000p-18", "0x1.28ab26b178000p-15"),
    ),
    (
        5.037, False,
        "4b30e3e2162e9b30c9183494f8f83bcfbb5573736cde450e541fceb22813bd8a",
        ("0x1.4293c8cf70000p-14", "0x1.fb79f06420000p-15"),
    ),
    (
        5.037, True,
        "65f56a1db8c4f2681a9aebc48dc7d522757cdfa796fc0762bb901005d6bc6407",
        ("0x1.7933eb7152400p-7", "0x1.1c94fa4f42000p-11"),
    ),
]

# (tag range m, median uplink SNR dB as hex)
GOLDEN_UPLINK = [
    (3.0, "0x1.445a5c50cb007p+4"),
    (7.0, "0x1.442236106d021p+4"),
]

GOLDEN_RECEIVE_SHA256 = "0c0eb97447437f79148a908a80852613be9ceec65f92c7de406d7311518df16a"
GOLDEN_RECEIVE_STATE = {
    "bit_generator": "PCG64",
    "state": {
        "state": 8289351815185152043283888463880800787,
        "inc": 107381791681050441119675421997145146149,
    },
    "has_uint32": 0,
    "uinteger": 0,
}


@pytest.fixture(scope="module")
def setup():
    alphabet = CsskAlphabet.design(
        bandwidth_hz=1e9,
        decoder=DecoderDesign.from_inches(45.0),
        symbol_bits=5,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )
    modulator = UplinkModulator(
        modulation_rate_hz=2000.0, chirp_period_s=120e-6, chirps_per_bit=NUM_CHIRPS
    )
    return alphabet, modulator, VanAttaArray(), Clutter.office(rng=0)


@pytest.mark.parametrize(
    "tag_range_m, varying, sha256, errors_hex",
    GOLDEN_LOCALIZATION,
    ids=[f"{r}m-{'varying' if v else 'fixed'}" for r, v, _, _ in GOLDEN_LOCALIZATION],
)
def test_golden_localization(setup, tag_range_m, varying, sha256, errors_hex):
    alphabet, modulator, van_atta, clutter = setup
    errors = run_localization_trials(
        XBAND_9GHZ, alphabet, modulator, van_atta,
        tag_range_m=tag_range_m, varying_slopes=varying, num_frames=NUM_FRAMES,
        num_chirps=NUM_CHIRPS, clutter=clutter, rng=SEED,
    )
    assert tuple(float(e).hex() for e in errors) == errors_hex
    assert canonicalize(errors)["sha256"] == sha256


@pytest.mark.parametrize("tag_range_m, snr_hex", GOLDEN_UPLINK)
def test_golden_uplink_snr(setup, tag_range_m, snr_hex):
    _alphabet, modulator, van_atta, clutter = setup
    snr_db = run_uplink_snr_measurement(
        XBAND_9GHZ, modulator, van_atta,
        tag_range_m=tag_range_m, num_chirps=NUM_CHIRPS, clutter=clutter,
        rng=SEED, num_trials=NUM_TRIALS,
    )
    assert float(snr_db).hex() == snr_hex


def golden_receive_scene():
    """Mixed-slope frame exercising every branch of the receiver.

    The tag switches off on some chirps (zero amplitude: skipped, no
    draws), one reflector moves, one has no gain jitter, and the 20 m
    reflector's beat exceeds the IF Nyquist frequency on the 40 us
    chirps only (skipped there, received on the longer chirps).
    """
    config = replace(XBAND_9GHZ, phase_noise_linewidth_hz=2e3)
    durations = [40e-6, 40e-6, 80e-6, 40e-6, 60e-6, 80e-6, 40e-6, 60e-6]
    chirps = [
        ChirpParameters(
            start_frequency_hz=config.start_frequency_hz,
            bandwidth_hz=1e9,
            duration_s=duration,
        )
        for duration in durations
    ]
    frame = FrameSchedule.from_chirps(chirps, 120e-6)
    scatterers = [
        Scatterer(
            range_m=3.0,
            rcs_m2=0.01,
            amplitude_schedule=np.array([1, 0, 1, 0.5, 0, 1, 1, 0.5]),
        ),
        Scatterer(range_m=4.5, rcs_m2=1.0, velocity_m_s=25.0, angle_deg=20.0),
        Scatterer(range_m=7.2, rcs_m2=2.0, angle_deg=-30.0, gain_jitter_std=0.0),
        Scatterer(range_m=20.0, rcs_m2=5.0, angle_deg=5.0),
    ]
    return config, frame, scatterers


def test_golden_receive_frame_samples_and_generator_state():
    config, frame, scatterers = golden_receive_scene()
    generator = np.random.default_rng(1234)
    frames = FMCWRadar(config).receive_frame_multi_rx(
        frame, scatterers, rx_offsets_wavelengths=[0.0, 0.5], rng=generator
    )
    digest = hashlib.sha256()
    for if_frame in frames:
        for samples in if_frame.chirp_samples:
            digest.update(samples.tobytes())
    assert digest.hexdigest() == GOLDEN_RECEIVE_SHA256
    assert generator.bit_generator.state == GOLDEN_RECEIVE_STATE
