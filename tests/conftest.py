"""Shared fixtures: small, fast configurations reused across the suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.channel.link_budget import DownlinkBudget
from repro.core.cssk import CsskAlphabet, DecoderDesign
from repro.core.packet import PacketFields
from repro.radar.config import XBAND_9GHZ, TINYRAD_24GHZ
from repro.sim.scenario import default_office_scenario


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Restore observability state after any test that enables it.

    A test (or the CLI under test) may call ``obs.configure``, which also
    exports config into ``os.environ``.  After the test, drop everything
    and re-apply whatever the *session's* environment originally asked
    for — so running the suite under ``REPRO_LOG=json`` (the CI
    obs-enabled determinism job) keeps observability on throughout.
    """
    from repro.obs import runtime

    env_names = (
        runtime.LOG_ENV, runtime.LOG_FILE_ENV,
        runtime.TRACE_DIR_ENV, runtime.RUN_ID_ENV,
    )
    backup = {name: os.environ.get(name) for name in env_names}
    yield
    runtime.reset()
    for name, value in backup.items():
        if value is not None:
            os.environ[name] = value
    runtime.configure_from_env()


@pytest.fixture(autouse=True)
def _fresh_cost_model():
    """Start every test with no executor cost estimates.

    The executor learns per-process costs and then runs cheap
    ``workers > 1`` maps in-process.  A fresh model sends each test's
    first map of a chunk function to the pool, so fault tests keep their
    crash isolation whatever ran before them.
    """
    from repro.sim import executor

    executor._costs.reset()
    yield


@pytest.fixture(scope="session")
def fresh_python():
    """``run(*args) -> stdout`` of a new interpreter on this checkout's ``src``.

    The child gets no ``REPRO_*`` variables, so what it imports does not
    depend on the telemetry settings the suite runs under.
    """
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def run(*args: str) -> str:
        done = subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture(scope="session")
def decoder_design() -> DecoderDesign:
    """The paper's 45-inch delay-line difference."""
    return DecoderDesign.from_inches(45.0)


@pytest.fixture(scope="session")
def alphabet(decoder_design) -> CsskAlphabet:
    """Paper-default alphabet: 5-bit symbols, 1 GHz, 120 us period."""
    return CsskAlphabet.design(
        bandwidth_hz=1.0e9,
        decoder=decoder_design,
        symbol_bits=5,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )


@pytest.fixture(scope="session")
def small_alphabet(decoder_design) -> CsskAlphabet:
    """2-bit alphabet for fast end-to-end tests."""
    return CsskAlphabet.design(
        bandwidth_hz=1.0e9,
        decoder=decoder_design,
        symbol_bits=2,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )


@pytest.fixture(scope="session")
def budget() -> DownlinkBudget:
    """Default 9 GHz downlink budget."""
    return DownlinkBudget(
        tx_power_dbm=XBAND_9GHZ.tx_power_dbm,
        radar_antenna=XBAND_9GHZ.antenna,
        frequency_hz=XBAND_9GHZ.center_frequency_hz,
    )


@pytest.fixture(scope="session")
def fields() -> PacketFields:
    """Default packet preamble sizing."""
    return PacketFields()


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def office_scenario():
    """One shared paper-default scenario (read-only in tests)."""
    return default_office_scenario(tag_range_m=3.0)


@pytest.fixture(scope="session")
def xband():
    return XBAND_9GHZ


@pytest.fixture(scope="session")
def tinyrad():
    return TINYRAD_24GHZ
