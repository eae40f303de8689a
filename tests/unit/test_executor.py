"""Executor determinism contract: parallel == serial, bit for bit.

These tests are the enforcement arm of the parallel execution layer —
every engine entry point and the sweep helpers must return bit-identical
results (payloads and ``extra``/``metadata`` included) for ``workers=1``,
``workers=2``, and ``workers=4`` under a fixed seed, regardless of chunk
size.  Any future engine refactor that breaks chunk-independent seeding
or order-restoring reassembly fails here first.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.radar.config import XBAND_9GHZ
from repro.sim import executor
from repro.sim.engine import (
    DownlinkTrialConfig,
    run_downlink_trials,
    run_localization_trials,
    run_uplink_snr_measurement,
)
from repro.sim.executor import (
    ChunkTiming,
    ExecutionPlan,
    chunk_indices,
    map_trials,
    strip_execution,
    sweep_results_equal,
)
from repro.sim.sweep import sweep, sweep_grid
from repro.utils.rng import SeedSpec

PLANS = [
    ExecutionPlan(workers=1),
    ExecutionPlan(workers=2),
    ExecutionPlan(workers=4),
    ExecutionPlan(workers=2, chunk_size=1),
    ExecutionPlan(workers=4, chunk_size=3),
]


def _echo_chunk(payload, spec, indices):
    """Module-level chunk fn: one uniform draw per trial (picklable)."""
    return [float(spec.stream(index).uniform()) for index in indices]


def _pid_chunk(payload, spec, indices):
    """``(worker pid, uniform draw)`` per trial after ``payload`` s of sleep."""
    time.sleep(payload)
    return [(os.getpid(), float(spec.stream(index).uniform())) for index in indices]


class TestMapTrials:
    def test_results_independent_of_plan(self):
        serial, _ = map_trials(_echo_chunk, None, 17, rng=9)
        for plan in PLANS:
            values, report = map_trials(_echo_chunk, None, 17, rng=9, plan=plan)
            assert values == serial
            assert report.num_trials == 17
            assert sum(c.num_trials for c in report.chunks) == 17

    def test_process_backend_used_when_requested(self):
        _, report = map_trials(
            _echo_chunk, None, 8, rng=0, plan=ExecutionPlan(workers=2)
        )
        assert report.backend == "process"
        assert report.workers == 2

    def test_unpicklable_payload_falls_back_to_serial(self):
        serial, _ = map_trials(_echo_chunk, None, 6, rng=1)
        values, report = map_trials(
            _echo_chunk, lambda: None, 6, rng=1, plan=ExecutionPlan(workers=2)
        )
        assert values == serial
        assert report.backend.startswith("serial-fallback")

    def test_progress_hook_called_per_chunk(self):
        seen = []
        plan = ExecutionPlan(workers=2, chunk_size=4, progress=seen.append)
        map_trials(_echo_chunk, None, 10, rng=0, plan=plan)
        assert len(seen) == 3  # 4 + 4 + 2
        assert all(isinstance(t, ChunkTiming) for t in seen)
        assert sorted(t.start_index for t in seen) == [0, 4, 8]
        assert sum(t.num_trials for t in seen) == 10

    def test_zero_trials(self):
        values, report = map_trials(_echo_chunk, None, 0, rng=0)
        assert values == []
        assert report.num_trials == 0

    def test_rejects_negative_trials(self):
        with pytest.raises(ValueError):
            map_trials(_echo_chunk, None, -1, rng=0)

    def test_report_metadata_round_trip(self):
        _, report = map_trials(
            _echo_chunk, None, 5, rng=0, plan=ExecutionPlan(workers=1, chunk_size=2)
        )
        meta = report.as_metadata()
        assert meta["backend"] == "serial"
        assert meta["chunk_size"] == 2
        assert [c["num_trials"] for c in meta["chunks"]] == [2, 2, 1]


class TestExecutionPlanValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ExecutionPlan(workers=0)

    def test_rejects_zero_chunk_size(self):
        with pytest.raises(ValueError):
            ExecutionPlan(chunk_size=0)

    def test_auto_chunk_size_targets_four_chunks_per_worker(self):
        assert ExecutionPlan(workers=2).resolved_chunk_size(80) == 10
        assert ExecutionPlan(workers=1).resolved_chunk_size(80) == 80
        assert ExecutionPlan(workers=8).resolved_chunk_size(3) == 1

    def test_rejects_negative_max_retries(self):
        with pytest.raises(ValueError):
            ExecutionPlan(max_retries=-1)

    def test_rejects_nonpositive_chunk_timeout(self):
        with pytest.raises(ValueError):
            ExecutionPlan(chunk_timeout_s=0.0)
        with pytest.raises(ValueError):
            ExecutionPlan(chunk_timeout_s=-1.0)


class TestChunkTimingValidation:
    def test_accepts_valid_timing(self):
        timing = ChunkTiming(chunk_index=0, start_index=0, num_trials=1, seconds=0.0)
        assert timing.num_trials == 1

    def test_rejects_empty_chunk(self):
        with pytest.raises(ValueError):
            ChunkTiming(chunk_index=0, start_index=0, num_trials=0, seconds=0.1)

    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            ChunkTiming(chunk_index=-1, start_index=0, num_trials=1, seconds=0.1)
        with pytest.raises(ValueError):
            ChunkTiming(chunk_index=0, start_index=-1, num_trials=1, seconds=0.1)
        with pytest.raises(ValueError):
            ChunkTiming(chunk_index=0, start_index=0, num_trials=1, seconds=-0.1)


class TestDownlinkDeterminism:
    @pytest.fixture(scope="class")
    def config(self, small_alphabet):
        return DownlinkTrialConfig(
            radar_config=XBAND_9GHZ,
            alphabet=small_alphabet,
            distance_m=6.0,
            num_frames=10,
            payload_symbols_per_frame=6,
        )

    def test_bit_identical_across_plans(self, config):
        serial = run_downlink_trials(config, rng=3)
        for plan in PLANS:
            point = run_downlink_trials(config, rng=3, execution=plan)
            # BerPoint is frozen+eq: compares parameter, ber, counts, extra.
            assert point == serial

    def test_extra_payload_identical(self, config):
        serial = run_downlink_trials(config, rng=3)
        parallel = run_downlink_trials(
            config, rng=3, execution=ExecutionPlan(workers=4, chunk_size=2)
        )
        assert parallel.extra == serial.extra


class TestUplinkDeterminism:
    def test_bit_identical_across_plans(self, office_scenario):
        args = (XBAND_9GHZ, office_scenario.tag.modulator, office_scenario.tag.van_atta)
        kwargs = dict(tag_range_m=2.0, num_chirps=96, num_trials=4, rng=1)
        serial = run_uplink_snr_measurement(*args, **kwargs)
        for plan in (ExecutionPlan(workers=2), ExecutionPlan(workers=4, chunk_size=1)):
            assert run_uplink_snr_measurement(*args, **kwargs, execution=plan) == serial


class TestLocalizationDeterminism:
    def test_bit_identical_across_plans(self, office_scenario):
        kwargs = dict(
            tag_range_m=2.75,
            varying_slopes=True,
            num_frames=4,
            num_chirps=64,
            rng=3,
        )
        args = (
            XBAND_9GHZ,
            office_scenario.alphabet,
            office_scenario.tag.modulator,
            office_scenario.tag.van_atta,
        )
        serial = run_localization_trials(*args, **kwargs)
        for plan in (ExecutionPlan(workers=2), ExecutionPlan(workers=4, chunk_size=1)):
            parallel = run_localization_trials(*args, **kwargs, execution=plan)
            np.testing.assert_array_equal(parallel, serial)


def _noisy_eval(parameter, stream):
    """Module-level sweep evaluate (picklable for the process backend)."""
    return parameter + stream.normal()


def _grid_eval(context, parameter, stream):
    return context * parameter + stream.normal()


class TestSweepDeterminism:
    def test_sweep_bit_identical_across_plans(self):
        serial = sweep("s", [1.0, 2.0, 3.0, 4.0, 5.0], _noisy_eval, rng=11)
        for plan in PLANS:
            parallel = sweep(
                "s", [1.0, 2.0, 3.0, 4.0, 5.0], _noisy_eval, rng=11, execution=plan
            )
            assert sweep_results_equal(parallel, serial)
            assert parallel.values == serial.values

    def test_sweep_metadata_payload_identical(self):
        a = sweep("s", [1.0, 2.0], _noisy_eval, rng=0, metadata={"note": "x"})
        b = sweep(
            "s", [1.0, 2.0], _noisy_eval, rng=0, metadata={"note": "x"},
            execution=ExecutionPlan(workers=2),
        )
        assert strip_execution(a.metadata) == strip_execution(b.metadata) == {"note": "x"}

    def test_sweep_records_execution_metadata(self):
        result = sweep(
            "s", [1.0, 2.0, 3.0], _noisy_eval, rng=0,
            execution=ExecutionPlan(workers=2, chunk_size=1),
        )
        execution = result.metadata["_execution"]
        assert execution["backend"] == "process"
        assert sum(c["num_trials"] for c in execution["chunks"]) == 3

    def test_sweep_grid_bit_identical_across_plans(self):
        series = {"slow": 0.5, "fast": 2.0}
        serial = sweep_grid(series, [1.0, 2.0, 3.0], _grid_eval, rng=7)
        for plan in (ExecutionPlan(workers=2), ExecutionPlan(workers=4, chunk_size=1)):
            parallel = sweep_grid(series, [1.0, 2.0, 3.0], _grid_eval, rng=7, execution=plan)
            assert len(parallel) == len(serial)
            for a, b in zip(parallel, serial):
                assert sweep_results_equal(a, b)

    def test_sweep_lambda_falls_back_serially_with_same_values(self):
        serial = sweep("s", [1.0, 2.0], lambda p, rng: p + rng.normal(), rng=4)
        parallel = sweep(
            "s", [1.0, 2.0], lambda p, rng: p + rng.normal(), rng=4,
            execution=ExecutionPlan(workers=2),
        )
        assert parallel.values == serial.values
        assert parallel.metadata["_execution"]["backend"].startswith("serial-fallback")


class TestChunkIndices:
    def test_exact_partition(self):
        chunks = chunk_indices(10, 3)
        assert [list(c) for c in chunks] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_empty(self):
        assert chunk_indices(0, 4) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chunk_indices(-1, 2)
        with pytest.raises(ValueError):
            chunk_indices(5, 0)


class TestSeedSpec:
    def test_stream_matches_generator_spawn(self):
        spawned = np.random.default_rng(123).spawn(6)
        spec = SeedSpec.from_rng(123)
        for index, child in enumerate(spawned):
            np.testing.assert_array_equal(
                spec.stream(index).integers(0, 1 << 16, 8),
                child.integers(0, 1 << 16, 8),
            )

    def test_spec_passthrough(self):
        spec = SeedSpec.from_rng(5)
        assert SeedSpec.from_rng(spec) is spec

    def test_nested_children_match_nested_spawn(self):
        grandchild = np.random.default_rng(9).spawn(3)[2].spawn(2)[1]
        spec = SeedSpec.from_rng(9).child(2).child(1)
        np.testing.assert_array_equal(
            spec.generator().integers(0, 1000, 5),
            grandchild.integers(0, 1000, 5),
        )

    def test_rejects_negative_child(self):
        with pytest.raises(ValueError):
            SeedSpec.from_rng(0).child(-1)


def _parked(workers=2):
    """``(pool, worker pids)`` parked for a default plan, or ``None``."""
    key = executor._pool_key(
        workers, executor._start_method(), obs.worker_config()
    )
    with executor._idle_lock:
        parked = executor._idle_pools.get(key)
        return None if parked is None else (parked.pool, set(parked.pool._processes))


def _wait_retired():
    """Wait out the idle retirement of the default plan's parked pool."""
    deadline = time.monotonic() + executor.POOL_IDLE_RETIRE_S + 10.0
    while _parked() is not None and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _parked() is None


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _gone(pid, timeout_s=10.0):
    """Wait for ``pid`` to exit and be reaped; whether it did in time."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


EXIT_PROBE = """
import os
import time
from multiprocessing import forkserver, resource_tracker

from repro.sim.executor import ExecutionPlan, map_trials


def pid_chunk(payload, spec, indices):
    return [os.getpid() for _ in indices]


if __name__ == "__main__":
    plan = ExecutionPlan(workers=2, chunk_size=1)
    _, report = map_trials(pid_chunk, None, 4, rng=0, plan=plan)
    assert report.backend == "process", report.backend
    started = time.perf_counter()
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
    print(time.perf_counter() - started)
"""


class TestPoolLease:
    def test_back_to_back_maps_share_workers(self):
        plan = ExecutionPlan(workers=2, chunk_size=1)
        first, _ = map_trials(_pid_chunk, 0.02, 8, rng=4, plan=plan)
        pool, workers = _parked()
        assert {pid for pid, _ in first} <= workers
        second, _ = map_trials(_pid_chunk, 0.02, 8, rng=4, plan=plan)
        again, _ = _parked()
        assert again is pool
        assert {pid for pid, _ in second} <= workers
        assert [value for _, value in second] == [value for _, value in first]

    def test_concurrent_maps_never_share_a_pool(self):
        plan = ExecutionPlan(workers=2, chunk_size=1)
        serial, _ = map_trials(_echo_chunk, None, 8, rng=6)
        barrier = threading.Barrier(2)
        outcomes = [None, None]

        def run(slot):
            barrier.wait()
            outcomes[slot], _ = map_trials(_pid_chunk, 0.1, 8, rng=6, plan=plan)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        for outcome in outcomes:
            assert [value for _, value in outcome] == serial
        used = [{pid for pid, _ in outcome} for outcome in outcomes]
        assert used[0].isdisjoint(used[1])
        # One pool is parked for the key; the other map's pool was killed.
        _, workers = _parked()
        [kept] = [slot for slot in range(2) if used[slot] <= workers]
        assert all(_gone(pid) for pid in used[1 - kept])

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_threaded_maps_leak_no_workers(self):
        """Four threads race leases and parks under a short switch
        interval; every map stays bit-exact, and once the slot retires
        every worker it saw has exited and every descriptor is closed,
        so no parked pool (or its forkserver hold) was lost."""
        plan = ExecutionPlan(workers=2, chunk_size=1)
        serial, _ = map_trials(_echo_chunk, None, 6, rng=8)
        map_trials(_pid_chunk, 0.0, 6, rng=8, plan=plan)
        _wait_retired()
        baseline = _open_fds()
        seen, failures = set(), []

        def run():
            try:
                for _ in range(3):
                    outcome, _ = map_trials(_pid_chunk, 0.0, 6, rng=8, plan=plan)
                    assert [value for _, value in outcome] == serial
                    seen.update(pid for pid, _ in outcome)
            except Exception as error:  # surfaced by the assertion below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        _wait_retired()
        assert all(_gone(pid) for pid in seen)
        deadline = time.monotonic() + 10.0
        while _open_fds() > baseline and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _open_fds() <= baseline

    def test_idle_pool_retires(self):
        map_trials(_pid_chunk, 0.0, 4, rng=0, plan=ExecutionPlan(workers=2, chunk_size=1))
        _, workers = _parked()
        _wait_retired()
        assert all(_gone(pid) for pid in workers)

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="needs the forkserver start method",
    )
    def test_process_exits_cleanly_after_stopping_its_helpers(self, tmp_path):
        """Stopping the forkserver and the resource tracker right after a
        map waits only for idle retirement, and leaks nothing."""
        script = tmp_path / "exit_probe.py"
        script.write_text(EXIT_PROBE)
        env = {
            name: value for name, value in os.environ.items()
            if not name.startswith("REPRO_")
        }
        env[executor.START_METHOD_ENV] = "forkserver"
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # Its own session, so a hung probe's forkserver and workers can be
        # killed with it.
        with subprocess.Popen(
            [sys.executable, str(script)], cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        ) as probe:
            try:
                stdout, stderr = probe.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(probe.pid, signal.SIGKILL)
                probe.communicate()
                pytest.fail("the probe did not exit after stopping its helpers")
        assert probe.returncode == 0, stderr
        assert stderr == ""
        stop_s = float(stdout.strip().splitlines()[-1])
        assert stop_s < executor.POOL_IDLE_RETIRE_S + 5.0
