"""Fault-injection tests for the fault-tolerant executor.

The determinism contract says ``workers=N`` is bit-identical to
``workers=1``; these tests prove the contract *survives faults*.  Each
scenario injects a failure into a worker chunk — an exception, a hard
``os._exit``, a stuck sleep — and asserts that (a) the run recovers,
(b) the recovered values are bit-identical to the serial baseline, and
(c) the recovery is visible in the :class:`ExecutionReport` fault
counters (and, for sweeps, in ``metadata["_execution"]["faults"]``).

Injection helpers are module-level (picklable) and use a flag file to
fail exactly once: the flag is written *and fsynced* before the crash so
the retry — possibly in a freshly spawned worker — observes it.
"""

import os
import signal
import time

import pytest

from repro import obs
from repro.errors import ChunkFailure, ExecutorError
from repro.sim import executor
from repro.sim.executor import ExecutionPlan, map_trials, strip_execution
from repro.sim.sweep import sweep


def _values(spec, indices):
    return [float(spec.stream(index).uniform()) for index in indices]


def _echo_chunk(payload, spec, indices):
    return _values(spec, indices)


def _mark_flag(flag_path):
    """Create the fail-once flag durably before crashing."""
    with open(flag_path, "w") as handle:
        handle.write("tripped")
        handle.flush()
        os.fsync(handle.fileno())


def _crash_once_chunk(payload, spec, indices):
    """Crash the first time the chosen trial index is dispatched.

    ``mode="raise"`` raises inside the worker (chunk retried in place);
    ``mode="exit"`` kills the worker process outright, breaking the pool
    (pool rebuilt, chunk re-dispatched).
    """
    flag_path, crash_index, mode = payload
    if crash_index in indices and not os.path.exists(flag_path):
        _mark_flag(flag_path)
        if mode == "raise":
            raise RuntimeError(f"injected fault at trial {crash_index}")
        os._exit(17)
    return _values(spec, indices)


def _always_raise_chunk(payload, spec, indices):
    """Deterministic failure: the chunk owning ``payload`` never succeeds."""
    if payload in indices:
        raise ValueError(f"permanent fault at trial {payload}")
    return _values(spec, indices)


def _slow_once_chunk(payload, spec, indices):
    """Stall far past the chunk deadline on the first dispatch only."""
    flag_path, slow_index = payload
    if slow_index in indices and not os.path.exists(flag_path):
        _mark_flag(flag_path)
        time.sleep(60.0)
    return _values(spec, indices)


def _stall_once_pid_chunk(payload, spec, indices):
    """``(worker pid, draw)`` per trial; the first dispatch of the chosen
    trial records its worker's pid, then stalls far past the deadline."""
    flag_path, pid_path, slow_index = payload
    if slow_index in indices and not os.path.exists(flag_path):
        with open(pid_path, "w") as handle:
            handle.write(str(os.getpid()))
            handle.flush()
            os.fsync(handle.fileno())
        _mark_flag(flag_path)
        time.sleep(60.0)
    return [(os.getpid(), value) for value in _values(spec, indices)]


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


class _CrashOnceEvaluate:
    """Picklable sweep evaluate that hard-kills its worker exactly once."""

    def __init__(self, flag_path):
        self.flag_path = flag_path

    def __call__(self, parameter, stream):
        import multiprocessing

        in_worker = multiprocessing.parent_process() is not None
        if in_worker and not os.path.exists(self.flag_path):
            _mark_flag(self.flag_path)
            os._exit(17)
        return float(parameter + stream.uniform())


class TestFaultRecovery:
    def test_worker_raise_is_retried_bit_exact(self, tmp_path):
        serial, _ = map_trials(_echo_chunk, None, 16, rng=9)
        flag = tmp_path / "raise.flag"
        values, report = map_trials(
            _crash_once_chunk,
            (str(flag), 7, "raise"),
            16,
            rng=9,
            plan=ExecutionPlan(workers=2, chunk_size=4),
        )
        assert values == serial
        assert report.backend == "process"
        assert report.retries >= 1
        assert any(event["kind"] == "raise" for event in report.fault_events)
        assert flag.exists()

    def test_worker_hard_exit_rebuilds_pool_bit_exact(self, tmp_path):
        serial, _ = map_trials(_echo_chunk, None, 16, rng=9)
        flag = tmp_path / "exit.flag"
        values, report = map_trials(
            _crash_once_chunk,
            (str(flag), 3, "exit"),
            16,
            rng=9,
            plan=ExecutionPlan(workers=2, chunk_size=4),
        )
        assert values == serial
        assert report.pool_rebuilds >= 1
        assert flag.exists()

    def test_pool_broken_before_submit_rebuilds_bit_exact(self, monkeypatch):
        # A worker can die (under an earlier chunk) while the runner is
        # still queueing chunks, so ``submit`` itself raises: the chunk
        # must take the rebuild path, not escape ``map_trials``.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        serial, _ = map_trials(_echo_chunk, None, 8, rng=9)
        broken = ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        )
        with pytest.raises(BrokenProcessPool):
            broken.submit(os._exit, 1).result(timeout=60.0)
        monkeypatch.setattr(executor, "_lease_pool", lambda key: broken)
        values, report = map_trials(
            _echo_chunk, None, 8, rng=9, plan=ExecutionPlan(workers=2, chunk_size=2)
        )
        assert values == serial
        assert report.pool_rebuilds == 1

    def test_retry_exhaustion_raises_with_failing_indices(self):
        with pytest.raises(ExecutorError) as excinfo:
            map_trials(
                _always_raise_chunk,
                5,
                12,
                rng=0,
                plan=ExecutionPlan(workers=2, chunk_size=3, max_retries=1),
            )
        error = excinfo.value
        # Trial 5 lives in chunk [3, 4, 5]; the whole chunk is reported.
        assert error.failing_indices == [3, 4, 5]
        assert all(isinstance(f, ChunkFailure) for f in error.failures)
        assert all(f.attempts == 2 for f in error.failures)  # 1 + max_retries
        assert "5" in str(error)

    def test_chunk_timeout_recovers_bit_exact(self, tmp_path):
        serial, _ = map_trials(_echo_chunk, None, 8, rng=9)
        flag = tmp_path / "slow.flag"
        values, report = map_trials(
            _slow_once_chunk,
            (str(flag), 2),
            8,
            rng=9,
            plan=ExecutionPlan(workers=2, chunk_size=2, chunk_timeout_s=3.0),
        )
        assert values == serial
        assert report.timeouts >= 1
        assert report.pool_rebuilds >= 1
        assert any(event["kind"] == "timeout" for event in report.fault_events)

    def test_stalled_worker_exits_and_its_pool_is_never_parked(
        self, tmp_path, monkeypatch
    ):
        parked, killed = [], []
        park, kill = executor._park_pool, executor._kill

        def recording_park(key, pool):
            parked.append(set(pool._processes))
            park(key, pool)

        def recording_kill(pool):
            killed.append(set(pool._processes or {}))
            kill(pool)

        monkeypatch.setattr(executor, "_park_pool", recording_park)
        monkeypatch.setattr(executor, "_kill", recording_kill)
        serial, _ = map_trials(_echo_chunk, None, 8, rng=9)
        payload = (str(tmp_path / "stall.flag"), str(tmp_path / "stall.pid"), 2)
        plan = ExecutionPlan(workers=2, chunk_size=2, chunk_timeout_s=3.0)
        values, report = map_trials(_stall_once_pid_chunk, payload, 8, rng=9, plan=plan)
        assert [value for _, value in values] == serial
        assert report.timeouts >= 1
        stuck = int((tmp_path / "stall.pid").read_text())
        assert _gone(stuck)
        assert any(stuck in workers for workers in killed)
        assert parked and all(stuck not in workers for workers in parked)
        # The flag is set, so this map runs clean, on none of the killed
        # pools' workers.
        killed_workers = set().union(*killed)
        again, _ = map_trials(_stall_once_pid_chunk, payload, 8, rng=9, plan=plan)
        assert [value for _, value in again] == serial
        assert {pid for pid, _ in again}.isdisjoint(killed_workers)

    def test_parked_pool_with_a_dead_worker_is_not_leased(self, monkeypatch):
        # The pool is the subject: no map may run in-process.
        monkeypatch.setattr(executor._costs, "choose", lambda *args: None)
        serial, _ = map_trials(_echo_chunk, None, 8, rng=9)
        plan = ExecutionPlan(workers=2, chunk_size=2)
        map_trials(_echo_chunk, None, 8, rng=9, plan=plan)
        key = executor._pool_key(
            2, executor._start_method(), obs.worker_config()
        )
        with executor._idle_lock:
            victim = next(iter(executor._idle_pools[key][-1].pool._processes))
        os.kill(victim, signal.SIGKILL)
        assert _gone(victim)
        values, report = map_trials(_echo_chunk, None, 8, rng=9, plan=plan)
        assert values == serial
        assert report.backend == "process"
        assert report.pool_rebuilds == 0

    def test_fault_counters_in_report_metadata(self, tmp_path):
        flag = tmp_path / "meta.flag"
        _, report = map_trials(
            _crash_once_chunk,
            (str(flag), 0, "raise"),
            8,
            rng=3,
            plan=ExecutionPlan(workers=2, chunk_size=4),
        )
        faults = report.as_metadata()["faults"]
        assert faults["retries"] == report.retries
        assert faults["pool_rebuilds"] == report.pool_rebuilds
        assert faults["timeouts"] == report.timeouts
        assert faults["events"] == list(report.fault_events)
        assert faults["retries"] >= 1

    def test_clean_run_reports_zero_faults(self):
        _, report = map_trials(
            _echo_chunk, None, 8, rng=0, plan=ExecutionPlan(workers=2)
        )
        assert report.retries == 0
        assert report.pool_rebuilds == 0
        assert report.timeouts == 0
        assert report.fault_events == []


def _teach(chunk_fn, payload):
    """Two clean maps of ``chunk_fn``'s cost key: the first runs on the
    pool and measures it, so a cheap map of the key then runs in-process
    while that pool is parked."""
    for _ in range(2):
        map_trials(
            chunk_fn, payload, 8, rng=9, plan=ExecutionPlan(workers=2, chunk_size=2)
        )


class TestInProcessFaults:
    """Maps the cost model runs in-process keep the pool's retry
    contract, and a cost key that once had a fault stays on the pool."""

    def test_raise_is_retried_in_process_bit_exact(self, tmp_path):
        serial, _ = map_trials(_echo_chunk, None, 8, rng=9)
        _teach(_crash_once_chunk, (str(tmp_path / "unused.flag"), 99, "raise"))
        flag = tmp_path / "raise.flag"
        plan = ExecutionPlan(workers=2, chunk_size=2)
        values, report = map_trials(
            _crash_once_chunk, (str(flag), 3, "raise"), 8, rng=9, plan=plan
        )
        assert values == serial
        assert report.backend == "inprocess"
        assert report.retries == 1
        assert [event["kind"] for event in report.fault_events] == ["raise"]
        assert flag.exists()
        # The key had a retry: it never runs in-process again.
        for _ in range(2):
            again, report = map_trials(
                _crash_once_chunk, (str(flag), 3, "raise"), 8, rng=9, plan=plan
            )
            assert again == serial
            assert report.backend == "process"

    def test_in_process_retry_exhaustion_raises_executor_error(self):
        _teach(_always_raise_chunk, 99)
        plan = ExecutionPlan(workers=2, chunk_size=3, max_retries=1)
        with pytest.raises(ExecutorError) as excinfo:
            map_trials(_always_raise_chunk, 5, 12, rng=0, plan=plan)
        error = excinfo.value
        assert error.failing_indices == [3, 4, 5]
        assert [f.attempts for f in error.failures] == [2]  # 1 + max_retries
        assert error.failures[0].kind == "raise"
        _, report = map_trials(_always_raise_chunk, 99, 8, rng=0, plan=plan)
        assert report.backend == "process"

    def test_pool_rebuild_pins_the_key_to_the_pool(self, tmp_path):
        serial, _ = map_trials(_echo_chunk, None, 8, rng=9)
        flag = tmp_path / "exit.flag"
        plan = ExecutionPlan(workers=2, chunk_size=2)
        values, report = map_trials(
            _crash_once_chunk, (str(flag), 3, "exit"), 8, rng=9, plan=plan
        )
        assert values == serial
        assert report.pool_rebuilds >= 1
        # Clean, cheap and measured now, but never run in-process.
        for _ in range(3):
            again, report = map_trials(
                _crash_once_chunk, (str(flag), 3, "exit"), 8, rng=9, plan=plan
            )
            assert again == serial
            assert report.backend == "process"

    def test_timeout_pins_the_key_to_the_pool(self, tmp_path):
        serial, _ = map_trials(_echo_chunk, None, 8, rng=9)
        payload = (str(tmp_path / "slow.flag"), 2)
        _, report = map_trials(
            _slow_once_chunk, payload, 8, rng=9,
            plan=ExecutionPlan(workers=2, chunk_size=2, chunk_timeout_s=3.0),
        )
        assert report.timeouts >= 1
        for _ in range(3):
            values, report = map_trials(
                _slow_once_chunk, payload, 8, rng=9,
                plan=ExecutionPlan(workers=2, chunk_size=2),
            )
            assert values == serial
            assert report.backend == "process"


class TestSweepFaultRecovery:
    def test_mid_sweep_worker_kill_bit_identical_to_serial(self, tmp_path):
        """The acceptance test: a worker killed mid-sweep loses nothing."""
        params = [float(p) for p in range(12)]
        flag = tmp_path / "sweep.flag"
        baseline = sweep(
            "baseline",
            params,
            _CrashOnceEvaluate(str(tmp_path / "unused.flag")),
            rng=7,
            execution=ExecutionPlan(workers=1),
        )
        recovered = sweep(
            "recovered",
            params,
            _CrashOnceEvaluate(str(flag)),
            rng=7,
            execution=ExecutionPlan(workers=2, chunk_size=3),
        )
        assert recovered.values == baseline.values
        faults = recovered.metadata["_execution"]["faults"]
        assert faults["pool_rebuilds"] >= 1
        assert flag.exists()
        # The volatile execution channel strips away cleanly.
        assert strip_execution(recovered.metadata) == {}


class TestExecutorErrorShape:
    def test_chunk_failure_as_dict_round_trips_fields(self):
        failure = ChunkFailure(
            chunk_index=2,
            indices=(6, 7, 8),
            attempts=3,
            kind="raise",
            error="RuntimeError: boom",
        )
        assert failure.as_dict() == {
            "chunk_index": 2,
            "indices": [6, 7, 8],
            "attempts": 3,
            "kind": "raise",
            "error": "RuntimeError: boom",
        }

    def test_executor_error_aggregates_indices_sorted_unique(self):
        error = ExecutorError(
            [
                ChunkFailure(1, (4, 5), 2, "raise", "E: x"),
                ChunkFailure(0, (0, 1), 2, "timeout", "E: y"),
            ]
        )
        assert error.failing_indices == [0, 1, 4, 5]
        assert "timeout" in str(error) or "raise" in str(error)
