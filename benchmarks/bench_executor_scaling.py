"""Executor scaling — bit-exact at every worker count, and faster given cores.

Times a downlink BER point and two downlink BER distance sweeps (the
shape of Figs. 12–14: many small operating points) serially and in
parallel, and emits the wall-clock table with the backend each plan ran
on:

* ``point``: one ``POINT_FRAMES``-frame point, serially and under a
  4-worker ``ExecutionPlan``, timed once each;
* ``small``: ``SMALL_POINTS`` points of ``SMALL_FRAMES`` frames, a few
  milliseconds in all, below the executor's measured in-process
  threshold, so every ``workers > 1`` plan runs it in-process
  (``backend="inprocess"``);
* ``large``: ``LARGE_POINTS`` points of ``LARGE_FRAMES`` frames, above
  the threshold, so it runs on the pool (``backend="process"``).

Each sweep plan first runs twice untimed, as in any program that maps
more than once: the forkserver and a warm pool exist and the cost model
has measured the sweep.  The timed sweep runs then interleave the plans
for ``ROUNDS`` rounds and the table reports each plan's fastest run,
because noise on a shared host only ever adds time.  The
pool never has more workers than usable cores, so on 2 cores the
4-worker plans run 2 workers.

Asserted: the point's two ``BerPoint`` results (``extra`` payload
included) and every plan's sweep equal the serial ones bit for bit; no
sweep plan is slower than serial beyond timing noise (``>= 0.9``;
in-process runs the serial code), and the small sweep runs in-process
in most of its timed runs.
The speedup assertions arm on the cores available to this process:

* 4 or more: the point at 4 workers beats serial by ``> 1.2``;
* 2 or more: the large sweep beats serial by ``> 1.0`` at every worker
  count (``> 1.2`` on 4 or more cores); the table and the failure
  message say which backends its runs took.

The sweep speedup needs BLAS threads pinned to one
(``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``, as CI, ``make bench`` and
perfbench run): unpinned, every worker's OpenBLAS threads compete for
the same cores (a 2-core host ran the large sweep at 0.93-1.35x,
1.49-1.71x pinned), so on 2 or more cores the bench fails, naming the
variables, when they are not set.  The table also reports how many
cores' worth of work two busy processes got done, which reads about 1
on a host whose cores are shared with other work, where no speedup is
possible.
"""

import os
import time
from collections import Counter

from conftest import emit
from repro.radar.config import XBAND_9GHZ
from repro.sim.engine import DownlinkTrialConfig, run_downlink_trials
from repro.sim.executor import ExecutionPlan, strip_execution, sweep_results_equal
from repro.sim.results import format_table
from repro.sim.sweep import sweep

SMALL_POINTS, SMALL_FRAMES = 2, 1
LARGE_POINTS, LARGE_FRAMES = 8, 60
SYMBOLS_PER_FRAME = 16
POINT_FRAMES = 240
POINT_WORKERS = 4
DISTANCE_M = 5.0
WORKER_COUNTS = (1, 2, 4)
#: Interleaved timed rounds per sweep; the small one takes ~2 ms, so it
#: needs more of them to find its fastest run through scheduler noise.
ROUNDS = {"small": 100, "large": 5}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _burn(loops: int) -> float:
    """Seconds of pure-Python work, timed where it runs."""
    started = time.perf_counter()
    total = 0
    for value in range(loops):
        total += value
    return time.perf_counter() - started


def _parallel_capacity(processes: int = 2, loops: int = 3_000_000) -> float:
    """Cores' worth of work ``processes`` busy processes get done at once:
    ``processes`` on idle cores, about 1 where they share one core
    (reported with the table, never a reason to skip a check)."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(processes, mp_context=context) as pool:
        list(pool.map(_burn, [1] * processes))  # start every worker first
        alone = pool.submit(_burn, loops).result()
        together = list(pool.map(_burn, [loops] * processes))
    return sum(alone / seconds for seconds in together)


def _config(alphabet, distance_m, frames) -> DownlinkTrialConfig:
    return DownlinkTrialConfig(
        radar_config=XBAND_9GHZ,
        alphabet=alphabet,
        distance_m=float(distance_m),
        num_frames=frames,
        payload_symbols_per_frame=SYMBOLS_PER_FRAME,
    )


class PointBer:
    """Sweep ``evaluate``: the downlink BER of one point, run serially.

    A module-level callable class, so pool workers can unpickle it.
    """

    def __init__(self, alphabet, frames: int) -> None:
        self.alphabet = alphabet
        self.frames = frames

    def __call__(self, distance_m: float, stream) -> float:
        return run_downlink_trials(
            _config(self.alphabet, distance_m, self.frames), rng=stream
        ).ber


def _time_plans(evaluate, points: int, rounds: int):
    """``{workers: (fastest wall s, SweepResult, backends)}``, plans
    interleaved; ``backends`` counts the backend of each timed run."""
    plans = {workers: ExecutionPlan(workers=workers) for workers in WORKER_COUNTS}
    distances = [2.0 + 0.75 * index for index in range(points)]

    def run(plan):
        return sweep("ber-vs-distance", distances, evaluate, rng=0, execution=plan)

    for plan in plans.values():
        for _ in range(2):  # pool start and cost measurement, untimed
            run(plan)
    walls = {workers: [] for workers in plans}
    backends = {workers: Counter() for workers in plans}
    results = {}
    for _ in range(rounds):
        for workers, plan in plans.items():
            start = time.perf_counter()
            results[workers] = run(plan)
            walls[workers].append(time.perf_counter() - start)
            backends[workers][results[workers].metadata["_execution"]["backend"]] += 1
    return {
        workers: (min(walls[workers]), results[workers], backends[workers])
        for workers in plans
    }


def _time_point(paper_alphabet):
    """``{workers: (wall s, BerPoint)}`` of one point, serial first."""
    point = _config(paper_alphabet, DISTANCE_M, POINT_FRAMES)
    timed = {}
    for workers in (1, POINT_WORKERS):
        start = time.perf_counter()
        result = run_downlink_trials(
            point, rng=0, execution=ExecutionPlan(workers=workers)
        )
        timed[workers] = (time.perf_counter() - start, result)
    return timed


def run_study(paper_alphabet):
    capacity = _parallel_capacity()
    point = _time_point(paper_alphabet)
    studies = {
        label: _time_plans(PointBer(paper_alphabet, frames), points, ROUNDS[label])
        for label, points, frames in (
            ("small", SMALL_POINTS, SMALL_FRAMES),
            ("large", LARGE_POINTS, LARGE_FRAMES),
        )
    }
    # A shared host's capacity drifts: report the lower of before and after.
    return point, studies, min(capacity, _parallel_capacity())


def test_executor_scaling(benchmark, paper_alphabet):
    point, studies, capacity = benchmark.pedantic(
        run_study, args=(paper_alphabet,), rounds=1, iterations=1
    )
    cores = _available_cores()
    pinned = all(os.environ.get(name) == "1" for name in BLAS_THREAD_VARS)
    point_speedup = point[1][0] / point[POINT_WORKERS][0]
    rows, speedups = [], {}
    for workers, (wall_s, _) in point.items():
        rows.append([
            "point", str(workers), *(("1", "serial") if workers == 1 else ("-", "-")),
            f"{wall_s * 1e3:.1f}", f"x{point[1][0] / wall_s:.2f}",
        ])
    for label, timed in studies.items():
        serial_s = timed[1][0]
        for workers, (wall_s, result, backends) in timed.items():
            meta = result.metadata["_execution"]
            speedups[label, workers] = serial_s / wall_s
            rows.append([
                label, str(workers), f"{meta['workers']}",
                ", ".join(f"{name} {count}" for name, count in backends.most_common()),
                f"{wall_s * 1e3:.1f}", f"x{speedups[label, workers]:.2f}",
            ])
    table = format_table(
        ["workload", "plan workers", "pool workers", "backend (runs)",
         "wall (ms)", "speedup"],
        rows,
    )
    table += (
        f"\npoint: {POINT_FRAMES} frames at {DISTANCE_M} m, timed once per plan; "
        f"sweeps: {SMALL_POINTS} x {SMALL_FRAMES} (small) / {LARGE_POINTS} x "
        f"{LARGE_FRAMES} (large) points x frames, fastest of {ROUNDS['small']} / "
        f"{ROUNDS['large']} interleaved runs after 2 untimed runs per plan; "
        f"{SYMBOLS_PER_FRAME} symbols per frame; "
        f"on {cores} available core(s); two busy processes did {capacity:.2f} "
        f"cores' worth of work; BLAS threads {'pinned to 1' if pinned else 'unpinned'}"
    )
    emit("executor_scaling", table)

    # The determinism contract: identical results, bit for bit, extras included.
    assert point[POINT_WORKERS][1] == point[1][1]
    for label, timed in studies.items():
        serial = timed[1][1]
        for workers, (_, result, backends) in timed.items():
            assert sweep_results_equal(result, serial), (label, workers)
            meta = result.metadata["_execution"]
            # The timing side channel has one record per chunk and strips away.
            assert sum(c["num_trials"] for c in meta["chunks"]) == len(serial.values)
            assert strip_execution(result.metadata) == {}
            assert speedups[label, workers] >= 0.9, (label, workers, speedups)
            if workers > 1 and label == "small":
                assert backends.most_common(1)[0][0] == "inprocess", (workers, backends)
    # An honest speedup claim wherever the hardware can deliver one.
    if cores >= POINT_WORKERS:
        assert point_speedup > 1.2, (
            f"expected >1.2x speedup with {POINT_WORKERS} workers, "
            f"got {point_speedup:.2f}"
        )
    if cores >= 2:
        assert pinned, (
            "the sweep speedup check needs "
            + " ".join(f"{name}=1" for name in BLAS_THREAD_VARS)
            + ": unpinned BLAS threads compete with the pool's workers for the cores"
        )
        floor = 1.2 if cores >= 4 else 1.0
        for workers in WORKER_COUNTS[1:]:
            assert speedups["large", workers] > floor, (
                f"expected >{floor}x on the large sweep at {workers} workers, "
                f"got {speedups['large', workers]:.2f} on backends "
                f"{dict(studies['large'][workers][2])}; two busy processes did "
                f"{capacity:.2f} cores' worth of work"
            )
