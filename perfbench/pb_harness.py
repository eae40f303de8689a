"""Shared plumbing for the repository benchmark (see README.md).

Process-tree CPU and memory read from ``/proc``, the host-speed probe,
the environment stamp, order statistics, stage timers, output digests
and the pinned-digest file.  Nothing here imports numpy or the program at module load, so
``run.py`` can pin the BLAS thread count before either is imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import resource
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
PINS_PATH = BENCH_DIR / "pins.json"

#: The seed the output pins were computed on.
DEFAULT_SEED = 0
#: A second seed, never used while tuning: re-check a claimed gain on it.
HOLDOUT_SEED = 7919

#: BLAS/OpenMP thread variables.  They are pinned to one thread for every
#: workload: numpy's library threads otherwise make ``isac-sensing`` burn
#: ~1.9 CPU-s per wall-s on a 2-core box and its timings wander with the
#: neighbours' load.  Pool workers and the serve process inherit the pin.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
PINNED_THREADS = "1"

#: AF_UNIX socket paths (the forkserver's listener) are limited to ~107
#: bytes; a temp dir inside a deeper checkout would make pool start fail.
_MAX_TMPDIR_CHARS = 60

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def bootstrap() -> None:
    """Pin library threads and make ``src/`` the only ``repro`` source.

    Raises :class:`SystemExit` (non-zero, nothing on stdout) when the
    checkout holds no program to benchmark.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = PINNED_THREADS
    src = str(SRC)
    sys.path.insert(0, src)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    WORK_ROOT.mkdir(exist_ok=True)
    if len(str(WORK_ROOT)) <= _MAX_TMPDIR_CHARS:
        os.environ["TMPDIR"] = str(WORK_ROOT)
        tempfile.tempdir = str(WORK_ROOT)


@dataclass
class PassResult:
    """What one pass of a workload did.

    ``outputs`` maps an operation key to the operation's output; a key
    names the operation's inputs, so equal keys must give equal outputs.
    """

    frames: int
    latencies_s: "list[float]"
    outputs: "dict" = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Host-speed factor of the pass (see :class:`HostSpeed`); timings
    #: multiplied by it read as on the reference host.
    scale: float = 1.0


class Workload:
    """Hooks every workload provides besides ``setup``, ``run_pass``,
    ``check`` and ``layer_metrics``.  ``run_pass`` is timed; ``prepare``
    and ``cleanup`` run untimed around it."""

    def prepare(self, traced: bool) -> None:
        pass

    def cleanup(self, traced: bool) -> None:
        pass

    def stage_table(self) -> str:
        return ""

    def close(self) -> None:
        pass


# -- process tree ------------------------------------------------------------


def _stat_fields(pid: int) -> "list[str] | None":
    """``/proc/<pid>/stat`` from field 3 (state) on; None if it is gone."""
    try:
        raw = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def _children(pid: int) -> "list[int]":
    kids: "list[int]" = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            text = pathlib.Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        kids.extend(int(token) for token in text.split())
    return kids


def _children_by_scan() -> "dict[int, list[int]]":
    """ppid -> children for every process (kernels without ``children``)."""
    tree: "dict[int, list[int]]" = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                tree.setdefault(int(fields[1]), []).append(int(entry))
    return tree


_HAS_CHILDREN_FILE = pathlib.Path(
    f"/proc/self/task/{os.getpid()}/children"
).exists()


def descendants() -> "list[int]":
    """Live descendants of this process, zombies not yet reaped included."""
    lookup = None if _HAS_CHILDREN_FILE else _children_by_scan()
    found: "list[int]" = []
    frontier = [os.getpid()]
    while frontier:
        current = frontier.pop()
        kids = _children(current) if lookup is None else lookup.get(current, [])
        for kid in kids:
            if kid not in found:
                found.append(kid)
                frontier.append(kid)
    return found


def tree_cpu_seconds() -> float:
    """CPU seconds of this process and every live descendant.

    Each descendant contributes utime + stime + cutime + cstime, so
    workers already reaped by an intermediate parent (pool workers reaped
    by the multiprocessing forkserver, which ``RUSAGE_CHILDREN`` never
    sees) are counted through that parent.  This process's own share
    comes from ``getrusage`` at microsecond resolution.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    for pid in descendants():
        fields = _stat_fields(pid)
        if fields is not None:
            total += sum(int(value) for value in fields[11:15]) / _CLK_TCK
    return total


def settle(baseline: "set[int]", timeout_s: float = 5.0) -> None:
    """Wait until every process started since ``baseline`` has been reaped.

    Pool workers are terminated when a trial map ends but reaped a moment
    later by their parent; reading CPU mid-reap could count a worker
    twice or not at all.
    """
    deadline = time.monotonic() + timeout_s
    while set(descendants()) - baseline and time.monotonic() < deadline:
        time.sleep(0.005)


def stop_helpers() -> None:
    """Stop the multiprocessing helpers a run started and wait for them.

    The forkserver and the resource tracker otherwise outlive the
    benchmark by a moment; the benchmark must end every process it starts.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            try:
                stop()
            except (OSError, ChildProcessError):
                pass
    settle(set(), timeout_s=10.0)


def _status_kb(pid: int, key: str) -> int:
    try:
        text = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


class TreeMemory:
    """Peak resident memory of the process tree while it is entered.

    This process's peak is exact (``VmHWM``); descendants are sampled
    every ``interval_s``, because pool workers live only inside a pass
    and a reading at pass boundaries would miss them.  The sum is an
    upper bound on the simultaneous peak.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.peak_descendants_kb = 0
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def sample(self) -> None:
        current = sum(_status_kb(pid, "VmRSS") for pid in descendants())
        self.peak_descendants_kb = max(self.peak_descendants_kb, current)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "TreeMemory":
        self.sample()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sample()

    def peak_mb(self) -> float:
        own_kb = _status_kb(os.getpid(), "VmHWM")
        return (own_kb + self.peak_descendants_kb) / 1024.0


# -- host speed --------------------------------------------------------------

#: Wall seconds :meth:`HostSpeed.reference_seconds` takes on an unloaded
#: 2-core x86-64 VM at 2.1 GHz, the host the benchmark was tuned on.
REFERENCE_S = 0.030


class HostSpeed:
    """Times a fixed computation that does not involve the program.

    On a shared host the neighbours' load slows every process by up to a
    third for tens of seconds at a time: longer than a run, so no
    statistic over one run's passes removes it.  Timing this computation
    next to each timed interval measures that slowdown.  It mixes what the
    workloads do: FFTs and elementwise work on a 4 MB complex array, and
    an interpreter-bound loop of small numpy calls and dict updates.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.block = rng.standard_normal((128, 2048)) + 1j * rng.standard_normal((128, 2048))
        self.left = rng.standard_normal(64)
        self.right = rng.standard_normal(64)
        # The first call pays for allocation and FFT planning.
        self.reference_seconds()

    def reference_seconds(self) -> float:
        import numpy as np

        started = time.perf_counter()
        total = 0.0
        for _ in range(6):
            total += float(np.abs(np.fft.fft(self.block, axis=1) * self.block).sum())
        counts: "dict[int, int]" = {}
        for index in range(12000):
            total += float(self.left @ self.right)
            counts[index & 63] = counts.get(index & 63, 0) + index
        return time.perf_counter() - started

    @staticmethod
    def scale(before_s: float, after_s: float) -> float:
        """Factor that turns a timing taken between two reference timings
        into the timing on the reference host: below 1 when it ran slow."""
        return REFERENCE_S / ((before_s + after_s) / 2.0)


# -- statistics and stage timers ---------------------------------------------


def quantile(values: "list[float]", q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: "list[float]") -> float:
    return quantile(values, 0.5)


class Stages:
    """Self time and call count per named stage of a traced pass.

    The benchmark's stages never nest, so a stage's self time is its
    measured duration, and their sum over the traced wall time is the
    replay's coverage.
    """

    def __init__(self) -> None:
        self.seconds: "dict[str, float]" = {}
        self.calls: "dict[str, int]" = {}
        self.wall_s = 0.0

    def time(self, name: str) -> "_StageTimer":
        return _StageTimer(self, name)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def coverage(self) -> float:
        return sum(self.seconds.values()) / self.wall_s

    def table(self, counts: "dict[str, str]") -> str:
        lines = [f"{'stage':<44} {'self s':>9} {'share':>7} {'calls':>6}  counts"]
        for name, seconds in self.seconds.items():
            lines.append(
                f"{name:<44} {seconds:>9.4f} {seconds / self.wall_s:>7.1%} "
                f"{self.calls[name]:>6}  {counts.get(name, '')}"
            )
        lines.append(
            f"{'(stage sum / replay wall)':<44} {self.wall_s:>9.4f} "
            f"{self.coverage():>7.1%}"
        )
        return "\n".join(lines)


class _StageTimer:
    __slots__ = ("stages", "name", "started")

    def __init__(self, stages: Stages, name: str) -> None:
        self.stages = stages
        self.name = name

    def __enter__(self) -> None:
        self.started = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self.stages.add(self.name, time.perf_counter() - self.started)


# -- outputs -----------------------------------------------------------------


def digest(obj) -> str:
    """Short SHA-256 of an output's canonical form (the store canonicalizer)."""
    from repro.store.fingerprint import canonical_json

    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:20]


def inconsistent_keys(passes: "list[PassResult]") -> "set":
    """Operation keys whose output differs between passes."""
    first: "dict" = {}
    bad = set()
    for result in passes:
        for key, output in result.outputs.items():
            value = digest(output)
            if first.setdefault(key, value) != value:
                bad.add(key)
    return bad


def _read_pins() -> "dict":
    try:
        return json.loads(PINS_PATH.read_text())
    except (OSError, ValueError):
        return {}


def unpinned_keys(workload: str, outputs: "dict") -> "set":
    """Keys of ``outputs`` whose digest differs from the pin (all, if unpinned).

    Pins are the per-operation digests of the first pass at
    :data:`DEFAULT_SEED`, in operation order.
    """
    entry = _read_pins().get(workload)
    keys = list(outputs)
    if entry is None or entry.get("seed") != DEFAULT_SEED or len(entry["ops"]) != len(keys):
        return set(keys)
    return {
        key for key, pinned in zip(keys, entry["ops"])
        if digest(outputs[key]) != pinned
    }


def write_pins(workload: str, outputs: "dict") -> None:
    pins = _read_pins()
    pins[workload] = {
        "seed": DEFAULT_SEED,
        "ops": [digest(output) for output in outputs.values()],
    }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def count_failed(passes: "list[PassResult]", bad: "set") -> "tuple[int, int]":
    """(attempted, failed) operations over ``passes``."""
    attempted = sum(len(result.outputs) for result in passes)
    failed = sum(1 for result in passes for key in result.outputs if key in bad)
    return attempted, failed


# -- environment -------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    try:
        return (git / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(seed: int) -> "dict":
    """What makes two runs comparable: cores, threads, versions, commit, seed."""
    import numpy

    from repro.sim.executor import START_METHOD_ENV, default_start_method

    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "start_method": os.environ.get(START_METHOD_ENV) or default_start_method(),
        "git_commit": _git_commit(),
        "seed": seed,
    }
