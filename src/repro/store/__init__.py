"""Content-addressed experiment store: cache, fingerprints, artifacts.

The evaluation in EXPERIMENTS.md is hundreds of Monte-Carlo points
re-run on every parameter tweak.  PR 1 made every result a pure function
of ``(work unit, root seed)`` — which is exactly the property that makes
caching *sound*: a cache hit is provably bit-identical to a recompute.
This package builds on that:

* :mod:`repro.store.fingerprint` — canonical SHA-256 keys over work
  units (payload + :class:`~repro.utils.rng.SeedSpec` + trial count +
  schema version).
* :mod:`repro.store.cache` — :class:`ExperimentStore`, a disk-backed
  content-addressed cache (atomic writes, concurrent-writer safe,
  corruption treated as a miss) with a replay-based ``verify``
  self-check.
* :mod:`repro.store.artifacts` — sweep-result save/load round-trips and
  the standardized ``BENCH_*.json`` trajectory writer.

Pass ``store=ExperimentStore(dir)`` to :func:`repro.sim.sweep`,
:func:`repro.sim.sweep_grid`, or the engine entry points to skip
already-computed points; the CLI exposes the same via ``--cache-dir``
and manages directories via ``repro cache {stats,verify,clear}``.
"""

from repro import _exports

# ``fingerprint`` names both a function and the submodule defining it;
# bound lazily, the first ``import repro.store.fingerprint`` would rebind
# the package attribute to the module, so it binds here.
from repro.store.fingerprint import (
    SCHEMA_VERSION,
    canonical_json,
    canonicalize,
    fingerprint,
)

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "canonicalize",
    "fingerprint",
    "ExperimentStore",
    "ReplayRecipe",
    "StoreStats",
    "VerifyReport",
    "atomic_write_bytes",
    "InFlightRegistry",
    "InFlightStats",
    "ARTIFACT_VERSION",
    "bench_json_path",
    "load_sweep_result",
    "read_bench_json",
    "save_sweep_result",
    "write_bench_json",
]

_EXPORTS = {
    "repro.store.cache": (
        "ExperimentStore",
        "ReplayRecipe",
        "StoreStats",
        "VerifyReport",
        "atomic_write_bytes",
    ),
    "repro.store.inflight": ("InFlightRegistry", "InFlightStats"),
    "repro.store.artifacts": (
        "ARTIFACT_VERSION",
        "bench_json_path",
        "load_sweep_result",
        "read_bench_json",
        "save_sweep_result",
        "write_bench_json",
    ),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
