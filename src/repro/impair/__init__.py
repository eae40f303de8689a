"""Signal-chain fault injection: composable, seed-deterministic impairments.

This package wraps any point of the radar -> channel -> tag -> decoder
chain with reproducible faults — co-channel interference, tag clock
drift, ADC saturation, chirp loss, impulsive noise — each a frozen
dataclass with a ``severity`` knob in [0, 1] and a ``fingerprint()`` so
impaired runs flow through the content-addressed experiment store.

The two contracts everything downstream relies on:

* **Severity 0 is free** — an inactive impairment (or spec) returns its
  input object unchanged and draws nothing from the RNG, so unimpaired
  runs through the hooks are bit-identical to runs without them
  (``benchmarks/bench_impair_overhead.py`` bounds the residual cost).
* **Injection is deterministic** — impairments apply in spec order from
  the caller's per-trial generator, so results are bit-exact across
  worker counts and cache replays.

See :mod:`repro.sim.robustness` for the severity-sweep harness that
turns these faults into degradation curves.
"""

from repro import _exports

__all__ = [
    "AdcSaturation",
    "ChirpLoss",
    "ClockDrift",
    "Impairment",
    "ImpulsiveNoise",
    "InterferenceBurst",
    "IMPAIRMENT_NAMES",
    "ImpairmentSpec",
    "impair_if_frame",
    "impair_tag_capture",
]

_EXPORTS = {
    "repro.impair.models": (
        "AdcSaturation",
        "ChirpLoss",
        "ClockDrift",
        "Impairment",
        "ImpulsiveNoise",
        "InterferenceBurst",
    ),
    "repro.impair.spec": ("IMPAIRMENT_NAMES", "ImpairmentSpec"),
    "repro.impair.inject": ("impair_if_frame", "impair_tag_capture"),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
