"""FMCW waveform modelling: chirp parameters, synthesis, and frame schedules."""

from repro import _exports

__all__ = [
    "ChirpParameters",
    "sample_chirp_baseband",
    "sample_chirp_real",
    "instantaneous_frequency",
    "ChirpSlot",
    "FrameSchedule",
]

_EXPORTS = {
    "repro.waveform.parameters": ("ChirpParameters",),
    "repro.waveform.chirp": (
        "sample_chirp_baseband",
        "sample_chirp_real",
        "instantaneous_frequency",
    ),
    "repro.waveform.frame": ("ChirpSlot", "FrameSchedule"),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
