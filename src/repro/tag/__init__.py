"""The BiScatter backscatter tag: frontends, decoder DSP, modulator, power."""

from repro import _exports

__all__ = [
    "AnalyticTagFrontend",
    "SampledTagFrontend",
    "TagCapture",
    "TagDecoder",
    "DecodedPacket",
    "PeriodEstimate",
    "UplinkModulator",
    "ModulationScheme",
    "TagPowerModel",
    "PowerMode",
    "McuModel",
    "analyze_strategies",
    "macs_per_chirp",
    "CalibrationResult",
    "estimate_delta_t",
    "measure_calibration_beats",
    "recalibrate_alphabet",
    "DecoderState",
    "StreamingTagDecoder",
    "BiScatterTag",
]

_EXPORTS = {
    "repro.tag.frontend": ("AnalyticTagFrontend", "SampledTagFrontend", "TagCapture"),
    "repro.tag.decoder_dsp": ("TagDecoder", "DecodedPacket", "PeriodEstimate"),
    "repro.tag.modulator": ("UplinkModulator", "ModulationScheme"),
    "repro.tag.power": ("TagPowerModel", "PowerMode"),
    "repro.tag.compute_cost": ("McuModel", "analyze_strategies", "macs_per_chirp"),
    "repro.tag.calibration": (
        "CalibrationResult",
        "estimate_delta_t",
        "measure_calibration_beats",
        "recalibrate_alphabet",
    ),
    "repro.tag.streaming": ("DecoderState", "StreamingTagDecoder"),
    "repro.tag.architecture": ("BiScatterTag",),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
