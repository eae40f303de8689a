"""BiScatter's core contribution: CSSK two-way communication + ISAC protocol."""

from repro import _exports

__all__ = [
    "CsskAlphabet",
    "DecoderDesign",
    "DownlinkPacket",
    "PacketFields",
    "DownlinkEncoder",
    "UplinkDecoder",
    "UplinkResult",
    "TagLocalizer",
    "LocalizationResult",
    "IsacSession",
    "IsacFrameResult",
    "bit_error_rate",
    "bits_from_symbols",
    "random_bits",
    "symbol_error_rate",
    "MultiTagNetwork",
    "TagEndpoint",
    "ArqController",
    "ArqStats",
    "CrcFrame",
    "crc8",
    "CssAlphabet",
    "CssDecoder",
    "build_css_frame",
    "CoexistenceSimulator",
    "interference_noise_rise_db",
    "FecConfig",
    "hamming74_decode",
    "hamming74_encode",
    "AlphaBetaTracker",
    "TagMeasurement",
    "TrackManager",
    "TrackState",
    "SequentialModeController",
    "SequentialSchedule",
    "SequentialExchangeResult",
]

_EXPORTS = {
    "repro.core.cssk": ("CsskAlphabet", "DecoderDesign"),
    "repro.core.packet": ("DownlinkPacket", "PacketFields"),
    "repro.core.downlink": ("DownlinkEncoder",),
    "repro.core.uplink": ("UplinkDecoder", "UplinkResult"),
    "repro.core.localization": ("TagLocalizer", "LocalizationResult"),
    "repro.core.isac": ("IsacSession", "IsacFrameResult"),
    "repro.core.ber": ("bit_error_rate", "bits_from_symbols", "random_bits", "symbol_error_rate"),
    "repro.core.network": ("MultiTagNetwork", "TagEndpoint"),
    "repro.core.arq": ("ArqController", "ArqStats", "CrcFrame", "crc8"),
    "repro.core.css": ("CssAlphabet", "CssDecoder", "build_css_frame"),
    "repro.core.coexistence": ("CoexistenceSimulator", "interference_noise_rise_db"),
    "repro.core.fec": ("FecConfig", "hamming74_decode", "hamming74_encode"),
    "repro.core.tracking": ("AlphaBetaTracker", "TagMeasurement", "TrackManager", "TrackState"),
    "repro.core.sequential": (
        "SequentialModeController",
        "SequentialSchedule",
        "SequentialExchangeResult",
    ),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
