"""BiScatter reproduction: integrated two-way radar backscatter comm + sensing.

Reproduction of *Integrated Two-way Radar Backscatter Communication and
Sensing with Low-power IoT Tags* (Okubo et al., ACM SIGCOMM 2024).

Quick tour of the public API::

    from repro import (
        CsskAlphabet, DecoderDesign,      # CSSK modulation design
        DownlinkPacket, DownlinkEncoder,  # radar-side downlink
        BiScatterTag, TagDecoder,         # the tag
        UplinkModulator, UplinkDecoder,   # tag-to-radar backscatter
        TagLocalizer, IsacSession,        # localization + integrated protocol
        XBAND_9GHZ, TINYRAD_24GHZ,        # radar platforms
        default_office_scenario,          # one-call evaluation setup
    )

See ``examples/quickstart.py`` for a runnable end-to-end exchange.
"""

from repro import _exports

__version__ = "1.0.0"

__all__ = [
    "CsskAlphabet",
    "DecoderDesign",
    "DownlinkEncoder",
    "DownlinkPacket",
    "IsacSession",
    "MultiTagNetwork",
    "TagLocalizer",
    "UplinkDecoder",
    "bit_error_rate",
    "random_bits",
    "DownlinkBudget",
    "UplinkBudget",
    "FMCWRadar",
    "RadarConfig",
    "XBAND_9GHZ",
    "TINYRAD_24GHZ",
    "AUTOMOTIVE_77GHZ",
    "BiScatterTag",
    "TagDecoder",
    "TagPowerModel",
    "UplinkModulator",
    "Scenario",
    "default_office_scenario",
    "ExperimentStore",
    "__version__",
]

_EXPORTS = {
    "repro.core.cssk": ("CsskAlphabet", "DecoderDesign"),
    "repro.core.downlink": ("DownlinkEncoder",),
    "repro.core.packet": ("DownlinkPacket",),
    "repro.core.isac": ("IsacSession",),
    "repro.core.network": ("MultiTagNetwork",),
    "repro.core.localization": ("TagLocalizer",),
    "repro.core.uplink": ("UplinkDecoder",),
    "repro.core.ber": ("bit_error_rate", "random_bits"),
    "repro.channel.link_budget": ("DownlinkBudget", "UplinkBudget"),
    "repro.radar.fmcw": ("FMCWRadar",),
    "repro.radar.config": ("RadarConfig", "XBAND_9GHZ", "TINYRAD_24GHZ", "AUTOMOTIVE_77GHZ"),
    "repro.tag.architecture": ("BiScatterTag",),
    "repro.tag.decoder_dsp": ("TagDecoder",),
    "repro.tag.power": ("TagPowerModel",),
    "repro.tag.modulator": ("UplinkModulator",),
    "repro.sim.scenario": ("Scenario", "default_office_scenario"),
    "repro.store.cache": ("ExperimentStore",),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
