"""Behavioural models of the RF/analog components used by the BiScatter tag.

Each model captures the terms that matter for link budgets and signal
shapes — insertion loss, isolation, delay, responsivity, bandwidth,
quantization — rather than full electromagnetic behaviour.  The meander
delay line additionally exposes frequency-dependent S-parameters so the
Fig. 10/11 benches can be regenerated.
"""

from repro import _exports

__all__ = [
    "TwoPortComponent",
    "cascade_loss_db",
    "SplitterCombiner",
    "CoaxialDelayLine",
    "MeanderDelayLine",
    "EnvelopeDetector",
    "SpdtSwitch",
    "SwitchState",
    "ADC",
    "Antenna",
    "Amplifier",
    "VanAttaArray",
]

_EXPORTS = {
    "repro.components.base": ("TwoPortComponent", "cascade_loss_db"),
    "repro.components.splitter": ("SplitterCombiner",),
    "repro.components.delay_line": ("CoaxialDelayLine", "MeanderDelayLine"),
    "repro.components.envelope_detector": ("EnvelopeDetector",),
    "repro.components.rf_switch": ("SpdtSwitch", "SwitchState"),
    "repro.components.adc": ("ADC",),
    "repro.components.antenna": ("Antenna",),
    "repro.components.amplifier": ("Amplifier",),
    "repro.components.van_atta": ("VanAttaArray",),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
