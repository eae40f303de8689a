"""Baseline systems the paper compares against (Table 1)."""

from repro import _exports

__all__ = [
    "SystemCapabilities",
    "MillimetroSystem",
    "MmTagSystem",
    "MilBackSystem",
    "BiScatterSystem",
]

_EXPORTS = {
    "repro.baselines.base": ("SystemCapabilities",),
    "repro.baselines.millimetro": ("MillimetroSystem",),
    "repro.baselines.mmtag": ("MmTagSystem",),
    "repro.baselines.milback": ("MilBackSystem",),
    "repro.baselines.biscatter_entry": ("BiScatterSystem",),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
