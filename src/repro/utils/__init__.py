"""Shared utilities: unit conversions, DSP kernels, validation, RNG plumbing."""

from repro import _exports

__all__ = [
    "db_to_power_ratio",
    "db_to_voltage_ratio",
    "dbm_to_watts",
    "inches_to_meters",
    "power_ratio_to_db",
    "voltage_ratio_to_db",
    "watts_to_dbm",
    "wavelength",
    "SeedSpec",
    "resolve_rng",
    "seed_sequence_of",
    "spawn_streams",
    "ensure_finite",
    "ensure_in_range",
    "ensure_positive",
    "ensure_probability",
]

_EXPORTS = {
    "repro.utils.units": (
        "db_to_power_ratio",
        "db_to_voltage_ratio",
        "dbm_to_watts",
        "inches_to_meters",
        "power_ratio_to_db",
        "voltage_ratio_to_db",
        "watts_to_dbm",
        "wavelength",
    ),
    "repro.utils.rng": ("SeedSpec", "resolve_rng", "seed_sequence_of", "spawn_streams"),
    "repro.utils.validation": (
        "ensure_finite",
        "ensure_in_range",
        "ensure_positive",
        "ensure_probability",
    ),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
